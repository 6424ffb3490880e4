"""Cost-annotated computations.

A ``Charged[T]`` pairs a value with the cost spent computing it.  Costs
form an ordered additive monoid; composition of charged computations
accumulates cost additively, so a computation's total cost is the sum of
the charges along the path that produced its value.  ``erase`` moves a
charged value into the behavioral world where cost is invisible.

``MonoidOps`` is a monoid whose append is charged: the target interface
of the structural folds and of the harness's monoid laws.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Generic, TypeVar, Union

T = TypeVar("T")
U = TypeVar("U")

# Costs live in the non-negative 64-bit range.  Exceeding it is a bug in
# the instrumented algorithm, not something to wrap around silently.
MAX_COST = 2**63 - 1


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Cost:
    """A non-negative amount of abstract work, with checked addition.

    ``Cost(n)`` validates ``n`` before it stores it; a sum of two costs,
    already valid, only checks for overflow.  Costs compare only with
    costs: ``>`` and ``>=`` are the reflections of ``<`` and ``<=``.
    """

    value: int

    def __init__(self, value: int) -> None:
        if type(value) is not int and (type(value) is bool or not isinstance(value, int)):
            raise TypeError(f"cost must be an integer, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"cost must be non-negative, got {value}")
        if value > MAX_COST:
            raise OverflowError(f"cost {value} exceeds MAX_COST")
        _set_cost_value(self, value)

    __post_init__ = __init__  # perfbench counts constructions by this code object

    def __add__(self, other: "Cost") -> "Cost":
        if type(other) is not Cost:
            return NotImplemented
        total = self.value + other.value
        if total > MAX_COST:
            raise OverflowError(f"cost sum {total} exceeds MAX_COST")
        out = _new(Cost)
        _set_cost_value(out, total)
        return out

    def __eq__(self, other: object) -> bool:
        return self.value == other.value if type(other) is Cost else NotImplemented

    def __lt__(self, other: "Cost") -> bool:
        return self.value < other.value if type(other) is Cost else NotImplemented

    def __le__(self, other: "Cost") -> bool:
        return self.value <= other.value if type(other) is Cost else NotImplemented

    def __hash__(self) -> int:
        return hash((self.value,))

    def __repr__(self) -> str:
        return f"Cost({self.value})"


_new = object.__new__
_set_cost_value = Cost.value.__set__

ZERO = Cost(0)
ONE = Cost(1)

CostLike = Union[Cost, int]


def as_cost(c: CostLike) -> Cost:
    """Coerce a plain integer into a ``Cost``; ``Cost`` passes through."""
    return c if isinstance(c, Cost) else Cost(c)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Charged(Generic[T]):
    """A value together with the cost accumulated while producing it.

    The cost may be given as a plain integer, which ``as_cost`` validates
    into a ``Cost`` before it is stored.  Equality and hash are written by
    hand and match the generated rule, ``(cost, value)`` compared as
    tuples (``x is y or x == y`` per field) with a charged value of the
    same class, without building either tuple.
    """

    cost: Cost
    value: T

    def __init__(self, cost: CostLike, value: T) -> None:
        _set_charged_cost(self, cost if type(cost) is Cost else as_cost(cost))
        _set_charged_value(self, value)

    __post_init__ = __init__  # perfbench counts constructions by this code object

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.cost, other.cost
        if not (a is b or a == b):
            return False
        a, b = self.value, other.value
        return a is b or bool(a == b)

    def __hash__(self) -> int:
        return hash((self.cost, self.value))


_set_charged_cost = Charged.cost.__set__
_set_charged_value = Charged.value.__set__


def ret(value: T) -> Charged[T]:
    """Embed a value as a computation that costs nothing."""
    return Charged(ZERO, value)


def charge(c: CostLike, m: Charged[T]) -> Charged[T]:
    """Add ``c`` units of cost to ``m`` without touching its value.

    Charging zero is the identity, and consecutive charges fuse:
    ``charge(c1, charge(c2, m)) == charge(c1 + c2, m)``.
    """
    return Charged(as_cost(c) + m.cost, m.value)


def bind(m: Charged[T], k: Callable[[T], Charged[U]]) -> Charged[U]:
    """Sequence ``k`` after ``m``, accumulating both costs."""
    out = k(m.value)
    return Charged(m.cost + out.cost, out.value)


def erase(m: Charged[T]) -> T:
    """Forget the cost.  The behavioral view of a charged computation."""
    return m.value


def leq(a: Charged[T], b: Charged[T], eq: Callable[[T, T], bool] = operator.eq) -> bool:
    """Refinement order on charged values.

    ``a`` refines ``b`` when ``a`` costs no more than ``b`` and both have
    equal behavior under ``eq``.  After ``erase`` the cost half is
    trivial, so the order collapses to plain behavioral equality.
    """
    return a.cost.value <= b.cost.value and bool(eq(a.value, b.value))


@dataclass(frozen=True)
class MonoidOps:
    """A carrier's monoid interface: empty, charged append, singleton."""

    empty: Any
    append: Callable[[Any, Any], Charged[Any]]
    singleton: Callable[[Any], Any]
