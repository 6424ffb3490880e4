"""Sealed computations: an implementation packaged with a cost specification.

A ``Sealed[T]`` holds two charged computations over the same value type:
the implementation actually run, and the specification it is sold as.
Construction enforces the contract that makes the package meaningful:
the one ``__init__`` of ``Sealed`` checks, calling ``beh_eq`` once and
before it stores any field, that the implementation costs no more than
the specification and that both agree behaviorally.  Abstract observers
unseal to the specification, concrete observers to the implementation,
so the bound is what the outside world prices against while the cheaper
run is what actually happens.

Sealing is compatible with the cost effect: sealed values form a monad
(``seal_return`` / ``seal_join``), charging commutes with sealing, and a
seal can be relaxed to any weaker specification (``reseal``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from .cost import Charged, CostLike, bind, charge, leq, ret
from .phase import InvariantBreach

T = TypeVar("T")


class BoundViolation(InvariantBreach):
    """A claimed specification does not dominate its implementation.

    Distinguishes a cost overrun (implementation dearer than the spec)
    from a behavioral mismatch (the two computations disagree on their
    values).  Both can hold at once.
    """

    def __init__(self, impl_cost, spec_cost, behavior_mismatch: bool):
        self.impl_cost = impl_cost
        self.spec_cost = spec_cost
        self.behavior_mismatch = behavior_mismatch
        self.cost_overrun = impl_cost > spec_cost
        reasons = []
        if self.cost_overrun:
            reasons.append(f"implementation cost {impl_cost!r} exceeds bound {spec_cost!r}")
        if behavior_mismatch:
            reasons.append("implementation and specification values differ")
        super().__init__("; ".join(reasons) or "invalid seal")


@dataclass(frozen=True, slots=True, init=False)
class Sealed(Generic[T]):
    """An implementation/specification pair validated at construction.

    Seals compare by their two computations; ``beh_eq`` is how they were
    checked, not part of what they are.
    """

    impl: Charged[T]
    spec: Charged[T]
    beh_eq: Callable[[T, T], bool] = field(compare=False)

    def __init__(
        self,
        impl: Charged[T],
        spec: Charged[T],
        beh_eq: Callable[[T, T], bool] = operator.eq,
    ) -> None:
        cost_ok = impl.cost.value <= spec.cost.value
        beh_ok = bool(beh_eq(impl.value, spec.value))
        if not (cost_ok and beh_ok):
            raise BoundViolation(impl.cost, spec.cost, not beh_ok)
        _set_impl(self, impl)
        _set_spec(self, spec)
        _set_beh_eq(self, beh_eq)

    __post_init__ = __init__  # perfbench counts constructions by this code object


_set_impl = Sealed.impl.__set__
_set_spec = Sealed.spec.__set__
_set_beh_eq = Sealed.beh_eq.__set__


def seal(
    impl: Charged[T],
    spec: Charged[T],
    beh_eq: Callable[[T, T], bool] = operator.eq,
) -> Sealed[T]:
    """Package an implementation under a specification bound.

    Raises ``BoundViolation`` unless ``impl.cost <= spec.cost`` and the
    two values agree under ``beh_eq``.  Every ``Sealed`` in existence has
    passed this check; there is no unchecked constructor.
    """
    return Sealed(impl, spec, beh_eq)


def seal_return(value: T) -> Sealed[T]:
    """The unit: a free value is its own specification."""
    return Sealed(ret(value), ret(value))


def sealed_beh_eq(
    inner_eq: Callable[[T, T], bool] = operator.eq,
) -> Callable[["Sealed[T]", "Sealed[T]"], bool]:
    """Behavioral equality on sealed values themselves.

    Two seals agree behaviorally when they compute the same value; their
    bounds may differ.  This is the equality to seal nested computations
    under, since an implementation path and a specification path
    legitimately carry different inner bounds.
    """

    def eq(a: "Sealed[T]", b: "Sealed[T]") -> bool:
        return bool(inner_eq(a.impl.value, b.impl.value))

    return eq


def seal_join(s: "Sealed[Sealed[T]]") -> Sealed[T]:
    """Flatten a sealed seal.

    The implementation follows the implementation path (outer impl cost
    plus the inner seal's impl), the specification follows the
    specification path, and costs sum along each.  For honestly
    constructed nestings validity follows from transitivity of the cost
    order; the constructor still checks, so a forged inner value cannot
    slip through.
    """
    inner_impl: Sealed[T] = s.impl.value
    impl_path = bind(s.impl, lambda inner: inner.impl)
    spec_path = bind(s.spec, lambda inner: inner.spec)
    return Sealed(impl_path, spec_path, inner_impl.beh_eq)


def unseal_abstract(s: Sealed[T]) -> Charged[T]:
    """What an abstract observer sees: the specification."""
    return s.spec


def unseal_concrete(s: Sealed[T]) -> Charged[T]:
    """What a concrete observer sees: the implementation actually run."""
    return s.impl


def reseal(s: Sealed[T], spec2: Charged[T]) -> Sealed[T]:
    """Replace the specification with a weaker one.

    Valid exactly when the current specification refines ``spec2``; the
    resulting seal forgets the intermediate bound, packaging the original
    implementation directly under the new one.
    """
    if not leq(s.spec, spec2, s.beh_eq):
        raise BoundViolation(s.spec.cost, spec2.cost, not s.beh_eq(s.spec.value, spec2.value))
    return Sealed(s.impl, spec2, s.beh_eq)


def seal_charge(c: CostLike, s: Sealed[T]) -> Sealed[T]:
    """Charge both sides of a seal; sealing commutes with charging."""
    return Sealed(charge(c, s.impl), charge(c, s.spec), s.beh_eq)
