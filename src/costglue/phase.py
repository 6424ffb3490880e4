"""Glued values: a concrete representation paired with its abstract model.

An ``AbstractionFn`` maps concrete representations into an abstract
carrier equipped with its own notion of equality.  A ``GluedValue``
carries a concrete value, a claimed abstract value, and the abstraction
function relating them; the coherence condition (the image of the
concrete half equals the claimed abstract half) is checked by a direct
``__init__`` before any field is stored, so no live object violates it.

An abstraction function may also carry an exact ``kernel``: a test of
whether two representations have equal images that need not build
either image.  ``abstract_equal`` uses it when present, so a checker can
compare two large representations in time proportional to where they
differ rather than to their size.

``EvaluationMode`` names what a suite run may observe; the harness's
``ReportBuilder`` turns it into the gates its checkers consult
(``check_beh``, ``check_cost``, ``check_concrete``).  Behavioral
observation is abstract observation with cost additionally out of view.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Generic, Optional, Tuple, TypeVar

C = TypeVar("C")
A = TypeVar("A")
P = TypeVar("P")


class EvaluationMode(Enum):
    """What a run observes: everything, abstract images, representations, or behavior alone."""

    FULL = "full"
    ABSTRACT = "abstract"
    CONCRETE = "concrete"
    BEHAVIORAL = "behavioral"


class InvariantBreach(Exception):
    """A checked invariant does not hold; ``costglue run`` reports it as a breach."""


class CoherenceError(InvariantBreach):
    """Raised when a claimed abstract value disagrees with the computed image."""

    def __init__(self, computed: Any, claimed: Any):
        self.computed = computed
        self.claimed = claimed
        super().__init__(
            f"abstraction image {computed!r} does not match claimed abstract value {claimed!r}"
        )


@dataclass(frozen=True)
class AbstractionFn(Generic[C, A]):
    """A map from concrete representations to an abstract carrier.

    ``abs_eq`` is the equality the abstract carrier is considered up to;
    it defaults to structural equality.  ``kernel``, when given, must be
    exact: ``kernel(x, y)`` is true exactly when
    ``abs_eq(apply(x), apply(y))`` is.
    """

    apply: Callable[[C], A]
    abs_eq: Callable[[A, A], bool] = operator.eq
    kernel: Optional[Callable[[C, C], bool]] = None


@dataclass(frozen=True, slots=True, init=False)
class GluedValue(Generic[C, A]):
    """A coherent (concrete, abstract) pair under a fixed abstraction function."""

    concrete: C
    abstract: A
    alpha: AbstractionFn[C, A]

    def __init__(self, concrete: C, abstract: A, alpha: AbstractionFn[C, A]) -> None:
        image = alpha.apply(concrete)
        if not alpha.abs_eq(image, abstract):
            raise CoherenceError(image, abstract)
        _set_concrete(self, concrete)
        _set_abstract(self, abstract)
        _set_alpha(self, alpha)


_set_concrete, _set_abstract, _set_alpha = (getattr(GluedValue, f).__set__ for f in GluedValue.__slots__)


def glue(concrete: C, abstract: A, alpha: AbstractionFn[C, A]) -> GluedValue[C, A]:
    """Pair a concrete value with its claimed abstract model.

    Fails fast with ``CoherenceError`` if ``alpha`` does not actually
    send ``concrete`` to ``abstract``.
    """
    return GluedValue(concrete, abstract, alpha)


def fracture(g: GluedValue[C, A]) -> Tuple[C, A, AbstractionFn[C, A]]:
    """Split a glued value back into its components.

    Inverse to ``glue``: ``glue(*fracture(g)) == g``, and fracturing the
    glue of a coherent triple returns the triple.
    """
    return (g.concrete, g.abstract, g.alpha)


def spec_member(x: Any, spec: Any, project_to_phase: Callable[[Any], P]) -> bool:
    """Does ``x`` inhabit the specification type determined by ``spec``?

    Membership is phase-projected: ``x`` belongs when its projection
    agrees with the projection of the specification witness.  Anything
    concrete that the projection forgets (representation choices, cost)
    cannot exclude a candidate.
    """
    return bool(project_to_phase(x) == project_to_phase(spec))


def abstract_equal(x: C, y: C, alpha: AbstractionFn[C, A]) -> bool:
    """Equality of concrete values up to the abstraction function.

    The kernel of ``alpha``: two representations are identified exactly
    when they have the same abstract image.  This is an equivalence
    relation for every ``alpha`` whose ``abs_eq`` is one.  Decided by
    ``alpha.kernel`` when given, otherwise by comparing the two images.
    """
    if alpha.kernel is not None:
        return bool(alpha.kernel(x, y))
    return bool(alpha.abs_eq(alpha.apply(x), alpha.apply(y)))
