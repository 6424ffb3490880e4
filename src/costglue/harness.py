"""Differential property harness for cost-and-behavior verification.

The checkers here compare implementations against abstract models
through abstraction functions: commuting squares (exact on cost once a
potential amortizes the concrete cost), noninterference between
interchangeable implementations, monoid and homomorphism laws stated on
abstraction images, and the universal property of structural folds.
A checker that reads a monoid takes it as one ``cost.MonoidOps``.

One ``ReportBuilder`` is the sweep object of a suite run: it holds the
configuration, derives the RNG streams (``rb.rng(stream)``) and draws
from them lazily (``rb.draws``), gates what the mode may observe
(``rb.check_beh``, ``rb.check_cost``, ``rb.check_concrete``), and every
checker records straight into it, so the ``Report`` it builds is
reproducible byte for byte from its configuration.  Every ``check_*``
judges the values its caller passes, in order.  A gated law records
nothing: every checker returns before reading a value when
``rb.check_beh`` is off, so ``Report.cases`` counts judged cases only.

Every case is recorded through ``ReportBuilder.case(ok, law, detail)``.
``detail`` is a zero-argument callable returning the ``(input, expected,
actual)`` triple of a failure record as raw values; it is called only
when ``ok`` is false, so a passing case costs no rendering at all.
``ReportBuilder.equal`` is the same for a law that compares two values
already computed, and ``ReportBuilder.bound`` for a cost within its
budget, judged only when ``rb.check_cost``; it also records the cost's
row, so a bound and its row are stated once.  ``ReportBuilder.fail`` is
the one renderer: it renders each field once, so no record is quoted
twice.  A square's record shows ``(cost, image)`` pairs, the concrete
cost amortized, when the mode judges cost and the two images alone when
it does not.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from .cost import Charged, MonoidOps
from .phase import AbstractionFn, EvaluationMode, abstract_equal

SIZE_GEOMETRIC_MEAN = 32
_LOG_GEOMETRIC_STAY = math.log(1.0 - 1.0 / SIZE_GEOMETRIC_MEAN)  # log(1 - p), p the stopping chance

# Render limit for values embedded in failure records.
_RENDER_LIMIT = 200


def derive_rng(seed: int, suite: str) -> random.Random:
    """A private RNG stream per (global seed, suite name).

    Streams for distinct suite names are independent, so suites can run
    in any order, or in parallel, without changing each other's samples.
    """
    return random.Random(f"{seed}:{suite}")


def geometric_size(rng: random.Random, cap: int) -> int:
    """Sample a size with a geometric profile (many small, few large)."""
    k = int(math.log1p(-rng.random()) / _LOG_GEOMETRIC_STAY)
    return min(k, cap)


def randbelow(rng: random.Random, n: int) -> int:
    """``rng.randrange(n)``: the same draw, in one frame; ``randrange(a, b)`` is ``a + randbelow(rng, b - a)``."""
    if n < 1:
        raise ValueError("empty range for randrange()")
    getrandbits, k = rng.getrandbits, n.bit_length()
    r = getrandbits(k)
    while r >= n:  # ``randrange``'s rejection, so the stream is the same
        r = getrandbits(k)
    return r


def random_items(rng: random.Random, bound: int, n: int) -> Tuple[int, ...]:
    """``tuple(rng.randrange(bound) for _ in range(n))``: the same draws, in one frame."""
    if bound < 1:
        raise ValueError("empty range for randrange()")
    getrandbits, k, out = rng.getrandbits, bound.bit_length(), []
    for _ in range(n):
        r = getrandbits(k)
        while r >= bound:  # ``randrange``'s rejection, so the stream is the same
            r = getrandbits(k)
        out.append(r)
    return tuple(out)


def render(value: Any) -> str:
    """Deterministic display form for failure records."""
    text = repr(value)
    if len(text) > _RENDER_LIMIT:
        text = text[:_RENDER_LIMIT] + "..."
    return text


@dataclass(frozen=True)
class Failure:
    """One law violation: what went in, what was expected, what came out."""

    input: str
    expected: str
    actual: str
    law: str


@dataclass(frozen=True)
class Report:
    """Outcome of one suite run; reproducible from its configuration."""

    suite: str
    seed: int
    iterations: int
    mode: str
    cases: int
    failures: Tuple[Failure, ...]
    cost_table: Tuple[Tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "iterations": self.iterations,
            "mode": self.mode,
            "cases": self.cases,
            "failures": [asdict(f) for f in self.failures],
            "cost_table": [
                {"size": size, "impl_cost": impl, "spec_cost": spec}
                for size, impl, spec in self.cost_table
            ],
        }


class ReportBuilder:
    """One sweep: its configuration, RNG streams, mode gates and outcomes.

    The mode narrows what the sweep may observe, and so what it records:

    * ``FULL``       judges abstract agreement, cost and the concrete
                     audits, and records cost tables.
    * ``ABSTRACT``   the same as FULL but the concrete audits, so
                     ``rbtree/invariants`` drops ``validate`` (222 cases
                     against 282 at seed 0, 60 iterations).
    * ``BEHAVIORAL`` judges abstract agreement only.  Cost is out of
                     view: no law reads it and ``cost_row`` records nothing.
    * ``CONCRETE``   runs implementations, judges the concrete audits and
                     records cost tables; it judges no abstract agreement
                     and no cost.

    ``check_beh``, ``check_cost`` and ``check_concrete`` (audits of
    representations, such as ``validate``) are those gates; ``check_cost``
    implies ``check_beh``.  ``case``, ``equal`` and ``fail`` are the only
    writers of ``cases`` (``bound`` records through ``case``), and a suite
    calls them only for a law its mode judges.  Cost rows aggregate per
    size: the table keeps the maximum observed implementation cost and
    bound for each size, sorted by size, so tables stay small no matter
    how long the sweep runs.
    """

    def __init__(self, suite: str, seed: int, iterations: int,
                 mode: EvaluationMode = EvaluationMode.FULL):
        self.suite = suite
        self.seed = seed
        self.iterations = iterations
        self.mode = mode
        self.check_beh = mode is not EvaluationMode.CONCRETE
        self.check_cost = mode in (EvaluationMode.FULL, EvaluationMode.ABSTRACT)
        self.check_concrete = mode in (EvaluationMode.FULL, EvaluationMode.CONCRETE)
        self.cases = 0
        self.failures: List[Failure] = []
        self._costs: Dict[int, List[int]] = {}

    def rng(self, stream: str = "") -> random.Random:
        """The RNG stream named by the suite plus ``stream``."""
        return derive_rng(self.seed, self.suite + stream)

    def draws(self, stream: str, draw: Callable[[random.Random], Any], n: int) -> Iterator[Any]:
        """``n`` values ``draw(rng)`` from ``rng = self.rng(stream)``, each drawn only when it is read."""
        rng = self.rng(stream)
        return (draw(rng) for _ in range(n))

    def case(self, ok: bool, law: str, detail: Callable[[], Tuple[Any, Any, Any]]) -> bool:
        """Count one case; on failure, record ``detail()``'s (input, expected, actual)."""
        if ok:
            self.cases += 1
        else:
            self.fail(law, *detail())
        return ok

    def equal(self, law: str, input_: Any, expected: Any, actual: Any,
              eq: Callable[[Any, Any], bool] = operator.eq) -> bool:
        """Count one case when ``eq(actual, expected)``; else record the failure."""
        if eq(actual, expected):
            self.cases += 1
            return True
        self.fail(law, input_, expected, actual)
        return False

    def bound(self, law: str, input_: Any, cost: int, budget: int, size: int) -> None:
        """When the mode judges cost, one case: ``cost <= budget``; in every mode, ``cost_row(size, cost, budget)``."""
        if self.check_cost:
            self.case(cost <= budget, law, lambda: (input_, f"<= {budget}", cost))
        self.cost_row(size, cost, budget)

    def fail(self, law: str, input_: Any, expected: Any, actual: Any) -> None:
        """Count one case and record it failed: the one place a record's values are rendered."""
        self.cases += 1
        self.failures.append(Failure(render(input_), render(expected), render(actual), law))

    def cost_row(self, size: int, impl_cost: int, spec_cost: int) -> None:
        if self.mode is EvaluationMode.BEHAVIORAL:  # cost is out of view
            return
        row = self._costs.get(size)
        if row is None:
            row = self._costs[size] = [0, 0]
        if impl_cost > row[0]:
            row[0] = impl_cost
        if spec_cost > row[1]:
            row[1] = spec_cost

    def build(self) -> Report:
        table = tuple(
            (size, impl, spec)
            for size, (impl, spec) in sorted(self._costs.items())
        )
        return Report(
            suite=self.suite,
            seed=self.seed,
            iterations=self.iterations,
            mode=self.mode.value,
            cases=self.cases,
            failures=tuple(self.failures),
            cost_table=table,
        )


# -- commuting squares -----------------------------------------------------

@dataclass(frozen=True)
class SquareSpec:
    """One operation stated twice, on representations and on models; ``law`` names its cases.

    ``f_top`` acts on concrete inputs, ``f_abs`` on their images under
    ``alpha_in``; outputs are compared under ``alpha_out``.  The concrete
    cost plus ``potential(x, out)``, the change Phi(out) - Phi(x) from input
    ``x`` to concrete output ``out``, is the amortized cost, and it must
    equal the abstract cost.  The default potential is zero: a strict square.
    """

    law: str
    f_top: Callable[[Any], Charged[Any]]
    f_abs: Callable[[Any], Charged[Any]]
    alpha_in: AbstractionFn
    alpha_out: AbstractionFn
    potential: Callable[[Any, Any], int] = lambda x, out: 0


def commute(rb: ReportBuilder, square: SquareSpec, x: Any, x_abs: Any) -> Tuple[Charged[Any], Charged[Any], bool]:
    """Check that ``square`` commutes at ``x``, whose image is ``x_abs``: one case.

    Callers call it only when ``rb.check_beh``.  Behavior must agree under
    ``alpha_out``, and the amortized cost the abstract cost when
    ``rb.check_cost``.  ``x`` may be any representative of ``x_abs``, so
    commuting at a second one judges the quotient.  A failure records the
    abstract result and the mapped concrete one as ``(cost, image)`` pairs
    when ``rb.check_cost`` (an amortized cost can be negative, which no
    ``Cost`` holds) and as bare images otherwise.  Returns both results
    and whether the case passed, for a trace step.
    """
    top = square.f_top(x)
    bottom = square.f_abs(x_abs)
    mapped = square.alpha_out.apply(top.value)
    ok = square.alpha_out.abs_eq(mapped, bottom.value)
    if rb.check_cost:
        amortized = top.cost.value + square.potential(x, top.value)
        ok = ok and amortized == bottom.cost.value
    ok = rb.case(bool(ok), square.law, lambda: (
        (x, (bottom.cost.value, bottom.value), (amortized, mapped)) if rb.check_cost else (x, bottom.value, mapped)))
    return top, bottom, ok


def check_square(rb: ReportBuilder, square: SquareSpec, values: Iterable[Any]) -> None:
    """Check that the square commutes at each of ``values`` (``commute``), each imaged once.

    Outputs are behavior, so no value is read unless ``rb.check_beh``.
    """
    if not rb.check_beh:
        return
    for x in values:
        commute(rb, square, x, square.alpha_in.apply(x))


# -- noninterference -------------------------------------------------------

def check_noninterference(
    rb: ReportBuilder,
    programs: Sequence[Tuple[str, Callable[[Any], Any]]],
    values: Iterable[Any],
) -> None:
    """Named one-argument programs must agree on each of ``values``.

    A client run over each implementation is one program; a reference
    (oracle) program is one more member.  Every pair is compared with
    ``==`` on every value, so agreement is symmetric and transitive
    across the whole family by construction.  Outputs are behavior, so
    no value is read unless ``rb.check_beh``.
    """
    if len(programs) < 2:
        raise ValueError("noninterference needs at least two programs")
    if not rb.check_beh:
        return
    for x in values:
        outs = [(name, program(x)) for name, program in programs]
        for i, (ni, oi) in enumerate(outs):
            for nj, oj in outs[i + 1:]:
                rb.equal(f"noninterference/{ni}~{nj}", x, oi, oj)


# -- abstract algebraic laws ----------------------------------------------

def fold_elements(ops: MonoidOps, elems: Sequence[Any]) -> Any:
    """The canonical list fold: append singletons left to right."""
    acc = ops.empty
    for e in elems:
        acc = ops.append(acc, ops.singleton(e)).value
    return acc


def check_abstract_monoid(
    rb: ReportBuilder,
    ops: MonoidOps,
    alpha: AbstractionFn,
    values: Iterable[Tuple[Any, Any, Any]],
) -> None:
    """Monoid laws up to the abstraction function, on each ``(a, b, c)`` of ``values``.

    Associativity and the unit laws (of ``a``) are stated up to ``alpha``
    (``abstract_equal``), never on representations, so balancing choices
    and cached fields cannot fail the laws.  With ``alpha.kernel`` no
    image is built unless a law fails, when the detail carries both.
    """
    if not rb.check_beh:
        return
    image, empty, append = alpha.apply, ops.empty, ops.append
    for a, b, c in values:
        left = append(append(a, b).value, c).value
        right = append(a, append(b, c).value).value
        rb.case(
            abstract_equal(left, right, alpha),
            "monoid/assoc",
            lambda: ((a, b, c), image(right), image(left)),
        )
        for law, unit in (("monoid/left-unit", append(empty, a).value),
                          ("monoid/right-unit", append(a, empty).value)):
            rb.case(
                abstract_equal(unit, a, alpha),
                law,
                lambda: (a, image(a), image(unit)),
            )


def check_abstract_hom(
    rb: ReportBuilder,
    f: Callable[[Any], Charged[Any]],
    src_ops: MonoidOps,
    dst_ops: MonoidOps,
    alphas: Tuple[AbstractionFn, AbstractionFn],
    values: Iterable[Tuple[Any, Any, Any]],
) -> None:
    """Is ``f`` a monoid homomorphism up to abstraction?

    Checks preservation of empty once, then of append and singleton on
    each (source value, source value, element) triple of ``values``, on
    destination images; ``alphas`` is (source abstraction, destination
    abstraction).
    """
    if not rb.check_beh:
        return
    alpha_src, alpha_dst = alphas
    image = alpha_dst.apply
    eq = alpha_dst.abs_eq

    rb.equal("hom/empty", alpha_src.apply(src_ops.empty), image(dst_ops.empty), image(f(src_ops.empty).value), eq)
    for x1, x2, e in values:
        via_src = f(src_ops.append(x1, x2).value).value
        via_dst = dst_ops.append(f(x1).value, f(x2).value).value
        rb.case(
            eq(image(via_src), image(via_dst)),
            "hom/append",
            lambda: ((alpha_src.apply(x1), alpha_src.apply(x2)), image(via_dst), image(via_src)),
        )
        rb.equal("hom/singleton", e, image(dst_ops.singleton(e)), image(f(src_ops.singleton(e)).value), eq)


def check_universal_property(
    rb: ReportBuilder,
    fold: Callable[[Any, MonoidOps], Charged[Any]],
    alpha: AbstractionFn,
    target: str,
    ops: MonoidOps,
    values: Iterable[Any],
    *,
    extra_homs: Sequence[Tuple[str, Callable[[Any], Charged[Any]]]] = (),
) -> None:
    """The structural fold is the canonical homomorphism to the target.

    On each carrier value in ``values``, judged once and in order,
    ``fold`` into the monoid ``ops`` (named ``target`` in the laws) must
    agree with the list fold over the value's elements, its image under
    ``alpha``; any additional homomorphisms supplied must agree with it
    too (uniqueness, at the scale of the sweep).  When ``rb.check_cost``,
    the fold's reported cost must also equal the sum of the costs the
    target's ``append`` returned to it, metered by wrapping that ``append``.
    """
    if not rb.check_beh:
        return
    metered = 0

    def metered_append(x: Any, y: Any) -> Charged[Any]:
        nonlocal metered
        out = ops.append(x, y)
        metered += out.cost.value
        return out

    metered_ops = MonoidOps(ops.empty, metered_append, ops.singleton)
    for x in values:
        image = alpha.apply(x)
        metered = 0
        out = fold(x, metered_ops)
        reduced = out.value
        rb.equal(f"universal/{target}/agrees-with-fold", image, fold_elements(ops, image), reduced)
        if rb.check_cost:
            rb.equal(f"universal/{target}/cost-metered", image, metered, out.cost.value)
        for hom_name, hom in extra_homs:
            rb.equal(f"universal/{target}/unique/{hom_name}", image, reduced, hom(x).value)
