"""Differential property harness for cost-and-behavior verification.

The checkers here compare implementations against abstract models
through abstraction functions: commuting squares (strict on cost or
lax), noninterference between interchangeable implementations, monoid
and homomorphism laws stated on abstraction images, and the universal
property of structural folds.

One ``ReportBuilder`` is the sweep object of a suite run: it holds the
configuration, derives the RNG streams (``rb.rng(stream)``), gates what
the mode may observe (``rb.check_beh``, ``rb.check_cost``,
``rb.check_concrete``), and every checker records straight into it, so
the ``Report`` it builds is reproducible byte for byte from its
configuration.  A gated law records nothing: the monoid, homomorphism,
universal-property and noninterference checkers return before sampling
when ``rb.check_beh`` is off, and ``commute`` then records no case, so
``Report.cases`` counts judged cases only.

Every case is recorded through ``ReportBuilder.case(ok, law, detail)``.
``detail`` is a zero-argument callable returning the ``(input, expected,
actual)`` triple of a failure record; it is called, and its values
rendered, only when ``ok`` is false, so a passing case costs no
rendering at all.  ``ReportBuilder.equal`` is the same for a law that
compares two values already computed.
"""

from __future__ import annotations

import math
import operator
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Sequence, Tuple

from .cost import Charged
from .phase import AbstractionFn, EvaluationMode, abstract_equal

SIZE_GEOMETRIC_MEAN = 32

# Render limit for values embedded in failure records.
_RENDER_LIMIT = 200


def derive_rng(seed: int, suite: str) -> random.Random:
    """A private RNG stream per (global seed, suite name).

    Streams for distinct suite names are independent, so suites can run
    in any order, or in parallel, without changing each other's samples.
    """
    return random.Random(f"{seed}:{suite}")


def geometric_size(rng: random.Random, cap: int = 256) -> int:
    """Sample a size with a geometric profile (many small, few large)."""
    u = rng.random()
    p = 1.0 / SIZE_GEOMETRIC_MEAN
    k = int(math.log1p(-u) / math.log(1.0 - p))
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

    def to_dict(self) -> Dict[str, str]:
        return {
            "input": self.input,
            "expected": self.expected,
            "actual": self.actual,
            "law": self.law,
        }


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
            "failures": [f.to_dict() for f in self.failures],
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
    writers of ``cases``, and a suite calls them only for a law its mode
    judges.  Cost rows aggregate per size: the table keeps the maximum
    observed implementation cost and bound for each size, sorted by size,
    so tables stay small no matter how long the sweep runs.
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

    def case(self, ok: bool, law: str, detail: Callable[[], Tuple[Any, Any, Any]]) -> bool:
        """Count one case; on failure, record ``detail()``'s (input, expected, actual)."""
        if ok:
            self.cases += 1
        else:
            self.fail(law, *detail())
        return ok

    def equal(self, law: str, input_: Any, expected: Any, actual: Any,
              eq: Callable[[Any, Any], bool] = operator.eq) -> bool:
        """Count one case when ``eq(actual, expected)``; else record both rendered."""
        if eq(actual, expected):
            self.cases += 1
            return True
        self.fail(law, input_, render(expected), render(actual))
        return False

    def fail(self, law: str, input_: Any, expected: Any, actual: Any) -> None:
        self.cases += 1
        self.failures.append(Failure(render(input_), render(expected), render(actual), law))

    def cost_row(self, size: int, impl_cost: int, spec_cost: int) -> None:
        if self.mode is EvaluationMode.BEHAVIORAL:  # cost is out of view
            return
        row = self._costs.setdefault(size, [0, 0])
        row[0] = max(row[0], impl_cost)
        row[1] = max(row[1], spec_cost)

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
    """One operation stated twice: on representations and on models.

    ``f_top`` acts on concrete inputs, ``f_abs`` on their images under
    ``alpha_in``; outputs are compared under ``alpha_out``.  A strict
    square demands equal costs on both paths; a lax square only that the
    concrete path costs no more than the abstract one.
    """

    name: str
    f_top: Callable[[Any], Charged[Any]]
    f_abs: Callable[[Any], Charged[Any]]
    alpha_in: AbstractionFn
    alpha_out: AbstractionFn
    lax: bool = False
    law: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "law", f"square/{self.name}/{'lax' if self.lax else 'strict'}")


def commute(rb: ReportBuilder, square: SquareSpec, x: Any) -> Tuple[Charged[Any], Charged[Any]]:
    """Check that ``square`` commutes at ``x``: one case, both paths returned.

    Behavior must agree under ``alpha_out`` when ``rb.check_beh``; costs
    must be equal (strict) or bounded (lax) when ``rb.check_cost``; with
    neither gate on no case is recorded.  Returns the concrete and the
    abstract result, so a caller can step a trace or record a cost row.
    """
    top = square.f_top(x)
    bottom = square.f_abs(square.alpha_in.apply(x))
    if not rb.check_beh:  # and so not check_cost either
        return top, bottom
    mapped = square.alpha_out.apply(top.value)
    ok = square.alpha_out.abs_eq(mapped, bottom.value)
    if rb.check_cost:
        ok = ok and (top.cost.value <= bottom.cost.value if square.lax else top.cost.value == bottom.cost.value)
    rb.case(
        bool(ok),
        square.law,
        lambda: (
            x,
            f"image {render(bottom.value)} at cost {'<=' if square.lax else '=='} {bottom.cost.value}",
            f"image {render(mapped)} at cost {top.cost.value}",
        ),
    )
    return top, bottom


def check_square(
    rb: ReportBuilder,
    stream: str,
    square: SquareSpec,
    inputs: Callable[[random.Random], Any],
    n: int,
    *,
    size_of: Callable[[Any], int],
) -> None:
    """Sample inputs and check that the square commutes at each (``commute``).

    Each sampled input contributes one case and one cost row keyed by
    ``size_of``.
    """
    rng = rb.rng(stream)
    for _ in range(n):
        x = inputs(rng)
        top, bottom = commute(rb, square, x)
        rb.cost_row(size_of(x), top.cost.value, bottom.cost.value)


# -- noninterference -------------------------------------------------------

def check_noninterference(
    rb: ReportBuilder,
    stream: str,
    programs: Sequence[Tuple[str, Callable[[Any], Any]]],
    inputs: Callable[[random.Random], Any],
    n: int,
) -> None:
    """Named one-argument programs must agree on every sampled input.

    A client run over each implementation is one program; a reference
    (oracle) program is one more member.  Every pair is compared with
    ``==`` on every input, so agreement is symmetric and transitive
    across the whole family by construction.  Outputs are behavior, so
    nothing is sampled unless ``rb.check_beh``.
    """
    if len(programs) < 2:
        raise ValueError("noninterference needs at least two programs")
    if not rb.check_beh:
        return
    rng = rb.rng(stream)
    for _ in range(n):
        x = inputs(rng)
        outs = [(name, program(x)) for name, program in programs]
        for i, (ni, oi) in enumerate(outs):
            for nj, oj in outs[i + 1:]:
                rb.case(oi == oj, f"noninterference/{ni}~{nj}", lambda: (x, render(oi), render(oj)))


# -- abstract algebraic laws ----------------------------------------------

@dataclass(frozen=True)
class MonoidOps:
    """A carrier's monoid interface: empty, charged append, singleton."""

    empty: Any
    append: Callable[[Any, Any], Charged[Any]]
    singleton: Callable[[Any], Any]


@dataclass(frozen=True)
class TargetMonoid:
    """A fold target: named monoid operations; results are judged by ``==``."""

    name: str
    ops: MonoidOps


def fold_elements(ops: MonoidOps, elems: Sequence[Any]) -> Any:
    """The canonical list fold: append singletons left to right."""
    acc = ops.empty
    for e in elems:
        acc = ops.append(acc, ops.singleton(e)).value
    return acc


def check_abstract_monoid(
    rb: ReportBuilder,
    stream: str,
    empty: Any,
    append: Callable[[Any, Any], Charged[Any]],
    alpha: AbstractionFn,
    inputs: Callable[[random.Random], Any],
    n: int,
) -> None:
    """Monoid laws up to the abstraction function.

    Associativity and the unit laws are stated up to ``alpha``
    (``abstract_equal``), never on representations, so balancing choices
    and cached fields cannot fail the laws.  With ``alpha.kernel`` no
    image is built unless a law fails, when both are rendered.
    """
    if not rb.check_beh:
        return
    rng = rb.rng(stream)
    image = alpha.apply
    for _ in range(n):
        a, b, c = inputs(rng), inputs(rng), inputs(rng)
        left = append(append(a, b).value, c).value
        right = append(a, append(b, c).value).value
        rb.case(
            abstract_equal(left, right, alpha),
            "monoid/assoc",
            lambda: ((a, b, c), render(image(right)), render(image(left))),
        )
        for law, unit in (("monoid/left-unit", append(empty, a).value),
                          ("monoid/right-unit", append(a, empty).value)):
            rb.case(
                abstract_equal(unit, a, alpha),
                law,
                lambda: (a, render(image(a)), render(image(unit))),
            )


def check_abstract_hom(
    rb: ReportBuilder,
    stream: str,
    f: Callable[[Any], Charged[Any]],
    src_ops: MonoidOps,
    dst_ops: MonoidOps,
    alphas: Tuple[AbstractionFn, AbstractionFn],
    inputs: Callable[[random.Random], Tuple[Any, Any, Any]],
    n: int,
) -> None:
    """Is ``f`` a monoid homomorphism up to abstraction?

    Checks preservation of empty, append, and singleton on destination
    images.  ``inputs`` yields (source value, source value, element)
    triples; ``alphas`` is (source abstraction, destination abstraction).
    """
    if not rb.check_beh:
        return
    alpha_src, alpha_dst = alphas
    rng = rb.rng(stream)
    image = alpha_dst.apply
    eq = alpha_dst.abs_eq

    f_empty = f(src_ops.empty).value
    rb.case(
        eq(image(f_empty), image(dst_ops.empty)),
        "hom/empty",
        lambda: (
            render(alpha_src.apply(src_ops.empty)),
            render(image(dst_ops.empty)),
            render(image(f_empty)),
        ),
    )
    for _ in range(n):
        x1, x2, e = inputs(rng)
        via_src = f(src_ops.append(x1, x2).value).value
        via_dst = dst_ops.append(f(x1).value, f(x2).value).value
        rb.case(
            eq(image(via_src), image(via_dst)),
            "hom/append",
            lambda: (
                (alpha_src.apply(x1), alpha_src.apply(x2)),
                render(image(via_dst)),
                render(image(via_src)),
            ),
        )
        rb.equal("hom/singleton", e, image(dst_ops.singleton(e)), image(f(src_ops.singleton(e)).value), eq)


@dataclass(frozen=True)
class SequenceImpl:
    """A sequence carrier: its monoid ops, structural fold, and element view."""

    ops: MonoidOps
    mapreduce: Callable[[Any, MonoidOps], Charged[Any]]
    alpha: AbstractionFn


def check_universal_property(
    rb: ReportBuilder,
    stream: str,
    seq: SequenceImpl,
    target: TargetMonoid,
    inputs: Callable[[random.Random], Any],
    n: int,
    *,
    extra_homs: Sequence[Tuple[str, Callable[[Any], Charged[Any]]]] = (),
) -> None:
    """The structural fold is the canonical homomorphism to the target.

    On every sampled carrier value, ``mapreduce`` into the target must
    agree with the list fold over the value's elements; any additional
    homomorphisms supplied must agree with it too (uniqueness, at the
    scale of the sweep).  When ``rb.check_cost``, the fold's reported
    cost must also equal the sum of the costs the target's ``append``
    returned to it, metered by wrapping that ``append``.
    """
    if not rb.check_beh:
        return
    rng = rb.rng(stream)
    metered = 0

    def metered_append(x: Any, y: Any) -> Charged[Any]:
        nonlocal metered
        out = target.ops.append(x, y)
        metered += out.cost.value
        return out

    ops = MonoidOps(target.ops.empty, metered_append, target.ops.singleton)
    for _ in range(n):
        x = inputs(rng)
        folded = fold_elements(target.ops, seq.alpha.apply(x))
        metered = 0
        out = seq.mapreduce(x, ops)
        reduced = out.value
        rb.case(
            reduced == folded,
            f"universal/{target.name}/agrees-with-fold",
            lambda: (render(seq.alpha.apply(x)), render(folded), render(reduced)),
        )
        if rb.check_cost:
            rb.case(
                out.cost.value == metered,
                f"universal/{target.name}/cost-metered",
                lambda: (render(seq.alpha.apply(x)), metered, out.cost.value),
            )
        for hom_name, hom in extra_homs:
            other = hom(x).value
            rb.case(
                other == reduced,
                f"universal/{target.name}/unique/{hom_name}",
                lambda: (render(seq.alpha.apply(x)), render(reduced), render(other)),
            )
