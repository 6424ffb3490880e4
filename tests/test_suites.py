"""The registered verification suites, exercised at small scale."""

from __future__ import annotations

import ast
import cProfile
import pstats
import tracemalloc
from pathlib import Path

import pytest

from costglue import rbtree, suites
from costglue.cli import emit_json
from costglue.cost import Charged, Cost
from costglue.harness import EvaluationMode
from costglue.suites import REGISTRY

ALL_SUITES = sorted(REGISTRY)
ALL_MODES = list(EvaluationMode)

EXPECTED = [
    "cost/laws",
    "phase/roundtrip",
    "queues/coherence",
    "queues/noninterference",
    "rbtree/invariants",
    "rbtree/reduce",
    "rbtree/universal",
    "sealing/laws",
    "sorting/bounds",
]


def test_registry_contents() -> None:
    assert ALL_SUITES == EXPECTED


@pytest.mark.parametrize("name", ALL_SUITES)
def test_suite_passes_at_small_scale(name: str) -> None:
    rep = REGISTRY[name](seed=0, iterations=30, mode=EvaluationMode.FULL)
    assert rep.passed, rep.failures[:3]
    assert rep.suite == name
    assert rep.seed == 0
    assert rep.iterations == 30
    assert rep.mode == "full"
    assert rep.cases > 0


@pytest.mark.parametrize("name", ALL_SUITES)
@pytest.mark.parametrize("mode", ALL_MODES)
def test_every_mode_passes(name: str, mode: EvaluationMode) -> None:
    rep = REGISTRY[name](seed=5, iterations=10, mode=mode)
    assert rep.passed, rep.failures[:3]
    assert rep.mode == mode.value


@pytest.mark.parametrize("name", ALL_SUITES)
def test_reports_are_deterministic(name: str) -> None:
    a = REGISTRY[name](seed=9, iterations=15, mode=EvaluationMode.FULL)
    b = REGISTRY[name](seed=9, iterations=15, mode=EvaluationMode.FULL)
    assert emit_json(a) == emit_json(b)


def test_seeds_change_sampling() -> None:
    a = REGISTRY["sorting/bounds"](seed=1, iterations=40, mode=EvaluationMode.FULL)
    b = REGISTRY["sorting/bounds"](seed=2, iterations=40, mode=EvaluationMode.FULL)
    assert emit_json(a) != emit_json(b)


@pytest.mark.parametrize("name", ALL_SUITES)
def test_cost_rows_respect_bounds(name: str) -> None:
    rep = REGISTRY[name](seed=0, iterations=25, mode=EvaluationMode.FULL)
    for size, impl_cost, spec_cost in rep.cost_table:
        assert size >= 0
        assert 0 <= impl_cost <= spec_cost


def test_zero_iterations_is_lawful() -> None:
    # Fixed probes still run; sampling loops simply contribute nothing.
    for name in ALL_SUITES:
        rep = REGISTRY[name](seed=0, iterations=0, mode=EvaluationMode.FULL)
        assert rep.passed


def _peak_bytes(run) -> int:
    """The ``tracemalloc`` peak while ``run()`` executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_seal_laws_run_in_constant_memory() -> None:
    # The validity sweep keeps counts, not seals, so ten times the
    # iterations must not raise the peak (a kept ledger of the three seals
    # of each iteration adds ~0.65 KB per iteration).
    def peak(iterations: int) -> int:
        return _peak_bytes(lambda: REGISTRY["sealing/laws"](0, iterations, EvaluationMode.FULL))

    peak(200)  # warm-up: first-call caches are not the suite's memory
    small, large = peak(200), peak(2000)
    assert large - small <= 32 * 1024, (small, large)


def _calls(run, *functions) -> list[int]:
    """How often each function is entered while ``run()`` runs, however it is bound."""
    profile = cProfile.Profile()
    profile.runcall(run)
    stats = pstats.Stats(profile).stats
    return [
        sum(calls for (file, line, name), (_, calls, *_) in stats.items()
            if (file, line, name) == (f.__code__.co_filename, f.__code__.co_firstlineno, f.__name__))
        for f in functions
    ]


def test_tree_invariants_audit_only_the_nodes_each_append_built() -> None:
    iterations = 300
    rep = None

    def run() -> None:
        nonlocal rep
        rep = REGISTRY["rbtree/invariants"](seed=0, iterations=iterations, mode=EvaluationMode.FULL)

    validates, reads = _calls(run, rbtree.validate, rbtree.elements)
    assert rep is not None and rep.passed
    assert validates == 7  # the initial pool, once
    # Two reads per abstract-client probe; the monoid laws read none.
    assert reads <= 2 * (iterations // 10)


def test_tree_invariants_read_elements_only_for_the_abstract_clients() -> None:
    iterations = 300
    profile = cProfile.Profile()
    rep = profile.runcall(REGISTRY["rbtree/invariants"], seed=0, iterations=iterations, mode=EvaluationMode.FULL)
    assert rep.passed
    code = rbtree.elements.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    _, calls, _, _, callers = pstats.Stats(profile).stats[key]
    # Every read comes from the "elements" client lambda, once per probe
    # tree; none from the harness's monoid laws.
    assert {(file, name) for file, _, name in callers} == {(suites.__file__, "<lambda>")}
    assert calls == 2 * (iterations // 10)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_tree_invariants_report_is_the_oracle_report(monkeypatch, mode: EvaluationMode) -> None:
    fast = emit_json(REGISTRY["rbtree/invariants"](seed=3, iterations=200, mode=mode))
    monkeypatch.setattr(suites, "audit_concat", lambda t, a, b: False)
    assert emit_json(REGISTRY["rbtree/invariants"](seed=3, iterations=200, mode=mode)) == fast


# -- the noninterference theorem, on the checker itself ---------------------

DIFFERENTIAL_SUITES = [
    "queues/coherence",
    "queues/noninterference",
    "rbtree/invariants",
    "rbtree/reduce",
    "rbtree/universal",
    "sorting/bounds",
]


def _charging(name: str, delta: int):
    """The operation ``suites.<name>`` with ``delta`` units added to its cost, same value."""
    honest = getattr(suites, name)

    def mutant(*args):
        out = honest(*args)
        return Charged(Cost(max(out.cost.value + delta, 0)), out.value)

    return mutant


def _rebuilding_append(a, b):
    """``append`` with the honest cost and elements but another shape: the tree ``from_iterable`` builds."""
    return Charged(rbtree.append(a, b).cost, rbtree.from_iterable(rbtree.elements(a) + rbtree.elements(b)))


UNOBSERVABLE_CHANGES = {
    "msort-charges-one-less": ("msort", _charging("msort", -1)),
    "append-charges-one-more": ("append", _charging("append", 1)),
    "batched_enqueue-charges-one-more": ("batched_enqueue", _charging("batched_enqueue", 1)),
    "batched_dequeue-charges-one-more": ("batched_dequeue", _charging("batched_dequeue", 1)),
    "reduce-charges-one-more": ("reduce", _charging("reduce", 1)),
    "mapreduce-charges-one-more": ("mapreduce", _charging("mapreduce", 1)),
    "append-rebuilds-the-shape": ("append", _rebuilding_append),
}


@pytest.mark.parametrize("change", list(UNOBSERVABLE_CHANGES))
def test_behavioral_reports_cannot_see_cost_or_representation(monkeypatch, change: str) -> None:
    """Noninterference: a BEHAVIORAL report is a function of behavior alone.

    Each change keeps every value a suite observes abstractly and alters
    only cost or the concrete representation, so the BEHAVIORAL report of
    every differential suite must stay byte-identical to the honest one.
    The change must still be visible to a FULL run of some suite, or the
    test would prove nothing.  The law suites (``cost/laws``,
    ``sealing/laws``, ``phase/roundtrip``) are left out: they state laws
    of the cost effect, of seals and of glue themselves, which hold in
    every phase, so they judge cost in every mode by design and call none
    of the operations changed here.
    """
    def reports(mode: EvaluationMode) -> dict:
        return {name: emit_json(REGISTRY[name](seed=0, iterations=40, mode=mode)) for name in DIFFERENTIAL_SUITES}

    honest_beh, honest_full = reports(EvaluationMode.BEHAVIORAL), reports(EvaluationMode.FULL)
    monkeypatch.setattr(suites, *UNOBSERVABLE_CHANGES[change])
    changed_beh, changed_full = reports(EvaluationMode.BEHAVIORAL), reports(EvaluationMode.FULL)
    assert [name for name in DIFFERENTIAL_SUITES if changed_beh[name] != honest_beh[name]] == []
    assert changed_full != honest_full


# -- only judged cases are counted ------------------------------------------

def test_only_the_report_builder_counts_cases() -> None:
    """No code in ``src/`` but ``ReportBuilder``'s own writes ``.cases``, so no site pads the count."""
    writers = []
    for path in sorted(Path(suites.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        builder = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "ReportBuilder" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign)) else [])
            if id(node) not in builder and any(isinstance(t, ast.Attribute) and t.attr == "cases" for t in targets):
                writers.append(f"{path.name}:{node.lineno}")
    assert writers == []


def test_each_record_is_checked_in_its_one_constructor() -> None:
    """A class in ``src/`` with its own ``__init__`` has no second ``__post_init__`` body.

    The only form allowed is the alias ``__post_init__ = __init__``, which
    keeps construction counts readable by that code object.  A dataclass
    whose ``__init__`` is generated (``SquareSpec``) defines no
    ``__init__`` of its own, so its ``__post_init__`` is not in scope.
    """
    aliased, second_bodies = set(), []
    for path in sorted(Path(suites.__file__).parent.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            defs = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
            if "__init__" not in defs:
                continue
            if "__post_init__" in defs:
                second_bodies.append(f"{path.name}:{cls.name}")
            for node in cls.body:
                if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__post_init__"]:
                    assert ast.unparse(node.value) == "__init__", f"{path.name}:{cls.name}"
                    aliased.add(cls.name)
    assert second_bodies == []
    assert aliased == {"Cost", "Charged", "Sealed", "Node"}


@pytest.mark.parametrize(
    "name", ["rbtree/universal", "queues/noninterference", "queues/coherence", "sorting/bounds", "rbtree/reduce"])
def test_concrete_mode_counts_no_unjudged_case(name: str) -> None:
    # These suites judge no concrete audit, so CONCRETE mode judges nothing
    # in them; the three with cost-bearing operations still tabulate cost.
    rep = REGISTRY[name](seed=0, iterations=20, mode=EvaluationMode.CONCRETE)
    assert rep.cases == 0
    assert bool(rep.cost_table) == (name in ("queues/coherence", "sorting/bounds", "rbtree/reduce"))


@pytest.mark.parametrize("name", DIFFERENTIAL_SUITES)
def test_behavioral_mode_records_no_cost(name: str) -> None:
    rep = REGISTRY[name](seed=0, iterations=20, mode=EvaluationMode.BEHAVIORAL)
    assert rep.cost_table == ()
    assert rep.cases > 0
