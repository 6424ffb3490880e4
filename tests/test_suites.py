"""The registered verification suites, exercised at small scale."""

from __future__ import annotations

import cProfile
import pstats
import tracemalloc

import pytest

from costglue import rbtree, suites
from costglue.cli import emit_json
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
