"""The registered verification suites, exercised at small scale."""

from __future__ import annotations

import ast
import cProfile
import dataclasses
import pstats
import tracemalloc
from pathlib import Path

import pytest

from costglue import queues, rbtree, suites
from costglue.cli import emit_json
from costglue.cost import Charged, Cost
from costglue.harness import EvaluationMode, ReportBuilder, derive_rng
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


# The law names each suite judges at seed 0, 20 iterations, FULL mode:
# 67 in all.  A law added or deleted shows here by name.
LAWS = {
    "cost/laws": [
        "cost/bind-assoc", "cost/bind-left-unit", "cost/bind-right-unit", "cost/charge-plus",
        "cost/charge-zero", "cost/erase-charge", "cost/leq-erase-collapse", "cost/leq-refl",
        "cost/leq-trans", "cost/ret-free",
    ],
    "phase/roundtrip": [
        "phase/fracture-components-queue", "phase/glue-fracture-queue", "phase/glue-fracture-tree",
        "phase/glue-rejects-incoherent",
    ],
    "queues/coherence": [
        "queues/empty-square", "square/dequeue", "square/enqueue",
    ],
    "queues/noninterference": [
        "noninterference/batched~oracle", "noninterference/list~batched", "noninterference/list~oracle",
        "queues/spec-member/batched", "queues/spec-member/stack-excluded",
    ],
    "rbtree/invariants": [
        "monoid/assoc", "monoid/left-unit", "monoid/right-unit", "rbtree/abstract-client/elements",
        "rbtree/abstract-client/length", "rbtree/abstract-client/mapreduce-sum",
        "rbtree/abstract-client/reduce-max", "rbtree/append-cost-bound", "rbtree/append-elements",
        "rbtree/invariant-audit", "rbtree/size-cache",
    ],
    "rbtree/reduce": ["rbtree/reduce-cost-exact", "rbtree/reduce-empty", "rbtree/reduce-order", "rbtree/reduce-value"],
    "rbtree/universal": [
        "hom/append", "hom/empty", "hom/singleton", "universal/list/agrees-with-fold",
        "universal/list/cost-metered", "universal/list/unique/elements", "universal/nat-max/agrees-with-fold",
        "universal/nat-max/cost-metered", "universal/nat-sum/agrees-with-fold",
        "universal/nat-sum/cost-metered", "universal/nat-sum/unique/cached-length",
    ],
    "sealing/laws": [
        "seal/charge-commutes", "seal/charge-zero", "seal/join-assoc", "seal/join-map-return",
        "seal/join-return", "seal/reflexive", "seal/rejects-behavior-mismatch", "seal/rejects-cost-overrun",
        "seal/reseal-identity", "seal/reseal-transitive", "seal/unseal-abstract", "seal/unseal-concrete",
    ],
    "sorting/bounds": [
        "sorting/isort-behavior", "sorting/isort-bound", "sorting/isort-sorted-input",
        "sorting/msort-behavior", "sorting/msort-bound", "sorting/msort-two-elements", "sorting/sealed-tree",
    ],
}


def test_each_suite_judges_its_pinned_laws(monkeypatch) -> None:
    judged: dict = {}

    def noting(method, at: int):
        def wrapper(self, *args, **kwargs):
            judged.setdefault(self.suite, set()).add(args[at])  # the law
            return method(self, *args, **kwargs)
        return wrapper

    for name, at in (("case", 1), ("equal", 0), ("fail", 0)):
        monkeypatch.setattr(ReportBuilder, name, noting(getattr(ReportBuilder, name), at))
    for name in ALL_SUITES:
        assert REGISTRY[name](seed=0, iterations=20, mode=EvaluationMode.FULL).passed
    assert {suite: sorted(laws) for suite, laws in judged.items()} == LAWS
    assert sum(map(len, LAWS.values())) == 67


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


@pytest.mark.parametrize("name", ["cost/laws", "sealing/laws", "phase/roundtrip", "queues/noninterference"])
@pytest.mark.parametrize("mode", ALL_MODES)
def test_seed_free_suites_read_no_draw_in_a_passing_report(name: str, mode: EvaluationMode) -> None:
    # These suites record no cost rows and only counts when they pass, so
    # their draws may change without moving a byte of the report.
    for iterations in (0, 1, 65, 300):
        a = REGISTRY[name](seed=0, iterations=iterations, mode=mode)
        b = REGISTRY[name](seed=1, iterations=iterations, mode=mode)
        assert a.passed
        assert dataclasses.replace(b, seed=0) == a


@pytest.mark.parametrize("name", ALL_SUITES)
def test_cost_rows_respect_bounds(name: str) -> None:
    rep = REGISTRY[name](seed=0, iterations=25, mode=EvaluationMode.FULL)
    for size, impl_cost, spec_cost in rep.cost_table:
        assert size >= 0
        assert 0 <= impl_cost <= spec_cost


def test_zero_iterations_is_lawful() -> None:
    # Fixed probes still run, and the fold suites judge the seven trees
    # their pool starts with; sampling loops simply contribute nothing.
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
    # The suite keeps nothing across iterations, so ten times the
    # iterations must not raise the peak (a kept ledger of the three seals
    # of each iteration would add ~0.65 KB per iteration).
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


SHAPE_KEYED = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="keys its cost rows by black-height difference, which the shape decides (ROADMAP item 2)",
)


@pytest.mark.parametrize(
    "name", [pytest.param(n, marks=SHAPE_KEYED) if n == "rbtree/invariants" else n for n in DIFFERENTIAL_SUITES]
)
def test_abstract_reports_cannot_see_representation(monkeypatch, name: str) -> None:
    """Noninterference, abstract half: an ABSTRACT report cannot see the representation.

    ``_rebuilding_append`` keeps every image and the honest cost and
    changes only the shape of the tree it returns, so the ABSTRACT report
    must stay byte-identical to the honest one.  A FULL run must still
    pass, since the changed ``append`` is a correct one.
    """
    honest = emit_json(REGISTRY[name](seed=0, iterations=40, mode=EvaluationMode.ABSTRACT))
    monkeypatch.setattr(suites, "append", _rebuilding_append)
    assert REGISTRY[name](seed=0, iterations=40, mode=EvaluationMode.FULL).passed
    assert emit_json(REGISTRY[name](seed=0, iterations=40, mode=EvaluationMode.ABSTRACT)) == honest


def _dropping_ones(charged: int):
    """``batched_enqueue`` that loses every enqueued 1 and charges ``charged`` for it."""
    return lambda e, s: Charged(Cost(charged), s) if e == 1 else queues.batched_enqueue(e, s)


def _unit_losing(charged: int):
    """``reduce`` that returns 1 for the empty tree and charges ``charged`` for it."""
    return lambda f, unit, t: Charged(Cost(charged), 1) if t.size == 0 else rbtree.reduce(f, unit, t)


BROKEN_COST_VARIANTS = {
    "batched_enqueue-drops-ones": ("batched_enqueue", _dropping_ones),
    "reduce-loses-the-unit": ("reduce", _unit_losing),
}


@pytest.mark.parametrize("change", list(BROKEN_COST_VARIANTS))
def test_behavioral_failure_records_cannot_see_cost(monkeypatch, change: str) -> None:
    """Noninterference on failure records: two behaviourally broken variants
    that differ only in cost fail BEHAVIORAL runs with the same report, byte
    for byte, and FULL runs with different ones."""
    name, variant = BROKEN_COST_VARIANTS[change]

    def reports(charged: int, mode: EvaluationMode) -> dict:
        monkeypatch.setattr(suites, name, variant(charged))
        return {suite: REGISTRY[suite](seed=0, iterations=40, mode=mode) for suite in DIFFERENTIAL_SUITES}

    cheap, dear = reports(1, EvaluationMode.BEHAVIORAL), reports(2, EvaluationMode.BEHAVIORAL)
    assert not all(rep.passed for rep in cheap.values())
    assert {k: emit_json(r) for k, r in cheap.items()} == {k: emit_json(r) for k, r in dear.items()}
    cheap, dear = reports(1, EvaluationMode.FULL), reports(2, EvaluationMode.FULL)
    assert {k: emit_json(r) for k, r in cheap.items()} != {k: emit_json(r) for k, r in dear.items()}


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


def test_only_the_report_builder_renders() -> None:
    """``src/`` names ``render`` only in ``harness``'s definition and in ``ReportBuilder.fail``.

    A detail carries raw values and ``fail`` renders each field once, so no
    failure record can be rendered twice (quoted, and cut past its quote).
    """
    sites = []
    for path in sorted(Path(suites.__file__).parent.glob("*.py")):
        def walk(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                    if child.name == "render":
                        sites.append(f"{path.name}:def {inner}")
                if (isinstance(child, ast.Name) and child.id == "render"
                        or isinstance(child, ast.Attribute) and child.attr == "render"
                        or isinstance(child, ast.alias) and "render" in (child.name.split(".")[-1], child.asname)):
                    sites.append(f"{path.name}:{scope}")
                walk(child, inner)

        walk(ast.parse(path.read_text(encoding="utf-8")), "")
    assert sorted(set(sites)) == ["harness.py:ReportBuilder.fail", "harness.py:def render"]


def test_checkers_judge_the_values_they_are_given() -> None:
    """In ``harness``, only ``ReportBuilder`` draws from an RNG stream.

    No ``check_*`` takes a ``stream``, ``inputs`` or ``n`` or calls
    ``.rng(``: a suite samples through ``rb.draws`` and passes the values,
    so a checker can be run again on any one input by passing ``[x]``.
    """
    tree = ast.parse((Path(suites.__file__).parent / "harness.py").read_text(encoding="utf-8"))
    builder = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "ReportBuilder" for node in ast.walk(cls)}
    rng_calls = [node.lineno for node in ast.walk(tree) if id(node) not in builder and isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Attribute) and node.func.attr == "rng"]
    sampling_params = [f"{fn.name}({arg.arg})" for fn in tree.body
                       if isinstance(fn, ast.FunctionDef) and fn.name.startswith("check_")
                       for arg in fn.args.args + fn.args.kwonlyargs if arg.arg in ("stream", "inputs", "n")]
    assert (rng_calls, sampling_params) == ([], [])


def test_each_record_is_checked_in_its_one_constructor() -> None:
    """A class in ``src/`` with its own ``__init__`` has no second ``__post_init__`` body.

    The only form allowed is the alias ``__post_init__ = __init__``, which
    keeps construction counts readable by that code object.  A dataclass
    whose ``__init__`` is generated defines no ``__init__`` of its own, so
    a ``__post_init__`` it may define is not in scope.
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


def test_tree_code_reads_no_color_member_in_a_function() -> None:
    """No function body in ``rbtree.py`` reads ``Color.<member>``.

    CPython 3.11's ``EnumType`` defines ``__getattr__``, so such a read
    costs several times a module global's; module and class level bind
    the members once.
    """
    tree = ast.parse(Path(rbtree.__file__).read_text(encoding="utf-8"))
    reads = [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
             for stmt in fn.body for node in ast.walk(stmt)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "Color" and node.attr in rbtree.Color.__members__]
    assert reads == []


def test_phase_roundtrip_walks_a_pool_tree_about_once(monkeypatch: pytest.MonkeyPatch) -> None:
    """A passing run walks each distinct tree of its pool once, and no other tree."""
    walked = []  # keeps every walked tree alive, so their ids are distinct
    monkeypatch.setattr(suites, "elements", lambda t: walked.append(t) or rbtree.elements(t))
    rep = suites.REGISTRY["phase/roundtrip"](seed=1, iterations=3000, mode=EvaluationMode.FULL)
    assert rep.passed
    assert 0 < len(walked) <= suites._POOL_TREES  # the run walks through ``suites.elements``
    assert len({id(t) for t in walked}) == len(walked)


def _kept_pools(monkeypatch: pytest.MonkeyPatch) -> list:
    """Make ``suites._TreePool`` keep every pool a suite builds in the list returned."""
    pools = []

    class KeptPool(suites._TreePool):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(suites, "_TreePool", KeptPool)
    return pools


# The appends a pool suite makes at ``n`` iterations before its first case,
# and after it: only ``rbtree/universal``'s homomorphism pairs append later.
POOL_APPENDS = {
    "phase/roundtrip": lambda n: (min(n, suites._POOL_TREES), 0),
    "rbtree/reduce": lambda n: (n, 0),
    "rbtree/universal": lambda n: (min(n, 200), n),
}


@pytest.mark.parametrize("iterations", [0, 1, 300])
@pytest.mark.parametrize("name", sorted(POOL_APPENDS))
def test_pool_suites_grow_their_pool_before_their_first_case(
        monkeypatch: pytest.MonkeyPatch, name: str, iterations: int) -> None:
    events = []
    monkeypatch.setattr(suites, "append", lambda a, b: events.append("append") or rbtree.append(a, b))
    for method in ("case", "equal", "fail"):
        judge = getattr(ReportBuilder, method)
        monkeypatch.setattr(ReportBuilder, method,
                            lambda self, *args, judge=judge, **kw: events.append("case") or judge(self, *args, **kw))
    assert REGISTRY[name](seed=0, iterations=iterations, mode=EvaluationMode.FULL).passed
    first_case = events.index("case") if "case" in events else len(events)
    assert (first_case, events.count("append") - first_case) == POOL_APPENDS[name](iterations)


def test_universal_folds_each_pool_slot_once_per_target(monkeypatch: pytest.MonkeyPatch) -> None:
    """Slots, not distinct trees: a tree held in two slots is folded twice."""
    pools = _kept_pools(monkeypatch)
    folded: dict = {}  # a target's singleton -> the trees folded into it

    def recording(t, target):
        if target is not suites.SUM_OPS:  # the length homomorphism's own folds
            folded.setdefault(target.singleton, []).append(id(t))
        return rbtree.mapreduce(t, target)

    monkeypatch.setattr(suites, "mapreduce", recording)
    assert REGISTRY["rbtree/universal"](seed=0, iterations=300, mode=EvaluationMode.FULL).passed
    [pool] = pools
    slots = [id(t) for t in pool.pool]
    assert len(set(slots)) < len(slots)  # the pool holds some tree twice
    assert list(folded.values()) == [slots] * 3


def test_universal_walks_and_sums_each_pool_tree_once(monkeypatch: pytest.MonkeyPatch) -> None:
    """At most two ``elements`` walks per slot, and one ``SUM_OPS`` fold per pool tree.

    A pool tree is walked once for the laws that read its image, and once
    per slot by the ``elements`` homomorphism.  Besides the pool trees,
    the length homomorphism folds only each pair's append result (a pool
    tree itself when one side is empty) and its fresh singleton.
    """
    pools = _kept_pools(monkeypatch)
    summed = []  # keeps every summed tree alive, so their ids are distinct

    def recording(t, target):
        if target is suites.SUM_OPS:
            summed.append(t)
        return rbtree.mapreduce(t, target)

    monkeypatch.setattr(suites, "mapreduce", recording)
    pairs, reps = 300, []
    [walks] = _calls(lambda: reps.append(REGISTRY["rbtree/universal"](0, pairs, EvaluationMode.FULL)), rbtree.elements)
    assert reps[0].passed
    [pool] = pools
    assert walks <= 2 * len(pool.pool)
    trees = {id(t) for t in pool.pool}
    assert sorted(id(t) for t in summed if id(t) in trees) == sorted(trees)
    others = [type(t) for t in summed if id(t) not in trees]
    assert others.count(rbtree.Leaf) == pairs
    assert others.count(rbtree.Node) <= pairs == len(others) - others.count(rbtree.Node)


@pytest.mark.parametrize("mode", [EvaluationMode.FULL, EvaluationMode.CONCRETE])
def test_reduce_runs_once_per_nonempty_pool_slot(monkeypatch: pytest.MonkeyPatch, mode: EvaluationMode) -> None:
    pools = _kept_pools(monkeypatch)
    reduced: dict = {}  # a combiner -> the trees reduced with it
    monkeypatch.setattr(
        suites, "reduce", lambda f, unit, t: reduced.setdefault(f, []).append(id(t)) or rbtree.reduce(f, unit, t))
    assert REGISTRY["rbtree/reduce"](seed=0, iterations=300, mode=mode).passed
    [pool] = pools
    nonempty = [id(t) for t in pool.pool if t.size]
    assert len(set(nonempty)) < len(nonempty)
    # FULL reduces each slot with ``+`` and ``first``, then the empty tree with ``+``.
    expected = [nonempty + [id(rbtree.EMPTY)], nonempty] if mode is EvaluationMode.FULL else [nonempty]
    assert list(reduced.values()) == expected


@pytest.mark.parametrize(
    "name", ["rbtree/universal", "queues/noninterference", "queues/coherence", "sorting/bounds", "rbtree/reduce"])
def test_concrete_mode_counts_no_unjudged_case(name: str) -> None:
    # These suites judge no concrete audit, so CONCRETE mode judges nothing
    # in them; the two that record cost rows, not bounds alone, still tabulate cost.
    rep = REGISTRY[name](seed=0, iterations=20, mode=EvaluationMode.CONCRETE)
    assert rep.cases == 0
    assert bool(rep.cost_table) == (name in ("sorting/bounds", "rbtree/reduce"))


@pytest.mark.parametrize("mode", [EvaluationMode.FULL, EvaluationMode.BEHAVIORAL])
def test_queue_walk_commutes_each_step_at_two_representatives(mode: EvaluationMode) -> None:
    # A step's square at the batched state, then with ``quotient_rng`` both
    # squares at a second state of the same image.
    traces = [suites.random_trace(derive_rng(0, f"walk/{i}"), max_len=60) for i in range(10)]
    steps = sum(map(len, traces))
    assert {op for t in traces for op, _ in t} == {"enqueue", "dequeue"}
    for quotient_rng, per_step in ((None, 1), (derive_rng(0, "walk"), 3)):
        rb = ReportBuilder("walk", 0, 0, mode)
        for trace in traces:
            suites._run_coherence_trace(rb, trace, quotient_rng=quotient_rng)
        rep = rb.build()
        assert rep.passed and rep.cases == per_step * steps


def test_concrete_queue_coherence_runs_no_abstraction() -> None:
    def run() -> None:
        assert REGISTRY["queues/coherence"](seed=0, iterations=40, mode=EvaluationMode.CONCRETE).cases == 0

    assert _calls(run, queues.rev_append, queues.list_dequeue) == [0, 0]
    # The count sees these functions however they are bound: FULL calls both.
    assert all(_calls(lambda: REGISTRY["queues/coherence"](seed=0, iterations=5, mode=EvaluationMode.FULL)))


@pytest.mark.parametrize("name", DIFFERENTIAL_SUITES)
def test_behavioral_mode_records_no_cost(name: str) -> None:
    rep = REGISTRY[name](seed=0, iterations=20, mode=EvaluationMode.BEHAVIORAL)
    assert rep.cost_table == ()
    assert rep.cases > 0
