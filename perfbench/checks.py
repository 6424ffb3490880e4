"""Correctness checks made apart from the program, and proof that each can fail.

Every check is a function that returns a list of problems, empty when
the check holds.  Each is run twice on every benchmark run: once on the
program's real outputs, where it must find nothing, and once on a
deliberately broken input, where it must find something.  The expected
values come from closed forms, from models written here (a ``deque``
queue, a red-black auditor and leaf reader), from Python's ``sorted``,
or from counting comparisons as they happen; none is a stored copy of
an earlier run's output.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import deque
from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

from costglue import queues, rbtree, sorting
from costglue.cost import Charged, Cost
from costglue.phase import AbstractionFn, CoherenceError, glue

Problems = List[str]


class Check(NamedTuple):
    name: str
    real: Callable[[], Problems]
    broken: Callable[[], Problems]


def cost_rows(text: str) -> List[Tuple[int, int, int]]:
    return [(r["size"], r["impl_cost"], r["spec_cost"]) for r in json.loads(text)["cost_table"]]


def off_by_one(rows: List[Tuple[int, int, int]], size: int, column: int) -> List[Tuple[int, int, int]]:
    """The same cost table with one entry of the row for ``size`` raised by one."""
    out = []
    for row in rows:
        if row[0] == size:
            row = tuple(v + 1 if i == column else v for i, v in enumerate(row))
        out.append(row)
    return out


def one_byte_changed(text: str) -> str:
    if not text:
        return "\x01"
    k = len(text) // 2
    return text[:k] + chr(ord(text[k]) ^ 1) + text[k + 1:]


def identical(label: str, texts: Sequence[Any]) -> Problems:
    if not texts or any(t is None for t in texts):
        return [f"{label}: a report is missing"]
    if any(t != texts[0] for t in texts[1:]):
        return [f"{label}: reports differ"]
    return []


# -- sort-bounds --------------------------------------------------------

def sort_rows_closed_form(rows: List[Tuple[int, int, int]]) -> Problems:
    """Worst cases on the exhaustive sweep: impl = n(n-1)/2 (reversed input), spec = n^2."""
    table = {size: (impl, spec) for size, impl, spec in rows}
    problems = []
    for n in range(2, 9):
        want = (n * (n - 1) // 2, n * n)
        if table.get(n) != want:
            problems.append(f"sorting/bounds row n={n}: {table.get(n)}, want {want}")
    return problems


class Counted:
    """A sort element whose ``<`` counts its calls in a shared tally."""

    __slots__ = ("key", "tag", "tally")

    def __init__(self, key: int, tag: int, tally: List[int]):
        self.key = key
        self.tag = tag
        self.tally = tally

    def __lt__(self, other: "Counted") -> bool:
        self.tally[0] += 1
        return self.key < other.key


def sort_samples(seed: int) -> List[List[int]]:
    rng = random.Random(f"perfbench/sorts:{seed}")
    sizes = [0, 1, 2, 3, 8, 17, 64, 300] + [rng.randrange(2, 200) for _ in range(12)]
    return [[rng.randrange(max(1, n // 2)) for _ in range(n)] for n in sizes]


def counted_sorts(sorts: Sequence[Tuple[str, Callable]], samples: List[List[int]]) -> Problems:
    """Each sort's charged cost equals the ``<`` calls it made; its output equals ``sorted``."""
    problems = []
    for name, sort in sorts:
        for keys in samples:
            tally = [0]
            items = tuple(Counted(k, i, tally) for i, k in enumerate(keys))
            out = sort(items)
            if out.cost.value != tally[0]:
                problems.append(f"{name} on {len(keys)} items: cost {out.cost.value}, counted {tally[0]}")
            want = sorted(enumerate(keys), key=lambda p: p[1])
            if [(e.tag, e.key) for e in out.value] != want:
                problems.append(f"{name} on {len(keys)} items: output differs from sorted()")
    return problems


def _miscounting_isort(items):
    out = sorting.isort(items)
    return Charged(Cost(max(0, out.cost.value - 1)), out.value)


# -- charged-algebra ----------------------------------------------------

def reduce_rows(rows: List[Tuple[int, int, int]]) -> Problems:
    """A unit-cost fold over n leaves costs 2n - 1 against a budget of 2n."""
    if not rows:
        return ["rbtree/reduce: empty cost table"]
    return [
        f"rbtree/reduce row n={n}: impl {impl} spec {spec}, want {2 * n - 1} and {2 * n}"
        for n, impl, spec in rows
        if (impl, spec) != (2 * n - 1, 2 * n)
    ]


def queue_traces(seed: int) -> List[List[Tuple[str, Tuple[Any, ...]]]]:
    rng = random.Random(f"perfbench/queues:{seed}")
    traces = []
    for _ in range(60):
        trace = []
        for _ in range(rng.randrange(1, 120)):
            if rng.random() < 0.6:
                trace.append(("enqueue", (rng.randrange(100),)))
            else:
                trace.append(("dequeue", ()))
        traces.append(trace)
    return traces


def deque_outputs(trace) -> Tuple[Any, ...]:
    q: deque = deque()
    out = []
    for op, args in trace:
        if op == "enqueue":
            q.append(args[0])
        else:
            out.append(q.popleft() if q else queues.DEFAULT_ELEMENT)
    return tuple(out)


def queue_replay(candidate: queues.QueueImpl, traces) -> Problems:
    """List and candidate queues replay to the ``deque`` model; reversal work <= enqueues."""
    problems = []
    for k, trace in enumerate(traces):
        want = deque_outputs(trace)
        spec = queues.run_trace(queues.LIST_QUEUE, trace)
        got = queues.run_trace(candidate, trace)
        if spec.outputs != want:
            problems.append(f"trace {k}: list queue outputs differ from the deque model")
        if got.outputs != spec.outputs:
            problems.append(f"trace {k}: {candidate.name} and list queue outputs differ")
        enqueues = sum(1 for op, _ in trace if op == "enqueue")
        reversal = sum(c for op, c in got.step_costs if op == "dequeue")
        if reversal > enqueues:
            problems.append(f"trace {k}: reversal work {reversal} > {enqueues} enqueues")
    return problems


def _dropping_enqueue(e, s):
    if len(s.inbox) == 2:
        return Charged(Cost(1), s)
    return queues.batched_enqueue(e, s)


DROPPING_QUEUE = dataclasses.replace(queues.BATCHED_QUEUE, name="dropping", enqueue=_dropping_enqueue)


# -- abstraction-audit ----------------------------------------------------

def invariants_rows(rows: List[Tuple[int, int, int]]) -> Problems:
    """Append's budget is 4(dbh + 2) for black-height difference dbh, never exceeded."""
    if not rows:
        return ["rbtree/invariants: empty cost table"]
    return [
        f"rbtree/invariants row dbh={d}: impl {impl} spec {spec}, want spec {4 * (d + 2)} >= impl"
        for d, impl, spec in rows
        if spec != 4 * (d + 2) or impl > spec
    ]


class _Bad(Exception):
    pass


def _audit(t) -> Tuple[int, int]:
    """(black height, leaves) of a valid tree; raises _Bad at the first breach."""
    if isinstance(t, rbtree.Empty):
        return 0, 0
    if isinstance(t, rbtree.Leaf):
        if t.color is not rbtree.Color.BLACK:
            raise _Bad("red leaf")
        return 0, 1
    if not isinstance(t, rbtree.Node):
        raise _Bad(f"not a tree node: {type(t).__name__}")
    lbh, lsize = _audit(t.left)
    rbh, rsize = _audit(t.right)
    if lbh != rbh:
        raise _Bad(f"black heights {lbh} and {rbh} under one node")
    red = t.color is rbtree.Color.RED
    if red and rbtree.Color.RED in (t.left.color, t.right.color):
        raise _Bad("red-red edge")
    bh = lbh if red else lbh + 1
    if (t.black_height, t.size) != (bh, lsize + rsize):
        raise _Bad(f"stale cache: ({t.black_height}, {t.size}) for ({bh}, {lsize + rsize})")
    return bh, lsize + rsize


def leaves(t) -> List[Any]:
    """Leaf values left to right, read without ``rbtree.elements``."""
    if isinstance(t, rbtree.Node):
        return leaves(t.left) + leaves(t.right)
    if isinstance(t, rbtree.Leaf):
        return [t.value]
    return []


def tree_audit(trees: Sequence[Tuple[Any, List[Any]]]) -> Problems:
    """Each tree satisfies the red-black invariant and holds the expected leaves."""
    problems = []
    for k, (t, want) in enumerate(trees):
        try:
            _audit(t)
        except _Bad as err:
            problems.append(f"tree {k}: {err}")
        if leaves(t) != want:
            problems.append(f"tree {k}: leaves differ from the appended inputs")
    return problems


def appended_trees(seed: int) -> List[Tuple[Any, List[Any]]]:
    """Trees built with ``rbtree.append`` from seeded inputs, with their expected leaves."""
    rng = random.Random(f"perfbench/trees:{seed}")
    built = []
    for _ in range(24):
        values = [rng.randrange(1000) for _ in range(rng.randrange(0, 200))]
        t = rbtree.EMPTY
        for v in values:
            t = rbtree.append(t, rbtree.Leaf(v)).value
        built.append((t, values))
    joined = []
    for _ in range(24):
        (a, va), (b, vb) = rng.choice(built), rng.choice(built)
        joined.append((rbtree.append(a, b).value, va + vb))
    return built + joined


def red_red_tree() -> Tuple[Any, List[Any]]:
    red = rbtree.Color.RED
    t = rbtree.Node(red, rbtree.Node(red, rbtree.Leaf(1), rbtree.Leaf(2)), rbtree.Leaf(3))
    return t, [1, 2, 3]


def coherence(alpha: AbstractionFn, trees: Sequence[Tuple[Any, List[Any]]]) -> Problems:
    """``glue`` accepts each tree's true leaves and raises ``CoherenceError`` on a wrong list."""
    problems = []
    for k, (t, want) in enumerate(trees):
        try:
            glue(t, tuple(want), alpha)
        except CoherenceError:
            problems.append(f"tree {k}: glue rejected the true leaves")
        try:
            glue(t, tuple(want) + (-1,), alpha)
            problems.append(f"tree {k}: glue accepted a wrong abstract value")
        except CoherenceError:
            pass
    return problems


LENIENT_ALPHA = AbstractionFn(apply=rbtree.elements, abs_eq=lambda a, b: True)


# -- assembly ---------------------------------------------------------------

def workload_checks(workload: str, seed: int, texts: Dict[str, str]) -> List[Check]:
    """The checks specific to one workload, over its timed pass's reports."""
    if workload == "sort-bounds":
        rows = cost_rows(texts["sorting/bounds"])
        samples = sort_samples(seed)
        return [
            Check("sort rows match closed-form worst cases",
                  lambda: sort_rows_closed_form(rows),
                  lambda: sort_rows_closed_form(off_by_one(rows, 5, 1))),
            Check("sort costs equal counted comparisons",
                  lambda: counted_sorts((("isort", sorting.isort), ("msort", sorting.msort)), samples),
                  lambda: counted_sorts((("miscounting isort", _miscounting_isort),), samples)),
        ]
    if workload == "charged-algebra":
        rows = cost_rows(texts["rbtree/reduce"])
        traces = queue_traces(seed)
        return [
            Check("reduce rows are 2n-1 against 2n",
                  lambda: reduce_rows(rows),
                  lambda: reduce_rows(off_by_one(rows, rows[0][0], 1) if rows else rows)),
            Check("queue traces replay to the deque model",
                  lambda: queue_replay(queues.BATCHED_QUEUE, traces),
                  lambda: queue_replay(DROPPING_QUEUE, traces)),
        ]
    if workload == "abstraction-audit":
        rows = cost_rows(texts["rbtree/invariants"])
        trees = appended_trees(seed)
        return [
            Check("invariants rows have spec 4(dbh+2)",
                  lambda: invariants_rows(rows),
                  lambda: invariants_rows(off_by_one(rows, rows[0][0], 2) if rows else rows)),
            Check("appended trees pass an independent audit",
                  lambda: tree_audit(trees),
                  lambda: tree_audit([red_red_tree()])),
            Check("glue rejects a wrong abstract value",
                  lambda: coherence(rbtree.ELEMENTS_ALPHA, trees),
                  lambda: coherence(LENIENT_ALPHA, trees[:4])),
        ]
    raise KeyError(workload)


def identity_check(name: str, texts: Sequence[Any]) -> Check:
    """Byte-identity of reports, with a one-byte change as the broken input."""
    first = texts[0] if texts and texts[0] is not None else ""
    return Check(name, lambda: identical(name, texts), lambda: identical(name, [first, one_byte_changed(first)]))


def evaluate(checks: Sequence[Check]) -> List[Tuple[str, Problems, bool]]:
    """(name, problems on the real outputs, whether the broken input was rejected)."""
    return [(c.name, c.real(), bool(c.broken())) for c in checks]
