"""A kill matrix for the tree and sort layers: every broken version must fail some suite.

Each mutant is installed in the module that looks it up when the suites
run: ``costglue.suites`` for the functions the suites call, and
``costglue.sorting`` for ``_merge``, which ``msort`` calls.  Every
registered suite then runs at seed 0, 40 iterations, in FULL mode.  A
mutant that passes every suite shows a law the suites do not state, so
it fails this test.

Two sort mutants are known to survive and are not listed: an ``msort``
that reports half its comparisons, and a ``_merge`` that takes from the
right run on ties.  The budget checks are one-sided (cost <= budget), so
under-reporting passes, and every input is a tuple of plain ints, so an
unstable order cannot be seen.  Killing them needs a metered cost law
and inputs with equal keys and distinct payloads, which change the
report format.
"""

from __future__ import annotations

import pytest

from costglue import rbtree, sorting, suites
from costglue.cost import Charged, Cost
from costglue.phase import EvaluationMode
from test_failure_records import misordering_isort, stale_size_append, subtree_dropping_append


def off_by_one_reduce(f, unit, t):
    """Charges one unit too few on trees of more than one leaf."""
    out = rbtree.reduce(f, unit, t)
    if t.size > 1:
        return Charged(Cost(out.cost.value - 1), out.value)
    return out


def overcharging_mapreduce(t, target):
    """Charges one unit more than its appends on trees of more than four leaves."""
    out = rbtree.mapreduce(t, target)
    if t.size > 4:
        return Charged(out.cost + Cost(1), out.value)
    return out


def operand_swapping_append(t1, t2):
    """Appends the operands the other way round once the result has more than eight leaves."""
    if t1.size + t2.size > 8:
        return rbtree.append(t2, t1)
    return rbtree.append(t1, t2)


def leftover_dropping_merge(a, b):
    """Loses what is left of the right run when the left run runs out first."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if b[j] < a[i]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    return out + a[i:], i + j


MUTANTS = [
    (suites, "append", subtree_dropping_append),
    (suites, "append", stale_size_append),
    (suites, "reduce", off_by_one_reduce),
    (suites, "mapreduce", overcharging_mapreduce),
    (suites, "append", operand_swapping_append),
    (suites, "isort", misordering_isort),
    (sorting, "_merge", leftover_dropping_merge),
]


@pytest.mark.parametrize("module, name, mutant", MUTANTS, ids=[m.__name__ for _, _, m in MUTANTS])
def test_mutant_is_killed(monkeypatch, module, name: str, mutant) -> None:
    monkeypatch.setattr(module, name, mutant)
    killers = [
        suite for suite, run in sorted(suites.REGISTRY.items())
        if not run(seed=0, iterations=40, mode=EvaluationMode.FULL).passed
    ]
    assert killers, f"{mutant.__name__} passes every suite"
