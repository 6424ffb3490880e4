"""A kill matrix for the tree layer: every broken version must fail some suite.

Each mutant is installed in ``costglue.suites``, where the suites look it
up when they run, and every registered suite runs at seed 0, 40
iterations, in FULL mode.  A mutant that passes every suite shows a law
the suites do not state, so it fails this test.
"""

from __future__ import annotations

import pytest

from costglue import rbtree, suites
from costglue.cost import Charged, Cost
from costglue.phase import EvaluationMode
from test_failure_records import stale_size_append, subtree_dropping_append


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


MUTANTS = [
    ("append", subtree_dropping_append),
    ("append", stale_size_append),
    ("reduce", off_by_one_reduce),
    ("mapreduce", overcharging_mapreduce),
    ("append", operand_swapping_append),
]


@pytest.mark.parametrize("name, mutant", MUTANTS, ids=[m.__name__ for _, m in MUTANTS])
def test_mutant_is_killed(monkeypatch, name: str, mutant) -> None:
    monkeypatch.setattr(suites, name, mutant)
    killers = [
        suite for suite, run in sorted(suites.REGISTRY.items())
        if not run(seed=0, iterations=40, mode=EvaluationMode.FULL).passed
    ]
    assert killers, f"{mutant.__name__} passes every suite"
