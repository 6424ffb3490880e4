"""A kill matrix: every broken version of an operation must fail some suite.

Each mutant is installed in the module that looks it up when the suites
run: ``costglue.suites`` for the functions the suites call, and
``costglue.sorting`` for ``_merge``, which ``msort`` calls.  Every
registered suite then runs at seed 0, 40 iterations, in FULL mode.  A
mutant that passes every suite shows a law the suites do not state, so
it fails this test.

Four mutants are known to survive and are listed in ``SURVIVORS``, each
a strict expected failure: an ``append`` that charges ``Cost(0)``, an
``append`` that charges its whole budget ``append_bound(a, b)``, an
``msort`` that reports half its comparisons for n > 2, and a ``_merge``
that takes from the right run on ties.  The append and sort cost checks
are one-sided (cost <= budget) and judge the cost an implementation
reports about itself, so under-reporting and charging the budget pass;
every sort input is a tuple of plain ints, so an unstable order cannot
be seen.  Killing them needs metered cost laws
and inputs with equal keys and distinct payloads (ROADMAP item 1).  A
survivor that some suite kills fails its row, which then moves into
``MUTANTS``.
"""

from __future__ import annotations

import pytest

from costglue import cost, phase, queues, rbtree, sealing, sorting, suites
from costglue.cost import Charged, Cost
from costglue.phase import EvaluationMode
from costglue.queues import BatchedQueueState
from test_failure_records import (
    bound_skipping_seal_charge,
    dropping_enqueue,
    forged_seal,
    misordering_isort,
    overcharging_charge,
    overcharging_dequeue,
    stale_size_append,
    subtree_dropping_append,
)


def off_by_one_reduce(f, unit, t):
    """Charges one unit too few on trees of more than one leaf."""
    out = rbtree.reduce(f, unit, t)
    if t.size > 1:
        return Charged(Cost(out.cost.value - 1), out.value)
    return out


def argument_swapping_reduce(f, unit, t):
    """Calls the combiner with its arguments the other way round."""
    return rbtree.reduce(lambda x, y: f(y, x), unit, t)


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


def dearer_seal_charge(c, s):
    """Charges the specification one unit more than the implementation."""
    return sealing.Sealed(cost.charge(c, s.impl), cost.charge(1, cost.charge(c, s.spec)), s.beh_eq)


def dearer_reseal(s, spec2):
    """Reseals under a specification one unit dearer than the one asked for."""
    return sealing.reseal(s, cost.charge(1, spec2))


def spec_keeping_reseal(s, spec2):
    """Reseals under the old specification, past ``Sealed``'s own check."""
    return forged_seal(s.impl, s.spec, s.beh_eq)


def dearer_seal_join(s):
    """Flattens a sealed seal with a specification one unit dearer."""
    flat = sealing.seal_join(s)
    return sealing.Sealed(flat.impl, cost.charge(1, flat.spec), flat.beh_eq)


def odd_cost_bind(m, k):
    """Adds a unit when ``m``'s cost is odd."""
    out = cost.bind(m, k)
    return cost.charge(m.cost.value % 2, out)


def odd_cost_erase(m):
    """Adds 1 to an int value whose cost is odd."""
    if type(m.value) is int and m.cost.value % 2:
        return m.value + 1
    return m.value


def identity_enqueue(e, s):
    """Charges for an enqueue and keeps the state as it was."""
    return Charged(Cost(1), s)


def wrong_element_dequeue(s):
    """Returns the second element of an outbox of more than three."""
    if len(s.outbox) > 3:
        return Charged(Cost(0), (s.outbox[1], BatchedQueueState(s.inbox, s.outbox[1:])))
    return queues.batched_dequeue(s)


def inbox_losing_dequeue(s):
    """Loses an inbox of more than two while the outbox holds elements too."""
    if s.outbox and len(s.inbox) > 2:
        return queues.batched_dequeue(BatchedQueueState((), s.outbox))
    return queues.batched_dequeue(s)


def free_dequeue(s):
    """Charges nothing for an honest dequeue."""
    return Charged(Cost(0), queues.batched_dequeue(s).value)


def half_charging_dequeue(s):
    """Charges half the inbox when it reverses the inbox into the outbox."""
    out = queues.batched_dequeue(s)
    if s.inbox and not s.outbox:
        return Charged(Cost(len(s.inbox) // 2), out.value)
    return out


def normalising_glue(concrete, abstract, alpha):
    """Stores a batched state with more than one inbox element with its inbox reversed onto the outbox."""
    if isinstance(concrete, BatchedQueueState) and len(concrete.inbox) > 1:
        concrete = BatchedQueueState((), queues.rev_append(concrete))
    return phase.glue(concrete, abstract, alpha)


def rebuilding_fracture(g):
    """Returns a tree of more than four leaves rebuilt from its elements."""
    concrete, abstract, alpha = phase.fracture(g)
    if isinstance(concrete, rbtree.RBTree) and concrete.size > 4:
        concrete = rbtree.from_iterable(rbtree.elements(concrete))
    return concrete, abstract, alpha


def free_append(t1, t2):
    """Charges nothing for an honest append."""
    return Charged(Cost(0), rbtree.append(t1, t2).value)


def budget_charging_append(t1, t2):
    """Charges the whole budget ``append_bound(t1, t2)`` for an honest append."""
    return Charged(Cost(rbtree.append_bound(t1, t2)), rbtree.append(t1, t2).value)


def half_reporting_msort(items):
    """Reports half its comparisons on more than two elements."""
    out = sorting.msort(items)
    if len(items) > 2:
        return Charged(Cost(out.cost.value // 2), out.value)
    return out


def right_first_merge(a, b):
    """Takes from the right run on ties, which makes the sort unstable."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if b[j] <= a[i]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    return out + a[i:] + b[j:], i + j


MUTANTS = [
    (suites, "append", subtree_dropping_append),
    (suites, "append", stale_size_append),
    (suites, "reduce", off_by_one_reduce),
    (suites, "reduce", argument_swapping_reduce),
    (suites, "mapreduce", overcharging_mapreduce),
    (suites, "append", operand_swapping_append),
    (suites, "isort", misordering_isort),
    (sorting, "_merge", leftover_dropping_merge),
    (suites, "charge", overcharging_charge),
    (suites, "seal_charge", dearer_seal_charge),
    (suites, "reseal", dearer_reseal),
    (suites, "seal_charge", bound_skipping_seal_charge),
    (suites, "reseal", spec_keeping_reseal),
    (suites, "seal_join", dearer_seal_join),
    (suites, "bind", odd_cost_bind),
    (suites, "erase", odd_cost_erase),
    (suites, "batched_enqueue", dropping_enqueue),
    (suites, "batched_enqueue", identity_enqueue),
    (suites, "batched_dequeue", overcharging_dequeue),
    (suites, "batched_dequeue", wrong_element_dequeue),
    (suites, "batched_dequeue", inbox_losing_dequeue),
    (suites, "batched_dequeue", free_dequeue),
    (suites, "batched_dequeue", half_charging_dequeue),
    (suites, "glue", normalising_glue),
    (suites, "fracture", rebuilding_fracture),
]


SURVIVORS = [
    (suites, "append", free_append),
    (suites, "append", budget_charging_append),
    (suites, "msort", half_reporting_msort),
    (sorting, "_merge", right_first_merge),
]

SURVIVES = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="passes every suite until the sorts and append meter cost and see ties (ROADMAP item 1)",
)


@pytest.mark.parametrize(
    "module, name, mutant",
    MUTANTS + [pytest.param(*row, marks=SURVIVES) for row in SURVIVORS],
    ids=[m.__name__ for _, _, m in MUTANTS + SURVIVORS],
)
def test_mutant_is_killed(monkeypatch, module, name: str, mutant) -> None:
    monkeypatch.setattr(module, name, mutant)
    killers = [
        suite for suite, run in sorted(suites.REGISTRY.items())
        if not run(seed=0, iterations=40, mode=EvaluationMode.FULL).passed
    ]
    assert killers, f"{mutant.__name__} passes every suite"
