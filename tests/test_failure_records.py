"""Failure records of broken implementations, pinned byte for byte.

Each test installs a broken implementation in ``costglue.suites``, where
the suites look it up when they run, and checks the failure records that
come out: what a user sees when a suite rejects an implementation.
"""

from __future__ import annotations

import hashlib

import pytest

from costglue import cost, queues, rbtree, sorting, suites
from costglue.cli import emit_json
from costglue.cost import Charged, Cost
from costglue.phase import EvaluationMode
from costglue.rbtree import Node
from costglue.sealing import Sealed

FULL = EvaluationMode.FULL
ABSTRACT = EvaluationMode.ABSTRACT
BEHAVIORAL = EvaluationMode.BEHAVIORAL


def _records(rep):
    return [(f.law, f.input, f.expected, f.actual) for f in rep.failures]


def misordering_isort(items):
    """Reverses, and counts half the comparisons, on inputs of 9 or more."""
    out = sorting.isort(items)
    if len(items) < 9:
        return out
    return Charged(Cost(out.cost.value // 2), out.value[::-1])


def overcharging_charge(c, m):
    return cost.charge(cost.as_cost(c) + Cost(1), m)


def dropping_enqueue(e, s):
    """Loses every enqueued 1."""
    if e == 1:
        return Charged(Cost(1), s)
    return queues.batched_enqueue(e, s)


def overcharging_dequeue(s):
    out = queues.batched_dequeue(s)
    return Charged(out.cost + Cost(1), out.value)


def subtree_dropping_append(t1, t2):
    """Drops the right subtree of every result with more than eight leaves."""
    out = rbtree.append(t1, t2)
    t = out.value
    if isinstance(t, Node) and t.size > 8:
        return Charged(out.cost, t.left)
    return out


def stale_size_append(t1, t2):
    """Caches a size one too large on the new root of every fifth size."""
    out = rbtree.append(t1, t2)
    t = out.value
    if isinstance(t, Node) and t is not t1 and t is not t2 and t.size % 5 == 0:
        stale = Node(t.color, t.left, t.right)
        object.__setattr__(stale, "size", t.size + 1)
        return Charged(out.cost, stale)
    return out


def forged_seal(impl, spec, beh_eq):
    """A ``Sealed`` built past its own check, valid or not."""
    forged = object.__new__(Sealed)
    Sealed.impl.__set__(forged, impl)
    Sealed.spec.__set__(forged, spec)
    Sealed.beh_eq.__set__(forged, beh_eq)
    return forged


def bound_skipping_seal_charge(c, s):
    """Charges the implementation but not the bound, past ``Sealed``'s own check."""
    return forged_seal(cost.charge(c, s.impl), s.spec, s.beh_eq)


# (cases, SHA-1 of the emitted report) of rbtree/invariants at seed 0 and
# 60 iterations with a broken append, per mode.
TREE_RECORDS = {
    subtree_dropping_append: {
        "full": (282, "e6f95a86c07e349c89c755906be16d2aff1ff694"),
        "abstract": (222, "765d57bd0f10e0f1f65d1bd500904cdc080ec4c9"),
        "concrete": (60, "44620b33a9f721888a139282432e03628404ad4a"),
        "behavioral": (162, "debdbb3d330369a197a48afb91e450c864e2bede"),
    },
    stale_size_append: {
        "full": (282, "9506027752fb917186c30fe242f4d3893974d1ce"),
        "abstract": (222, "5bec9a379da3db495d90d8f606d2980ecfc1a96d"),
        "concrete": (60, "dbc5dd9d6132a927bf03f6417ad1bc4e4d374185"),
        "behavioral": (162, "863b0a1be7aed4faf166329c9abc5c7b199386ff"),
    },
}

SORTING_RECORDS = [
    (
        'sorting/isort-behavior',
        '(599, 378, 274, 786, 845, 177, 778, 190, 48, 131, 202, 197, 67, 318, 642, 48, 101, 190, 128, 685, 240, 817, 789, 198, 999, 843, 912, 684, 457, 506, 725, 258, 838, 16, 411, 248, 951, 103, 688, 189, 969...',
        '(10, 16, 25, 48, 48, 51, 55, 67, 85, 101, 103, 128, 131, 161, 177, 182, 189, 190, 190, 197, 198, 202, 202, 217, 228, 240, 248, 258, 274, 318, 348, 363, 378, 386, 411, 454, 457, 475, 502, 506, 524, 566...',
        '(999, 969, 960, 951, 928, 912, 850, 845, 843, 838, 817, 789, 786, 778, 733, 732, 725, 720, 697, 692, 688, 685, 684, 654, 650, 642, 638, 636, 615, 604, 599, 592, 566, 524, 506, 502, 475, 457, 454, 411,...',
    ),
    (
        'sorting/isort-behavior',
        '(197, 101, 150, 209, 96, 561, 206, 830, 750, 878, 128, 325, 481, 751, 367, 825, 94, 141, 418, 983, 530, 849, 717, 889, 746, 111, 296, 229, 879, 243, 133, 639, 213, 540, 930, 306, 78, 596, 436, 997, 57...',
        '(57, 60, 78, 83, 94, 96, 101, 111, 128, 133, 138, 141, 150, 197, 206, 209, 213, 229, 243, 275, 296, 306, 325, 353, 367, 398, 418, 436, 481, 530, 532, 540, 549, 561, 576, 582, 596, 608, 639, 691, 717, ...',
        '(997, 983, 956, 930, 904, 902, 889, 879, 878, 872, 849, 830, 825, 751, 750, 746, 745, 745, 717, 691, 639, 608, 596, 582, 576, 561, 549, 540, 532, 530, 481, 436, 418, 398, 367, 353, 325, 306, 296, 275,...',
    ),
    (
        'sorting/isort-sorted-input',
        '(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15)',
        '15',
        '7',
    ),
]

COST_RECORDS = [
    (
        'cost/charge-zero',
        'Charged(cost=Cost(63), value=47)',
        'Charged(cost=Cost(63), value=47)',
        'Charged(cost=Cost(64), value=47)',
    ),
    (
        'cost/charge-plus',
        '(Cost(86), Cost(49), Charged(cost=Cost(63), value=47))',
        'Charged(cost=Cost(199), value=47)',
        'Charged(cost=Cost(200), value=47)',
    ),
    (
        'cost/charge-zero',
        'Charged(cost=Cost(95), value=-372)',
        'Charged(cost=Cost(95), value=-372)',
        'Charged(cost=Cost(96), value=-372)',
    ),
    (
        'cost/charge-plus',
        '(Cost(62), Cost(78), Charged(cost=Cost(95), value=-372))',
        'Charged(cost=Cost(236), value=-372)',
        'Charged(cost=Cost(237), value=-372)',
    ),
]


def test_sorting_bounds_records_a_misordering_sort(monkeypatch) -> None:
    monkeypatch.setattr(suites, "isort", misordering_isort)
    rep = suites.REGISTRY["sorting/bounds"](0, 2, FULL)
    assert rep.cases == 3507
    assert _records(rep) == SORTING_RECORDS


def test_cost_laws_record_an_overcharging_charge(monkeypatch) -> None:
    monkeypatch.setattr(suites, "charge", overcharging_charge)
    rep = suites.REGISTRY["cost/laws"](0, 2, FULL)
    assert rep.cases == 20
    assert _records(rep) == COST_RECORDS


def test_seal_laws_record_a_bound_skipping_seal_charge(monkeypatch) -> None:
    monkeypatch.setattr(suites, "seal_charge", bound_skipping_seal_charge)
    rep = suites.REGISTRY["sealing/laws"](0, 40, FULL)
    # Every forged seal keeps the uncharged specification, so it differs
    # from the honest seal of the charged pair on each of the 40 draws,
    # none of which charges 0.
    assert [f.law for f in rep.failures] == ["seal/charge-commutes"] * 40
    assert _records(rep)[0] == (
        "seal/charge-commutes",
        "(6, Sealed(impl=Charged(cost=Cost(48), value=24), spec=Charged(cost=Cost(66), value=24), "
        "beh_eq=<built-in function eq>))",
        "Sealed(impl=Charged(cost=Cost(54), value=24), spec=Charged(cost=Cost(72), value=24), "
        "beh_eq=<built-in function eq>)",
        "Sealed(impl=Charged(cost=Cost(54), value=24), spec=Charged(cost=Cost(66), value=24), "
        "beh_eq=<built-in function eq>)",
    )
    assert (rep.cases, hashlib.sha1(emit_json(rep).encode()).hexdigest()) == (
        480, "cc93163a0756cbb4e6b94d448ace1251e45a4a6c")


@pytest.mark.parametrize("mode", [FULL, BEHAVIORAL])
def test_queue_coherence_rejects_a_dropping_enqueue(monkeypatch, mode) -> None:
    monkeypatch.setattr(suites, "batched_enqueue", dropping_enqueue)
    rep = suites.REGISTRY["queues/coherence"](0, 20, mode)
    # A trace's walk ends at its first failing square, so no later step
    # records a dequeue or quotient failure that the enqueue caused.
    assert {f.law for f in rep.failures} == {"square/enqueue"}
    # A square's record shows (cost, image) pairs, the batched cost
    # amortized, only in a mode that judges cost.
    images = {
        FULL: ("(2, (1,))", "(1, ())"),
        BEHAVIORAL: ("(1,)", "()"),
    }[mode]
    assert ("(1, BatchedQueueState(inbox=(), outbox=()))", *images) in [
        (f.input, f.expected, f.actual) for f in rep.failures]


def test_queue_coherence_abstract_record_of_a_dropping_enqueue(monkeypatch) -> None:
    # The third judging mode: records as in FULL, pinned as the whole
    # report, (cases, SHA-1 of the emitted JSON), at seed 0 and 20 iterations.
    monkeypatch.setattr(suites, "batched_enqueue", dropping_enqueue)
    rep = suites.REGISTRY["queues/coherence"](0, 20, ABSTRACT)
    assert {f.law for f in rep.failures} == {"square/enqueue"}
    assert ("(1, BatchedQueueState(inbox=(), outbox=()))", "(2, (1,))", "(1, ())") == (
        rep.failures[0].input, rep.failures[0].expected, rep.failures[0].actual)
    assert (rep.cases, hashlib.sha1(emit_json(rep).encode()).hexdigest()) == (
        6002, "ac146a09ab85d0103f0054b654b1213de3e311ea")


def test_queue_coherence_rejects_an_overcharging_dequeue(monkeypatch) -> None:
    monkeypatch.setattr(suites, "batched_dequeue", overcharging_dequeue)
    rep = suites.REGISTRY["queues/coherence"](0, 20, FULL)
    laws = {f.law for f in rep.failures}
    assert "square/dequeue" in laws


def test_behavioral_mode_erases_the_dequeue_overcharge(monkeypatch) -> None:
    monkeypatch.setattr(suites, "batched_dequeue", overcharging_dequeue)
    assert suites.REGISTRY["queues/coherence"](0, 20, BEHAVIORAL).passed


@pytest.mark.parametrize("mode", [m.value for m in EvaluationMode])
@pytest.mark.parametrize("broken", list(TREE_RECORDS), ids=lambda f: f.__name__)
def test_tree_invariants_record_a_broken_append(monkeypatch, broken, mode) -> None:
    monkeypatch.setattr(suites, "append", broken)
    rep = suites.REGISTRY["rbtree/invariants"](0, 60, EvaluationMode(mode))
    digest = hashlib.sha1(emit_json(rep).encode()).hexdigest()
    assert (rep.cases, digest) == TREE_RECORDS[broken][mode]
    # Only concrete mode, which judges no abstract agreement, lets the
    # dropped subtree through.
    assert rep.passed == (broken is subtree_dropping_append and mode == "concrete")
