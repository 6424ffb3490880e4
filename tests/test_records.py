"""The records the charged core builds in its hot loops: slotted, frozen, checked."""

from __future__ import annotations

import cProfile
import dataclasses
import operator

import pytest

from costglue import cost, rbtree, sealing
from costglue.cost import MAX_COST, ONE, ZERO, Charged, Cost, bind, charge, ret
from costglue.phase import glue
from costglue.queues import BATCHED_ALPHA, BatchedQueueState, ListQueueState, batched_enqueue, list_enqueue
from costglue.rbtree import EMPTY, Color, Empty, Leaf, Node
from costglue.sealing import BoundViolation, Sealed, seal


def records() -> list:
    return [
        Cost(3),
        Charged(Cost(3), 4),
        seal(Charged(Cost(1), 2), Charged(Cost(3), 2)),
        ListQueueState((1, 2)),
        BatchedQueueState((3,), (1, 2)),
        EMPTY,
        Leaf(1),
        Node(Color.RED, Leaf(1), Leaf(2)),
        glue(BatchedQueueState((3,), (1, 2)), (1, 2, 3), BATCHED_ALPHA),
    ]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_frozen_and_slotted(record) -> None:
    assert not hasattr(record, "__dict__")
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, getattr(record, f.name))
    with pytest.raises((AttributeError, TypeError)):
        record.extra = 1


def test_repr() -> None:
    assert repr(Cost(3)) == "Cost(3)"
    assert repr(Charged(Cost(3), 4)) == "Charged(cost=Cost(3), value=4)"
    assert repr(seal(Charged(1, 2), Charged(3, 2))) == (
        "Sealed(impl=Charged(cost=Cost(1), value=2), spec=Charged(cost=Cost(3), value=2), "
        "beh_eq=<built-in function eq>)"
    )
    assert repr(ListQueueState()) == "ListQueueState(items=())"
    assert repr(BatchedQueueState((3,), (1, 2))) == "BatchedQueueState(inbox=(3,), outbox=(1, 2))"


def test_equality_and_hash() -> None:
    assert Cost(3) == Cost(3) and Cost(3) != Cost(4) and Cost(3) != 3
    assert hash(Cost(3)) == hash((3,))
    assert hash(Charged(Cost(3), 4)) == hash((Cost(3), 4))
    assert Charged(Cost(3), 4) != (Cost(3), 4)
    assert seal(Charged(1, 2), Charged(3, 2)) == seal(Charged(1, 2), Charged(3, 2), lambda a, b: True)
    assert hash(BatchedQueueState((3,), (1,))) == hash(((3,), (1,)))
    assert BatchedQueueState() == BatchedQueueState((), ()) != BatchedQueueState((1,), ())
    assert ListQueueState((1,)) == ListQueueState((1,)) != ListQueueState()
    assert (Cost(1) == 1) is False and (1 == Cost(1)) is False and Cost(1) != 1
    total = Cost(2) + Cost(3)
    assert total == Cost(5) and Cost(5) == total and hash(total) == hash(Cost(5)) == hash((5,))
    assert {total: "x"}[Cost(5)] == "x"
    for impl, spec, overrun in ((3, 3, False), (4, 3, True), (2, 3, False)):
        assert BoundViolation(Cost(impl), Cost(spec), False).cost_overrun is overrun


def test_ordering() -> None:
    assert sorted([Cost(3), Cost(1), Cost(2)]) == [Cost(1), Cost(2), Cost(3)]
    assert Cost(1) < Cost(2) <= Cost(2) and Cost(3) > Cost(2) >= Cost(2)
    with pytest.raises(TypeError):
        Cost(1) < 2  # noqa: B015
    with pytest.raises(TypeError):
        Cost(1) <= 1  # noqa: B015
    with pytest.raises(TypeError):
        Cost(1) >= 1  # noqa: B015
    costs = [Cost(2), Cost(0), Cost(7), Cost(2)]
    assert max(costs) == Cost(7) and min(costs) == Cost(0)
    assert sorted(costs) == [Cost(0), Cost(2), Cost(2), Cost(7)]
    assert sorted(costs, reverse=True) == [Cost(7), Cost(2), Cost(2), Cost(0)]
    assert not Cost(2) < Cost(2) and not Cost(2) > Cost(2) and Cost(2) >= Cost(2) <= Cost(2)
    with pytest.raises(TypeError):
        Charged(Cost(1), 1) < Charged(Cost(2), 1)  # noqa: B015


def test_sums_are_ordinary_costs() -> None:
    total = Cost(2) + Cost(3)
    assert type(total) is Cost
    assert total == Cost(5) and hash(total) == hash(Cost(5)) and repr(total) == "Cost(5)"
    assert Cost(MAX_COST - 1) + ONE == Cost(MAX_COST)
    with pytest.raises(OverflowError):
        Cost(MAX_COST) + Cost(1)
    assert Cost(1).__add__(1) is NotImplemented


def test_shared_constants() -> None:
    assert ZERO == Cost(0) and ONE == Cost(1)
    assert list_enqueue(7, ListQueueState()).cost is ONE
    assert batched_enqueue(7, BatchedQueueState()).cost is ONE


def test_charged_coerces_and_validates_its_cost() -> None:
    assert Charged(3, "a").cost == Cost(3)
    assert type(Charged(3, "a").cost) is Cost
    with pytest.raises(ValueError):
        Charged(-1, "a")
    with pytest.raises(TypeError):
        Charged(True, "a")
    with pytest.raises(OverflowError):
        Charged(MAX_COST + 1, "a")
    assert Charged(cost=2, value="b") == Charged(Cost(2), "b")


def test_sealed_still_rejects_every_invalid_seal() -> None:
    with pytest.raises(BoundViolation):
        Sealed(Charged(4, 1), Charged(3, 1))
    with pytest.raises(BoundViolation):
        Sealed(Charged(1, 1), Charged(3, 2))
    with pytest.raises(BoundViolation):
        Sealed(Charged(1, 1), Charged(3, 1), lambda a, b: False)
    assert Sealed(Charged(1, 1), Charged(3, 1)).beh_eq is operator.eq


def test_queue_states_default_to_empty() -> None:
    assert ListQueueState().items == ()
    assert BatchedQueueState().inbox == BatchedQueueState().outbox == ()
    assert BatchedQueueState(outbox=(1,)) == BatchedQueueState((), (1,))


def post_init_calls(build) -> dict:
    """How many of each counted record ``build()`` constructs.

    Each class aliases ``__post_init__`` to its one ``__init__``, so the
    calls of that code object are the constructions, as perfbench counts them.
    """
    counted = {
        "Cost": cost.Cost.__post_init__,
        "Charged": cost.Charged.__post_init__,
        "Sealed": sealing.Sealed.__post_init__,
        "Node": rbtree.Node.__post_init__,
    }
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    build()
    profiler.disable()
    calls = {e.code: e.callcount for e in profiler.getstats()}
    return {name: calls.get(fn.__code__, 0) for name, fn in counted.items()}


def test_post_init_runs_once_per_construction() -> None:
    m = Charged(Cost(2), 1)
    n = 50

    def build() -> None:
        for _ in range(n):
            Charged(Cost(1), 0)  # one Cost, one Charged
            ret(0)  # one Charged
            charge(ONE, m)  # one Charged; the sum skips Cost validation
            bind(m, lambda x: Charged(3, x))  # two Charged, one Cost (from the int)
            seal(m, charge(ONE, m))  # one Sealed, one Charged
            rbtree.Node(rbtree.Color.RED, rbtree.Leaf(1), rbtree.Leaf(2))  # one Node

    assert post_init_calls(build) == {"Cost": 2 * n, "Charged": 6 * n, "Sealed": n, "Node": n}


def test_tree_repr_equality_and_hash_leave_the_caches_out() -> None:
    left, right = Leaf(1), Node(Color.RED, Leaf(2), Leaf(3))
    node = Node(Color.BLACK, left, right)
    assert repr(EMPTY) == "Empty()" and repr(left) == "Leaf(value=1)"
    assert repr(node) == (
        "Node(color=<Color.BLACK: 'black'>, left=Leaf(value=1), right=Node(color=<Color.RED: 'red'>, "
        "left=Leaf(value=2), right=Leaf(value=3)))"
    )
    assert (node.black_height, node.size, right.black_height, right.size) == (1, 3, 0, 2)
    assert Empty() == EMPTY and hash(EMPTY) == hash(())
    assert Leaf(1) == left != Leaf(2) and hash(left) == hash((1,))
    assert Node(color=Color.BLACK, left=Leaf(1), right=right) == node
    assert hash(node) == hash((Color.BLACK, left, right))
    stale = Node(Color.BLACK, left, right)
    object.__setattr__(stale, "size", 99)
    assert stale == node and hash(stale) == hash(node) and repr(stale) == repr(node)
    assert [f.name for f in dataclasses.fields(Node) if f.compare] == ["color", "left", "right"]


def test_unequal_child_black_heights_still_raise() -> None:
    tall = Node(Color.BLACK, Leaf(1), Leaf(2))
    with pytest.raises(ValueError, match="child black heights differ: 1 vs 0"):
        Node(Color.RED, tall, Leaf(3))
    with pytest.raises(ValueError, match="child black heights differ: 0 vs 1"):
        Node(Color.BLACK, Leaf(3), tall)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 8, 9, 100, 1025])
def test_from_iterable_builds_one_node_per_internal_node(n: int) -> None:
    tree = []
    calls = post_init_calls(lambda: tree.append(rbtree.from_iterable(range(n))))
    assert calls == {"Cost": 0, "Charged": 0, "Sealed": 0, "Node": max(n - 1, 0)}
    assert tree[0].size == n


def test_one_node_post_init_per_node_append_builds() -> None:
    trees = [rbtree.from_iterable(range(n)) for n in (0, 1, 3, 8, 40, 300)]
    built = 0

    def build() -> None:
        nonlocal built
        for a in trees:
            for b in trees:
                built += rbtree.append(a, b).cost.value

    assert post_init_calls(build)["Node"] == built > 0
