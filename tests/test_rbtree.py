"""Leaf-data red-black trees: invariants, join costs, folds."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from costglue.cost import MAX_COST, Charged, Cost, MonoidOps, ret
from costglue.rbtree import (
    APPEND_BOUND_FACTOR,
    ELEMENTS_ALPHA,
    EMPTY,
    Color,
    Empty,
    Leaf,
    Node,
    RBTree,
    TreeInvariantError,
    append,
    append_bound,
    audit_concat,
    elements,
    from_iterable,
    length_fast,
    mapreduce,
    reduce,
    same_elements,
    singleton,
    validate,
)
from costglue.phase import InvariantBreach, abstract_equal

elems = st.integers(min_value=0, max_value=999)


def audit(t: RBTree) -> tuple[int, int]:
    """Recompute (black_height, size) from scratch; assert every invariant.

    Deliberately independent of the library's validate().
    """
    if isinstance(t, Empty):
        assert t.color is Color.BLACK
        return 0, 0
    if isinstance(t, Leaf):
        assert t.color is Color.BLACK
        return 0, 1
    assert isinstance(t, Node)
    lbh, lsz = audit(t.left)
    rbh, rsz = audit(t.right)
    assert lbh == rbh, "black heights must agree across children"
    if t.color is Color.RED:
        assert t.left.color is Color.BLACK and t.right.color is Color.BLACK, "red node with red child"
    bh = lbh + (1 if t.color is Color.BLACK else 0)
    assert t.black_height == bh, "stale cached black height"
    assert t.size == lsz + rsz, "stale cached size"
    return bh, lsz + rsz


def build(rng: random.Random, n: int) -> RBTree:
    t: RBTree = EMPTY
    label = 0
    while length_fast(t) < n:
        k = rng.randint(1, max(1, n - length_fast(t)))
        chunk = from_iterable(range(label, label + k))
        label += k
        t = append(t, chunk).value if rng.random() < 0.5 else append(chunk, t).value
    return t


class TestConstruction:
    def test_singleton_is_a_black_leaf(self) -> None:
        t = singleton(5)
        assert t.color is Color.BLACK
        assert t.black_height == 0
        assert elements(t) == (5,)

    def test_empty(self) -> None:
        assert elements(EMPTY) == ()
        assert length_fast(EMPTY) == 0

    def test_node_rejects_unequal_black_heights(self) -> None:
        tall = Node(Color.BLACK, Leaf(1), Leaf(2))
        with pytest.raises(ValueError):
            Node(Color.BLACK, tall, Leaf(3))

    @given(st.lists(elems, max_size=64).map(tuple))
    def test_from_iterable_preserves_order(self, xs: tuple[int, ...]) -> None:
        t = from_iterable(xs)
        assert elements(t) == xs
        audit(t)

    def test_validate_catches_red_violation(self) -> None:
        # Bypass checks that only append's internal constructor skips: build
        # a red-red parent through the public Node type is impossible, so
        # check validate on a healthy tree instead and on elements order.
        t = from_iterable(range(9))
        validate(t)


def append_fold(items) -> RBTree:
    """The tree folding ``append`` over singletons builds."""
    t: RBTree = EMPTY
    for e in items:
        t = append(t, Leaf(e)).value
    return t


class TestFromIterable:
    """``from_iterable`` builds the very tree the ``append`` fold builds, colors included."""

    def test_equals_the_fold_at_every_size_and_around_powers_of_two(self) -> None:
        sizes = set(range(1101)) | {2**k + d for k in range(1, 14) for d in (-1, 0, 1)}
        t: RBTree = EMPTY  # the fold over range(n), grown one append at a time
        for n in range(max(sizes) + 1):
            if n in sizes:
                assert from_iterable(range(n)) == t, n
            t = append(t, Leaf(n)).value
        assert t.size == 2**13 + 2

    @given(st.lists(st.one_of(st.none(), st.text(max_size=2), st.integers(0, 3), st.just("same")), max_size=200))
    def test_equals_the_fold_on_mixed_values(self, xs: list) -> None:
        t = from_iterable(xs)
        assert t == append_fold(xs)
        assert elements(t) == tuple(xs)
        audit(t)

    def test_reads_a_one_shot_generator_once(self) -> None:
        t = from_iterable(k * k for k in range(100))
        assert t == append_fold(k * k for k in range(100))
        assert elements(t) == tuple(k * k for k in range(100))

    def test_empty_input_is_the_empty_tree(self) -> None:
        assert from_iterable(()) is EMPTY
        assert from_iterable(iter([])) is EMPTY
        assert from_iterable([None]) == Leaf(None)


class TestAppend:
    def test_identity_on_empty(self) -> None:
        t = from_iterable((1, 2))
        assert append(EMPTY, t) == Charged(Cost(0), t)
        assert append(t, EMPTY) == Charged(Cost(0), t)

    def test_two_leaves(self) -> None:
        out = append(Leaf(1), Leaf(2))
        assert elements(out.value) == (1, 2)
        assert out.cost.value >= 1

    @given(st.lists(elems, max_size=48).map(tuple), st.lists(elems, max_size=48).map(tuple))
    def test_concatenates_elements(self, xs: tuple[int, ...], ys: tuple[int, ...]) -> None:
        out = append(from_iterable(xs), from_iterable(ys))
        assert elements(out.value) == xs + ys
        audit(out.value)

    @given(st.lists(elems, max_size=48).map(tuple), st.lists(elems, max_size=48).map(tuple))
    def test_cost_within_height_difference_bound(
        self, xs: tuple[int, ...], ys: tuple[int, ...]
    ) -> None:
        t1, t2 = from_iterable(xs), from_iterable(ys)
        out = append(t1, t2)
        diff = abs(t1.black_height - t2.black_height)
        assert out.cost.value <= append_bound(t1, t2)
        assert append_bound(t1, t2) == APPEND_BOUND_FACTOR * (diff + 2)

    def test_skew_pairs_exhaustively(self) -> None:
        sizes = [0, 1, 2, 3, 5, 9, 17, 33, 65, 129]
        for n in sizes:
            for m in sizes:
                t1 = from_iterable(range(n))
                t2 = from_iterable(range(n, n + m))
                out = append(t1, t2)
                assert elements(out.value) == tuple(range(n + m))
                assert out.cost.value <= append_bound(t1, t2)
                audit(out.value)

    def test_monoid_laws_on_random_trees(self) -> None:
        rng = random.Random(7)
        for _ in range(50):
            a = build(rng, rng.randint(0, 40))
            b = build(rng, rng.randint(0, 40))
            c = build(rng, rng.randint(0, 40))
            lhs = append(append(a, b).value, c).value
            rhs = append(a, append(b, c).value).value
            # Associative up to abstraction: shapes may differ, images agree.
            assert elements(lhs) == elements(rhs)
            assert elements(append(a, EMPTY).value) == elements(a)
            assert elements(append(EMPTY, a).value) == elements(a)

    def test_long_skew_chain_stays_balanced(self) -> None:
        t: RBTree = EMPTY
        for i in range(300):
            t = append(t, singleton(i)).value
        audit(t)
        assert elements(t) == tuple(range(300))
        # A balanced tree of 300 leaves keeps a short black spine.
        assert t.black_height <= 10


def red_chain(n: int) -> RBTree:
    """Leaves 0..n-1 under a right spine of n - 1 red nodes: red under red from depth 2 on."""
    chain: RBTree = Leaf(n - 1)
    for i in reversed(range(n - 1)):
        chain = Node(Color.RED, Leaf(i), chain)
    return chain


def recursive_fold(t: RBTree, leaf, empty, join, calls: list) -> object:
    """The fold ``mapreduce`` and ``reduce`` run, written recursively, logging each call."""
    if isinstance(t, Empty):
        return empty
    if isinstance(t, Leaf):
        calls.append(("leaf", t.value))
        return leaf(t.value)
    left = recursive_fold(t.left, leaf, empty, join, calls)
    right = recursive_fold(t.right, leaf, empty, join, calls)
    calls.append(("join", left, right))
    return join(left, right).value


def forge(color: Color, left: object, right: object, black_height: int, size: int) -> Node:
    """A node with the given fields, skipping the constructor's checks."""
    node = object.__new__(Node)
    for name, value in (("color", color), ("left", left), ("right", right),
                        ("black_height", black_height), ("size", size)):
        object.__setattr__(node, name, value)
    return node


def stale(node: Node, **fields: int) -> Node:
    """A copy of ``node`` with some cached fields overwritten."""
    cached = {"black_height": node.black_height, "size": node.size, **fields}
    return forge(node.color, node.left, node.right, cached["black_height"], cached["size"])


class TestAuditConcat:
    """The identity-frontier walk against the full validate/elements oracle."""

    def test_pool_appends_pass_and_agree_with_the_oracle(self) -> None:
        rng = random.Random(11)
        pool = [EMPTY] + [from_iterable(range(n)) for n in (1, 2, 3, 5, 8, 13)]
        for _ in range(2000):
            a, b = rng.choice(pool), rng.choice(pool)
            t = append(a, b).value
            assert audit_concat(t, a, b)
            validate(t)
            assert elements(t) == elements(a) + elements(b)
            pool.append(t if t.size <= 512 else singleton(rng.random()))
            if len(pool) > 64:
                pool.pop(rng.randrange(len(pool)))

    def test_red_node_with_a_red_child(self) -> None:
        a, b = from_iterable((1, 2)), Leaf(3)
        t = Node(Color.RED, Node(Color.RED, Leaf(1), Leaf(2)), Leaf(3))
        assert not audit_concat(t, a, b)
        with pytest.raises(ValueError, match="red child"):
            validate(t)

    @pytest.mark.parametrize("field", ["black_height", "size"])
    def test_stale_cache_on_a_new_node(self, field: str) -> None:
        a, b = from_iterable(range(5)), from_iterable(range(5, 7))
        t = append(a, b).value
        assert isinstance(t, Node)
        broken = stale(t, **{field: getattr(t, field) + 1})
        assert not audit_concat(broken, a, b)
        with pytest.raises(ValueError, match="cached"):
            validate(broken)

    def test_stale_size_below_the_root(self) -> None:
        a, b = from_iterable(range(5)), from_iterable(range(5, 7))
        t = append(a, b).value
        assert isinstance(t, Node) and isinstance(t.left, Node)
        # The parent caches the sum of the stale child, so only the child is wrong.
        broken = Node(t.color, stale(t.left, size=t.left.size + 1), t.right)
        assert not audit_concat(broken, a, b)
        with pytest.raises(ValueError, match="cached size"):
            validate(broken)

    def test_reordered_and_dropped_leaves(self) -> None:
        a, b = from_iterable((1, 2, 3)), from_iterable((4, 5))
        assert not audit_concat(append(b, a).value, a, b)
        assert not audit_concat(a, a, b)
        assert not audit_concat(append(a, Leaf(5)).value, a, b)
        assert not audit_concat(append(a, from_iterable((5, 4))).value, a, b)
        assert not audit_concat(append(a, from_iterable((4, 5, 6))).value, a, b)

    def test_non_tree_child_or_root(self) -> None:
        a, b = Leaf(1), Leaf(2)
        assert not audit_concat(forge(Color.BLACK, Leaf(1), 2, 1, 2), a, b)
        assert not audit_concat(forge(Color.BLACK, None, Leaf(2), 1, 2), a, b)
        assert not audit_concat((1, 2), a, b)  # type: ignore[arg-type]

    def test_nodes_over_empty_children(self) -> None:
        a, b = Leaf(1), Leaf(2)
        # An empty pair where a leaf belongs drops the leaf ...
        assert not audit_concat(Node(Color.BLACK, Leaf(1), Node(Color.RED, EMPTY, EMPTY)), a, b)
        # ... and append never builds an empty child, so the walk declines
        # such a node even where the oracle would pass it.
        padded = Node(Color.BLACK, Leaf(1), Node(Color.RED, Leaf(2), EMPTY))
        assert not audit_concat(padded, a, b)
        validate(padded)
        # A leafless node left over after the operands' leaves is declined too.
        trailing = Node(Color.BLACK, Leaf(1), Node(Color.RED, EMPTY, EMPTY))
        assert elements(trailing) == elements(a)
        assert not audit_concat(trailing, a, EMPTY)

    def test_empty_operands(self) -> None:
        t = from_iterable(range(4))
        assert audit_concat(EMPTY, EMPTY, EMPTY)
        assert audit_concat(t, t, EMPTY)
        assert audit_concat(t, EMPTY, t)
        assert not audit_concat(EMPTY, t, EMPTY)
        assert not audit_concat(t, EMPTY, EMPTY)

    def test_leaf_values_compare_like_tuples(self) -> None:
        nan = float("nan")
        a, b = Leaf(nan), Leaf(2)
        t = Node(Color.BLACK, Leaf(nan), Leaf(2))  # a new leaf over the same value
        assert (nan, 2) == elements(t) == elements(a) + elements(b)
        assert audit_concat(t, a, b)
        other = Node(Color.BLACK, Leaf(float("nan")), Leaf(2))
        assert elements(other) != elements(a) + elements(b)
        assert not audit_concat(other, a, b)

    def test_deep_red_chain_does_not_recurse(self) -> None:
        n = 5000
        chain = red_chain(n)
        balanced = from_iterable(range(n))
        assert not audit_concat(chain, balanced, EMPTY)
        # Operands are trusted, so the walk descends the chain without
        # checking it, iteratively, and the valid result passes.
        assert audit_concat(balanced, chain, EMPTY)


def shared_pairs(seed: int, rounds: int) -> list[tuple[RBTree, RBTree]]:
    """Pairs of pool trees that share subtrees, equal and unequal in elements."""
    rng = random.Random(seed)
    pool = [EMPTY] + [from_iterable(range(n)) for n in (1, 2, 3, 5, 8, 13)]
    pairs = []
    for _ in range(rounds):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        left = append(append(a, b).value, c).value
        right = append(a, append(b, c).value).value
        pairs += [(left, right), (append(a, b).value, append(b, a).value), (a, b),
                  (left, append(a, c).value), (append(a, b).value, a), (a, append(a, b).value)]
        pool.append(left if left.size <= 600 else singleton(rng.randrange(5)))
        if len(pool) > 48:
            pool.pop(rng.randrange(len(pool)))
    return pairs


class TestSameElements:
    """The identity-skipping walk decides ``elements(x) == elements(y)`` exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_agrees_with_elements_on_pool_pairs(self, seed: int) -> None:
        pairs = shared_pairs(seed, 300)
        verdicts = [same_elements(x, y) for x, y in pairs]
        assert verdicts == [elements(x) == elements(y) for x, y in pairs]
        assert True in verdicts and False in verdicts

    def test_is_the_kernel_of_elements_alpha(self) -> None:
        assert ELEMENTS_ALPHA.kernel is same_elements
        x, y = from_iterable(range(3)), append(Leaf(0), from_iterable((1, 2))).value
        assert x != y and abstract_equal(x, y, ELEMENTS_ALPHA)
        assert not abstract_equal(x, from_iterable(range(1, 4)), ELEMENTS_ALPHA)

    def test_equal_elements_in_different_shapes(self) -> None:
        shapes = [from_iterable(range(40))] + [
            append(from_iterable(range(k)), from_iterable(range(k, 40))).value for k in (1, 7, 20, 33)
        ]
        for x in shapes:
            for y in shapes:
                assert same_elements(x, y)
            assert not same_elements(x, append(x, Leaf(0)).value)
            assert not same_elements(x, from_iterable(range(1, 41)))

    def test_nan_leaves_compare_like_tuples(self) -> None:
        nan = float("nan")
        shared = Leaf(nan)
        cases = [
            (shared, shared),  # the same leaf
            (Leaf(nan), Leaf(nan)),  # two leaves over the same value
            (Leaf(nan), Leaf(float("nan"))),  # two distinct NaNs
            (Node(Color.BLACK, shared, Leaf(1)), Node(Color.BLACK, Leaf(nan), Leaf(1))),
            (Node(Color.BLACK, Leaf(nan), Leaf(1)), Node(Color.BLACK, Leaf(float("nan")), Leaf(1))),
        ]
        for x, y in cases:
            assert same_elements(x, y) == (elements(x) == elements(y))
        assert [same_elements(x, y) for x, y in cases] == [True, True, False, True, False]

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_stale_sizes_only_steer(self, side: str) -> None:
        a, b = from_iterable(range(6)), from_iterable(range(6, 9))
        t = append(a, b).value
        u = append(from_iterable(range(2)), from_iterable(range(2, 9))).value
        assert isinstance(t, Node) and isinstance(t.left, Node)
        for size in (0, 1, 100):
            stale_t = Node(t.color, stale(t.left, size=size), t.right)
            root = stale(t, size=size)
            for broken in (stale_t, root):
                x, y = (broken, u) if side == "x" else (u, broken)
                assert same_elements(x, y)
                assert not same_elements(x, append(y, Leaf(9)).value)

    def test_empty_and_non_tree_children_hold_no_leaves(self) -> None:
        padded = Node(Color.BLACK, Leaf(1), Node(Color.RED, Leaf(2), EMPTY))
        odd = [
            padded,
            Node(Color.RED, EMPTY, EMPTY),
            forge(Color.BLACK, Leaf(1), 2, 1, 2),
            forge(Color.BLACK, None, Leaf(2), 1, 2),
            forge(Color.BLACK, "x", forge(Color.RED, EMPTY, Leaf(3), 0, 1), 1, 2),
        ]
        plain = [EMPTY, Leaf(1), Leaf(2), from_iterable((1, 2)), from_iterable((2, 3))]
        for x in odd + plain:
            for y in odd + plain:
                assert same_elements(x, y) == (elements(x) == elements(y)), (x, y)
        assert same_elements(padded, from_iterable((1, 2)))
        assert same_elements(EMPTY, Node(Color.RED, EMPTY, EMPTY))

    def test_heavily_shared_operands(self) -> None:
        big = from_iterable(range(3000))
        grown = big
        for i in range(20):
            grown = append(grown, Leaf(i)).value if i % 2 else append(Leaf(i), grown).value
        same = big
        for i in range(20):
            same = append(same, Leaf(i)).value if i % 2 else append(Leaf(i), same).value
        assert grown is not same and same_elements(grown, same)
        assert elements(grown) == elements(same)
        assert not same_elements(grown, append(same, Leaf(0)).value)

    def test_one_operand_inside_the_other(self) -> None:
        t = from_iterable(range(100))
        assert isinstance(t, Node)
        for sub in (t.left, t.right, t.left.left):
            assert not same_elements(t, sub) and not same_elements(sub, t)
        assert same_elements(append(t.left, t.right).value, t)
        assert same_elements(t, Node(t.color, t.left, t.right))

    def test_deep_red_chain_does_not_recurse(self) -> None:
        n = 5000
        chain = red_chain(n)
        assert same_elements(chain, from_iterable(range(n)))
        assert same_elements(from_iterable(range(n)), chain)
        assert not same_elements(chain, from_iterable(range(1, n + 1)))
        assert same_elements(chain, red_chain(n))


class TestValidate:
    """``validate`` is iterative and reports the first breach a recursive audit meets."""

    def test_deep_red_chain_is_a_breach(self) -> None:
        with pytest.raises(ValueError, match="red node with a red child"):
            validate(red_chain(5000))

    def test_deep_valid_tree_passes(self) -> None:
        t = from_iterable(range(5000))
        validate(t)
        assert audit(t) == (t.black_height, 5000)

    def test_left_breach_is_reported_before_right_and_parent(self) -> None:
        good = from_iterable(range(4))
        assert isinstance(good, Node)
        left = stale(good, size=good.size + 1)
        right = stale(good, black_height=good.black_height + 1)
        t = forge(Color.BLACK, left, right, good.black_height + 9, 0)
        with pytest.raises(ValueError, match=f"cached size {good.size + 1}, recomputed {good.size}"):
            validate(t)
        with pytest.raises(ValueError, match="cached black height"):
            validate(forge(Color.BLACK, good, right, good.black_height + 1, 2 * good.size))
        with pytest.raises(ValueError, match=f"cached size 0, recomputed {2 * good.size}"):
            validate(forge(Color.BLACK, good, good, good.black_height + 1, 0))

    def test_non_tree_child(self) -> None:
        with pytest.raises(ValueError, match="not a tree: 'x'"):
            validate(forge(Color.BLACK, Leaf(1), "x", 1, 2))

    def test_breaches_are_tree_invariant_errors(self) -> None:
        with pytest.raises(TreeInvariantError, match="red node with a red child") as info:
            validate(red_chain(3))
        assert isinstance(info.value, InvariantBreach) and isinstance(info.value, ValueError)
        with pytest.raises(TreeInvariantError, match="child black heights differ"):
            Node(Color.BLACK, Node(Color.BLACK, Leaf(1), Leaf(2)), Leaf(3))


class TestDeepFolds:
    """The folds are iterative: a 5000-deep chain folds without recursion."""

    def test_mapreduce_and_reduce_fold_a_deep_chain(self) -> None:
        chain = red_chain(5000)
        plus = lambda a, b: Charged(Cost(1), a + b)  # noqa: E731
        total = sum(range(5000))
        assert mapreduce(chain, MonoidOps(empty=0, append=plus, singleton=lambda e: e)) == Charged(Cost(4999), total)
        assert reduce(plus, 0, chain) == Charged(Cost(5000 + 4999), total)

    @pytest.mark.parametrize("seed", range(5))
    def test_calls_follow_the_recursive_order(self, seed: int) -> None:
        rng = random.Random(seed)
        inner = build(rng, rng.randint(1, 40))
        # Folds ignore the invariants; a node over an Empty child, which
        # ``append`` never builds, folds the Empty to the target's empty.
        right = forge(Color.RED, inner, Leaf(-2), inner.black_height, inner.size + 1)
        t = forge(Color.BLACK, Node(Color.RED, EMPTY, Leaf(-1)), right, 0, inner.size + 2)
        got: list = []

        def logged(join):
            def run(a, b):
                got.append(("join", a, b))
                return join(a, b)
            return run

        def singleton(e):
            got.append(("leaf", e))
            return (e,)

        concat = lambda a, b: Charged(Cost(len(a)), a + b)  # noqa: E731
        want: list = []
        expected = recursive_fold(t, lambda e: (e,), (), concat, want)
        out = mapreduce(t, MonoidOps(empty=(), append=logged(concat), singleton=singleton))
        assert got == want
        assert out.value == expected == elements(t)
        assert out.cost.value == sum(len(c[1]) for c in want if c[0] == "join")

        plus = lambda a, b: Charged(Cost(a % 3), a + b)  # noqa: E731
        got.clear()
        want.clear()
        expected = recursive_fold(t, lambda e: e, 100, plus, want)
        out = reduce(logged(plus), 100, t)
        joins = [c for c in want if c[0] == "join"]
        assert got == joins
        assert out.value == expected == sum(elements(t)) + 100
        # One unit per leaf and per Empty visited, plus the combiner's charges.
        assert out.cost.value == t.size + 1 + sum(c[1] % 3 for c in joins)

    def test_summed_cost_overflows_like_a_partial_sum(self) -> None:
        half = MAX_COST // 2
        t = from_iterable(range(3))  # two internal nodes

        def target(step: int) -> MonoidOps:
            return MonoidOps(empty=0, append=lambda a, b: Charged(Cost(step), a + b), singleton=lambda e: e)

        assert mapreduce(t, target(half)).cost == Cost(2 * half)
        with pytest.raises(OverflowError):
            mapreduce(t, target(half + 1))
        with pytest.raises(OverflowError):
            reduce(lambda a, b: Charged(Cost(half), a + b), 0, t)


class TestObservers:
    SUM_VIEW = MonoidOps(empty=0, append=lambda a, b: Charged(Cost(1), a + b), singleton=lambda e: e)

    @given(st.lists(elems, max_size=64).map(tuple))
    def test_length_fast_matches_elements(self, xs: tuple[int, ...]) -> None:
        t = from_iterable(xs)
        assert length_fast(t) == len(elements(t)) == len(xs)

    def test_elements_alpha(self) -> None:
        assert ELEMENTS_ALPHA.apply(from_iterable((4, 5))) == (4, 5)

    def test_abstract_clients_ignore_shape(self) -> None:
        # Same multiset of leaves via different append schedules: every
        # abstract observer must agree even though shapes differ.
        xs = tuple(range(33))
        shapes = [from_iterable(xs)] + [build(random.Random(s), 33) for s in range(4)]
        assert {length_fast(t) for t in shapes} == {33}
        for t in shapes:
            assert len(elements(t)) == 33
            assert mapreduce(t, self.SUM_VIEW).value == sum(elements(t))


class TestMapReduce:
    SUM = MonoidOps(empty=0, append=lambda a, b: Charged(Cost(1), a + b), singleton=lambda e: e)
    MAX = MonoidOps(
        empty=0, append=lambda a, b: Charged(Cost(1), max(a, b)), singleton=lambda e: e
    )
    LIST = MonoidOps(
        empty=(), append=lambda a, b: Charged(Cost(1), a + b), singleton=lambda e: (e,)
    )

    def test_max_example(self) -> None:
        t = from_iterable((3, 5, 1))
        assert mapreduce(t, self.MAX).value == 5

    @given(st.lists(elems, max_size=64).map(tuple))
    def test_agrees_with_flat_folds(self, xs: tuple[int, ...]) -> None:
        t = from_iterable(xs)
        assert mapreduce(t, self.SUM).value == sum(xs)
        assert mapreduce(t, self.LIST).value == xs
        if xs:
            assert mapreduce(t, self.MAX).value == max(xs)

    @given(st.lists(elems, min_size=1, max_size=64).map(tuple))
    def test_cost_is_linear_in_appends(self, xs: tuple[int, ...]) -> None:
        t = from_iterable(xs)
        out = mapreduce(t, self.SUM)
        # One append per internal node of the build.
        assert out.cost.value <= max(0, len(xs) - 1) + 1


class TestReduce:
    def test_frozen_example(self) -> None:
        t = from_iterable((1, 2, 3, 4))
        out = reduce(lambda a, b: Charged(Cost(1), a + b), 0, t)
        assert out.value == 10
        assert out.cost == Cost(7)

    def test_empty_tree(self) -> None:
        out = reduce(lambda a, b: Charged(Cost(1), a + b), 0, EMPTY)
        assert out.value == 0
        assert out.cost <= Cost(1)

    @given(st.lists(elems, min_size=1, max_size=200).map(tuple))
    def test_cost_is_under_twice_the_size(self, xs: tuple[int, ...]) -> None:
        t = from_iterable(xs)
        out = reduce(lambda a, b: Charged(Cost(1), a + b), 0, t)
        assert out.value == sum(xs)
        assert out.cost.value == 2 * len(xs) - 1
        assert out.cost.value <= 2 * length_fast(t)

    def test_free_combiner_costs_only_visits(self) -> None:
        t = from_iterable(range(8))
        out = reduce(lambda a, b: ret(a + b), 0, t)
        assert out.cost == Cost(8)
