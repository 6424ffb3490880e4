"""Sorting algorithms, comparison budgets, sealed certificates."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import given, strategies as st

from costglue.cost import Charged, Cost
from costglue.rbtree import elements, from_iterable
from costglue.sealing import BoundViolation
from costglue.sorting import (
    ceil_lg,
    isort,
    isort_bound,
    msort,
    msort_bound,
    sealed_sort_tree,
    sort_spec,
)

keys = st.integers(min_value=0, max_value=50)
seqs = st.lists(keys, max_size=64).map(tuple)


@dataclass(frozen=True)
class Tagged:
    """Orders by key only; the tag exposes reorderings of equal keys."""

    key: int
    tag: int = field(compare=False)

    def __lt__(self, other: "Tagged") -> bool:
        return self.key < other.key


class TestFrozenCases:
    def test_isort_sorted_input_is_linear(self) -> None:
        assert isort((1, 2, 3)) == Charged(Cost(2), (1, 2, 3))

    def test_isort_reversed_is_quadratic(self) -> None:
        out = isort((3, 2, 1))
        assert out.value == (1, 2, 3)
        assert out.cost == Cost(3)

    def test_msort_two(self) -> None:
        assert msort((2, 1)) == Charged(Cost(1), (1, 2))

    def test_isort_sorted_sixteen(self) -> None:
        assert isort(tuple(range(16))).cost == Cost(15)

    def test_empty_and_singleton_are_free(self) -> None:
        for f in (isort, msort):
            assert f(()) == Charged(Cost(0), ())
            assert f((7,)) == Charged(Cost(0), (7,))

    def test_ceil_lg(self) -> None:
        assert [ceil_lg(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


class TestBehavior:
    @given(seqs)
    def test_isort_matches_sorted(self, xs: tuple[int, ...]) -> None:
        assert isort(xs).value == tuple(sorted(xs))

    @given(seqs)
    def test_msort_matches_sorted(self, xs: tuple[int, ...]) -> None:
        assert msort(xs).value == tuple(sorted(xs))

    @given(st.lists(st.tuples(keys, st.integers(0, 9)), max_size=32))
    def test_both_sorts_are_stable(self, pairs: list[tuple[int, int]]) -> None:
        items = tuple(Tagged(k, i) for i, (k, _) in enumerate(pairs))
        baseline = tuple(sorted(items, key=lambda t: t.key))
        for f in (isort, msort):
            got = f(items).value
            assert tuple((t.key, t.tag) for t in got) == tuple(
                (t.key, t.tag) for t in baseline
            )

    @given(seqs)
    def test_sort_spec_oracle(self, xs: tuple[int, ...]) -> None:
        assert sort_spec(xs) == tuple(sorted(xs))


class TestBounds:
    @given(seqs)
    def test_isort_within_quadratic_budget(self, xs: tuple[int, ...]) -> None:
        assert isort(xs).cost.value <= isort_bound(len(xs))

    @given(seqs)
    def test_msort_within_linearithmic_budget(self, xs: tuple[int, ...]) -> None:
        assert msort(xs).cost.value <= msort_bound(len(xs))

    def test_exhaustive_small_permutations(self) -> None:
        for n in range(7):
            worst_i = worst_m = 0
            for perm in itertools.permutations(range(n)):
                worst_i = max(worst_i, isort(perm).cost.value)
                worst_m = max(worst_m, msort(perm).cost.value)
            assert worst_i <= isort_bound(n)
            assert worst_m <= msort_bound(n)

    def test_msort_worst_case_of_four(self) -> None:
        worst = max(msort(p).cost.value for p in itertools.permutations(range(4)))
        assert worst == 5
        assert worst <= msort_bound(4) == 8

    def test_budgets_are_comparison_counts_not_time(self) -> None:
        assert isort_bound(10) == 100
        assert msort_bound(10) == 40


class TestSealedSort:
    def test_sealed_isort_example(self) -> None:
        cert = sealed_sort_tree(isort, isort_bound, from_iterable((3, 1, 2)))
        assert elements(cert.impl.value) == (1, 2, 3)
        assert cert.impl.cost == Cost(3)
        assert cert.spec.cost == Cost(9)

    @given(seqs)
    def test_sealing_never_fails_for_honest_budgets(self, xs: tuple[int, ...]) -> None:
        sealed_sort_tree(isort, isort_bound, from_iterable(xs))
        sealed_sort_tree(msort, msort_bound, from_iterable(xs))

    def test_dishonest_budget_is_rejected(self) -> None:
        with pytest.raises(BoundViolation, match=r"^implementation cost Cost\(3\) exceeds bound Cost\(2\)$"):
            sealed_sort_tree(isort, lambda n: max(0, n - 1), from_iterable((3, 2, 1)))
        with pytest.raises(BoundViolation, match="^implementation and specification values differ$"):
            sealed_sort_tree(lambda items: Charged(Cost(0), tuple(items)), isort_bound, from_iterable((3, 2, 1)))

    @given(seqs)
    def test_sealed_sort_tree_collects_sorted_elements(self, xs: tuple[int, ...]) -> None:
        cert = sealed_sort_tree(msort, msort_bound, from_iterable(xs))
        assert elements(cert.impl.value) == tuple(sorted(xs))

    def test_sealed_sort_tree_example(self) -> None:
        cert = sealed_sort_tree(isort, isort_bound, from_iterable((3, 1, 2)))
        assert elements(cert.impl.value) == (1, 2, 3)
        assert elements(cert.spec.value) == (1, 2, 3)


# The sorts as they were before the descending-buffer insertion sort and
# the index-range merge sort, kept verbatim as the reference for the
# comparisons the instrumented sorts must make.

def reference_isort(items):
    out = []
    comparisons = 0
    for e in items:
        i = len(out)
        while i > 0:
            comparisons += 1
            if e < out[i - 1]:
                i -= 1
            else:
                break
        out.insert(i, e)
    return Charged(Cost(comparisons), tuple(out))


def reference_merge(a, b):
    out = []
    i = j = 0
    comparisons = 0
    while i < len(a) and j < len(b):
        comparisons += 1
        if b[j] < a[i]:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out, comparisons


def reference_msort(items):
    def go(seq):
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, cl = go(seq[:mid])
        right, cr = go(seq[mid:])
        merged, cm = reference_merge(left, right)
        return merged, cl + cr + cm

    result, comparisons = go(list(items))
    return Charged(Cost(comparisons), tuple(result))


class Logged:
    """Orders by key; each ``<`` appends the tags of its operands to a shared log."""

    __slots__ = ("key", "tag", "log")

    def __init__(self, key: int, tag: int, log: list) -> None:
        self.key = key
        self.tag = tag
        self.log = log

    def __lt__(self, other: "Logged") -> bool:
        self.log.append((self.tag, other.tag))
        return self.key < other.key


def trace_inputs() -> list:
    """Every permutation up to n=7, short lists with heavy ties, long lists, and sorted runs.

    Lengths 3 * 2^k split into three-element ranges only, so every leaf
    of ``msort``'s recursion is one, here with ties.  Long ascending and
    descending runs stop ``isort``'s scan at its first element and at
    its end, with and without ties.
    """
    rng = random.Random("test_sorting/trace")
    inputs = [list(p) for n in range(8) for p in itertools.permutations(range(n))]
    inputs += [[rng.randrange(5) for _ in range(rng.randrange(13))] for _ in range(300)]
    inputs += [[rng.randrange(1000) for _ in range(rng.randrange(256, 513))] for _ in range(20)]
    inputs += [[rng.randrange(4) for _ in range(3 << k)] for k in range(8) for _ in range(8)]
    for run in (list(range(300)), sorted(rng.randrange(10) for _ in range(300))):
        inputs += [run, run[::-1]]
    return inputs


def comparison_trace(sort, keys):
    """The ``<`` calls ``sort`` makes on ``keys`` as (tag, tag) pairs, its cost and output tags."""
    log: list = []
    out = sort(tuple(Logged(k, i, log) for i, k in enumerate(keys)))
    return log, out.cost.value, tuple(x.tag for x in out.value)


@pytest.mark.parametrize(
    "sort, reference",
    [(isort, reference_isort), (msort, reference_msort)],
    ids=["isort", "msort"],
)
def test_same_comparisons_as_the_reference(sort, reference) -> None:
    for keys in trace_inputs():
        log, cost, tags = comparison_trace(sort, keys)
        assert (log, cost, tags) == comparison_trace(reference, keys), keys
        assert cost == len(log)
