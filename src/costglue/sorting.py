"""Comparison-counting sorts sealed under their comparison budgets.

The behavioral specification is a stable ascending sort.  ``isort`` and
``msort`` are instrumented implementations whose cost is exactly the
number of comparisons performed; each comes with a closed-form budget
(quadratic and log-linear respectively), and ``sealed_sort`` packages a
run with its budget so the bound is checked on every call.

Costs count comparisons only; list bookkeeping is free.  Comparison
order is fixed (insertion scans the sorted prefix from its right end
with early exit; merge compares pairwise front elements), so counts are
deterministic functions of the input.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence, Tuple

from .cost import Charged, Cost, CostLike, as_cost
from .phase import abstract_equal
from .rbtree import ELEMENTS_ALPHA, RBTree, elements, from_iterable
from .sealing import Sealed, seal


def sort_spec(items: Sequence[Any]) -> Tuple[Any, ...]:
    """The behavioral contract: the stable ascending permutation."""
    return tuple(sorted(items))


def isort(items: Sequence[Any]) -> Charged[Tuple[Any, ...]]:
    """Insertion sort; cost is the number of comparisons.

    Each element is inserted into the sorted prefix by scanning from the
    right and stopping at the first element not greater than it, so
    already-sorted input costs one comparison per insertion and reversed
    input costs the full quadratic budget.
    """
    out: List[Any] = []
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


def isort_bound(n: int) -> int:
    """Quadratic comparison budget for ``isort``."""
    return n * n


def _merge(a: List[Any], b: List[Any]) -> Tuple[List[Any], int]:
    out: List[Any] = []
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


def msort(items: Sequence[Any]) -> Charged[Tuple[Any, ...]]:
    """Merge sort splitting at the floor midpoint; cost counts comparisons.

    Merging charges one unit per comparison and takes from the left run
    on ties, which keeps the sort stable.
    """

    def go(seq: List[Any]) -> Tuple[List[Any], int]:
        if len(seq) <= 1:
            return seq, 0
        mid = len(seq) // 2
        left, cl = go(seq[:mid])
        right, cr = go(seq[mid:])
        merged, cm = _merge(left, right)
        return merged, cl + cr + cm

    result, comparisons = go(list(items))
    return Charged(Cost(comparisons), tuple(result))


def ceil_lg(n: int) -> int:
    """Ceiling of the base-2 logarithm; 0 for n <= 1."""
    return (n - 1).bit_length() if n > 1 else 0


def msort_bound(n: int) -> int:
    """Log-linear comparison budget for ``msort``."""
    return n * ceil_lg(n)


def sealed_sort(
    algorithm: Callable[[Sequence[Any]], Charged[Tuple[Any, ...]]],
    bound: Callable[[int], CostLike],
    items: Sequence[Any],
) -> Sealed[Tuple[Any, ...]]:
    """Run a sort under its budget.

    The implementation is the instrumented run; the specification is the
    stable sorted output at the budgeted cost.  Sealing checks both that
    the output is behaviorally correct and that the comparison count
    stays within the budget.
    """
    impl = algorithm(items)
    spec = Charged(as_cost(bound(len(items))), sort_spec(items))
    return seal(impl, spec)


def sealed_sort_tree(
    algorithm: Callable[[Sequence[Any]], Charged[Tuple[Any, ...]]],
    bound: Callable[[int], CostLike],
    t: RBTree,
) -> Sealed[RBTree]:
    """The tree-sorting variant: sort through the element view.

    Pre-composes with ``elements`` and post-composes with a rebuild, so
    the same sealed comparison core serves tree inputs.  The seal
    compares results up to elements, since rebuilt trees may balance
    differently from hand-built ones.
    """
    inner = sealed_sort(algorithm, bound, elements(t))
    return seal(
        Charged(inner.impl.cost, from_iterable(inner.impl.value)),
        Charged(inner.spec.cost, from_iterable(inner.spec.value)),
        beh_eq=lambda x, y: abstract_equal(x, y, ELEMENTS_ALPHA),
    )
