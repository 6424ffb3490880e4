"""Comparison-counting sorts sealed under their comparison budgets.

The behavioral specification is a stable ascending sort.  ``isort`` and
``msort`` are instrumented implementations whose cost is exactly the
number of comparisons performed; each comes with a closed-form budget
(quadratic and log-linear respectively), and ``sealed_sort_tree`` sorts
a tree's elements and seals the run under its budget, so the bound is
checked on every call.

Costs count comparisons only; list bookkeeping is free.  Comparison
order is fixed (insertion scans the sorted prefix from its largest
element down with early exit; merge compares pairwise front elements),
so counts are deterministic functions of the input.  ``isort`` keeps
its prefix in descending order so that this scan is a forward loop, and
``msort`` sorts index ranges of one list with two- and three-element
ranges sorted inline.  Either way the ``<`` calls and their order are
those of the textbook formulations (an ascending prefix scanned right
to left, a merge of slices), which ``tests/test_sorting.py`` keeps as
its reference; only the bookkeeping around them differs.
"""

from __future__ import annotations

from operator import length_hint
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

    Each element is inserted into the sorted prefix by scanning from its
    largest element down and stopping at the first element not greater
    than it, so already-sorted input costs one comparison per insertion
    and reversed input costs n(n-1)/2 against the budget of n^2.  The
    prefix is kept in descending order, so the scan is a forward loop,
    and reversed once at the end; the comparisons and their order are
    those of a right-to-left scan of an ascending prefix.

    The scan keeps no counter: where it stops, the elements it consumed
    are the prefix length minus what its iterator has left
    (``length_hint``), the comparisons it made, and the element goes
    just before the last of them.  A scan that runs to the end made one
    comparison per element and appends.
    """
    desc: List[Any] = []
    comparisons = 0
    for e in items:
        scan = iter(desc)
        for x in scan:
            if not e < x:
                made = len(desc) - length_hint(scan)
                desc.insert(made - 1, e)
                break
        else:
            made = len(desc)
            desc.append(e)
        comparisons += made
    desc.reverse()
    return Charged(Cost(comparisons), tuple(desc))


def isort_bound(n: int) -> int:
    """Quadratic comparison budget for ``isort``."""
    return n * n


def _merge(a: List[Any], b: List[Any]) -> Tuple[List[Any], int]:
    """Merge two sorted runs, taking from ``a`` on ties; return the comparisons made.

    Each comparison moves one element out of a run, so the count is the
    number of elements taken when the first run runs out.
    """
    out: List[Any] = []
    i = j = 0
    na, nb = len(a), len(b)
    if na and nb:
        x, y = a[0], b[0]
        while True:
            if y < x:
                out.append(y)
                j += 1
                if j == nb:
                    break
                y = b[j]
            else:
                out.append(x)
                i += 1
                if i == na:
                    break
                x = a[i]
    out += a[i:]
    out += b[j:]
    return out, i + j


def _msort_range(seq: List[Any], lo: int, hi: int) -> Tuple[List[Any], int]:
    """Sort the range ``seq[lo:hi]`` of at least two elements; return it with the comparisons made."""
    if hi - lo == 2:
        x, y = seq[lo], seq[lo + 1]
        return ([y, x] if y < x else [x, y]), 1
    if hi - lo == 3:  # the pair ``x, y`` first, then each merged with ``a``
        a, x, y = seq[lo], seq[lo + 1], seq[lo + 2]
        if y < x:
            x, y = y, x
        if x < a:
            return ([x, y, a] if y < a else [x, a, y]), 3
        return [a, x, y], 2
    mid = (lo + hi) // 2
    left, cl = _msort_range(seq, lo, mid)
    right, cr = _msort_range(seq, mid, hi)
    merged, cm = _merge(left, right)
    return merged, cl + cr + cm


def msort(items: Sequence[Any]) -> Charged[Tuple[Any, ...]]:
    """Merge sort splitting at the floor midpoint; cost counts comparisons.

    Merging charges one unit per comparison and takes from the left run
    on ties, which keeps the sort stable.  A two-element range costs its
    one comparison inline, as merging two singletons would.  A
    three-element range ``a, x, y`` is sorted inline as the recursion
    would: the pair ``y < x`` first, then the smaller of the pair
    against ``a``, and the larger against ``a`` only if the smaller was
    less; so 2 or 3 comparisons, ``a`` first on ties.  The recursion is
    a module-level function over index ranges, so a run leaves no
    closure cycle for the garbage collector.
    """
    seq = list(items)
    if len(seq) < 2:
        return Charged(Cost(0), tuple(seq))
    result, comparisons = _msort_range(seq, 0, len(seq))
    return Charged(Cost(comparisons), tuple(result))


def ceil_lg(n: int) -> int:
    """Ceiling of the base-2 logarithm; 0 for n <= 1."""
    return (n - 1).bit_length() if n > 1 else 0


def msort_bound(n: int) -> int:
    """Log-linear comparison budget for ``msort``."""
    return n * ceil_lg(n)


def sealed_sort_tree(
    algorithm: Callable[[Sequence[Any]], Charged[Tuple[Any, ...]]],
    bound: Callable[[int], CostLike],
    t: RBTree,
) -> Sealed[RBTree]:
    """Sort a tree's elements under the algorithm's comparison budget.

    The implementation is the instrumented run over ``elements(t)``, the
    specification the stable sorted elements at the budgeted cost.  Both
    are rebuilt into trees and sealed up to elements, since a rebuilt
    tree may balance differently from a hand-built one.
    """
    items = elements(t)
    impl = algorithm(items)
    return seal(
        Charged(impl.cost, from_iterable(impl.value)),
        Charged(as_cost(bound(len(items))), from_iterable(sort_spec(items))),
        beh_eq=lambda x, y: abstract_equal(x, y, ELEMENTS_ALPHA),
    )
