"""Red-black tree sequences with data at the leaves.

A tree is Empty, a Leaf holding one element, or a Red/Black node over
two subtrees.  Empty and leaves are black with black height 0; a red
node requires black children of equal black height and keeps that
height; a black node requires children of equal black height and adds
one.  Color, black height, and size are cached on every node, and the
structural half of the invariant (equal child black heights) is enforced
at construction, so an ill-heighted node cannot exist.

``elements`` reads the leaves left to right; that is the abstraction
function, and every sequence operation is specified up to it.
``same_elements`` is its kernel: it decides ``elements(x) ==
elements(y)`` by walking the two trees against each other and skipping
every subtree they share by identity, so comparing trees that share
most of their structure costs the nodes where they differ, not their
leaves.  ``append`` concatenates two trees by descending the taller
tree's spine to the height of the shorter, attaching, and
rotating/recoloring upward; it behaves abstractly like a single node
constructor over the two trees, and its cost, one unit per node built,
stays within a constant multiple of the black-height difference.

``validate`` audits a whole tree.  ``audit_concat`` audits one append in
O(nodes built + depth): it is the same walk, the result against the two
operands, plus the local invariant checks on each node of the result it
splits, so it checks only the nodes ``append`` built and is exact for
operands already known valid.  The ``rbtree/invariants`` suite trusts it
while its whole pool is known valid and falls back to ``validate`` and
``elements`` as the oracle.

Trees are frozen, slotted records; a ``Node`` is built by one direct
``__init__`` that checks child heights before it stores any field and
caches ``black_height`` and ``size``.  ``from_iterable`` builds the tree
the ``append`` fold over singletons builds, colors included, one ``Node``
per internal node, by replaying ``_join_right`` on stacks of its spine.

``mapreduce`` folds a tree into any monoid by replacing constructors
with the target's operations; ``reduce`` is the element fold with an
explicit linear cost budget, and ``length_fast`` answers from the cached
size in one unit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .cost import Charged, Cost, MonoidOps, ret
from .phase import AbstractionFn, InvariantBreach

# Cost of append is bounded by APPEND_BOUND_FACTOR * (|bh1 - bh2| + 2).
# One spine step builds at most four nodes (a red rebuild plus a
# rotation), and promoting the two roots to black adds at most two more,
# which the +2 slack absorbs; measured worst cases sit well inside this.
APPEND_BOUND_FACTOR = 4


class TreeInvariantError(InvariantBreach, ValueError):
    """A node breaks the red-black invariant or a cached field is stale."""


class Color(Enum):
    RED = "red"
    BLACK = "black"


RED, BLACK = Color.RED, Color.BLACK  # in a function, Color.RED pays 3.11's EnumType.__getattr__


class RBTree:
    """Base class for sequence trees; see the module docstring."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Empty(RBTree):
    """The empty sequence; black, height 0."""

    color = BLACK
    black_height = 0
    size = 0


@dataclass(frozen=True, slots=True)
class Leaf(RBTree):
    """A one-element sequence; black, height 0."""

    value: Any

    color = BLACK
    black_height = 0
    size = 1


@dataclass(frozen=True, slots=True, init=False)
class Node(RBTree):
    """An internal node; children must agree on black height.

    ``Node(color, left, right)`` checks the child heights, then stores
    its fields through the slot descriptors and caches ``black_height``
    and ``size``; neither cache takes part in ``==``, ``hash`` or ``repr``.
    """

    color: Color
    left: RBTree
    right: RBTree
    black_height: int = field(init=False, compare=False, repr=False)
    size: int = field(init=False, compare=False, repr=False)

    def __init__(self, color: Color, left: RBTree, right: RBTree) -> None:
        lbh = left.black_height
        if lbh != right.black_height:
            raise TreeInvariantError(f"child black heights differ: {lbh} vs {right.black_height}")
        _set_color(self, color)
        _set_left(self, left)
        _set_right(self, right)
        _set_black_height(self, lbh + 1 if color is BLACK else lbh)
        _set_size(self, left.size + right.size)

    __post_init__ = __init__  # perfbench counts constructions by this code object


_set_color = Node.color.__set__
_set_left = Node.left.__set__
_set_right = Node.right.__set__
_set_black_height = Node.black_height.__set__
_set_size = Node.size.__set__

EMPTY = Empty()


def singleton(e: Any) -> RBTree:
    return Leaf(e)


def elements(t: RBTree) -> Tuple[Any, ...]:
    """Leaves in left-to-right order: the abstract view of the tree."""
    out: List[Any] = []
    stack = [t]
    pop, push, emit = stack.pop, stack.append, out.append
    while stack:
        node = pop()
        while type(node) is Node:  # down the left spine, right children saved
            push(node.right)
            node = node.left
        if type(node) is Leaf:
            emit(node.value)
    return tuple(out)


# The trees that hold leaves; the walk drops anything else, as ``elements`` does.
_TREE_NODES = (Leaf, Node)


def _same_leaves(mine: List[Any], theirs: List[Any],
                 split_ok: Optional[Callable[[Node], bool]] = None) -> bool:
    """Do the two stacks of trees hold the same leaves, read top first?

    The stacks are consumed.  Anything that is neither a ``Leaf`` nor a
    ``Node`` holds no leaves and is dropped, as ``elements`` drops it.  A
    subtree on top of both stacks as the same object is popped from both
    unread, because trees are frozen; two leaves must hold equal values,
    by the test tuple equality uses (``x is y or x == y``); otherwise the
    node with the larger cached size is split, a tie splitting ``mine``.
    Sizes only steer the walk, so the answer is exact even when a cache
    is stale.  Each node of ``mine`` that is split must first pass
    ``split_ok`` when given.  The walk is iterative and costs time in the
    nodes the two sides do not share, plus their depth.
    """
    mpop, mpush, tpop, tpush = mine.pop, mine.append, theirs.pop, theirs.append
    while True:
        while mine and type(mine[-1]) not in _TREE_NODES:
            mpop()
        while theirs and type(theirs[-1]) not in _TREE_NODES:
            tpop()
        x = mine[-1] if mine else None  # None: this side holds no more leaves
        y = theirs[-1] if theirs else None
        if x is y:
            if x is None:
                return True
            mpop()
            tpop()
        elif type(x) is Leaf and type(y) is Leaf:
            xv, yv = x.value, y.value
            if not (xv is yv or xv == yv):
                return False
            mpop()
            tpop()
        elif type(y) is Node and (type(x) is not Node or y.size > x.size):
            tpop()
            tpush(y.right)
            tpush(y.left)
        elif type(x) is Node:
            if split_ok is not None and not split_ok(x):
                return False
            mpop()
            mpush(x.right)
            mpush(x.left)
        else:  # a leaf against a side with no more leaves
            return False


def same_elements(x: RBTree, y: RBTree) -> bool:
    """``elements(x) == elements(y)``, deciding on shared structure.

    The kernel of ``ELEMENTS_ALPHA``: subtrees the two trees share by
    identity are skipped, so comparing a tree with one built from it by a
    few appends costs the nodes those appends built, not the leaves.
    """
    return _same_leaves([x], [y])


ELEMENTS_ALPHA: AbstractionFn = AbstractionFn(apply=elements, kernel=same_elements)


def validate(t: RBTree) -> None:
    """Audit the full invariant, cached fields included.

    Raises ``TreeInvariantError`` at the first breach: a red node with a red
    child, children of unequal black height, or a stale cache.
    """
    _validate(t)


# Marks, on a work stack, an internal node whose two children are done.
_JOIN = object()


def _breach(node: Node) -> Optional[str]:
    """The first local breach at ``node`` as ``_validate`` reports it, or None.

    The one statement of the node invariant; the children's black
    heights, colors and sizes are read from their caches.
    """
    left, right = node.left, node.right
    lbh, rbh = left.black_height, right.black_height
    if lbh != rbh:
        return f"child black heights differ: {lbh} vs {rbh}"
    if node.color is RED:
        if left.color is not BLACK or right.color is not BLACK:
            return "red node with a red child"
        bh = lbh
    else:
        bh = lbh + 1
    if node.black_height != bh:
        return f"cached black height {node.black_height}, recomputed {bh}"
    size = left.size + right.size
    if node.size != size:
        return f"cached size {node.size}, recomputed {size}"
    return None


def _validate(t: RBTree) -> None:
    """Check every node of ``t`` bottom-up without recursion.

    Children are checked before their parent, left before right, so the
    first breach raised is the one a recursive audit would meet first,
    and a parent's check reads child caches already checked.
    """
    todo: List[Any] = [t]
    pop, push = todo.pop, todo.append
    while todo:
        node = pop()
        if node is _JOIN:
            breach = _breach(pop())
            if breach is not None:
                raise TreeInvariantError(breach)
        elif isinstance(node, Node):
            push(node)
            push(_JOIN)
            push(node.right)
            push(node.left)
        elif not isinstance(node, (Leaf, Empty)):
            raise TreeInvariantError(f"not a tree: {node!r}")


def audit_concat(t: RBTree, a: RBTree, b: RBTree) -> bool:
    """Is ``t`` a valid tree holding the leaves of ``a`` then ``b``?

    For ``a`` and ``b`` already known valid, True means ``validate(t)``
    passes and ``elements(t) == elements(a) + elements(b)``, so
    ``t.size == a.size + b.size``.  This is ``_same_leaves`` on ``[t]``
    against ``[a, b]``, with every node of ``t`` that it splits passing
    ``_breach``'s local checks against its children's cached fields,
    which are themselves checked when split or shared with the audited
    inputs.  The walk costs O(nodes built + depth) after ``append``.  A
    False answer asserts nothing: it also covers a non-tree root and a
    node over an ``Empty`` child, which ``append`` never builds, so the
    caller re-audits with the full path.
    """
    if type(t) is not Node and type(t) is not Leaf and type(t) is not Empty:
        return False
    return _same_leaves([t], [b, a], _node_ok)


def _node_ok(x: Node) -> bool:
    """Both children of ``x`` are trees that hold leaves, and ``x`` has no breach."""
    return type(x.left) in _TREE_NODES and type(x.right) in _TREE_NODES and _breach(x) is None


# -- append ----------------------------------------------------------------

def append(t1: RBTree, t2: RBTree) -> Charged[RBTree]:
    """Concatenate two sequences.

    Abstractly this is the two-child node constructor: the elements of
    the result are the elements of ``t1`` then those of ``t2``.
    Concretely the taller tree keeps its shape except along one spine,
    so only O(|bh1 - bh2|) nodes are built; each node built (including
    recolorings, which rebuild a node) charges one unit.
    """
    if isinstance(t1, Empty):
        return ret(t2)
    if isinstance(t2, Empty):
        return ret(t1)
    built = [0]

    def new(color: Color, left: RBTree, right: RBTree) -> Node:
        built[0] += 1
        return Node(color, left, right)

    b1 = _blacken(t1, new)
    b2 = _blacken(t2, new)
    if b1.black_height >= b2.black_height:
        joined = _join_right(b1, b2, new)
    else:
        joined = _join_left(b1, b2, new)
    return Charged(Cost(built[0]), joined)


def append_bound(t1: RBTree, t2: RBTree) -> int:
    """The sealed-style cost budget for ``append`` on these trees."""
    diff = abs(t1.black_height - t2.black_height)
    return APPEND_BOUND_FACTOR * (diff + 2)


def _blacken(t: RBTree, new: Callable[..., Node]) -> RBTree:
    if t.color is RED:
        assert isinstance(t, Node)
        return new(BLACK, t.left, t.right)
    return t


def _join_right(t1: RBTree, t2: RBTree, new: Callable[..., Node]) -> RBTree:
    # pre: bh(t1) >= bh(t2), t2 black-rooted.  Returns a tree with the
    # elements of t1 then t2 and black height bh(t1), valid except
    # possibly a red root whose right child is red; the caller's
    # rebalance (or the black root at top level) removes the exception.
    if t1.color is RED:
        assert isinstance(t1, Node)
        return new(RED, t1.left, _join_right(t1.right, t2, new))
    if t1.black_height == t2.black_height:
        return new(RED, t1, t2)
    assert isinstance(t1, Node)
    j = _join_right(t1.right, t2, new)
    if j.color is RED and j.right.color is RED:
        # red-red along the join edge: one rotation restores the invariant.
        assert isinstance(j, Node) and isinstance(j.right, Node)
        return new(
            RED,
            new(BLACK, t1.left, j.left),
            new(BLACK, j.right.left, j.right.right),
        )
    return new(BLACK, t1.left, j)


def _join_left(t1: RBTree, t2: RBTree, new: Callable[..., Node]) -> RBTree:
    # Mirror image of _join_right: descends the left spine of t2.
    if t2.color is RED:
        assert isinstance(t2, Node)
        return new(RED, _join_left(t1, t2.left, new), t2.right)
    if t1.black_height == t2.black_height:
        return new(RED, t1, t2)
    assert isinstance(t2, Node)
    j = _join_left(t1, t2.left, new)
    if j.color is RED and j.left.color is RED:
        assert isinstance(j, Node) and isinstance(j.left, Node)
        return new(
            RED,
            new(BLACK, j.left.left, j.left.right),
            new(BLACK, j.right, t2.right),
        )
    return new(BLACK, j, t2.right)


def from_iterable(items: Iterable[Any]) -> RBTree:
    """The tree the fold of ``append`` over singletons builds, in linear time.

    Per leaf, on stacks of the right spine's colors and left children, root
    first, then the last leaf: blacken a red root, push red, and rotate away
    each black-red-red run, building one node; build the spine at the end.
    """
    colors: List[Color] = []
    lefts: List[RBTree] = []
    for e in items:
        if lefts:
            if colors and colors[0] is RED:
                colors[0] = BLACK
            colors.append(RED)
            i = len(colors) - 3
            while i >= 0 and colors[i:i + 3] == [BLACK, RED, RED]:  # _join_right's rotation
                colors[i:i + 3] = RED, BLACK
                lefts[i:i + 3] = Node(BLACK, lefts[i], lefts[i + 1]), lefts[i + 2]
                i -= 2
        lefts.append(Leaf(e))
    t = lefts[-1] if lefts else EMPTY
    for i in range(len(colors) - 1, -1, -1):
        t = Node(colors[i], lefts[i], t)
    return t


# -- folds -------------------------------------------------------------------

def mapreduce(t: RBTree, target: MonoidOps) -> Charged[Any]:
    """Replace constructors with the target monoid's operations.

    Empty becomes the target's empty, a leaf becomes a mapped singleton,
    and every internal node becomes a charged append; the total cost is
    the sum of the target appends.  Abstractly this is the list fold
    over ``elements(t)``.

    The fold runs bottom-up without recursion, calling the target in the
    order a recursive fold would.  Costs are summed as plain ints into
    one ``Cost`` at the end; they are non-negative, so that ``Cost``
    overflows exactly when some partial sum would have.
    """
    singleton, join = target.singleton, target.append
    values: List[Any] = []
    todo: List[Any] = [t]
    pop, push, emit = todo.pop, todo.append, values.append
    total = 0
    while todo:
        node = pop()
        if node is _JOIN:
            right = values.pop()
            out = join(values.pop(), right)
            total += out.cost.value
            emit(out.value)
        elif isinstance(node, Node):
            push(_JOIN)
            push(node.right)
            push(node.left)
        elif isinstance(node, Leaf):
            emit(singleton(node.value))
        else:
            assert isinstance(node, Empty)
            emit(target.empty)
    return Charged(Cost(total), values[0])


def length_fast(t: RBTree) -> int:
    """The cached element count; one unit of work regardless of size."""
    return t.size


def reduce(f: Callable[[Any, Any], Charged[Any]], unit: Any, t: RBTree) -> Charged[Any]:
    """Fold the elements with a charged combiner.

    Charges one unit per leaf or empty visited, plus whatever ``f``
    charges at each internal node.  With a unit-cost combiner the total
    for a nonempty tree is leaves plus internal nodes, under twice the
    size; the empty tree costs its single visit.  This is ``mapreduce``
    into the combiner's monoid: every node has two children, so the
    leaves and empties visited are one more than the nodes combined.
    """
    joins = 0

    def join(x: Any, y: Any) -> Charged[Any]:
        nonlocal joins
        joins += 1
        return f(x, y)

    out = mapreduce(t, MonoidOps(empty=unit, append=join, singleton=lambda e: e))
    return Charged(Cost(out.cost.value + joins + 1), out.value)
