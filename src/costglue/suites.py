"""The registered verification suites behind the command line runner.

Every suite is a body ``(rb) -> None`` that records into the
``ReportBuilder`` its ``register`` builds; the registry holds it as a
function ``(seed, iterations, mode) -> Report``.  Sampling is driven
entirely by the builder's RNG streams, derived from ``(seed, suite
name)``, so a report is a pure function of its configuration.  Law
suites (cost, sealing, round trips) check module invariants that hold in
every phase and use the mode only as report metadata; differential
suites (squares, noninterference, bounds) gate their laws through the
mode, and a law the mode does not judge records nothing: behavioral runs
judge no law that reads cost and record no cost rows, and concrete runs
record cost rows and judge only the concrete audits.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import rbtree
from .cost import ONE, Charged, Cost, MonoidOps, bind, charge, erase, leq, ret
from .harness import (
    Report,
    ReportBuilder,
    SquareSpec,
    check_abstract_hom,
    check_abstract_monoid,
    check_noninterference,
    check_square,
    check_universal_property,
    commute,
    geometric_size,
    randbelow,
    random_items,
)
from .phase import AbstractionFn, CoherenceError, EvaluationMode, fracture, glue
from .queues import (
    BATCHED_ALPHA,
    BATCHED_QUEUE,
    LIST_ALPHA,
    LIST_QUEUE,
    BatchedQueueState,
    QueueImpl,
    batched_dequeue,
    batched_empty,
    batched_enqueue,
    batched_potential,
    demo,
    list_dequeue,
    list_empty,
    list_enqueue,
    qreverse,
    queue_spec_member,
    rev_append,
)
from .rbtree import (
    ELEMENTS_ALPHA,
    EMPTY,
    append,
    append_bound,
    audit_concat,
    elements,
    from_iterable,
    length_fast,
    mapreduce,
    reduce,
    singleton,
    validate,
)
from .sealing import (
    BoundViolation,
    Sealed,
    reseal,
    seal,
    seal_charge,
    seal_join,
    seal_return,
    sealed_beh_eq,
    unseal_abstract,
    unseal_concrete,
)
from .sorting import (
    isort,
    isort_bound,
    msort,
    msort_bound,
    sealed_sort_tree,
    sort_spec,
)

Suite = Callable[[int, int, EvaluationMode], Report]

REGISTRY: Dict[str, Suite] = {}


def register(name: str) -> Callable[[Callable[[ReportBuilder], None]], Suite]:
    """Register a suite body under ``name``; the builder it records into is made per run."""

    def add(body: Callable[[ReportBuilder], None]) -> Suite:
        @functools.wraps(body)
        def suite(seed: int, iterations: int, mode: EvaluationMode) -> Report:
            rb = ReportBuilder(name, seed, iterations, mode)
            body(rb)
            return rb.build()

        REGISTRY[name] = suite
        return suite

    return add


# ---------------------------------------------------------------------------
# cost/laws

@register("cost/laws")
def cost_laws(rb: ReportBuilder) -> None:
    """Monoid, monad, erasure, and refinement-order laws of the cost effect."""
    rng = rb.rng()
    kont = (
        lambda n: Charged(Cost(n % 7), n + 3),
        lambda n: Charged(Cost(1), n * 2),
        lambda n: ret(n - 1),
        lambda n: Charged(Cost(n % 3), -n),
    )
    for _ in range(rb.iterations):
        x = -1000 + randbelow(rng, 2000)
        c1 = Cost(randbelow(rng, 100))
        c2 = Cost(randbelow(rng, 100))
        m = Charged(Cost(randbelow(rng, 100)), x)
        k = kont[randbelow(rng, len(kont))]
        h = kont[randbelow(rng, len(kont))]

        rb.equal("cost/charge-zero", m, m, charge(0, m))
        rb.equal("cost/charge-plus", (c1, c2, m), charge(c1 + c2, m), charge(c1, charge(c2, m)))
        rb.equal("cost/ret-free", x, Cost(0), ret(x).cost)
        rb.equal("cost/bind-left-unit", x, k(x), bind(ret(x), k))
        rb.equal("cost/bind-right-unit", m, m, bind(m, ret))
        rb.equal("cost/bind-assoc", m, bind(m, lambda v: bind(k(v), h)), bind(bind(m, k), h))
        rb.equal("cost/erase-charge", (c1, m), erase(m), erase(charge(c1, m)))
        rb.equal("cost/leq-refl", m, True, leq(m, m))
        a, b, c = m, charge(c1, m), charge(c1 + c2, m)
        rb.case(
            (not (leq(a, b) and leq(b, c))) or leq(a, c),
            "cost/leq-trans",
            lambda: ((a, b, c), True, leq(a, c)),
        )
        rb.equal("cost/leq-erase-collapse", (a, b), erase(a) == erase(b), leq(ret(erase(b)), ret(erase(a))))


# ---------------------------------------------------------------------------
# phase/roundtrip

def _random_batched_state(rng: random.Random) -> BatchedQueueState:
    inbox = random_items(rng, 100, geometric_size(rng, cap=128))
    return BatchedQueueState(inbox, random_items(rng, 100, geometric_size(rng, cap=128)))


_POOL_TREES = 256  # a full _TreePool replaces a random tree with each new one


def _once_per_tree(fn: Callable[[rbtree.RBTree], Any],
                   trees: Sequence[rbtree.RBTree]) -> Callable[[rbtree.RBTree], Any]:
    """``fn``, applied once to each distinct tree of ``trees`` (a pool may hold a
    tree in two slots) and then looked up by ``id``; any other tree goes to ``fn``.

    Only trees held for the whole run may be keys, so no key's id is reused.
    """
    memo = {key: fn(t) for key, t in {id(t): t for t in trees}.items()}
    return lambda t: memo[id(t)] if id(t) in memo else fn(t)


class _TreePool:
    """A deterministic, evolving population of valid trees, held in slots.

    Two slots may hold one tree (``append(EMPTY, b)`` is ``b``).  That
    sharing is representation, so suites judge slots, not distinct trees.
    A new pool has ``grow``n ``grows`` times from its seven small trees.
    """

    def __init__(self, rng: random.Random, cap: int, grows: int):
        self.rng = rng
        self.cap = cap
        self.pool: List[rbtree.RBTree] = [EMPTY] + [
            from_iterable(range(n)) for n in (1, 2, 3, 5, 8, 13)
        ]
        self._fresh = itertools.count(101)  # the leaves of trees that replace results over ``cap``
        for _ in range(grows):
            self.grow()

    def sample(self, rng: random.Random) -> rbtree.RBTree:
        return self.pool[randbelow(rng, len(self.pool))]

    def grow(self) -> Tuple[rbtree.RBTree, rbtree.RBTree, Charged[rbtree.RBTree]]:
        """Append two sampled trees, feed the result back into the pool."""
        a, b = self.sample(self.rng), self.sample(self.rng)
        out = append(a, b)
        t = out.value
        if t.size > self.cap:
            t = singleton(next(self._fresh))
        if len(self.pool) >= _POOL_TREES:
            self.pool[randbelow(self.rng, len(self.pool))] = t
        else:
            self.pool.append(t)
        return a, b, out


@register("phase/roundtrip")
def phase_roundtrip(rb: ReportBuilder) -> None:
    """Fracture then glue is the identity, and glue rejects incoherent pairs."""
    rng = rb.rng()
    trees = _TreePool(rng, cap=256, grows=min(rb.iterations, _POOL_TREES))
    # The pool holds its trees for the run, so each is imaged once; a tree
    # outside it, such as a rebuilt one from a broken ``fracture``, is walked.
    tree_alpha = dataclasses.replace(ELEMENTS_ALPHA, apply=_once_per_tree(elements, trees.pool))
    for i in range(rb.iterations):
        s = _random_batched_state(rng)
        image = rev_append(s)
        g = glue(s, image, BATCHED_ALPHA)
        parts = fracture(g)
        rb.equal("phase/glue-fracture-queue", s, g, glue(*parts))
        rb.case(
            parts == (s, image, BATCHED_ALPHA),
            "phase/fracture-components-queue",
            lambda: (s, (s, image), parts[:2]),
        )

        t = trees.sample(rng)
        gt = glue(t, tree_alpha.apply(t), tree_alpha)
        back_t = glue(*fracture(gt))
        rb.case(
            back_t == gt,
            "phase/glue-fracture-tree",
            lambda: (elements(t), gt.abstract, back_t.abstract),
        )

        if i % 64 == 0:
            claimed = image + (999,)
            try:
                glue(s, claimed, BATCHED_ALPHA)
                rb.fail("phase/glue-rejects-incoherent", s, "CoherenceError", "no error")
            except CoherenceError as err:
                rb.equal("phase/glue-rejects-incoherent", s, claimed, err.claimed)


# ---------------------------------------------------------------------------
# sealing/laws

@register("sealing/laws")
def sealing_laws(rb: ReportBuilder) -> None:
    """Projection, transitivity, charge-commutation, and monad laws for seals.

    ``Sealed`` checks every seal as it is built, so a forged ``reseal`` or
    ``seal_charge`` result shows as an unequal seal in
    ``seal/reseal-transitive`` or ``seal/charge-commutes``.  Nothing is
    kept across iterations, so memory does not grow with ``iterations``.
    """
    rng = rb.rng()
    for _ in range(rb.iterations):
        v = -50 + randbelow(rng, 100)
        ci = randbelow(rng, 50)
        gap = randbelow(rng, 50)
        extra = randbelow(rng, 50)
        impl = Charged(Cost(ci), v)
        spec = Charged(Cost(ci + gap), v)
        s = seal(impl, spec)

        rb.equal("seal/unseal-abstract", s, spec, unseal_abstract(s))
        rb.equal("seal/unseal-concrete", s, impl, unseal_concrete(s))
        refl = seal(impl, impl)
        rb.equal("seal/reflexive", impl, refl.spec, refl.impl)

        wider = charge(extra, spec)
        r = reseal(s, wider)
        rb.equal("seal/reseal-transitive", (s, wider), seal(impl, wider), r)
        rb.equal("seal/reseal-identity", s, s, reseal(s, spec))

        sc = seal_charge(extra, s)
        rb.equal("seal/charge-commutes", (extra, s), seal(charge(extra, impl), charge(extra, spec)), sc)
        rb.equal("seal/charge-zero", s, s, seal_charge(0, s))

        # monad unit laws
        rb.equal("seal/join-return", s, s, seal_join(seal_return(s)))
        mapped = Sealed(
            Charged(impl.cost, seal_return(impl.value)),
            Charged(spec.cost, seal_return(spec.value)),
            sealed_beh_eq(),
        )
        rb.equal("seal/join-map-return", s, s, seal_join(mapped))

        # monad associativity on a random triple nesting
        inner_i = seal(Charged(Cost(randbelow(rng, 10)), v), Charged(Cost(9 + randbelow(rng, 10)), v))
        inner_s = seal(Charged(Cost(randbelow(rng, 10)), v), Charged(Cost(9 + randbelow(rng, 10)), v))
        mid_i = Sealed(charge(randbelow(rng, 10), ret(inner_i)), charge(9 + randbelow(rng, 10), ret(inner_s)), sealed_beh_eq())
        mid_s = Sealed(charge(randbelow(rng, 10), ret(inner_i)), charge(9 + randbelow(rng, 10), ret(inner_s)), sealed_beh_eq())
        sss = Sealed(
            charge(randbelow(rng, 10), ret(mid_i)),
            charge(9 + randbelow(rng, 10), ret(mid_s)),
            sealed_beh_eq(sealed_beh_eq()),
        )
        flat_twice = seal_join(seal_join(sss))
        mapped_join = Sealed(
            Charged(sss.impl.cost, seal_join(mid_i)),
            Charged(sss.spec.cost, seal_join(mid_s)),
            sealed_beh_eq(),
        )
        rb.equal("seal/join-assoc", sss, seal_join(mapped_join), flat_twice)

        # violations must be refused, with the reason split out
        try:
            seal(Charged(Cost(ci + gap + 1), v), spec)
            rb.fail("seal/rejects-cost-overrun", (ci + gap + 1, spec), "BoundViolation", "no error")
        except BoundViolation as err:
            rb.case(
                err.cost_overrun and not err.behavior_mismatch,
                "seal/rejects-cost-overrun",
                lambda: ((ci + gap + 1, spec), "cost overrun", (err.cost_overrun, err.behavior_mismatch)),
            )
        try:
            seal(impl, Charged(spec.cost, v + 1))
            rb.fail("seal/rejects-behavior-mismatch", (impl, v + 1), "BoundViolation", "no error")
        except BoundViolation as err:
            rb.case(
                err.behavior_mismatch,
                "seal/rejects-behavior-mismatch",
                lambda: ((impl, v + 1), "behavior mismatch", (err.cost_overrun, err.behavior_mismatch)),
            )


# ---------------------------------------------------------------------------
# queues/coherence

# Both paths look their operation up when they run, so a patched
# ``batched_enqueue`` or ``batched_dequeue`` is the one judged.
ENQUEUE_SQUARE = SquareSpec(
    law="square/enqueue",
    f_top=lambda p: batched_enqueue(p[0], p[1]),
    f_abs=lambda p: list_enqueue(p[0], p[1]),
    alpha_in=AbstractionFn(apply=lambda p: (p[0], rev_append(p[1]))),
    alpha_out=BATCHED_ALPHA,
    potential=lambda p, out: batched_potential(out) - batched_potential(p[1]),
)

DEQUEUE_SQUARE = SquareSpec(
    law="square/dequeue",
    f_top=lambda s: batched_dequeue(s),
    f_abs=lambda s: list_dequeue(s),
    alpha_in=BATCHED_ALPHA,
    alpha_out=AbstractionFn(apply=lambda out: (out[0], rev_append(out[1]))),
    potential=lambda s, out: batched_potential(out[1]) - batched_potential(s),
)


def _run_coherence_trace(
    rb: ReportBuilder,
    ops: Sequence[Tuple[str, Tuple[Any, ...]]],
    quotient_rng: Optional[random.Random] = None,
) -> None:
    """Step a trace through both queues in lockstep, commuting each step's square.

    Each step's square takes the list queue's state as the image of the
    batched one, which it is while the squares hold; the walk ends at the
    first case that fails, where the two states may have parted.  With
    ``quotient_rng`` every step also commutes both squares at ``alt``, a
    second batched state with the same image: the operations respect the
    quotient, on behavior and on amortized cost.
    """
    bat, lst = batched_empty(), list_empty()
    for op, args in ops:
        if op == "enqueue":
            top, bottom, ok = commute(rb, ENQUEUE_SQUARE, (args[0], bat), (args[0], lst))
            bat, lst = top.value, bottom.value
        else:
            top, bottom, ok = commute(rb, DEQUEUE_SQUARE, bat, lst)
            bat, lst = top.value[1], bottom.value[1]
        if not ok:
            return

        if quotient_rng is not None:
            cut = randbelow(quotient_rng, len(lst) + 1)
            alt = BatchedQueueState(lst[cut:][::-1], lst[:cut])
            probe_e = randbelow(quotient_rng, 100)
            if not (commute(rb, ENQUEUE_SQUARE, (probe_e, alt), (probe_e, lst))[2]
                    and commute(rb, DEQUEUE_SQUARE, alt, lst)[2]):
                return


def exhaustive_traces(max_len: int, alphabet: Sequence[Any]) -> List[Tuple[Tuple[str, Tuple[Any, ...]], ...]]:
    """Every operation sequence up to ``max_len`` over the given elements."""
    ops = [("enqueue", (e,)) for e in alphabet] + [("dequeue", ())]
    out: List[Tuple[Tuple[str, Tuple[Any, ...]], ...]] = []
    for length in range(max_len + 1):
        out.extend(itertools.product(ops, repeat=length))
    return out


def random_trace(rng: random.Random, max_len: int = 200) -> Tuple[Tuple[str, Tuple[Any, ...]], ...]:
    length = randbelow(rng, max_len + 1)
    ops = []
    for _ in range(length):
        if rng.random() < 0.6:
            ops.append(("enqueue", (randbelow(rng, 100),)))
        else:
            ops.append(("dequeue", ()))
    return tuple(ops)


@register("queues/coherence")
def queues_coherence(rb: ReportBuilder) -> None:
    """Squares for every queue operation, exhaustively on short traces.

    Runs the enqueue and dequeue squares on random states, then walks
    every trace of length at most 6 over a two-element alphabet plus
    ``iterations`` random traces of length at most 200, checking squares
    stepwise, and on the random traces also at a second representative
    of each step's state (quotient soundness).  Each square is exact on
    cost once ``batched_potential`` amortizes the batched cost, so summed
    over a trace the squares bound the reversal work by the enqueues: it
    is the enqueues less the final potential.  Every law compares
    behavior, so a CONCRETE run records nothing.
    """
    if not rb.check_beh:
        return
    rb.equal("queues/empty-square", batched_empty(), list_empty(), rev_append(batched_empty()))

    pairs = rb.draws("/enqueue", lambda r: (randbelow(r, 100), _random_batched_state(r)), rb.iterations)
    check_square(rb, ENQUEUE_SQUARE, pairs)
    check_square(rb, DEQUEUE_SQUARE, rb.draws("/dequeue", _random_batched_state, rb.iterations))

    for trace in exhaustive_traces(6, (0, 1)):
        _run_coherence_trace(rb, trace)

    trace_rng = rb.rng("/traces")
    for _ in range(rb.iterations):
        trace = random_trace(trace_rng)
        _run_coherence_trace(rb, trace, quotient_rng=trace_rng)


# ---------------------------------------------------------------------------
# queues/noninterference

def _stack_push(e: Any, s: Tuple[Any, ...]) -> Charged[Tuple[Any, ...]]:
    return Charged(ONE, (e,) + s)


STACK_IMPL = QueueImpl(
    name="stack",
    empty=list_empty,
    enqueue=_stack_push,
    dequeue=list_dequeue,
    alpha=LIST_ALPHA,
)


def membership_traces(rng: random.Random) -> List[Tuple[Tuple[str, Tuple[Any, ...]], ...]]:
    """Every trace of length at most 3 over two elements, and 20 random traces of length at most 50."""
    return exhaustive_traces(3, (1, 2)) + [random_trace(rng, max_len=50) for _ in range(20)]


@register("queues/noninterference")
def queues_noninterference(rb: ReportBuilder) -> None:
    """Clients cannot tell lawful queue implementations apart.

    Membership of both implementations in the queue specification is
    established first (with a LIFO stack as the negative control), then
    the one-element demo and the queue-based list reversal are run on
    both implementations and compared pairwise with each other and with
    an oracle member: the identity for the demo, the reversed list for
    the reversal.
    """
    if not rb.check_beh:
        return
    traces = membership_traces(rb.rng("/membership"))
    shown = f"{len(traces)} traces"
    rb.equal("queues/spec-member/batched", shown, True, queue_spec_member(BATCHED_QUEUE, LIST_QUEUE, traces))
    rb.equal("queues/spec-member/stack-excluded", shown, False, queue_spec_member(STACK_IMPL, LIST_QUEUE, traces))

    impls = (("list", LIST_QUEUE), ("batched", BATCHED_QUEUE))
    demos = [(name, functools.partial(demo, q)) for name, q in impls] + [("oracle", lambda e: e)]
    check_noninterference(rb, demos, rb.draws("/demo", lambda r: randbelow(r, 100), rb.iterations))
    reversals = [(name, functools.partial(qreverse, q)) for name, q in impls] + [("oracle", lambda xs: xs[::-1])]
    lists = rb.draws("/qreverse", lambda r: random_items(r, 100, randbelow(r, 201)), rb.iterations)
    check_noninterference(rb, reversals, lists)


# ---------------------------------------------------------------------------
# rbtree suites

SUM_OPS = MonoidOps(empty=0, append=lambda x, y: Charged(ONE, x + y), singleton=lambda e: 1)
LIST_OPS = MonoidOps(empty=(), append=lambda x, y: Charged(ONE, x + y), singleton=lambda e: (e,))
MAX_OPS = MonoidOps(empty=0, append=lambda x, y: Charged(ONE, max(x, y)), singleton=lambda e: e)


@register("rbtree/invariants")
def rbtree_invariants(rb: ReportBuilder) -> None:
    """Structural invariants survive appends; the monoid laws hold abstractly.

    Runs ``iterations`` random appends over an evolving population,
    auditing colors, heights, caches, element order, and the cost bound
    after each; one tenth as many sampled triples drive the abstract
    monoid laws, and elements-equal trees of different shapes are shown
    to be indistinguishable to the registered abstract clients.  The
    ``validate`` audit is concrete, so abstract and behavioral runs skip it.

    Each append is audited first by ``audit_concat``, which reads only
    the nodes ``append`` built.  Its answer is trusted while every tree
    in the pool is known valid: the initial pool passes ``validate``
    once, and each later tree passed the walk.  A trusted True records
    the passing cases the full audit would record.  The first False ends
    the trust for the rest of the run, and from then on every append
    goes through the full ``validate``/``elements`` audit, the oracle,
    so a report reads the same whichever path judged it.
    """
    audited_laws = (("rbtree/invariant-audit",) if rb.check_concrete else ()) + (
        ("rbtree/append-elements", "rbtree/size-cache") if rb.check_beh else ()
    )
    pool = _TreePool(rb.rng(), cap=2048, grows=0)
    try:
        for tree in pool.pool:
            validate(tree)
        trusted = True
    except ValueError:
        trusted = False
    for _ in range(rb.iterations):
        a, b, out = pool.grow()
        t = out.value
        trusted = trusted and audit_concat(t, a, b)
        if trusted:
            for law in audited_laws:
                rb.case(True, law, tuple)  # a passing case never reads its detail
        else:
            if rb.check_concrete:
                try:
                    validate(t)
                except ValueError as err:
                    rb.fail("rbtree/invariant-audit", (elements(a), elements(b)), "valid tree", str(err))
                else:
                    rb.case(True, "rbtree/invariant-audit", tuple)
            if rb.check_beh:
                left, right = elements(a), elements(b)
                expected = left + right
                rb.equal("rbtree/append-elements", (left, right), expected, elements(t))
                rb.equal("rbtree/size-cache", expected, len(expected), length_fast(t))
        rb.bound("rbtree/append-cost-bound", (a.black_height, b.black_height), out.cost.value, append_bound(a, b),
                 abs(a.black_height - b.black_height))

    samples = max(1, rb.iterations // 10)
    triples = rb.draws("/monoid", lambda r: (pool.sample(r), pool.sample(r), pool.sample(r)), samples)
    check_abstract_monoid(rb, MonoidOps(EMPTY, append, singleton), ELEMENTS_ALPHA, triples)

    if rb.check_beh:
        probe_rng = rb.rng("/clients")
        clients = (
            ("elements", lambda t: elements(t)),
            ("length", lambda t: length_fast(t)),
            ("mapreduce-sum", lambda t: mapreduce(t, SUM_OPS).value),
            ("reduce-max", lambda t: reduce(lambda x, y: Charged(ONE, max(x, y)), 0, t).value),
        )
        for _ in range(samples):
            items = random_items(probe_rng, 100, 1 + geometric_size(probe_rng, cap=64))
            cut = randbelow(probe_rng, len(items) + 1)
            left_first = append(from_iterable(items[:cut]), from_iterable(items[cut:])).value
            straight = from_iterable(items)
            for client_name, client in clients:
                rb.equal(f"rbtree/abstract-client/{client_name}", items, client(straight), client(left_first))


@register("rbtree/universal")
def rbtree_universal(rb: ReportBuilder) -> None:
    """The structural fold is the unique homomorphism out of the sequence.

    ``mapreduce`` into sum, list, and max targets must agree with the
    canonical list fold over the elements of each pool slot, folded once
    per target, and report as its cost the sum of the target appends it
    made; independent homomorphisms (cached length, direct elements) must
    agree with it.  ``iterations`` sampled pairs drive the homomorphism laws.
    Each pool tree's image and length are made once, for every law reading them.
    """
    if not rb.check_beh:  # every law here compares values
        return
    pool = _TreePool(rb.rng(), cap=512, grows=min(rb.iterations, 200))
    tree_alpha = dataclasses.replace(ELEMENTS_ALPHA, apply=_once_per_tree(elements, pool.pool))
    targets = (
        ("nat-sum", SUM_OPS, (("cached-length", lambda t: Charged(ONE, length_fast(t))),)),
        ("list", LIST_OPS, (("elements", lambda t: ret(elements(t))),)),
        ("nat-max", MAX_OPS, ()),
    )
    for target, ops, extra_homs in targets:
        check_universal_property(rb, mapreduce, tree_alpha, target, ops, pool.pool, extra_homs=extra_homs)
    length = _once_per_tree(lambda t: mapreduce(t, SUM_OPS), pool.pool)
    triples = rb.draws("/length-hom", lambda r: (pool.sample(r), pool.sample(r), randbelow(r, 100)), rb.iterations)
    check_abstract_hom(rb, length, MonoidOps(EMPTY, append, singleton), SUM_OPS,
                       (tree_alpha, AbstractionFn(apply=lambda n: n)), triples)


@register("rbtree/reduce")
def rbtree_reduce(rb: ReportBuilder) -> None:
    """Element folds stay linear and in order on each nonempty slot of a pool grown first.

    A unit-cost reduce costs exactly ``2n - 1``, within its ``2n`` budget,
    and reducing with ``first`` returns the first element.
    """
    pool = _TreePool(rb.rng(), cap=1024, grows=rb.iterations)

    def plus(x: int, y: int) -> Charged[int]:
        return Charged(ONE, x + y)

    def first(x: Any, y: Any) -> Charged[Any]:
        return Charged(ONE, x)

    for t in pool.pool:
        if t.size == 0:
            continue
        out = reduce(plus, 0, t)
        if rb.check_beh:
            items = elements(t)
            rb.equal("rbtree/reduce-value", items, sum(items), out.value)
            rb.equal("rbtree/reduce-order", items, items[0], reduce(first, None, t).value)
        if rb.check_cost:
            rb.case(
                out.cost.value == 2 * t.size - 1,
                "rbtree/reduce-cost-exact",
                lambda: (f"size {t.size}", 2 * t.size - 1, out.cost.value),
            )
        rb.cost_row(t.size, out.cost.value, 2 * t.size)

    if rb.check_beh:
        unit_case = reduce(plus, 0, EMPTY)
        rb.case(
            unit_case.value == 0 and (unit_case.cost.value <= 1 if rb.check_cost else True),
            "rbtree/reduce-empty",
            lambda: ("empty tree", "unit at small constant cost", unit_case if rb.check_cost else unit_case.value),
        )


# ---------------------------------------------------------------------------
# sorting/bounds

@register("sorting/bounds")
def sorting_bounds(rb: ReportBuilder) -> None:
    """Both sorts match the stable specification within their budgets.

    Exhausts every permutation of sizes up to 8 (6 on quick runs with
    fewer than 5000 iterations) and samples random lists up to length
    512; each run must produce the specification's output with at most
    the budgeted number of comparisons, which is the predicate of a seal
    under the budget.  Every sort runs once per input.  The budget and
    exact-cost laws read cost, so only the modes that judge cost record
    them.
    """
    rng = rb.rng()
    algorithms = (  # read when the suite runs, so a replaced sort is the one judged
        (isort, isort_bound, "sorting/isort-behavior", "sorting/isort-bound"),
        (msort, msort_bound, "sorting/msort-behavior", "sorting/msort-bound"),
    )

    def judge(items: Sequence[Any]) -> None:
        """Run both sorts once on ``items`` and judge each run against the specification and its budget."""
        n = len(items)
        expected = sort_spec(items)
        for alg, bound_fn, behavior_law, bound_law in algorithms:
            out = alg(items)
            if rb.check_beh:
                rb.equal(behavior_law, items, expected, out.value)
            rb.bound(bound_law, items, out.cost.value, bound_fn(n), n)

    exhaustive_n = 8 if rb.iterations >= 5000 else 6
    for n in range(exhaustive_n + 1):
        for perm in itertools.permutations(range(n)):
            judge(perm)

    for _ in range(rb.iterations):
        if rng.random() < 0.1:
            n = 256 + randbelow(rng, 257)
        else:
            n = geometric_size(rng, cap=255)
        items = random_items(rng, 1000, n)
        judge(items)

    if not rb.check_cost:  # the laws below read cost
        return
    rb.equal("sorting/msort-two-elements", (2, 1), Charged(Cost(1), (1, 2)), msort((2, 1)))
    ascending = tuple(range(16))
    rb.equal("sorting/isort-sorted-input", ascending, len(ascending) - 1, isort(ascending).cost.value)
    try:
        sealed_tree = sealed_sort_tree(msort, msort_bound, from_iterable((3, 1, 2)))
    except BoundViolation as err:
        rb.fail("sorting/sealed-tree", (3, 1, 2), "valid seal", err)
    else:
        rb.equal("sorting/sealed-tree", (3, 1, 2), (1, 2, 3), elements(sealed_tree.impl.value))
