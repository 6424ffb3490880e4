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

import functools
import itertools
import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from . import rbtree
from .cost import ONE, Charged, Cost, bind, charge, erase, leq, ret
from .harness import (
    MonoidOps,
    Report,
    ReportBuilder,
    SequenceImpl,
    SquareSpec,
    TargetMonoid,
    check_abstract_hom,
    check_abstract_monoid,
    check_noninterference,
    check_square,
    check_universal_property,
    commute,
    derive_rng,
    geometric_size,
    randbelow,
    random_items,
    render,
)
from .phase import AbstractionFn, CoherenceError, EvaluationMode, abstract_equal, fracture, glue, last_image
from .queues import (
    BATCHED_ALPHA,
    BATCHED_QUEUE,
    LIST_ALPHA,
    LIST_QUEUE,
    BatchedQueueState,
    ListQueueState,
    QueueImpl,
    batched_dequeue,
    batched_empty,
    batched_enqueue,
    demo,
    list_dequeue,
    list_empty,
    qreverse,
    queue_spec_member,
    rev_append,
    sealed_dequeue,
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
        rb.case(leq(m, m), "cost/leq-refl", lambda: (m, True, leq(m, m)))
        a, b, c = m, charge(c1, m), charge(c1 + c2, m)
        rb.case(
            (not (leq(a, b) and leq(b, c))) or leq(a, c),
            "cost/leq-trans",
            lambda: ((a, b, c), True, leq(a, c)),
        )
        erased_equal = erase(a) == erase(b)
        rb.case(
            leq(ret(erase(b)), ret(erase(a))) == erased_equal,
            "cost/leq-erase-collapse",
            lambda: ((a, b), erased_equal, leq(ret(erase(b)), ret(erase(a)))),
        )


# ---------------------------------------------------------------------------
# phase/roundtrip

def _random_batched_state(rng: random.Random) -> BatchedQueueState:
    inbox = random_items(rng, 100, geometric_size(rng, cap=128))
    return BatchedQueueState(inbox, random_items(rng, 100, geometric_size(rng, cap=128)))


class _TreePool:
    """A deterministic, evolving population of valid trees."""

    def __init__(self, rng: random.Random, cap: int = 2048):
        self.rng = rng
        self.cap = cap
        self.pool: List[rbtree.RBTree] = [EMPTY] + [
            from_iterable(range(n)) for n in (1, 2, 3, 5, 8, 13)
        ]
        self._next = 100

    def fresh_leaf(self) -> rbtree.RBTree:
        self._next += 1
        return singleton(self._next)

    def sample(self) -> rbtree.RBTree:
        return self.pool[self.rng.randrange(len(self.pool))]

    def grow(self) -> Tuple[rbtree.RBTree, rbtree.RBTree, Charged[rbtree.RBTree]]:
        """Append two sampled trees, feed the result back into the pool."""
        a, b = self.sample(), self.sample()
        out = append(a, b)
        t = out.value
        if t.size > self.cap:
            t = self.fresh_leaf()
        if len(self.pool) >= 256:
            self.pool[self.rng.randrange(len(self.pool))] = t
        else:
            self.pool.append(t)
        return a, b, out


@register("phase/roundtrip")
def phase_roundtrip(rb: ReportBuilder) -> None:
    """Fracture then glue is the identity, and glue rejects incoherent pairs."""
    rng = rb.rng()
    trees = _TreePool(rng, cap=256)
    for i in range(rb.iterations):
        s = _random_batched_state(rng)
        g = glue(s, rev_append(s), BATCHED_ALPHA)
        rb.equal("phase/glue-fracture-queue", s, g, glue(*fracture(g)))
        parts = fracture(g)
        rb.case(
            parts == (s, rev_append(s), BATCHED_ALPHA),
            "phase/fracture-components-queue",
            lambda: (s, render((s, rev_append(s))), render(parts[:2])),
        )

        trees.grow()
        t = trees.sample()
        gt = glue(t, ELEMENTS_ALPHA.apply(t), ELEMENTS_ALPHA)
        back_t = glue(*fracture(gt))
        rb.case(
            back_t == gt,
            "phase/glue-fracture-tree",
            lambda: (render(elements(t)), render(gt.abstract), render(back_t.abstract)),
        )

        if i % 64 == 0:
            claimed = rev_append(s) + (999,)
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

    The validity sweep judges each seal as it is built, so memory does not grow with ``iterations``.
    """
    rng = rb.rng()
    swept = bad = 0
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
        rb.case(refl.impl == refl.spec, "seal/reflexive", lambda: (impl, render(impl), render(refl.spec)))

        wider = charge(extra, spec)
        r = reseal(s, wider)
        rb.equal("seal/reseal-transitive", (s, wider), seal(impl, wider), r)
        rb.equal("seal/reseal-identity", s, s, reseal(s, spec))

        sc = seal_charge(extra, s)
        for built in (s, r, sc):  # the validity sweep, one seal at a time
            swept += 1
            bad += not (built.impl.cost <= built.spec.cost and built.beh_eq(built.impl.value, built.spec.value))
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
                lambda: (
                    (ci + gap + 1, spec),
                    "cost overrun",
                    render((err.cost_overrun, err.behavior_mismatch)),
                ),
            )
        try:
            seal(impl, Charged(spec.cost, v + 1))
            rb.fail("seal/rejects-behavior-mismatch", (impl, v + 1), "BoundViolation", "no error")
        except BoundViolation as err:
            rb.case(
                err.behavior_mismatch,
                "seal/rejects-behavior-mismatch",
                lambda: (
                    (impl, v + 1),
                    "behavior mismatch",
                    render((err.cost_overrun, err.behavior_mismatch)),
                ),
            )

    rb.case(not bad, "seal/validity-sweep", lambda: (f"{swept} seals", "all valid", f"{bad} invalid"))


# ---------------------------------------------------------------------------
# queues/coherence

def _enqueue_square(image: Callable[[BatchedQueueState], Tuple[Any, ...]]) -> SquareSpec:
    return SquareSpec(
        name="enqueue",
        f_top=lambda p: batched_enqueue(p[0], p[1]),
        f_abs=lambda p: Charged(ONE, p[1] + (p[0],)),
        alpha_in=AbstractionFn(apply=lambda p: (p[0], image(p[1]))),
        alpha_out=AbstractionFn(apply=image),
        lax=False,
    )


def _dequeue_square(image: Callable[[BatchedQueueState], Tuple[Any, ...]]) -> SquareSpec:
    def f_abs(items: Tuple[Any, ...]) -> Charged[Tuple[Any, Tuple[Any, ...]]]:
        out = list_dequeue(ListQueueState(items))
        return Charged(out.cost, (out.value[0], out.value[1].items))

    return SquareSpec(
        name="dequeue",
        f_top=batched_dequeue,
        f_abs=f_abs,
        alpha_in=AbstractionFn(apply=image),
        alpha_out=AbstractionFn(apply=lambda out: (out[0], image(out[1]))),
        lax=True,
    )


def _queue_length(s: BatchedQueueState) -> int:
    return len(s.inbox) + len(s.outbox)


def _run_coherence_trace(
    rb: ReportBuilder,
    ops: Sequence[Tuple[str, Tuple[Any, ...]]],
    squares: Tuple[SquareSpec, SquareSpec],
    quotient_rng: Optional[random.Random] = None,
) -> None:
    """Step a trace through the batched queue, commuting each step's square.

    ``squares`` are the enqueue and dequeue squares; each step is checked
    from the image of the current batched state.  With ``quotient_rng``
    every step also checks that abstractly equal states are
    indistinguishable to the operations.  The image is read through the
    dequeue square's abstraction function, which carries it over from
    the step that produced the state.
    """
    enqueue_square, dequeue_square = squares
    image_of = dequeue_square.alpha_in.apply
    bat = batched_empty()
    enqueues = 0
    reversal_work = 0
    batched_total = 0
    spec_dequeue_total = 0
    for op, args in ops:
        if op == "enqueue":
            top, _ = commute(rb, enqueue_square, (args[0], bat))
            enqueues += 1
            batched_total += top.cost.value
            bat = top.value
        else:
            size = _queue_length(bat)
            top, bottom = commute(rb, dequeue_square, bat)
            rb.cost_row(size, top.cost.value, bottom.cost.value)
            reversal_work += top.cost.value
            batched_total += top.cost.value
            spec_dequeue_total += bottom.cost.value
            bat = top.value[1]

        if quotient_rng is not None and rb.check_beh:
            image = image_of(bat)
            cut = randbelow(quotient_rng, len(image) + 1)
            alt = BatchedQueueState(image[cut:][::-1], image[:cut])
            probe_e = randbelow(quotient_rng, 100)
            same_enq = abstract_equal(
                batched_enqueue(probe_e, bat).value,
                batched_enqueue(probe_e, alt).value,
                BATCHED_ALPHA,
            )
            deq_a = batched_dequeue(bat).value
            deq_b = batched_dequeue(alt).value
            same_deq = deq_a[0] == deq_b[0] and abstract_equal(deq_a[1], deq_b[1], BATCHED_ALPHA)
            rb.case(
                same_enq and same_deq,
                "queues/quotient-soundness",
                lambda: (
                    (bat, alt),
                    "operations agree on abstractly equal states",
                    render((same_enq, same_deq)),
                ),
            )

    if rb.check_cost:
        rb.case(
            reversal_work <= enqueues,
            "queues/amortized-reversal",
            lambda: (render(tuple(ops)), f"<= {enqueues}", reversal_work),
        )
        rb.case(
            batched_total <= enqueues + spec_dequeue_total,
            "queues/amortized-total",
            lambda: (render(tuple(ops)), f"<= {enqueues + spec_dequeue_total}", batched_total),
        )


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

    Runs the strict enqueue square and the lax dequeue square on random
    states, seals a dequeue per sample, then walks every trace of length
    at most 6 over a two-element alphabet plus ``iterations`` random
    traces of length at most 200, checking squares stepwise along with
    the amortized cost accounting and quotient soundness.
    """
    if rb.check_beh:
        rb.equal("queues/empty-square", batched_empty(), list_empty().items, rev_append(batched_empty()))

    image = last_image(rev_append)  # a step's output state is the next step's input
    squares = (_enqueue_square(image), _dequeue_square(image))
    check_square(
        rb,
        "/enqueue",
        squares[0],
        lambda r: (r.randrange(100), _random_batched_state(r)),
        rb.iterations,
        size_of=lambda p: _queue_length(p[1]),
    )
    check_square(
        rb,
        "/dequeue",
        squares[1],
        _random_batched_state,
        rb.iterations,
        size_of=_queue_length,
    )

    seal_rng = rb.rng("/sealed")
    for _ in range(rb.iterations if rb.check_cost else 0):  # a seal judges cost
        s = _random_batched_state(seal_rng)
        try:
            sealed = sealed_dequeue(s)
            ok = sealed.impl.cost <= sealed.spec.cost
            rb.case(
                ok,
                "queues/sealed-dequeue",
                lambda: (s, "impl within bound", render((sealed.impl.cost, sealed.spec.cost))),
            )
        except BoundViolation as err:
            rb.fail("queues/sealed-dequeue", s, "valid seal", render(err))

    for trace in exhaustive_traces(6, (0, 1)):
        _run_coherence_trace(rb, trace, squares)

    trace_rng = rb.rng("/traces")
    for _ in range(rb.iterations):
        trace = random_trace(trace_rng)
        _run_coherence_trace(rb, trace, squares, quotient_rng=trace_rng)


# ---------------------------------------------------------------------------
# queues/noninterference

def _stack_push(e: Any, s: ListQueueState) -> Charged[ListQueueState]:
    return Charged(ONE, ListQueueState((e,) + s.items))


STACK_IMPL = QueueImpl(
    name="stack",
    empty=list_empty,
    enqueue=_stack_push,
    dequeue=list_dequeue,
    alpha=LIST_ALPHA,
)


def membership_traces(seed: int) -> List[Tuple[Tuple[str, Tuple[Any, ...]], ...]]:
    """Deterministic trace sample for specification membership checks."""
    rng = derive_rng(seed, "queues/membership")
    traces = exhaustive_traces(3, (1, 2))
    traces += [random_trace(rng, max_len=50) for _ in range(20)]
    return traces


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
    traces = membership_traces(rb.seed)
    shown = f"{len(traces)} traces"
    rb.equal("queues/spec-member/batched", shown, True, queue_spec_member(BATCHED_QUEUE, LIST_QUEUE, traces))
    rb.equal("queues/spec-member/list", shown, True, queue_spec_member(LIST_QUEUE, LIST_QUEUE, traces))
    rb.equal("queues/spec-member/stack-excluded", shown, False, queue_spec_member(STACK_IMPL, LIST_QUEUE, traces))

    impls = (("list", LIST_QUEUE), ("batched", BATCHED_QUEUE))
    demos = [(name, functools.partial(demo, q)) for name, q in impls] + [("oracle", lambda e: e)]
    check_noninterference(rb, "/demo", demos, lambda r: r.randrange(100), rb.iterations)
    reversals = [(name, functools.partial(qreverse, q)) for name, q in impls] + [("oracle", lambda xs: xs[::-1])]
    check_noninterference(rb, "/qreverse", reversals, lambda r: random_items(r, 100, r.randrange(201)), rb.iterations)


# ---------------------------------------------------------------------------
# rbtree suites

SUM_TARGET = TargetMonoid(
    name="nat-sum",
    ops=MonoidOps(empty=0, append=lambda x, y: Charged(ONE, x + y), singleton=lambda e: 1),
)
LIST_TARGET = TargetMonoid(
    name="list",
    ops=MonoidOps(empty=(), append=lambda x, y: Charged(ONE, x + y), singleton=lambda e: (e,)),
)
MAX_TARGET = TargetMonoid(
    name="nat-max",
    ops=MonoidOps(empty=0, append=lambda x, y: Charged(ONE, max(x, y)), singleton=lambda e: e),
)

# ``append`` and ``mapreduce`` are looked up when called, so a replacement
# installed in this module reaches the sequence's operations too.
TREE_SEQUENCE = SequenceImpl(
    ops=MonoidOps(empty=EMPTY, append=lambda a, b: append(a, b), singleton=singleton),
    mapreduce=lambda t, ops: mapreduce(t, ops),
    alpha=ELEMENTS_ALPHA,
)


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
    pool = _TreePool(rb.rng())
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
                    rb.fail("rbtree/invariant-audit", (render(elements(a)), render(elements(b))), "valid tree", str(err))
                else:
                    rb.case(True, "rbtree/invariant-audit", tuple)
            if rb.check_beh:
                expected = elements(a) + elements(b)
                got = elements(t)
                rb.case(
                    got == expected,
                    "rbtree/append-elements",
                    lambda: ((render(elements(a)), render(elements(b))), render(expected), render(got)),
                )
                rb.case(
                    length_fast(t) == len(expected),
                    "rbtree/size-cache",
                    lambda: (render(expected), len(expected), length_fast(t)),
                )
        bound = append_bound(a, b)
        if rb.check_cost:
            rb.case(
                out.cost.value <= bound,
                "rbtree/append-cost-bound",
                lambda: ((a.black_height, b.black_height), f"<= {bound}", out.cost.value),
            )
        rb.cost_row(abs(a.black_height - b.black_height), out.cost.value, bound)

    samples = max(1, rb.iterations // 10)
    check_abstract_monoid(
        rb,
        "/monoid",
        EMPTY,
        append,
        ELEMENTS_ALPHA,
        lambda r: pool.pool[r.randrange(len(pool.pool))],
        samples,
    )

    if rb.check_beh:
        probe_rng = rb.rng("/clients")
        clients = (
            ("elements", lambda t: elements(t)),
            ("length", lambda t: length_fast(t)),
            ("mapreduce-sum", lambda t: mapreduce(t, SUM_TARGET.ops).value),
            ("reduce-max", lambda t: reduce(lambda x, y: Charged(ONE, max(x, y)), 0, t).value),
        )
        for _ in range(samples):
            items = random_items(probe_rng, 100, 1 + geometric_size(probe_rng, cap=64))
            cut = probe_rng.randrange(len(items) + 1)
            left_first = append(from_iterable(items[:cut]), from_iterable(items[cut:])).value
            straight = from_iterable(items)
            for client_name, client in clients:
                rb.equal(f"rbtree/abstract-client/{client_name}", items, client(straight), client(left_first))


@register("rbtree/universal")
def rbtree_universal(rb: ReportBuilder) -> None:
    """The structural fold is the unique homomorphism out of the sequence.

    ``mapreduce`` into sum, list, and max targets must agree with the
    canonical list fold over the elements, and report as its cost the sum
    of the target appends it made; independent homomorphisms (cached
    length, direct elements) must agree with it on samples.
    """
    pool = _TreePool(rb.rng(), cap=512)
    for _ in range(min(rb.iterations, 200)):
        pool.grow()

    def tree_gen(r: random.Random) -> rbtree.RBTree:
        return pool.pool[r.randrange(len(pool.pool))]

    check_universal_property(
        rb,
        "/nat-sum",
        TREE_SEQUENCE,
        SUM_TARGET,
        tree_gen,
        rb.iterations,
        extra_homs=(("cached-length", lambda t: Charged(ONE, length_fast(t))),),
    )
    check_universal_property(
        rb,
        "/list",
        TREE_SEQUENCE,
        LIST_TARGET,
        tree_gen,
        rb.iterations,
        extra_homs=(("elements", lambda t: ret(elements(t))),),
    )
    check_universal_property(
        rb,
        "/nat-max",
        TREE_SEQUENCE,
        MAX_TARGET,
        tree_gen,
        rb.iterations,
    )
    check_abstract_hom(
        rb,
        "/length-hom",
        lambda t: mapreduce(t, SUM_TARGET.ops),
        TREE_SEQUENCE.ops,
        SUM_TARGET.ops,
        (ELEMENTS_ALPHA, AbstractionFn(apply=lambda n: n)),
        lambda r: (tree_gen(r), tree_gen(r), r.randrange(100)),
        rb.iterations,
    )


@register("rbtree/reduce")
def rbtree_reduce(rb: ReportBuilder) -> None:
    """Element folds stay linear: cost of reduce is bounded by twice the size."""
    rng = rb.rng()
    pool = _TreePool(rng, cap=1024)

    def plus(x: int, y: int) -> Charged[int]:
        return Charged(ONE, x + y)

    if rb.check_cost:
        probe = plus(1, 2)
        rb.case(
            probe.cost == Cost(1) and probe.value == 3,
            "rbtree/reduce-combiner-precondition",
            lambda: ((1, 2), "unit cost, correct value", render(probe)),
        )

    for _ in range(rb.iterations):
        pool.grow()
        t = pool.sample()
        if t.size == 0:
            t = singleton(rng.randrange(100))
        out = reduce(plus, 0, t)
        if rb.check_beh:
            expected = sum(elements(t))
            rb.case(out.value == expected, "rbtree/reduce-value", lambda: (render(elements(t)), expected, out.value))
        if rb.check_cost:
            rb.case(
                out.cost.value <= 2 * t.size,
                "rbtree/reduce-cost-linear",
                lambda: (f"size {t.size}", f"<= {2 * t.size}", out.cost.value),
            )
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
            lambda: ("empty tree", "unit at small constant cost", render(unit_case)),
        )


# ---------------------------------------------------------------------------
# sorting/bounds

@register("sorting/bounds")
def sorting_bounds(rb: ReportBuilder) -> None:
    """Both sorts match the stable specification within their budgets.

    Exhausts every permutation of sizes up to 8 (6 on quick runs with
    fewer than 5000 iterations) and samples random lists up to length
    512; each run must produce the specification's output with at most
    the budgeted number of comparisons, and each random input's runs must
    seal under their budgets.  Every sort runs once per input.  The
    budget, seal and exact-cost laws read cost, so only the modes that
    judge cost record them.
    """
    rng = rb.rng()
    algorithms = (
        ("isort", isort, isort_bound),
        ("msort", msort, msort_bound),
    )

    def judge(items: Sequence[Any], expected: Tuple[Any, ...]) -> List[Tuple[Charged, int]]:
        """Run both sorts once on ``items``; return each run with its budget."""
        n = len(items)
        runs = []
        for alg_name, alg, bound_fn in algorithms:
            out = alg(items)
            budget = bound_fn(n)
            if rb.check_beh:
                rb.equal(f"sorting/{alg_name}-behavior", items, expected, out.value)
            if rb.check_cost:
                rb.case(
                    out.cost.value <= budget,
                    f"sorting/{alg_name}-bound",
                    lambda: (items, f"<= {budget}", out.cost.value),
                )
            rb.cost_row(n, out.cost.value, budget)
            runs.append((out, budget))
        return runs

    exhaustive_n = 8 if rb.iterations >= 5000 else 6
    for n in range(exhaustive_n + 1):
        for perm in itertools.permutations(range(n)):
            judge(perm, sort_spec(perm))

    for _ in range(rb.iterations):
        if rng.random() < 0.1:
            n = rng.randrange(256, 513)
        else:
            n = geometric_size(rng, cap=255)
        items = random_items(rng, 1000, n)
        expected = sort_spec(items)
        runs = judge(items, expected)
        if rb.check_cost:  # a seal judges cost
            try:
                for out, budget in runs:
                    seal(out, Charged(Cost(budget), expected))
            except BoundViolation as err:
                rb.fail("sorting/sealed-accepts", items, "both seals valid", render(err))
            else:
                rb.case(True, "sorting/sealed-accepts", tuple)
        if rb.check_beh:
            head_i, head_m = (out.value[0] if items else None for out, _ in runs)
            rb.equal("sorting/noninterference-client-head", items, head_m, head_i)

    if not rb.check_cost:  # the laws below read cost
        return
    frozen = msort((2, 1))
    rb.case(
        frozen == Charged(Cost(1), (1, 2)),
        "sorting/msort-two-elements",
        lambda: ((2, 1), render(Charged(Cost(1), (1, 2))), render(frozen)),
    )
    ascending = tuple(range(16))
    run = isort(ascending)
    rb.case(
        run.cost.value == len(ascending) - 1,
        "sorting/isort-sorted-input",
        lambda: (ascending, len(ascending) - 1, run.cost.value),
    )
    try:
        sealed_tree = sealed_sort_tree(msort, msort_bound, from_iterable((3, 1, 2)))
    except BoundViolation as err:
        rb.fail("sorting/sealed-tree", (3, 1, 2), "valid seal", render(err))
    else:
        rb.case(
            elements(sealed_tree.impl.value) == (1, 2, 3),
            "sorting/sealed-tree",
            lambda: ((3, 1, 2), (1, 2, 3), render(elements(sealed_tree.impl.value))),
        )
