"""Batched queues against the list-queue model."""

from __future__ import annotations

from hypothesis import given, strategies as st

from costglue.cost import Cost
from costglue.queues import (
    BATCHED_ALPHA,
    BATCHED_QUEUE,
    DEFAULT_ELEMENT,
    LIST_ALPHA,
    LIST_QUEUE,
    BatchedQueueState,
    batched_dequeue,
    batched_empty,
    batched_enqueue,
    batched_potential,
    demo,
    from_list,
    list_dequeue,
    list_empty,
    list_enqueue,
    qreverse,
    queue_spec_member,
    rev_append,
    run_trace,
    to_list,
)

elems = st.integers(min_value=0, max_value=99)
traces = st.lists(
    st.one_of(
        st.tuples(st.just("enqueue"), st.tuples(elems)),
        st.tuples(st.just("dequeue"), st.just(())),
    ),
    max_size=40,
).map(tuple)


class TestOperationOracles:
    def test_batched_dequeue_pops_outbox_for_free(self) -> None:
        s = BatchedQueueState(inbox=(), outbox=(2, 1))
        out = batched_dequeue(s)
        assert out.value == (2, BatchedQueueState((), (1,)))
        assert out.cost == Cost(0)

    def test_batched_dequeue_reverses_inbox(self) -> None:
        s = BatchedQueueState(inbox=(2, 1), outbox=())
        out = batched_dequeue(s)
        assert out.value == (1, BatchedQueueState((), (2,)))
        assert out.cost == Cost(2)

    def test_batched_dequeue_empty_yields_default(self) -> None:
        out = batched_dequeue(batched_empty())
        assert out.value == (DEFAULT_ELEMENT, batched_empty())
        assert out.cost == Cost(0)

    def test_batched_enqueue_conses_for_one(self) -> None:
        s = BatchedQueueState(inbox=(2,), outbox=(1,))
        out = batched_enqueue(3, s)
        assert out.value == BatchedQueueState((3, 2), (1,))
        assert out.cost == Cost(1)

    def test_list_dequeue_walks_the_list(self) -> None:
        out = list_dequeue((1, 2, 3))
        assert out.value == (1, (2, 3))
        assert out.cost == Cost(0)

    def test_list_dequeue_empty(self) -> None:
        out = list_dequeue(list_empty())
        assert list_empty() == ()
        assert out.value == (DEFAULT_ELEMENT, ())
        assert out.cost == Cost(0)

    def test_list_enqueue(self) -> None:
        out = list_enqueue(9, (1,))
        assert out.value == (1, 9)
        assert out.cost == Cost(2)


class TestAbstraction:
    @given(st.lists(elems, max_size=10).map(tuple), st.lists(elems, max_size=10).map(tuple))
    def test_rev_append(self, inbox: tuple[int, ...], outbox: tuple[int, ...]) -> None:
        got = rev_append(BatchedQueueState(inbox, outbox))
        assert got == outbox + tuple(reversed(inbox))

    def test_alphas(self) -> None:
        assert BATCHED_ALPHA.apply(BatchedQueueState((3,), (1, 2))) == (1, 2, 3)
        s = (1, 2)
        assert LIST_ALPHA.apply(s) is s  # the specification's state is its own image


class TestDifferentialTraces:
    """Both queues against a plain FIFO model, step by step."""

    @staticmethod
    def _model(trace) -> tuple[int, ...]:
        fifo: list[int] = []
        outputs: list[int] = []
        for op, args in trace:
            if op == "enqueue":
                fifo.append(args[0])
            else:
                outputs.append(fifo.pop(0) if fifo else DEFAULT_ELEMENT)
        return tuple(outputs)

    @given(traces)
    def test_batched_matches_model(self, trace) -> None:
        run = run_trace(BATCHED_QUEUE, trace)
        assert run.outputs == self._model(trace)

    @given(traces)
    def test_list_matches_model(self, trace) -> None:
        run = run_trace(LIST_QUEUE, trace)
        assert run.outputs == self._model(trace)

    @given(traces)
    def test_images_stay_in_step(self, trace) -> None:
        b = run_trace(BATCHED_QUEUE, trace)
        l = run_trace(LIST_QUEUE, trace)
        assert rev_append(b.final_state) == l.final_state

    @given(traces)
    def test_amortized_reversal_bound(self, trace) -> None:
        # Every enqueue costs one unit to cons and saves one in the
        # potential for its flip; what is still saved was never spent.
        run = run_trace(BATCHED_QUEUE, trace)
        enqueues = sum(1 for op, _ in trace if op == "enqueue")
        assert sum(c for _, c in run.step_costs) == 2 * enqueues - batched_potential(run.final_state)


class TestClients:
    def test_from_list_example(self) -> None:
        assert from_list(LIST_QUEUE, [1, 2, 3]) == (3, 2, 1)

    @given(st.lists(elems, max_size=20))
    def test_to_list_inverts_from_list_reversed(self, items: list[int]) -> None:
        q = from_list(BATCHED_QUEUE, items)
        assert to_list(BATCHED_QUEUE, len(items), q) == tuple(reversed(items))

    def test_to_list_pads_with_defaults(self) -> None:
        q = from_list(LIST_QUEUE, [5])
        assert to_list(LIST_QUEUE, 3, q) == (5, DEFAULT_ELEMENT, DEFAULT_ELEMENT)

    @given(st.lists(elems, max_size=20), st.sampled_from([LIST_QUEUE, BATCHED_QUEUE]))
    def test_qreverse_is_reversal(self, items: list[int], impl) -> None:
        assert qreverse(impl, items) == tuple(reversed(items))

    @given(elems, st.sampled_from([LIST_QUEUE, BATCHED_QUEUE]))
    def test_demo_roundtrips_one_element(self, e: int, impl) -> None:
        assert demo(impl, e) == e


class TestSpecMembership:
    # The second trace separates FIFO from LIFO: after enqueue 1, enqueue 2,
    # a queue dequeues 1 where a stack pops 2.
    TRACES = (
        (("enqueue", (7,)), ("dequeue", ())),
        (("enqueue", (1,)), ("enqueue", (2,)), ("dequeue", ())),
        (("dequeue", ()), ("enqueue", (3,)), ("dequeue", ()), ("dequeue", ())),
    )

    def test_batched_inhabits_the_queue_specification(self) -> None:
        assert queue_spec_member(BATCHED_QUEUE, LIST_QUEUE, self.TRACES)

    def test_specification_witnesses_itself(self) -> None:
        assert queue_spec_member(LIST_QUEUE, LIST_QUEUE, self.TRACES)

    def test_lifo_stack_is_excluded(self) -> None:
        from costglue.suites import STACK_IMPL

        assert not queue_spec_member(STACK_IMPL, LIST_QUEUE, self.TRACES)
