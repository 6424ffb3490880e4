"""FIFO queues, twice: a plain list model and a batched two-list structure.

The list queue is the specification: its state is the tuple of the
queue's contents, oldest first, so its abstraction function is the
identity.  It charges amortized prices: 2 per enqueue, 0 per dequeue.
The batched queue keeps an inbox (newest first) and an outbox (oldest
first); enqueue conses onto the inbox at cost 1 and dequeue pops the
outbox for free, paying to reverse the inbox into the outbox only when
the outbox runs dry.

``rev_append`` is the abstraction function relating them: a batched
state means the list ``outbox ++ reverse(inbox)``.  Every batched
operation commutes with the list operation through it, and its cost
plus the change in ``batched_potential`` (one unit saved per inbox
element) equals the list price exactly.  Summed over a trace, reversal
work is the enqueues less the final potential, never more than the
enqueues.

Queues hold plain elements; dequeuing an empty queue returns
``DEFAULT_ELEMENT`` at no cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Tuple

from .cost import ONE, ZERO, Charged, Cost, bind
from .phase import AbstractionFn, spec_member

DEFAULT_ELEMENT = 0


@dataclass(frozen=True, slots=True, init=False)
class BatchedQueueState:
    """Two-list queue: inbox newest-first, outbox oldest-first."""

    inbox: Tuple[Any, ...]
    outbox: Tuple[Any, ...]

    def __init__(self, inbox: Tuple[Any, ...] = (), outbox: Tuple[Any, ...] = ()) -> None:
        _set_inbox(self, inbox)
        _set_outbox(self, outbox)


_set_inbox = BatchedQueueState.inbox.__set__
_set_outbox = BatchedQueueState.outbox.__set__


def rev_append(state: BatchedQueueState) -> Tuple[Any, ...]:
    """The list a batched state represents: outbox ++ reverse(inbox)."""
    return state.outbox + state.inbox[::-1]


LIST_ALPHA: AbstractionFn = AbstractionFn(apply=lambda s: s)
BATCHED_ALPHA: AbstractionFn = AbstractionFn(apply=rev_append)


def batched_potential(state: BatchedQueueState) -> int:
    """The credit saved for the next reversal: one unit per inbox element."""
    return len(state.inbox)


# -- list queue operations ----------------------------------------------

_ENQUEUE_PRICE = Cost(2)  # one unit to add the element, one saved to reverse it


def list_empty() -> Tuple[Any, ...]:
    return ()


def list_enqueue(e: Any, s: Tuple[Any, ...]) -> Charged[Tuple[Any, ...]]:
    """Append at the back for ``_ENQUEUE_PRICE``."""
    return Charged(_ENQUEUE_PRICE, s + (e,))


def list_dequeue(s: Tuple[Any, ...]) -> Charged[Tuple[Any, Tuple[Any, ...]]]:
    """Pop the front for free, its reversal paid for by its enqueue; an empty queue yields ``DEFAULT_ELEMENT``."""
    return Charged(ZERO, (s[0], s[1:]) if s else (DEFAULT_ELEMENT, s))


# -- batched queue operations -------------------------------------------

def batched_empty() -> BatchedQueueState:
    return BatchedQueueState()


def batched_enqueue(e: Any, s: BatchedQueueState) -> Charged[BatchedQueueState]:
    """Cons onto the inbox; one unit."""
    return Charged(ONE, BatchedQueueState((e,) + s.inbox, s.outbox))


def batched_dequeue(s: BatchedQueueState) -> Charged[Tuple[Any, BatchedQueueState]]:
    """Pop the oldest element.

    Free while the outbox has elements.  When it runs dry the inbox is
    reversed into the outbox, costing one unit per inbox element; the
    front of the reversed list is returned immediately.  An empty queue
    yields ``DEFAULT_ELEMENT`` at no cost.
    """
    if s.outbox:
        return Charged(ZERO, (s.outbox[0], BatchedQueueState(s.inbox, s.outbox[1:])))
    if s.inbox:
        flipped = s.inbox[::-1]
        return Charged(Cost(len(s.inbox)), (flipped[0], BatchedQueueState((), flipped[1:])))
    return Charged(ZERO, (DEFAULT_ELEMENT, s))


# -- packaged implementations -------------------------------------------

@dataclass(frozen=True)
class QueueImpl:
    """A queue implementation bundled with its abstraction function."""

    name: str
    empty: Callable[[], Any]
    enqueue: Callable[[Any, Any], Charged[Any]]
    dequeue: Callable[[Any], Charged[Tuple[Any, Any]]]
    alpha: AbstractionFn


LIST_QUEUE = QueueImpl(
    name="list",
    empty=list_empty,
    enqueue=list_enqueue,
    dequeue=list_dequeue,
    alpha=LIST_ALPHA,
)

BATCHED_QUEUE = QueueImpl(
    name="batched",
    empty=batched_empty,
    enqueue=batched_enqueue,
    dequeue=batched_dequeue,
    alpha=BATCHED_ALPHA,
)


# -- trace running --------------------------------------------------------

@dataclass(frozen=True)
class TraceRun:
    """Everything observable from running one trace against one implementation."""

    outputs: Tuple[Any, ...]
    final_state: Any
    step_costs: Tuple[Tuple[str, int], ...]


def run_trace(impl: QueueImpl, ops: Sequence[Tuple[str, Tuple[Any, ...]]]) -> TraceRun:
    """Run a sequence of (op name, args) from the empty queue."""
    state = impl.empty()
    outputs = []
    steps = []
    for name, args in ops:
        if name == "enqueue":
            (e,) = args
            step = impl.enqueue(e, state)
            state = step.value
        elif name == "dequeue":
            step = impl.dequeue(state)
            e, state = step.value
            outputs.append(e)
        else:
            raise ValueError(f"unknown queue operation: {name!r}")
        steps.append((name, step.cost.value))
    return TraceRun(tuple(outputs), state, tuple(steps))


def queue_spec_member(candidate: QueueImpl, specification: QueueImpl,
                      traces: Sequence[Sequence[Tuple[str, Tuple[Any, ...]]]]) -> bool:
    """Phase-projected membership test for queue implementations.

    A candidate inhabits the queue specification when it is
    observationally identical to the specification witness across the
    sampled traces: same dequeued elements, same abstract final states.
    """
    def projection(impl: QueueImpl) -> Tuple[Any, ...]:
        runs = [run_trace(impl, t) for t in traces]
        return tuple((run.outputs, impl.alpha.apply(run.final_state)) for run in runs)

    return spec_member(candidate, specification, projection)


# -- client programs ------------------------------------------------------

def demo(q: QueueImpl, e: Any) -> Any:
    """Enqueue one element into the empty queue and dequeue it back."""
    run = bind(q.enqueue(e, q.empty()), q.dequeue)
    return run.value[0]


def from_list(q: QueueImpl, items: Sequence[Any]) -> Any:
    """Build a queue by enqueueing ``items`` back to front.

    The recursion enqueues the last element first, so the head of
    ``items`` ends up newest in the queue.
    """
    state = q.empty()
    for e in reversed(items):
        state = q.enqueue(e, state).value
    return state


def to_list(q: QueueImpl, k: int, state: Any) -> Tuple[Any, ...]:
    """Dequeue ``k`` elements in order; an exhausted queue pads with defaults."""
    out = []
    for _ in range(k):
        e, state = q.dequeue(state).value
        out.append(e)
    return tuple(out)


def qreverse(q: QueueImpl, items: Sequence[Any]) -> Tuple[Any, ...]:
    """Reverse a list by feeding it through a queue.

    Because ``from_list`` enqueues back to front, draining the queue
    returns the elements of ``items`` reversed, for any lawful queue.
    """
    return to_list(q, len(items), from_list(q, items))
