"""Glued values, coherence checking, and phase projection."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from costglue.phase import (
    AbstractionFn,
    CoherenceError,
    GluedValue,
    InvariantBreach,
    abstract_equal,
    fracture,
    glue,
    spec_member,
)
from costglue.queues import BATCHED_ALPHA, BatchedQueueState, rev_append

elems = st.integers(min_value=0, max_value=99)
batched_states = st.builds(
    BatchedQueueState,
    st.lists(elems, max_size=8).map(tuple),
    st.lists(elems, max_size=8).map(tuple),
)


class TestGlue:
    def test_glue_accepts_coherent_pair(self) -> None:
        s = BatchedQueueState(inbox=(2,), outbox=(1,))
        g = glue(s, (1, 2), BATCHED_ALPHA)
        assert g.concrete == s
        assert g.abstract == (1, 2)

    def test_glue_rejects_incoherent_pair(self) -> None:
        s = BatchedQueueState(inbox=(2,), outbox=(1,))
        with pytest.raises(CoherenceError) as info:
            glue(s, (2, 1), BATCHED_ALPHA)
        assert info.value.computed == (1, 2)
        assert info.value.claimed == (2, 1)

    def test_direct_construction_is_also_checked(self) -> None:
        with pytest.raises(CoherenceError):
            GluedValue(BatchedQueueState((), ()), (7,), BATCHED_ALPHA)
        s, wrong = BatchedQueueState(inbox=(3,), outbox=(1, 2)), (3, 2, 1)
        with pytest.raises(CoherenceError) as info:
            GluedValue(s, wrong, BATCHED_ALPHA)
        assert info.value.claimed is wrong
        assert info.value.computed == (1, 2, 3)
        assert isinstance(info.value, InvariantBreach)

    @given(batched_states)
    def test_fracture_inverts_glue(self, s: BatchedQueueState) -> None:
        image = rev_append(s)
        g = glue(s, image, BATCHED_ALPHA)
        concrete, abstract, alpha = fracture(g)
        assert concrete == s
        assert abstract == image
        assert alpha is BATCHED_ALPHA
        assert glue(concrete, abstract, alpha) == g

    @given(batched_states)
    def test_tampered_abstract_is_rejected(self, s: BatchedQueueState) -> None:
        image = rev_append(s)
        with pytest.raises(CoherenceError):
            glue(s, image + (999,), BATCHED_ALPHA)


class TestSlottedGluedValue:
    """The slotted ``GluedValue``: its direct ``__init__``, ``replace``, ``==``, ``hash`` and ``repr``.

    That it is frozen and has no ``__dict__`` is checked with the other
    records in ``tests/test_records.py``.
    """

    def glued(self) -> GluedValue:
        return glue(BatchedQueueState(inbox=(3,), outbox=(1, 2)), (1, 2, 3), BATCHED_ALPHA)

    def test_replace_is_checked_too(self) -> None:
        g, wrong = self.glued(), (1, 2)
        with pytest.raises(CoherenceError) as info:
            dataclasses.replace(g, abstract=wrong)
        assert info.value.claimed is wrong
        assert info.value.computed == (1, 2, 3)
        flushed = BatchedQueueState(inbox=(), outbox=(1, 2, 3))
        assert dataclasses.replace(g, concrete=flushed).concrete is flushed

    def test_the_check_runs_once_before_any_field_is_stored(self) -> None:
        reads = []
        alpha = AbstractionFn(apply=lambda s: reads.append(s) or rev_append(s))
        s = BatchedQueueState(inbox=(3,), outbox=(1, 2))
        blank = object.__new__(GluedValue)
        with pytest.raises(CoherenceError):
            blank.__init__(s, (9,), alpha)
        assert not any(hasattr(blank, f.name) for f in dataclasses.fields(GluedValue))
        assert reads == [s]
        GluedValue(s, (1, 2, 3), alpha)
        assert reads == [s, s]

    def test_equality_hash_and_repr_are_the_generated_ones(self) -> None:
        g = self.glued()
        s = BatchedQueueState(inbox=(3,), outbox=(1, 2))
        assert g == glue(s, (1, 2, 3), BATCHED_ALPHA)
        assert g != glue(BatchedQueueState(inbox=(), outbox=(1, 2, 3)), (1, 2, 3), BATCHED_ALPHA)
        assert g != (s, (1, 2, 3), BATCHED_ALPHA)
        assert hash(g) == hash((s, (1, 2, 3), BATCHED_ALPHA))
        assert repr(g) == (
            "GluedValue(concrete=BatchedQueueState(inbox=(3,), outbox=(1, 2)), abstract=(1, 2, 3), "
            f"alpha={BATCHED_ALPHA!r})"
        )
        assert [f.name for f in dataclasses.fields(GluedValue)] == ["concrete", "abstract", "alpha"]


class TestProjection:
    @given(batched_states)
    def test_abstract_clients_cannot_see_representation(self, s: BatchedQueueState) -> None:
        image = rev_append(s)
        flushed = BatchedQueueState(inbox=(), outbox=image)
        a = glue(s, image, BATCHED_ALPHA).abstract
        b = glue(flushed, image, BATCHED_ALPHA).abstract
        assert a == b


class TestAbstractEqual:
    def test_distinct_representations_same_image(self) -> None:
        a = BatchedQueueState(inbox=(2,), outbox=(1,))
        b = BatchedQueueState(inbox=(), outbox=(1, 2))
        assert abstract_equal(a, b, BATCHED_ALPHA)

    def test_different_images_differ(self) -> None:
        a = BatchedQueueState(inbox=(1,), outbox=())
        b = BatchedQueueState(inbox=(), outbox=(2,))
        assert not abstract_equal(a, b, BATCHED_ALPHA)

    @given(batched_states, batched_states, batched_states)
    def test_kernel_is_an_equivalence(
        self, a: BatchedQueueState, b: BatchedQueueState, c: BatchedQueueState
    ) -> None:
        assert abstract_equal(a, a, BATCHED_ALPHA)
        assert abstract_equal(a, b, BATCHED_ALPHA) == abstract_equal(b, a, BATCHED_ALPHA)
        if abstract_equal(a, b, BATCHED_ALPHA) and abstract_equal(b, c, BATCHED_ALPHA):
            assert abstract_equal(a, c, BATCHED_ALPHA)

    def test_kernel_decides_without_images(self) -> None:
        def no_image(x):
            raise AssertionError("the kernel must decide")

        alpha = AbstractionFn(apply=no_image, kernel=lambda x, y: x.lower() == y.lower())
        assert abstract_equal("AB", "ab", alpha)
        assert not abstract_equal("AB", "ac", alpha)

    def test_without_a_kernel_the_images_are_compared(self) -> None:
        alpha = AbstractionFn(apply=len, abs_eq=lambda a, b: a % 2 == b % 2)
        assert alpha.kernel is None
        assert abstract_equal("abc", "a", alpha)
        assert not abstract_equal("ab", "a", alpha)


class TestSpecMember:
    def test_membership_is_phase_projected(self) -> None:
        # Candidate and witness have different representations but the
        # same image, so the candidate inhabits the specification.
        witness = BatchedQueueState(inbox=(), outbox=(1, 2))
        s = BatchedQueueState(inbox=(2,), outbox=(1,))
        assert spec_member(s, witness, BATCHED_ALPHA.apply)
        assert not spec_member(BatchedQueueState((), ()), witness, BATCHED_ALPHA.apply)


class TestAbstractionFn:
    def test_default_equality_is_structural(self) -> None:
        alpha = AbstractionFn(apply=lambda s: len(s))
        assert alpha.abs_eq(2, 2)
        assert not alpha.abs_eq(2, 3)

    def test_apply(self) -> None:
        assert BATCHED_ALPHA.apply(BatchedQueueState((3,), (1, 2))) == (1, 2, 3)

