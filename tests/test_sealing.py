"""Sealed cost/behavior certificates and their algebra."""

from __future__ import annotations

import dataclasses
import operator

import pytest
from hypothesis import given, strategies as st

from costglue.cost import ONE, Charged, Cost, charge, leq, ret
from costglue.sealing import (
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

small = st.integers(min_value=0, max_value=1000)
values = st.integers(min_value=-100, max_value=100)


@st.composite
def seals(draw) -> Sealed[int]:
    v = draw(values)
    impl_cost = draw(small)
    gap = draw(small)
    return seal(Charged(Cost(impl_cost), v), Charged(Cost(impl_cost + gap), v))


class TestValidity:
    def test_seal_accepts_within_bound(self) -> None:
        s = seal(Charged(Cost(2), "v"), Charged(Cost(5), "v"))
        assert s.impl.cost == Cost(2)
        assert s.spec.cost == Cost(5)

    def test_seal_rejects_cost_overrun(self) -> None:
        with pytest.raises(BoundViolation) as info:
            seal(Charged(Cost(6), "v"), Charged(Cost(5), "v"))
        assert info.value.cost_overrun == 1
        assert not info.value.behavior_mismatch

    def test_seal_rejects_behavior_mismatch(self) -> None:
        with pytest.raises(BoundViolation) as info:
            seal(Charged(Cost(2), "a"), Charged(Cost(5), "b"))
        assert info.value.behavior_mismatch
        assert info.value.cost_overrun == 0

    def test_custom_behavioral_equality(self) -> None:
        s = seal(ret("ab"), ret("AB"), beh_eq=lambda a, b: a.lower() == b.lower())
        assert s.impl.value == "ab"

    @given(seals())
    def test_every_seal_is_a_refinement(self, s: Sealed[int]) -> None:
        assert leq(s.impl, s.spec, s.beh_eq)


class TestUnseal:
    @given(seals())
    def test_unseal_concrete_is_the_implementation(self, s: Sealed[int]) -> None:
        assert unseal_concrete(s) == s.impl

    @given(seals())
    def test_unseal_abstract_is_the_specification(self, s: Sealed[int]) -> None:
        assert unseal_abstract(s) == s.spec

    @given(values)
    def test_seal_return_is_free_on_both_sides(self, v: int) -> None:
        s = seal_return(v)
        assert unseal_concrete(s) == ret(v)
        assert unseal_abstract(s) == ret(v)


class TestReseal:
    def test_frozen_example(self) -> None:
        s = seal(Charged(Cost(1), "v"), Charged(Cost(3), "v"))
        widened = reseal(s, Charged(Cost(4), "v"))
        assert widened.impl == Charged(Cost(1), "v")
        assert widened.spec == Charged(Cost(4), "v")

    def test_rejects_tighter_bound(self) -> None:
        s = seal(Charged(Cost(2), "v"), Charged(Cost(3), "v"))
        with pytest.raises(BoundViolation):
            reseal(s, Charged(Cost(2), "v"))
        # Tightening stops at the spec, not at the implementation: even a
        # bound the impl would meet is rejected unless the old spec meets it.
        assert reseal(s, Charged(Cost(3), "v")).spec.cost == Cost(3)

    def test_rejects_changed_behavior(self) -> None:
        s = seal(ret("a"), ret("a"))
        with pytest.raises(BoundViolation):
            reseal(s, charge(9, ret("b")))

    @given(seals())
    def test_reseal_to_own_spec_is_identity(self, s: Sealed[int]) -> None:
        assert reseal(s, s.spec) == s

    @given(seals(), small, small)
    def test_reseal_transitive(self, s: Sealed[int], d1: int, d2: int) -> None:
        once = reseal(s, charge(d1, s.spec))
        twice = reseal(once, charge(d2, once.spec))
        assert twice.impl == s.impl
        assert twice.spec.cost == s.spec.cost + Cost(d1) + Cost(d2)


class TestSealCharge:
    def test_frozen_example(self) -> None:
        s = seal(Charged(Cost(1), "v"), Charged(Cost(3), "v"))
        bumped = seal_charge(2, s)
        assert bumped.impl == Charged(Cost(3), "v")
        assert bumped.spec == Charged(Cost(5), "v")

    @given(seals(), small)
    def test_charges_both_sides(self, s: Sealed[int], c: int) -> None:
        bumped = seal_charge(c, s)
        assert bumped.impl == charge(c, s.impl)
        assert bumped.spec == charge(c, s.spec)

    @given(seals())
    def test_charge_zero_is_identity(self, s: Sealed[int]) -> None:
        assert seal_charge(0, s) == s

    @given(seals(), small, small)
    def test_charges_fuse(self, s: Sealed[int], a: int, b: int) -> None:
        assert seal_charge(a, seal_charge(b, s)) == seal_charge(a + b, s)


class TestSealJoin:
    def test_composite_example(self) -> None:
        # Outer certificate pairs two different inner certificates for the
        # same value; the join adds costs pathwise.
        inner_impl = seal(Charged(Cost(2), "v"), Charged(Cost(3), "v"))
        inner_spec = seal(Charged(Cost(3), "v"), Charged(Cost(4), "v"))
        outer = Sealed(
            impl=Charged(Cost(1), inner_impl),
            spec=Charged(Cost(1), inner_spec),
            beh_eq=sealed_beh_eq(),
        )
        flat = seal_join(outer)
        assert flat.impl == Charged(Cost(3), "v")
        assert flat.spec == Charged(Cost(5), "v")

    @given(seals())
    def test_join_of_return_is_identity(self, s: Sealed[int]) -> None:
        assert seal_join(seal_return(s)) == s

    @given(seals(), small)
    def test_join_commutes_with_charge(self, s: Sealed[int], c: int) -> None:
        nested = seal_return(s)
        assert seal_join(seal_charge(c, nested)) == seal_charge(c, seal_join(nested))

    @given(seals(), small, small)
    def test_join_adds_costs_pathwise(self, inner: Sealed[int], ci: int, gap: int) -> None:
        outer = Sealed(
            impl=Charged(Cost(ci), inner),
            spec=Charged(Cost(ci + gap), inner),
            beh_eq=sealed_beh_eq(),
        )
        flat = seal_join(outer)
        assert flat.impl.cost == Cost(ci) + inner.impl.cost
        assert flat.spec.cost == Cost(ci + gap) + inner.spec.cost
        assert flat.impl.value == inner.impl.value


class TestSealedBehEq:
    def test_compares_implementation_values_only(self) -> None:
        eq = sealed_beh_eq()
        a = seal(Charged(Cost(1), "v"), Charged(Cost(9), "v"))
        b = seal(Charged(Cost(2), "v"), Charged(Cost(3), "v"))
        c = seal(ret("w"), ret("w"))
        assert eq(a, b)
        assert not eq(a, c)


@dataclasses.dataclass(frozen=True)
class GeneratedSealed:
    """``Sealed``'s fields under the equality and hash a dataclass generates."""

    impl: Charged
    spec: Charged
    beh_eq: object = dataclasses.field(compare=False)


NAN = float("nan")


class TestSealedEquality:
    def test_ignores_the_behavioral_equality(self) -> None:
        inner = seal_return("v")
        a = Sealed(ret(inner), ret(inner), sealed_beh_eq())
        b = Sealed(ret(inner), ret(inner), sealed_beh_eq())
        assert a.beh_eq is not b.beh_eq
        assert a == b
        assert hash(a) == hash(b)

    def test_repr_still_shows_it(self) -> None:
        assert "beh_eq=" in repr(seal_return(1))

    @pytest.mark.parametrize("a, b", [
        ((Charged(1, 2), Charged(3, 2), operator.eq), (Charged(2, 2), Charged(3, 2), operator.eq)),
        ((Charged(1, 2), Charged(3, 2), operator.eq), (Charged(1, 2), Charged(4, 2), operator.eq)),
        ((Charged(ONE, NAN), Charged(ONE, NAN), operator.is_),
         (Charged(ONE, NAN), Charged(ONE, NAN), operator.is_)),
        ((Charged(1, 2), Charged(3, 2), operator.eq), (Charged(1, 2), Charged(3, 2), lambda u, v: True)),
    ], ids=["impl", "spec", "nan-same", "beh_eq-only"])
    def test_matches_the_generated_rule(self, a: tuple, b: tuple) -> None:
        x, y = Sealed(*a), Sealed(*b)
        gx, gy = GeneratedSealed(*a), GeneratedSealed(*b)
        assert (x == y) is (gx == gy) is ((x.impl, x.spec) == (y.impl, y.spec))
        assert (x != y) is (gx != gy)
        assert (hash(x), hash(y)) == (hash(gx), hash(gy))

    def test_other_classes_are_not_implemented(self) -> None:
        s = seal_return(1)
        assert Sealed.__eq__(s, (s.impl, s.spec)) is NotImplemented
        assert (s == (s.impl, s.spec)) is False
        assert (s != (s.impl, s.spec)) is True
