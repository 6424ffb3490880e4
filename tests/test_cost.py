"""Cost arithmetic and the charged-value laws."""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, strategies as st

from costglue.cost import MAX_COST, ZERO, Charged, Cost, bind, charge, erase, leq, ret

costs = st.integers(min_value=0, max_value=10**9)
values = st.integers(min_value=-(10**6), max_value=10**6)


def charged(cost_strategy=costs, value_strategy=values):
    return st.builds(Charged, cost_strategy.map(Cost), value_strategy)


# A small pool of continuations so bind laws range over distinct shapes.
KONTS = (
    lambda x: ret(x + 1),
    lambda x: charge(1, ret(x * 2)),
    lambda x: charge(3, ret(-x)),
    lambda x: Charged(Cost(abs(x) % 7), x),
)

konts = st.sampled_from(KONTS)


class TestCost:
    def test_zero(self) -> None:
        assert ZERO == Cost(0)
        assert Cost(2) + Cost(3) == Cost(5)

    def test_order(self) -> None:
        assert Cost(1) < Cost(2)
        assert Cost(2) <= Cost(2)

    def test_rejects_negative(self) -> None:
        with pytest.raises(ValueError):
            Cost(-1)

    def test_rejects_non_integer(self) -> None:
        with pytest.raises(TypeError):
            Cost(1.5)  # type: ignore[arg-type]

    @pytest.mark.parametrize("flag", [True, False])
    def test_rejects_bool(self, flag: bool) -> None:
        with pytest.raises(TypeError, match="got bool"):
            Cost(flag)

    def test_max_boundary(self) -> None:
        assert Cost(MAX_COST).value == MAX_COST
        with pytest.raises(OverflowError):
            Cost(MAX_COST + 1)

    def test_addition_overflow(self) -> None:
        with pytest.raises(OverflowError):
            Cost(MAX_COST) + Cost(1)

    @given(costs, costs)
    def test_addition_matches_integers(self, a: int, b: int) -> None:
        assert (Cost(a) + Cost(b)).value == a + b


class TestChargedOracles:
    def test_charge_fusion_example(self) -> None:
        assert charge(2, charge(3, ret("x"))) == Charged(Cost(5), "x")

    def test_bind_example(self) -> None:
        m = Charged(Cost(2), 3)
        assert bind(m, lambda x: charge(1, ret(x + 1))) == Charged(Cost(3), 4)

    def test_ret_is_free(self) -> None:
        assert ret(41) == Charged(Cost(0), 41)

    def test_int_cost_coercion(self) -> None:
        assert Charged(3, "a").cost == Cost(3)


class TestMonadLaws:
    @given(values, konts)
    def test_left_identity(self, x: int, k) -> None:
        assert bind(ret(x), k) == k(x)

    @given(charged())
    def test_right_identity(self, m: Charged[int]) -> None:
        assert bind(m, ret) == m

    @given(charged(), konts, konts)
    def test_associativity(self, m: Charged[int], k, h) -> None:
        lhs = bind(bind(m, k), h)
        rhs = bind(m, lambda x: bind(k(x), h))
        assert lhs == rhs

    @given(charged(), konts)
    def test_bind_adds_costs(self, m: Charged[int], k) -> None:
        out = bind(m, k)
        assert out.cost == m.cost + k(m.value).cost


class TestChargeLaws:
    @given(charged())
    def test_charge_zero_is_identity(self, m: Charged[int]) -> None:
        assert charge(0, m) == m

    @given(costs, costs, charged())
    def test_charge_fuses(self, a: int, b: int, m: Charged[int]) -> None:
        assert charge(a, charge(b, m)) == charge(a + b, m)

    @given(costs, charged(), konts)
    def test_charge_commutes_with_bind(self, c: int, m: Charged[int], k) -> None:
        assert bind(charge(c, m), k) == charge(c, bind(m, k))


class TestFmapErase:
    @given(costs, charged())
    def test_erase_drops_charges(self, c: int, m: Charged[int]) -> None:
        assert erase(charge(c, m)) == erase(m) == m.value


class TestRefinement:
    @given(charged(), charged())
    def test_leq_requires_both(self, a: Charged[int], b: Charged[int]) -> None:
        assert leq(a, b) == (a.cost <= b.cost and a.value == b.value)

    @given(charged())
    def test_leq_reflexive(self, m: Charged[int]) -> None:
        assert leq(m, m)

    @given(charged(), costs, costs)
    def test_leq_transitive(self, m: Charged[int], d1: int, d2: int) -> None:
        mid = charge(d1, m)
        top = charge(d2, mid)
        assert leq(m, mid) and leq(mid, top) and leq(m, top)

    @given(charged(), charged())
    def test_erase_collapses_leq_to_value_equality(self, a: Charged[int], b: Charged[int]) -> None:
        # After erasure the cost component carries no information.
        if leq(a, b, operator.eq):
            assert erase(a) == erase(b)
