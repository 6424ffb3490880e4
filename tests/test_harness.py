"""The differential-checking harness itself."""

from __future__ import annotations

import functools
import json
import math
import random

import pytest

from costglue import harness
from costglue.cost import Charged, Cost, MonoidOps, charge, ret
from costglue.harness import (
    Failure,
    ReportBuilder,
    SquareSpec,
    check_abstract_hom,
    check_abstract_monoid,
    check_noninterference,
    check_square,
    check_universal_property,
    commute,
    derive_rng,
    fold_elements,
    geometric_size,
    randbelow,
    random_items,
    render,
)
from costglue.phase import AbstractionFn, EvaluationMode
from costglue.queues import BATCHED_QUEUE, LIST_QUEUE, qreverse

IDENTITY = AbstractionFn(apply=lambda x: x)
FULL = EvaluationMode.FULL
TUPLE_OPS = MonoidOps(
    empty=(), append=lambda a, b: Charged(Cost(1), a + b), singleton=lambda e: (e,)
)
SUM_OPS = MonoidOps(empty=0, append=lambda a, b: Charged(Cost(1), a + b), singleton=lambda e: e)


def sweep(check, *args, seed: int = 0, mode: EvaluationMode = FULL, **kwargs):
    """Run one checker into a fresh builder and return the report it builds.

    The last two of ``args`` are ``draw`` and ``n``: the checker judges the
    ``n`` values ``draw`` makes from the builder's stream ``""``.
    """
    *args, draw, n = args
    rb = ReportBuilder("s", seed, 0, mode)
    check(rb, *args, rb.draws("", draw, n), **kwargs)
    return rb.build()


def triples(draw):
    """A draw of three values, made by ``draw`` in turn."""
    return lambda rng: (draw(rng), draw(rng), draw(rng))


def counting(draw, drawn: list):
    """``draw``, appending each value it makes to ``drawn``."""
    return lambda rng: drawn.append(draw(rng)) or drawn[-1]


class TestRngDiscipline:
    def test_same_configuration_same_stream(self) -> None:
        a = derive_rng(7, "s").random()
        b = derive_rng(7, "s").random()
        assert a == b

    def test_suites_get_independent_streams(self) -> None:
        assert derive_rng(7, "s1").random() != derive_rng(7, "s2").random()

    def test_seeds_get_independent_streams(self) -> None:
        assert derive_rng(7, "s").random() != derive_rng(8, "s").random()

    def test_geometric_size_respects_cap(self) -> None:
        rng = derive_rng(0, "sizes")
        sizes = [geometric_size(rng, cap=50) for _ in range(2000)]
        assert all(0 <= s <= 50 for s in sizes)
        assert max(sizes) == 50  # the tail does get exercised

    def test_geometric_size_draws_what_the_formula_draws(self) -> None:
        p = 1.0 / harness.SIZE_GEOMETRIC_MEAN
        for cap in (64, 128, 255):
            rng, ref = derive_rng(0, f"sizes/{cap}"), derive_rng(0, f"sizes/{cap}")
            drawn = [geometric_size(rng, cap) for _ in range(10_000)]
            assert drawn == [min(int(math.log1p(-ref.random()) / math.log(1.0 - p)), cap) for _ in range(10_000)]


class DrawLimitedStub:
    """Draws zeros, and fails instead of hanging if asked too often."""

    calls = 0

    def getrandbits(self, k: int) -> int:
        self.calls += 1
        if self.calls > 100:
            raise AssertionError("drew without end from an empty range")
        return 0


class TestRandbelow:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 100, 201, 2000, 2**33 + 1])
    def test_same_draws_and_state_as_randrange(self, n: int) -> None:
        mine, theirs = random.Random(f"below:{n}"), random.Random(f"below:{n}")
        for _ in range(500):
            assert randbelow(mine, n) == theirs.randrange(n)
            assert -n + randbelow(mine, 2 * n) == theirs.randrange(-n, n)
            assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("n", [0, -1])
    def test_an_empty_range_raises(self, n: int) -> None:
        with pytest.raises(ValueError):
            random.Random(0).randrange(n)
        with pytest.raises(ValueError):
            randbelow(DrawLimitedStub(), n)


class TestRandomItems:
    @pytest.mark.parametrize("bound", [1, 2, 3, 64, 100, 1000, 2**33 + 1])
    @pytest.mark.parametrize("n", [0, 1, 40, 512])
    def test_same_draws_and_state_as_randrange(self, bound: int, n: int) -> None:
        mine, theirs = random.Random(f"{bound}:{n}"), random.Random(f"{bound}:{n}")
        assert random_items(mine, bound, n) == tuple(theirs.randrange(bound) for _ in range(n))
        assert mine.getstate() == theirs.getstate()

    @pytest.mark.parametrize("bound", [0, -1])
    def test_an_empty_range_raises(self, bound: int) -> None:
        with pytest.raises(ValueError):
            random.Random(0).randrange(bound)
        with pytest.raises(ValueError):
            random_items(DrawLimitedStub(), bound, 3)


class TestRender:
    def test_short_values_verbatim(self) -> None:
        assert render((1, 2)) == "(1, 2)"

    def test_long_values_truncate(self) -> None:
        text = render(list(range(500)))
        assert len(text) == 203
        assert text.endswith("...")


class TestReportBuilder:
    def test_cases_and_failures(self) -> None:
        rb = ReportBuilder("s", 0, 10)
        assert rb.case(True, "law", lambda: (1, 2, 2))
        assert not rb.case(False, "law", lambda: (1, 2, 3))
        rb.fail("law2", "in", "want", "got")
        rep = rb.build()
        assert rep.cases == 3
        assert len(rep.failures) == 2
        assert not rep.passed
        assert rep.failures[1] == Failure("'in'", "'want'", "'got'", "law2")

    def test_passing_case_never_calls_detail(self) -> None:
        def detail():
            raise AssertionError("detail of a passing case was evaluated")

        rb = ReportBuilder("s", 0, 10)
        assert rb.case(True, "law", detail)
        assert rb.build().cases == 1

    def test_failing_case_calls_detail_once(self) -> None:
        calls = []

        def detail():
            calls.append(1)
            return (1, 2, 3)

        rb = ReportBuilder("s", 0, 10)
        assert not rb.case(False, "law", detail)
        assert calls == [1]
        assert rb.build().failures == (Failure("1", "2", "3", "law"),)

    def test_cost_rows_keep_the_maximum_per_size(self) -> None:
        rb = ReportBuilder("s", 0, 10)
        rb.cost_row(4, 2, 9)
        rb.cost_row(4, 7, 3)
        rb.cost_row(2, 1, 1)
        rb.cost_row(0, 0, 0)
        rb.cost_row(2, 0, 0)
        rep = rb.build()
        assert rep.cost_table == ((0, 0, 0), (2, 1, 1), (4, 7, 9))
        behavioral = ReportBuilder("s", 0, 10, EvaluationMode.BEHAVIORAL)
        behavioral.cost_row(4, 2, 9)
        behavioral.cost_row(0, 0, 0)
        assert behavioral.build().cost_table == ()

    def test_passing_equal_counts_and_renders_nothing(self, monkeypatch) -> None:
        def no_render(value):
            raise AssertionError("a passing equality law was rendered")

        monkeypatch.setattr(harness, "render", no_render)
        rb = ReportBuilder("s", 0, 10)
        assert rb.equal("law", "in", (1, 2), (1, 2))
        rep = rb.build()
        assert (rep.cases, rep.failures) == (1, ())

    def test_failing_equal_matches_the_case_record(self) -> None:
        via_equal = ReportBuilder("s", 0, 10)
        assert not via_equal.equal("law", (1, "x"), (1, 2), [3, 4])
        via_case = ReportBuilder("s", 0, 10)
        via_case.case(False, "law", lambda: ((1, "x"), (1, 2), [3, 4]))
        assert via_equal.build() == via_case.build()
        assert via_equal.build().failures == (Failure("(1, 'x')", "(1, 2)", "[3, 4]", "law"),)

    def test_equal_honours_eq(self) -> None:
        rb = ReportBuilder("s", 0, 10)
        same_parity = lambda actual, expected: actual % 2 == expected % 2
        assert rb.equal("law", 0, 1, 3, same_parity)
        assert not rb.equal("law", 0, 2, 2, lambda actual, expected: False)
        assert not rb.equal("law", 0, 1, 2, same_parity)
        assert rb.equal("law", 0, 1, 5, lambda actual, expected: actual > expected)
        rep = rb.build()
        assert rep.cases == 4
        assert [f.actual for f in rep.failures] == ["2", "2"]

    def test_rng_streams_extend_the_suite_name(self) -> None:
        rb = ReportBuilder("suite", 7, 10)
        assert rb.rng("/x").random() == derive_rng(7, "suite/x").random()
        assert rb.rng().random() == derive_rng(7, "suite").random()

    def test_to_dict_key_order_is_fixed(self) -> None:
        rep = ReportBuilder("s", 1, 2).build()
        assert list(rep.to_dict()) == [
            "suite",
            "seed",
            "iterations",
            "mode",
            "cases",
            "failures",
            "cost_table",
        ]
        # Serialized form is reproducible byte for byte.
        assert json.dumps(rep.to_dict()) == json.dumps(rep.to_dict())


class TestModeGates:
    def test_gate_table(self) -> None:
        def gates(mode):
            rb = ReportBuilder("s", 0, 1, mode)
            return rb.check_beh, rb.check_cost

        assert gates(EvaluationMode.FULL) == (True, True)
        assert gates(EvaluationMode.ABSTRACT) == (True, True)
        assert gates(EvaluationMode.BEHAVIORAL) == (True, False)
        assert gates(EvaluationMode.CONCRETE) == (False, False)


class TestDraws:
    @staticmethod
    def draw(rng: random.Random) -> tuple:
        return random_items(rng, 9, randbelow(rng, 4))

    def test_same_values_in_the_same_order_as_the_stream_by_hand(self) -> None:
        rb = ReportBuilder("suite", 7, 10)
        for stream in ("", "/x"):
            by_hand = rb.rng(stream)
            assert list(rb.draws(stream, self.draw, 25)) == [self.draw(by_hand) for _ in range(25)]

    def test_draws_each_value_only_when_it_is_read(self) -> None:
        drawn: list = []
        values = ReportBuilder("s", 0, 10).draws("", counting(self.draw, drawn), 5)
        assert drawn == []
        first = next(values)
        assert drawn == [first]
        assert [first, *values] == drawn and len(drawn) == 5

    @pytest.mark.parametrize("check, args", [
        (check_noninterference, ([("a", tuple), ("b", tuple)],)),
        (check_abstract_monoid, (TUPLE_OPS, IDENTITY)),
    ])
    def test_a_checker_gated_off_draws_nothing(self, check, args) -> None:
        drawn: list = []
        rep = sweep(check, *args, counting(triples(self.draw), drawn), 20, mode=EvaluationMode.CONCRETE)
        assert (rep.cases, drawn) == (0, [])
        assert sweep(check, *args, counting(triples(self.draw), drawn), 20).cases > 0
        assert len(drawn) == 20


class TestBound:
    @pytest.mark.parametrize("mode, judged", [
        (EvaluationMode.FULL, True),
        (EvaluationMode.ABSTRACT, True),
        (EvaluationMode.BEHAVIORAL, False),
        (EvaluationMode.CONCRETE, False),
    ])
    def test_judged_only_where_the_mode_judges_cost(self, mode: EvaluationMode, judged: bool) -> None:
        rb = ReportBuilder("s", 0, 10, mode)
        rb.bound("law", (1, 2), 3, 3, 2)
        rb.bound("law", (1, 2), 4, 3, 2)
        rep = rb.build()
        assert (rep.cases, len(rep.failures)) == ((2, 1) if judged else (0, 0))

    @pytest.mark.parametrize("mode, rows", [
        (EvaluationMode.FULL, ((2, 4, 3), (5, 1, 6))),
        (EvaluationMode.ABSTRACT, ((2, 4, 3), (5, 1, 6))),
        (EvaluationMode.CONCRETE, ((2, 4, 3), (5, 1, 6))),
        (EvaluationMode.BEHAVIORAL, ()),
    ])
    def test_records_its_row_wherever_cost_is_in_view(self, mode: EvaluationMode, rows: tuple) -> None:
        rb = ReportBuilder("s", 0, 10, mode)
        rb.bound("law", (1, 2), 3, 3, 2)
        rb.bound("law", (1, 2), 4, 3, 2)
        rb.bound("law", (1, 2, 3), 1, 6, 5)
        assert rb.build().cost_table == rows

    def test_failure_record_is_the_hand_written_one(self) -> None:
        items, cost, budget = (3, 1, 2), 9, 7
        via_bound = ReportBuilder("s", 0, 10)
        via_bound.bound("sorting/isort-bound", items, cost, budget, len(items))
        via_case = ReportBuilder("s", 0, 10)
        if via_case.check_cost:
            via_case.case(cost <= budget, "sorting/isort-bound", lambda: (items, f"<= {budget}", cost))
        via_case.cost_row(len(items), cost, budget)
        assert via_bound.build() == via_case.build()
        assert via_bound.build().failures == (Failure("(3, 1, 2)", "'<= 7'", "9", "sorting/isort-bound"),)

    def test_records_through_case(self, monkeypatch) -> None:
        laws = []
        case = ReportBuilder.case
        monkeypatch.setattr(ReportBuilder, "case",
                            lambda self, ok, law, detail: laws.append(law) or case(self, ok, law, detail))
        ReportBuilder("s", 0, 10).bound("law", 0, 1, 2, 0)
        assert laws == ["law"]


def _const_inputs(value):
    return lambda rng: value


class TestCheckSquare:
    def _square(self, top_charge: int, abs_charge: int, **potential) -> SquareSpec:
        return SquareSpec(
            law="square/double",
            f_top=lambda x: charge(top_charge, ret(x * 2)),
            f_abs=lambda x: charge(abs_charge, ret(x * 2)),
            alpha_in=IDENTITY,
            alpha_out=IDENTITY,
            **potential,
        )

    def test_commuting_square_passes(self) -> None:
        rep = sweep(check_square, self._square(1, 1), _const_inputs(3), 5)
        assert rep.passed
        assert rep.cases == 5

    def test_strict_square_sees_cost_mismatch(self) -> None:
        for top_charge in (0, 2):
            rep = sweep(check_square, self._square(top_charge, 1), _const_inputs(3), 4)
            assert not rep.passed
            assert {f.law for f in rep.failures} == {"square/double"}

    @staticmethod
    def _rise(x: int, out: int) -> int:
        """Φ(v) = v: the step from 3 to 6 raises the potential by 3."""
        return out - x

    def test_potential_amortizes_the_concrete_cost(self) -> None:
        rep = sweep(check_square, self._square(2, 5, potential=self._rise), _const_inputs(3), 4)
        assert rep.passed  # 2 + 3 == 5

    def test_potential_square_fails_one_unit_under_and_over(self) -> None:
        for top_charge in (1, 3):
            square = self._square(top_charge, 5, potential=self._rise)
            rep = sweep(check_square, square, _const_inputs(3), 4)
            assert rep.cases == len(rep.failures) == 4
            assert rep.failures[0] == Failure("3", "(5, 6)", f"({top_charge + 3}, 6)", "square/double")

    def test_amortized_cost_below_zero_fails_without_raising(self) -> None:
        square = self._square(0, 0, potential=lambda x, out: -out)
        rep = sweep(check_square, square, _const_inputs(3), 2)
        assert rep.failures[0] == Failure("3", "(0, 6)", "(-6, 6)", "square/double")

    def test_behavior_mismatch_is_caught(self) -> None:
        square = SquareSpec(
            law="square/broken",
            f_top=lambda x: ret(x + 1),
            f_abs=lambda x: ret(x - 1),
            alpha_in=IDENTITY,
            alpha_out=IDENTITY,
        )
        rep = sweep(check_square, square, _const_inputs(10), 3)
        assert not rep.passed
        assert (rep.failures[0].expected, rep.failures[0].actual) == ("(0, 9)", "(0, 11)")
        # Where cost is out of view, the record shows the images alone.
        behavioral = sweep(check_square, square, _const_inputs(10), 3, mode=EvaluationMode.BEHAVIORAL)
        assert behavioral.failures[0] == Failure("10", "9", "11", "square/broken")

    def test_behavioral_mode_ignores_cost(self) -> None:
        rep = sweep(check_square, self._square(0, 1), _const_inputs(3), 4, mode=EvaluationMode.BEHAVIORAL)
        assert rep.passed

    def test_concrete_mode_checks_nothing(self) -> None:
        square = SquareSpec(
            law="square/broken",
            f_top=lambda x: ret(x + 1),
            f_abs=lambda x: ret(x - 1),
            alpha_in=IDENTITY,
            alpha_out=IDENTITY,
        )

        def unread():
            raise AssertionError("a square gated off read a value")
            yield

        rb = ReportBuilder("s", 0, 1, EvaluationMode.CONCRETE)
        check_square(rb, square, unread())
        assert rb.build() == ReportBuilder("s", 0, 1, EvaluationMode.CONCRETE).build()

    def test_commute_returns_both_paths_and_records_one_case(self) -> None:
        rb = ReportBuilder("s", 0, 1)
        # The abstract input comes from the caller, so the abstract path runs on 4.
        square = self._square(2, 1, potential=lambda x, out: 1)
        assert commute(rb, square, 3, 4) == (Charged(Cost(2), 6), Charged(Cost(1), 8), False)
        rep = rb.build()
        assert rep.cases == 1
        assert rep.failures == (Failure("3", "(1, 8)", "(3, 6)", "square/double"),)


class TestCheckNoninterference:
    @staticmethod
    def _items(rng: random.Random) -> list[int]:
        return rng.sample(range(10), k=3)

    @staticmethod
    def _reversals(*impls) -> list:
        return [(name, functools.partial(qreverse, q)) for name, q in impls]

    def test_lawful_queues_agree(self) -> None:
        rep = sweep(
            check_noninterference,
            self._reversals(("list", LIST_QUEUE), ("batched", BATCHED_QUEUE)),
            self._items,
            20,
        )
        assert rep.passed
        assert rep.cases == 20

    def test_stack_is_distinguishable(self) -> None:
        from costglue.suites import STACK_IMPL

        rep = sweep(
            check_noninterference,
            self._reversals(("list", LIST_QUEUE), ("stack", STACK_IMPL)),
            self._items,
            10,
        )
        assert not rep.passed
        assert any("list~stack" in f.law for f in rep.failures)

    def test_three_impls_compare_pairwise(self) -> None:
        rep = sweep(
            check_noninterference,
            [(name, lambda e, q=q: qreverse(q, [e])) for name, q in
             (("a", LIST_QUEUE), ("b", BATCHED_QUEUE), ("c", LIST_QUEUE))],
            lambda rng: rng.randrange(9),
            4,
        )
        assert rep.cases == 12  # 3 pairs per sample

    def test_needs_two_impls(self) -> None:
        with pytest.raises(ValueError):
            sweep(check_noninterference, self._reversals(("only", LIST_QUEUE)), self._items, 1)

    def test_a_wrong_program_fails_against_the_oracle(self) -> None:
        from costglue.suites import STACK_IMPL

        programs = self._reversals(("stack", STACK_IMPL)) + [("oracle", lambda xs: tuple(xs)[::-1])]
        rep = sweep(check_noninterference, programs, self._items, 10)
        assert rep.failures and {f.law for f in rep.failures} == {"noninterference/stack~oracle"}
        assert rep.cases == 10


class TestCheckAbstractMonoid:
    def test_tuple_monoid_passes(self) -> None:
        rep = sweep(
            check_abstract_monoid,
            TUPLE_OPS,
            IDENTITY,
            triples(lambda rng: tuple(rng.randrange(5) for _ in range(rng.randrange(4)))),
            30,
            seed=1,
        )
        assert rep.passed
        assert rep.cases == 90  # assoc + both units per sample

    def test_left_biased_append_fails_left_unit(self) -> None:
        first = MonoidOps(empty=(), append=lambda a, b: ret(a), singleton=lambda e: (e,))
        rep = sweep(
            check_abstract_monoid,
            first,
            IDENTITY,
            triples(lambda rng: (rng.randrange(5),)),
            10,
            seed=1,
        )
        assert not rep.passed
        assert any(f.law == "monoid/left-unit" for f in rep.failures)

    def test_kernel_reads_images_only_on_failure(self) -> None:
        images = []

        def counted(x):
            images.append(x)
            return x

        alpha = AbstractionFn(apply=counted, kernel=lambda x, y: x == y)
        draw = triples(lambda rng: tuple(rng.randrange(5) for _ in range(rng.randrange(4))))
        rep = sweep(check_abstract_monoid, TUPLE_OPS, alpha, draw, 30, seed=1)
        assert rep.passed and rep.cases == 90 and images == []
        first = MonoidOps(empty=(), append=lambda a, b: ret(a), singleton=lambda e: (e,))
        with_kernel = sweep(check_abstract_monoid, first, alpha, draw, 10, seed=1)
        assert not with_kernel.passed and images
        # Failure records read exactly as when the images are compared.
        assert with_kernel == sweep(check_abstract_monoid, first, IDENTITY, draw, 10, seed=1)


class TestCheckAbstractHom:
    @staticmethod
    def _triples(rng: random.Random):
        draw = lambda: tuple(rng.randrange(9) for _ in range(rng.randrange(4)))
        return draw(), draw(), rng.randrange(9)

    def test_sum_is_a_hom_from_tuples(self) -> None:
        rep = sweep(
            check_abstract_hom,
            lambda t: ret(sum(t)),
            TUPLE_OPS,
            SUM_OPS,
            (IDENTITY, IDENTITY),
            self._triples,
            25,
            seed=2,
        )
        assert rep.passed

    def test_shifted_sum_is_not(self) -> None:
        rep = sweep(
            check_abstract_hom,
            lambda t: ret(sum(t) + 1),
            TUPLE_OPS,
            SUM_OPS,
            (IDENTITY, IDENTITY),
            self._triples,
            10,
            seed=2,
        )
        assert not rep.passed
        assert any(f.law == "hom/empty" for f in rep.failures)
        assert any(f.law == "hom/append" for f in rep.failures)


class TestUniversalProperty:
    @staticmethod
    def judge(fold, values, mode: EvaluationMode = FULL, **kwargs):
        """Run the checker on ``values`` into a fresh builder and return the report."""
        rb = ReportBuilder("s", 3, 0, mode)
        check_universal_property(rb, fold, IDENTITY, "sum", SUM_OPS, values, **kwargs)
        return rb.build()

    @staticmethod
    def tuples(n: int, min_len: int = 0) -> list:
        rng = derive_rng(3, "s")
        return [tuple(rng.randrange(9) for _ in range(min_len + rng.randrange(6 - min_len))) for _ in range(n)]

    def test_fold_elements(self) -> None:
        assert fold_elements(SUM_OPS, (1, 2, 3)) == 6
        assert fold_elements(TUPLE_OPS, "ab") == ("a", "b")

    def test_structural_fold_agrees(self) -> None:
        assert self.judge(fold_and_charge, self.tuples(20)).passed

    def test_uniqueness_flags_an_imposter(self) -> None:
        rep = self.judge(fold_and_charge, self.tuples(10, min_len=1),
                         extra_homs=[("imposter", lambda t: ret(sum(t) + 1))])
        assert not rep.passed
        assert any("unique/imposter" in f.law for f in rep.failures)

    def test_reported_cost_is_metered(self) -> None:
        values = self.tuples(20)
        lawful = self.judge(fold_and_charge, values)
        assert lawful.passed and lawful.cases == 40  # agrees-with-fold and cost-metered
        overcharging = lambda t, ops: charge(int(len(t) > 2), fold_and_charge(t, ops))  # noqa: E731
        rep = self.judge(overcharging, values)
        assert {f.law for f in rep.failures} == {"universal/sum/cost-metered"}
        failure = rep.failures[0]
        assert int(failure.actual) == int(failure.expected) + 1
        # Behavioral mode erases cost, so it neither meters nor counts;
        # concrete mode judges no abstract agreement, so it folds nothing.
        for mode, cases in ((EvaluationMode.BEHAVIORAL, 20), (EvaluationMode.CONCRETE, 0)):
            quiet = self.judge(overcharging, values, mode=mode)
            assert quiet.passed and quiet.cases == cases

    def test_folds_each_value_once_in_order(self) -> None:
        """Values are judged as given, duplicates included: one fold per position."""
        values = self.tuples(6) + [(1, 2)] * 2
        folded = []

        def recording(t, ops):
            folded.append(t)
            return fold_and_charge(t, ops)

        rep = self.judge(recording, values)
        assert rep.passed and rep.cases == 2 * len(values)
        assert folded == values


def fold_and_charge(t, ops: MonoidOps) -> Charged:
    acc = ops.empty
    cost = Cost(0)
    for e in t:
        step = ops.append(acc, ops.singleton(e))
        acc = step.value
        cost = cost + step.cost
    return Charged(cost, acc)
