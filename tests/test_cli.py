"""The costglue command line interface."""

from __future__ import annotations

import json
import os

import pytest

from costglue import cli, suites
from costglue.cli import emit_markdown, main
from costglue.cost import Charged, Cost
from costglue.harness import Failure, Report
from costglue.phase import CoherenceError
from costglue.rbtree import TreeInvariantError
from costglue.sealing import BoundViolation
from costglue.sorting import msort_bound
from costglue.suites import REGISTRY


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestList:
    def test_lists_all_suites_sorted(self, capsys) -> None:
        code, out, err = run_cli(capsys, "list")
        assert code == 0
        assert err == ""
        names = out.splitlines()
        assert names == sorted(REGISTRY)
        assert "queues/coherence" in names
        assert len(names) == 9


class TestRun:
    def test_json_report_on_stdout(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "run", "--suite", "cost/laws", "--seed", "3", "--iters", "25"
        )
        assert code == 0
        d = json.loads(out)
        assert list(d) == ["suite", "seed", "iterations", "mode", "cases", "failures", "cost_table"]
        assert d["suite"] == "cost/laws"
        assert d["seed"] == 3
        assert d["iterations"] == 25
        assert d["mode"] == "full"
        assert d["failures"] == []
        assert d["cases"] > 0

    def test_runs_are_byte_identical(self, capsys) -> None:
        args = ("run", "--suite", "sealing/laws", "--seed", "11", "--iters", "40")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_seed_changes_the_report(self, capsys) -> None:
        _, a, _ = run_cli(capsys, "run", "--suite", "sorting/bounds", "--iters", "30", "--seed", "1")
        _, b, _ = run_cli(capsys, "run", "--suite", "sorting/bounds", "--iters", "30", "--seed", "2")
        assert a != b

    def test_markdown_format(self, capsys) -> None:
        code, out, _ = run_cli(
            capsys, "run", "--suite", "rbtree/reduce", "--iters", "5", "--format", "md"
        )
        assert code == 0
        assert out.startswith("# Suite `rbtree/reduce`")
        assert "- verdict: PASS" in out
        assert "| size | impl_cost | spec_cost |" in out

    def test_report_file(self, tmp_path, capsys) -> None:
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "run", "--suite", "phase/roundtrip", "--iters", "10", "--report", str(path)
        )
        assert code == 0
        assert out == ""
        d = json.loads(path.read_text())
        assert d["suite"] == "phase/roundtrip"

    def test_all_modes_accepted(self, capsys) -> None:
        for mode in ("full", "abstract", "concrete", "behavioral"):
            code, out, _ = run_cli(
                capsys, "run", "--suite", "rbtree/reduce", "--iters", "5", "--mode", mode
            )
            assert code == 0
            assert json.loads(out)["mode"] == mode

    def test_cost_table_entries_are_integers(self, capsys) -> None:
        _, out, _ = run_cli(capsys, "run", "--suite", "rbtree/invariants", "--iters", "20")
        for row in json.loads(out)["cost_table"]:
            assert isinstance(row["size"], int)
            assert isinstance(row["impl_cost"], int)
            assert isinstance(row["spec_cost"], int)
            assert row["impl_cost"] <= row["spec_cost"]


class TestUsageErrors:
    def test_unknown_suite(self, capsys) -> None:
        code, out, err = run_cli(capsys, "run", "--suite", "nope")
        assert code == 2
        assert out == ""
        assert "unknown suite" in err
        assert "cost/laws" in err  # lists what is available

    def test_negative_iters(self, capsys) -> None:
        code, _, err = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", "-1")
        assert code == 2
        assert "--iters" in err

    def test_iters_over_the_bound_exits_2_before_the_run(self, capsys, monkeypatch) -> None:
        def must_not_run(config):
            raise AssertionError("the suite ran with --iters over its bound")

        monkeypatch.setattr(cli, "run_suite", must_not_run)
        over = cli.MAX_ITERS + 1
        code, out, err = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", str(over))
        assert code == 2
        assert out == ""
        assert err == f"costglue: error: --iters must be in 0..{cli.MAX_ITERS}, got {over}\n"

    def test_iters_at_the_bound_reaches_the_run(self, capsys, monkeypatch) -> None:
        seen = []

        def record_only(config):
            seen.append(config.iterations)
            return Report("cost/laws", 0, config.iterations, "full", 0, (), ())

        monkeypatch.setattr(cli, "run_suite", record_only)
        code, _, _ = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", str(cli.MAX_ITERS))
        assert code == 0
        assert seen == [cli.MAX_ITERS]

    def test_seed_out_of_range(self, capsys) -> None:
        code, _, err = run_cli(capsys, "run", "--suite", "cost/laws", "--seed", str(2**64))
        assert code == 2
        assert "seed" in err

    def test_unknown_command_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["bogus"])
        assert info.value.code == 2

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "missing" / "x.json")
        code, out, err = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", "2", "--report", path)
        assert code == 2
        assert out == ""
        assert err == f"costglue: error: cannot write report to {path!r}: No such file or directory\n"

    def test_unwritable_report_path_fails_before_the_run(self, tmp_path, capsys, monkeypatch) -> None:
        def must_not_run(seed, iters, mode):
            raise AssertionError("the suite ran before the report path was checked")

        monkeypatch.setitem(REGISTRY, "never-run", must_not_run)
        path = str(tmp_path / "missing" / "x.json")
        code, out, err = run_cli(capsys, "run", "--suite", "never-run", "--report", path)
        assert code == 2
        assert out == ""
        assert err == f"costglue: error: cannot write report to {path!r}: No such file or directory\n"

    def test_directory_report_path_fails_before_the_run(self, tmp_path, capsys, monkeypatch) -> None:
        def must_not_run(seed, iters, mode):
            raise AssertionError("the suite ran before the report path was checked")

        monkeypatch.setitem(REGISTRY, "never-run", must_not_run)
        code, out, err = run_cli(capsys, "run", "--suite", "never-run", "--report", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err == f"costglue: error: cannot write report to {str(tmp_path)!r}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_report_replaces_an_existing_file(self, tmp_path, capsys) -> None:
        path = tmp_path / "r.json"
        path.write_text("old report\n", encoding="utf-8")
        code, out, _ = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", "2", "--report", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text(encoding="utf-8"))["suite"] == "cost/laws"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_report_through_a_symlink_reaches_its_target(self, tmp_path, capsys) -> None:
        target = tmp_path / "target.json"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, out, _ = run_cli(capsys, "run", "--suite", "cost/laws", "--iters", "2", "--report", str(link))
        assert code == 0
        assert out == ""
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text(encoding="utf-8"))["suite"] == "cost/laws"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_device_report_path_fails_before_the_run(self, capsys, monkeypatch) -> None:
        def must_not_run(seed, iters, mode):
            raise AssertionError("the suite ran before the report path was checked")

        def must_not_rename(src, dst):
            raise AssertionError(f"renamed {src!r} over {dst!r}")

        monkeypatch.setitem(REGISTRY, "never-run", must_not_run)
        monkeypatch.setattr(cli.os, "replace", must_not_rename)
        code, out, err = run_cli(capsys, "run", "--suite", "never-run", "--report", os.devnull)
        assert code == 2
        assert out == ""
        assert err == f"costglue: error: cannot write report to {os.devnull!r}: not a regular file\n"

    def test_breach_leaves_an_existing_report_as_it_was(self, tmp_path, capsys, monkeypatch) -> None:
        def blows_up(seed, iters, mode):
            raise TreeInvariantError("cached size went stale")

        monkeypatch.setitem(REGISTRY, "exploding", blows_up)
        path = tmp_path / "r.json"
        path.write_text("old report\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "run", "--suite", "exploding", "--report", str(path))
        assert code == 1
        assert "invariant breach" in err
        assert path.read_text(encoding="utf-8") == "old report\n"
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_bad_format_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["run", "--suite", "cost/laws", "--format", "xml"])
        assert info.value.code == 2


class TestFailurePath:
    def test_failing_report_exits_1(self, capsys, monkeypatch) -> None:
        rigged = Report(
            suite="rigged",
            seed=0,
            iterations=1,
            mode="full",
            cases=1,
            failures=(Failure("in", "want", "got", "law"),),
            cost_table=(),
        )
        monkeypatch.setitem(REGISTRY, "rigged", lambda seed, iters, mode: rigged)
        code, out, _ = run_cli(capsys, "run", "--suite", "rigged")
        assert code == 1
        assert json.loads(out)["failures"][0]["law"] == "law"

    def test_over_budget_sealed_sort_is_a_recorded_failure(self, capsys, monkeypatch) -> None:
        honest = suites.msort

        def overcharging_msort(items):
            out = honest(items)
            return Charged(out.cost + Cost(msort_bound(len(items)) + 1), out.value)

        monkeypatch.setattr(suites, "msort", overcharging_msort)
        code, out, err = run_cli(
            capsys, "run", "--suite", "sorting/bounds", "--iters", "40", "--mode", "full"
        )
        assert code == 1
        assert "breach" not in err
        laws = [f["law"] for f in json.loads(out)["failures"]]
        assert laws.count("sorting/sealed-tree") == 1

    def test_internal_breach_exits_1(self, capsys, monkeypatch) -> None:
        def blows_up(seed, iters, mode):
            raise TreeInvariantError("cached size went stale")

        monkeypatch.setitem(REGISTRY, "exploding", blows_up)
        code, out, err = run_cli(capsys, "run", "--suite", "exploding")
        assert code == 1
        assert out == ""
        assert "invariant breach" in err

    @pytest.mark.parametrize("breach", [
        CoherenceError((1, 2), (2, 1)),
        BoundViolation(Cost(3), Cost(2), False),
    ], ids=lambda e: type(e).__name__)
    def test_the_other_invariant_breaches_are_verdicts(self, capsys, monkeypatch, breach) -> None:
        def blows_up(seed, iters, mode):
            raise breach

        monkeypatch.setitem(REGISTRY, "exploding", blows_up)
        code, out, err = run_cli(capsys, "run", "--suite", "exploding")
        assert (code, out, err) == (1, "", f"costglue: internal invariant breach: {breach}\n")

    @pytest.mark.parametrize("bug", [KeyError("suite"), ValueError("a plain bug")], ids=lambda e: type(e).__name__)
    def test_other_errors_are_not_verdicts(self, capsys, monkeypatch, bug) -> None:
        def crashes(seed, iters, mode):
            raise bug

        monkeypatch.setitem(REGISTRY, "crashing", crashes)
        with pytest.raises(type(bug)) as info:
            main(["run", "--suite", "crashing"])
        assert info.value is bug
        captured = capsys.readouterr()
        assert captured.err.splitlines()[0] == f"costglue: internal error: {type(bug).__name__}: {bug}"
        assert "internal invariant breach" not in captured.err
        assert captured.out == ""


class TestEmitters:
    def test_format_outside_the_emitter_table_exits_2(self, capsys) -> None:
        with pytest.raises(SystemExit) as info:
            main(["run", "--suite", "cost/laws", "--iters", "2", "--format", "yaml"])
        assert info.value.code == 2
        assert "invalid choice: 'yaml' (choose from 'json', 'md')" in capsys.readouterr().err

    def test_markdown_escapes_pipes_in_failures(self) -> None:
        rep = Report(
            suite="s",
            seed=0,
            iterations=1,
            mode="full",
            cases=1,
            failures=(Failure("a|b", "c", "d", "law"),),
            cost_table=(),
        )
        text = emit_markdown(rep)
        assert "a\\|b" in text
