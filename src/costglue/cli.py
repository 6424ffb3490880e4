"""Command line runner for the verification suites.

``costglue run --suite <name>`` executes one registered suite under a
fixed configuration and emits its report as JSON (default) or markdown;
``costglue list`` enumerates the registry.  Reports are pure functions
of (suite, seed, iterations, mode): two runs with the same configuration
produce byte-identical output.  Exit status is 0 when every case
passed, 1 on a failed case or an ``InvariantBreach``, and 2 for usage
errors, an unwritable report path too.  Any other exception is a bug in
the checker: its first stderr line is ``costglue: internal error:
<ExceptionType>: <message>``, then it propagates with its traceback, so
the exit status is 1 as well and that line tells the crash from a
verdict.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .harness import Report
from .phase import EvaluationMode, InvariantBreach
from .suites import REGISTRY

MAX_SEED = 2**64 - 1
MAX_ITERS = 10**7  # the largest --iters: 1000 times the heaviest acceptance load


@dataclass(frozen=True)
class SuiteConfig:
    """Everything a suite run depends on."""

    suite: str
    seed: int
    iterations: int
    mode: EvaluationMode


def run_suite(config: SuiteConfig) -> Report:
    """Execute the configured suite; deterministic in the configuration."""
    return REGISTRY[config.suite](config.seed, config.iterations, config.mode)


def emit_json(report: Report) -> str:
    return json.dumps(report.to_dict(), indent=2) + "\n"


def emit_markdown(report: Report) -> str:
    d = report.to_dict()
    lines = [
        f"# Suite `{d['suite']}`",
        "",
        f"- seed: {d['seed']}",
        f"- iterations: {d['iterations']}",
        f"- mode: {d['mode']}",
        f"- cases: {d['cases']}",
        f"- failures: {len(d['failures'])}",
        f"- verdict: {'PASS' if report.passed else 'FAIL'}",
        "",
    ]
    if d["failures"]:
        lines.append("## Failures")
        lines.append("")
        lines.append("| law | input | expected | actual |")
        lines.append("|---|---|---|---|")
        for f in d["failures"]:
            row = (f["law"], f["input"], f["expected"], f["actual"])
            lines.append("| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |")
        lines.append("")
    if d["cost_table"]:
        lines.append("## Cost table")
        lines.append("")
        lines.append("| size | impl_cost | spec_cost |")
        lines.append("|---|---|---|")
        for row in d["cost_table"]:
            lines.append(f"| {row['size']} | {row['impl_cost']} | {row['spec_cost']} |")
        lines.append("")
    return "\n".join(lines)


# The report formats, by the name ``--format`` takes.
EMITTERS = {"json": emit_json, "md": emit_markdown}


class ReportFile:
    """A report that replaces ``path`` only once it is written whole.

    ``path`` is resolved through symbolic links, so a link keeps naming
    the report.  The text goes to a temporary file beside the resolved
    path, made when the ``ReportFile`` is, and ``commit`` renames it
    over that path; until then it keeps what it held.  An existing path
    is opened for appending, which changes nothing, so a directory or a
    read-only file fails here too; a device or a pipe is refused
    unopened.  ``discard`` removes an uncommitted temporary.
    """

    def __init__(self, path: str) -> None:
        path = os.path.realpath(path)
        if os.path.exists(path):
            if not os.path.isfile(path) and not os.path.isdir(path):
                raise OSError(errno.EINVAL, "not a regular file")
            open(path, "a").close()
        self.path = path
        self.tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.{os.getpid()}.tmp")
        self.fh = open(self.tmp, "w", encoding="utf-8")

    def commit(self, text: str) -> None:
        with self.fh:
            self.fh.write(text)
        os.replace(self.tmp, self.path)

    def discard(self) -> None:
        self.fh.close()
        if os.path.exists(self.tmp):
            os.remove(self.tmp)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="costglue",
        description="Run cost-and-behavior verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one suite and emit its report")
    run_p.add_argument("--suite", required=True, help="suite name (see `costglue list`)")
    run_p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    run_p.add_argument("--iters", type=int, default=1000, help=f"sample count, at most {MAX_ITERS} (default 1000)")
    run_p.add_argument(
        "--mode",
        choices=[m.value for m in EvaluationMode],
        default=EvaluationMode.FULL.value,
        help="observation mode (default full)",
    )
    run_p.add_argument("--report", default=None, help="write the report to this path instead of stdout")
    run_p.add_argument("--format", choices=list(EMITTERS), default="json", help="report format (default json)")

    sub.add_parser("list", help="list registered suites")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for name in sorted(REGISTRY):
            print(name)
        return 0

    if args.suite not in REGISTRY:
        print(
            f"costglue: error: unknown suite {args.suite!r}; available: {', '.join(sorted(REGISTRY))}",
            file=sys.stderr,
        )
        return 2
    if not (0 <= args.seed <= MAX_SEED):
        print(f"costglue: error: seed must fit in 64 bits, got {args.seed}", file=sys.stderr)
        return 2
    if not (0 <= args.iters <= MAX_ITERS):
        print(f"costglue: error: --iters must be in 0..{MAX_ITERS}, got {args.iters}", file=sys.stderr)
        return 2

    config = SuiteConfig(
        suite=args.suite,
        seed=args.seed,
        iterations=args.iters,
        mode=EvaluationMode(args.mode),
    )
    # Make the report file first, so an unwritable path fails before the run.
    try:
        out = ReportFile(args.report) if args.report else None
    except OSError as err:
        print(
            f"costglue: error: cannot write report to {args.report!r}: {err.strerror}",
            file=sys.stderr,
        )
        return 2
    try:
        try:
            report = run_suite(config)
        except InvariantBreach as err:
            print(f"costglue: internal invariant breach: {err}", file=sys.stderr)
            return 1
        text = EMITTERS[args.format](report)
        if out is None:
            sys.stdout.write(text)
        else:
            out.commit(text)
    except Exception as err:  # a bug in the checker: name it, then let it propagate
        print(f"costglue: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        raise
    finally:
        if out is not None:
            out.discard()
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
