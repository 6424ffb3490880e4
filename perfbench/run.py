"""costglue benchmark: time to verify a workload's suites, checked and traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One run:

1. times ``SETUP_STARTS`` fresh interpreters from their spawn to
   ``costglue.cli`` imported with the registry ready (``setup_s``, the
   median), then starts one more that repeats whole rounds of the workload's suites for about S seconds
   (``verify_s``, ``cases_per_s``, ``peak_rss_mb``);
2. runs the workload's small determinism configuration in two more
   fresh interpreters, each once plainly and once under ``cProfile``;
3. with ``--trace 1``, runs one more round under ``cProfile`` and reports
   per-layer counts and self times instead of the end-to-end metrics;
4. checks the reports against computations made apart from the program,
   and feeds each check a broken input that it must reject.

It prints the SHA-1 of every report and the outcome of every check, and
last one JSON line: ``correct``, ``attempted`` and ``failed`` count suite
runs, and ``metrics`` holds the metrics of the chosen trace level.  It
exits non-zero, printing no result, when a pass cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
SRC = os.path.join(os.path.dirname(HERE), "src")
# A run must end within 180 seconds, whatever its passes do.
DEADLINE_S = 170
# Each is a cold start in its own interpreter: a second import in the same
# process would be warm.  One start spread by 20% and more from run to run.
SETUP_STARTS = 5


class PassFailed(Exception):
    pass


def worker(deadline: float, *args: str) -> dict:
    """Run one worker pass and return the JSON object it prints."""
    proc = subprocess.run(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE,
        timeout=max(deadline - time.monotonic(), 1.0),
        check=False,
    )
    if proc.returncode != 0:
        raise PassFailed(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def cold_start(deadline: float) -> float:
    """Seconds from spawning an interpreter to ``costglue.cli`` imported."""
    spawned = time.perf_counter()
    return worker(deadline, "setup")["ready"] - spawned


def end_to_end(timed: dict, setup_s: float) -> dict:
    # Each suite's time is the median of its contention-corrected runs.
    verify_s = sum(statistics.median(s["verify_s"]) for s in timed["suites"])
    cases = sum(s["cases"] for s in timed["suites"])
    return {
        "verify_s": (verify_s, "s"),
        "cases_per_s": (cases / verify_s, "cases/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
    }


def per_layer(timed: dict, profiled: dict, verify_s: float) -> dict:
    metrics = {k: (v["value"], v["unit"]) for k, v in profiled["metrics"].items()}
    metrics["cli.emit_s"] = (sum(statistics.median(s["emit_s"]) for s in timed["suites"]), "s")
    metrics["cli.report_bytes"] = (sum(len(s["text"].encode("utf-8")) for s in timed["suites"] if s["text"]), "bytes")
    metrics["trace.overhead_s"] = (profiled["wall_s"] - verify_s, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="costglue benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 bits")
    workload = WORKLOADS[args.workload]
    seed = str(args.seed)

    deadline = time.monotonic() + DEADLINE_S
    try:
        setup_s = statistics.median(cold_start(deadline) for _ in range(SETUP_STARTS))
        timed = worker(deadline, "timed", workload.name, seed, str(args.seconds))
        dets = [worker(deadline, "det", workload.name, seed) for _ in range(2)]
        profiled = worker(deadline, "profiled", workload.name, seed) if args.trace else None
    except (PassFailed, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    sys.path.insert(0, SRC)
    import checks

    texts = {s["suite"]: s["text"] for s in timed["suites"]}
    attempted = sum(s["runs"] for s in timed["suites"]) + sum(d["runs"] for d in dets)
    failed = sum(s["failed"] for s in timed["suites"]) + sum(d["failed"] for d in dets)
    all_checks = checks.workload_checks(workload.name, args.seed, texts) + [
        checks.identity_check(f"{s['suite']} reports identical across rounds", s["digests"])
        for s in timed["suites"]
    ] + [
        checks.identity_check("reports identical across processes", [d["plain"] for d in dets]),
        checks.identity_check("reports identical under cProfile", [d[k] for d in dets for k in ("plain", "profiled")]),
    ]
    if profiled:
        attempted += len(profiled["reports"])
        failed += sum(0 if r["passed"] else 1 for r in profiled["reports"])
        digests = {s["suite"]: s["digests"][0] for s in timed["suites"]}
        all_checks.append(checks.identity_check(
            "profiled pass reports identical to the timed pass",
            [json.dumps(sorted(digests.items())),
             json.dumps(sorted((r["suite"], r["digest"]) for r in profiled["reports"]))],
        ))

    correct = True
    for name, problems, rejects_broken in checks.evaluate(all_checks):
        print(f"check {name}: {'ok' if not problems else 'FAILED'}; rejects a broken input: {'yes' if rejects_broken else 'NO'}")
        for problem in problems[:5]:
            print(f"    {problem}")
        correct = correct and not problems and rejects_broken

    for s in timed["suites"]:
        print(f"sha1 {s['digests'][0]} {s['suite']} seed={args.seed} iterations={s['iterations']} mode=full")
        print(f"time {s['suite']}: runs={len(s['verify_s'])} corrected median {statistics.median(s['verify_s']):.4f} s, "
              f"wall median {statistics.median(s['wall_s']):.4f} s")
    print(f"probe: {timed['probes']} probes, fastest {timed['probe_min_s'] * 1e6:.1f} us, "
          f"median {timed['probe_median_s'] * 1e6:.1f} us")

    metrics = end_to_end(timed, setup_s)
    if profiled:
        metrics = per_layer(timed, profiled, metrics["verify_s"][0])
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
