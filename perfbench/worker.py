"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py timed    WORKLOAD SEED SECONDS
    python3 perfbench/worker.py profiled WORKLOAD SEED
    python3 perfbench/worker.py det      WORKLOAD SEED

``setup`` only reports when ``costglue.cli`` finished importing, as a
``time.perf_counter()`` reading (``CLOCK_MONOTONIC``, shared by all
processes, so the caller can subtract the moment it spawned the
interpreter).  ``timed`` repeats whole rounds of the workload's suites
for about SECONDS seconds under the contention probe, ``profiled`` runs
one round under ``cProfile`` and reports per-layer counts and self
times, and ``det`` runs the workload's small determinism configuration
twice, the second time under ``cProfile``.  Suites run in-process the way
``costglue run`` runs them: ``cli.run_suite`` then ``cli.emit_json``.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from costglue import cli  # noqa: E402  (the import is the set-up being timed)

READY = time.perf_counter()

import cProfile  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from costglue import cost, harness, phase, queues, rbtree, sealing, sorting, suites  # noqa: E402
from costglue.phase import CoherenceError, EvaluationMode  # noqa: E402
from costglue.sealing import BoundViolation  # noqa: E402

from clock import NOMINAL_S, ProbeClock, reference  # noqa: E402

from layers import LAYERS, ProfileStats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The errors ``costglue run`` reports as an internal invariant breach.
BREACHES = (CoherenceError, BoundViolation, ValueError, OverflowError)


def run_one(suite, iterations, seed):
    """Run and emit one suite: (cases, passed, text, time the emit began).

    An invariant breach is a failed run with no text.
    """
    config = cli.SuiteConfig(suite=suite, seed=seed, iterations=iterations, mode=EvaluationMode.FULL)
    try:
        report = cli.run_suite(config)
    except BREACHES as err:
        print(f"{suite}: internal invariant breach: {err}", file=sys.stderr)
        return 0, False, None, None
    emitted = time.perf_counter()
    return report.cases, report.passed, cli.emit_json(report), emitted


def sha1(text):
    return hashlib.sha1(text.encode("utf-8")).hexdigest() if text is not None else None


def timed(workload, seed, seconds):
    runs = {suite: [] for suite, _ in workload.suites}
    peak_rss_mb = None
    clock = ProbeClock()
    with clock:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            for suite, iterations in workload.suites:
                t0 = time.perf_counter()
                cases, passed, text, t1 = run_one(suite, iterations, seed)
                runs[suite].append((t0, t1, time.perf_counter(), cases, passed, text))
            if peak_rss_mb is None:
                # Later rounds raise the peak a little, and how many run
                # depends on the machine's speed; the first round's does not.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = time.perf_counter()
            # Start another round only if it fits in the time left.
            if now - start + (now - round_start) > seconds:
                break
    out = []
    for suite, iterations in workload.suites:
        done = [r for r in runs[suite] if r[5] is not None]
        out.append({
            "suite": suite,
            "iterations": iterations,
            "runs": len(runs[suite]),
            "failed": sum(1 for r in runs[suite] if not r[4]),
            "cases": done[0][3] if done else 0,
            "digests": [sha1(r[5]) for r in runs[suite]],
            "text": done[0][5] if done else None,
            "verify_s": [clock.corrected(r[0], r[2]) for r in done],
            "emit_s": [clock.corrected(r[1], r[2]) for r in done],
            "wall_s": [clock.raw_without_probes(r[0], r[2]) for r in done],
        })
    return {
        "suites": out,
        "probes": len(clock.durations),
        "probe_min_s": min(clock.durations),
        "probe_median_s": statistics.median(clock.durations),
        "peak_rss_mb": peak_rss_mb,
    }


def sort_inputs(workload):
    """Inputs ``sorting/bounds`` judges: every permutation up to the sweep size, then the random ones."""
    total = 0
    for suite, iterations in workload.suites:
        if suite == "sorting/bounds":
            sweep = 8 if iterations >= 5000 else 6
            total += sum(math.factorial(n) for n in range(sweep + 1)) + iterations
    return total


def profiler_slowdown():
    """How many times slower the probe runs under ``cProfile``, from adjacent pairs."""
    ratios = []
    for _ in range(41):
        t0 = time.perf_counter()
        reference()
        t1 = time.perf_counter()
        profiler = cProfile.Profile(builtins=False)
        profiler.enable()
        t2 = time.perf_counter()
        reference()
        t3 = time.perf_counter()
        profiler.disable()
        ratios.append((t3 - t2) / (t1 - t0))
    return statistics.median(ratios)


def profiled(workload, seed):
    comparisons = [0]

    def counting(sort):
        def run(items):
            out = sort(items)
            comparisons[0] += out.cost.value
            return out
        return run

    collections = [0]
    pause = [0.0, 0.0]

    def on_gc(phase_name, info):
        if phase_name == "start":
            pause[1] = time.perf_counter()
        else:
            collections[0] += 1
            pause[0] += time.perf_counter() - pause[1]

    # ``sorting_bounds`` reads these names from the module at call time.
    saved = suites.isort, suites.msort
    suites.isort, suites.msort = counting(saved[0]), counting(saved[1])
    clock = ProbeClock(nominal=NOMINAL_S * profiler_slowdown())
    profiler = cProfile.Profile(builtins=False)
    reports = []
    gc.callbacks.append(on_gc)
    try:
        with clock:
            start = time.perf_counter()
            profiler.enable()
            for suite, iterations in workload.suites:
                reports.append((suite,) + run_one(suite, iterations, seed)[:3])
            profiler.disable()
            end = time.perf_counter()
    finally:
        gc.callbacks.remove(on_gc)
        suites.isort, suites.msort = saved

    stats = ProfileStats(profiler.getstats(), os.path.dirname(cli.__file__))
    # Profiled times are raw wall time; scaling them by the pass's mean
    # contention factor makes them comparable between runs.
    wall_s = clock.corrected(start, end)
    scale = wall_s / clock.raw_without_probes(start, end)
    cases = sum(r[1] for r in reports)
    inputs = sort_inputs(workload)
    sort_runs = stats.fn_calls(sorting.isort) + stats.fn_calls(sorting.msort)
    render_calls = stats.fn_calls(harness.render)
    metrics = {
        "rbtree.elements.calls": (stats.fn_calls(rbtree.elements), "count"),
        "rbtree.elements.self_s": (stats.fn_self(rbtree.elements), "s"),
        "rbtree.validate.self_s": (stats.fn_self(rbtree.validate) + stats.fn_self(rbtree._validate), "s"),
        "rbtree.validate.nodes": (stats.fn_calls(rbtree._validate), "count"),
        "rbtree.append.calls": (stats.fn_calls(rbtree.append), "count"),
        "rbtree.nodes_built": (stats.fn_calls(rbtree.Node.__post_init__), "count"),
        "rbtree.fold.self_s": (stats.fn_self(rbtree.mapreduce) + stats.fn_self(rbtree.reduce), "s"),
        "sorting.sort_runs": (sort_runs, "count"),
        "sorting.runs_per_input": (sort_runs / (2 * inputs) if inputs else 0.0, "runs/input"),
        "sorting.comparisons": (comparisons[0], "count"),
        "cost.costs_built": (stats.fn_calls(cost.Cost.__post_init__), "count"),
        "cost.charged_built": (stats.fn_calls(cost.Charged.__post_init__), "count"),
        "sealing.seals_built": (stats.fn_calls(sealing.Sealed.__post_init__), "count"),
        "queues.ops": (
            sum(stats.fn_calls(f) for f in (queues.list_enqueue, queues.list_dequeue,
                                             queues.batched_enqueue, queues.batched_dequeue)),
            "count",
        ),
        "queues.rev_append.calls": (stats.fn_calls(queues.rev_append), "count"),
        "phase.glue.calls": (stats.fn_calls(phase.glue), "count"),
        "harness.render.calls": (render_calls, "count"),
        # Inclusive: render's own time plus the repr calls it makes.
        "harness.render.self_s": (stats.fn_total(harness.render), "s"),
        "harness.render.per_case": (render_calls / cases if cases else 0.0, "renders/case"),
        "gc.collections": (collections[0], "count"),
        "gc.pause_s": (pause[0], "s"),
    }
    for layer in LAYERS:
        if layer != "cli":  # cli's metrics come from the timed pass
            metrics[f"{layer}.calls"] = (stats.layer_calls(layer), "count")
            metrics[f"{layer}.self_s"] = (stats.layer_self(layer), "s")
    return {
        "reports": [{"suite": s, "cases": c, "passed": p, "digest": sha1(t)} for s, c, p, t in reports],
        "wall_s": wall_s,
        "metrics": {name: {"value": v * scale if u == "s" else v, "unit": u} for name, (v, u) in metrics.items()},
    }


def det(workload, seed):
    suite, iterations = workload.det
    _, plain_passed, plain, _ = run_one(suite, iterations, seed)
    profiler = cProfile.Profile(builtins=False)
    profiler.enable()
    _, prof_passed, under_profile, _ = run_one(suite, iterations, seed)
    profiler.disable()
    return {"runs": 2, "failed": (not plain_passed) + (not prof_passed),
            "plain": plain, "profiled": under_profile}


def main(argv):
    if argv == ["setup"]:
        sys.stdout.write(json.dumps({"ready": READY}) + "\n")
        return
    mode, name, seed = argv[0], argv[1], int(argv[2])
    workload = WORKLOADS[name]
    if mode == "timed":
        result = timed(workload, seed, float(argv[3]))
    elif mode == "profiled":
        result = profiled(workload, seed)
    elif mode == "det":
        result = det(workload, seed)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
