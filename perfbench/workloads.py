"""The benchmark's workloads: which suites run, and at which load.

Why each workload exists is written in ``BENCHMARK.json`` and the README.

Every workload runs its suites in ``full`` mode with the seed given on
the command line, so the same seed gives the same inputs.  A round runs
each suite once, in the order listed, and emits its JSON report; the
timed pass repeats whole rounds.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Tuple


class Workload(NamedTuple):
    name: str
    # (suite, iterations) in round order.
    suites: Tuple[Tuple[str, int], ...]
    # A cheap configuration run in two fresh processes to show that
    # reports are deterministic across processes and under profiling.
    det: Tuple[str, int]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="abstraction-audit",
            # The tree pool grows for the first ~2000 appends, and how fast
            # depends on the seed; at 3000 the steady state dominates.
            suites=(("rbtree/invariants", 3000), ("phase/roundtrip", 10000)),
            det=("rbtree/invariants", 200),
        ),
        Workload(
            name="sort-bounds",
            # 5000 is the smallest load at which the suite sweeps every
            # permutation up to n = 8 instead of n = 6.
            suites=(("sorting/bounds", 5000),),
            det=("sorting/bounds", 200),
        ),
        Workload(
            name="charged-algebra",
            suites=(
                ("cost/laws", 6000),
                ("sealing/laws", 6000),
                ("queues/coherence", 800),
                ("queues/noninterference", 800),
                # The folds' tree pools, and so their times, vary with the
                # seed by 30% and more; kept to a small share of the round.
                ("rbtree/universal", 100),
                ("rbtree/reduce", 300),
            ),
            det=("queues/coherence", 40),
        ),
    )
}
