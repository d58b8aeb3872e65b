#!/usr/bin/env python3
"""One-off crossover sweep: relay width, `numeric` against `grounded` solve time.

    python3 perfbench/crossover.py --seed 1 --widths 10,20,40,60,80,97 --reps 3

For each number of waypoints, generates the relay task of the `relay-wide`
workload at that width, solves it to the same node cap under both strategies
(median of --reps solves, parse included) and prints one line per width. The
summary line names the smallest width at which `numeric` is faster, or says
that it never is below the ground cap (where `grounded` stops with
`ground-store-cap`). This is a report, not a gated workload.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import families  # noqa: E402
from lnplan import pddl, search  # noqa: E402
from lnplan.successors import GeneratorConfig  # noqa: E402
from spec import RELAY_KNOBS  # noqa: E402


def timed_solve(family, strategy: str, reps: int):
    times, result = [], None
    for _ in range(reps):
        start = time.perf_counter()
        task = pddl.parse_task(family.domain, family.problem)
        result = search.solve(task, GeneratorConfig(strategy=strategy),
                              search.Limits(nodes=family.node_cap))
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--widths", default="10,20,40,60,80,97")
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)

    knobs = dict(RELAY_KNOBS)
    crossover = None
    print("waypoints objects numeric_s grounded_s grounded_status expansions")
    for width in (int(w) for w in args.widths.split(",")):
        knobs["waypoints"] = width
        family = families.relay(args.seed, **knobs)
        numeric_s, numeric = timed_solve(family, "numeric", args.reps)
        grounded_s, grounded = timed_solve(family, "grounded", args.reps)
        status = grounded.limit_hit if grounded.status == search.LIMIT else grounded.status
        print(f"{width} {width + knobs['robots']} {numeric_s:.3f} {grounded_s:.3f} "
              f"{status} {numeric.stats.expansions}", flush=True)
        capped = grounded.limit_hit is not None and grounded.limit_hit.startswith("ground")
        if crossover is None and not capped and numeric_s < grounded_s:
            crossover = width
    if crossover is None:
        print(f"numeric never beats grounded below the ground cap at node cap "
              f"{knobs['node_cap']}")
    else:
        print(f"numeric beats grounded from {crossover} waypoints "
              f"({crossover + knobs['robots']} objects) at node cap {knobs['node_cap']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
