#!/usr/bin/env python3
"""Work counts of the benchmark families, pinned in tests/data/work_counts.json.

    python3 tests/work_counts.py            # rewrite the fixture

For each family at its benchmark size (the relay-wide, delivery-fuel and
farmland-dense workloads of `perfbench/spec.py`, and the dense relay with
every waypoint linked to every other at 60 waypoints), seeds 101-103 and
each strategy listed for it in `CASES`, one breadth-first solve to node cap 150 is
summed up as (expansions, generated, candidates, applicable). A change that
weakens pruning while the filter still restores the right answers moves
`candidates` and nothing else, so only a pin on the counts catches it.
A change that moves a count on purpose rewrites the fixture; `git diff` of
it then lists the counts that moved.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "work_counts.json"
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families  # noqa: E402
from spec import WORKLOADS  # noqa: E402

from lnplan import pddl, search, successors  # noqa: E402

NODE_CAP = 150
SEEDS = (101, 102, 103)

# name -> (family, knobs, strategies). A strategy is listed where its solve
# takes a fraction of a second, so that the pinning test stays fast:
# exhaustive takes 1-3 s on relay-wide and delivery-fuel, and exhaustive and
# grounded take 3-5 s on the dense relay.
CASES = {
    "relay-wide": ("relay", WORKLOADS["relay-wide"].knobs,
                   ("numeric", "propositional", "grounded")),
    "delivery-fuel": ("delivery", WORKLOADS["delivery-fuel"].knobs,
                      ("numeric", "propositional", "grounded")),
    "farmland-dense": ("farmland", WORKLOADS["farmland-dense"].knobs,
                       ("numeric", "propositional", "exhaustive", "grounded")),
    "relay-dense-60": ("relay", {"waypoints": 60, "links": 58}, ("numeric",)),
}


def counts(name: str, seed: int, strategy: str) -> list[int]:
    """(expansions, generated, candidates, applicable) of one solve."""
    family_name, knobs, _ = CASES[name]
    family = families.FAMILIES[family_name](seed, **knobs)
    task = pddl.parse_task(family.domain, family.problem)
    stats = search.solve(task, successors.GeneratorConfig(strategy=strategy),
                         search.Limits(nodes=NODE_CAP)).stats
    return [stats.expansions, stats.generated, stats.candidates, stats.applicable]


def all_counts() -> dict:
    return {name: {strategy: {str(seed): counts(name, seed, strategy) for seed in SEEDS}
                   for strategy in strategies}
            for name, (_, _, strategies) in CASES.items()}


def main() -> None:
    text = json.dumps(all_counts(), indent=1)  # then one line per count row
    text = re.sub(r"\[\s+([^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    FIXTURE.write_text(text + "\n")


if __name__ == "__main__":
    main()
