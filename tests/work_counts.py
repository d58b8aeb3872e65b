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

The fixture also pins graph sizes under `graph-sizes`: for each family at
seed 101, the `numeric` and `propositional` consistency graphs of each
schema in the first 20 states in breadth-first order, summed up as
(vertices alive, edges). The counts above do not see static arc
consistency, which only drops vertices that are in no clique; these do.

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

from lnplan import consistency, model, pddl, search, successors  # noqa: E402

NODE_CAP = 150
SEEDS = (101, 102, 103)
GRAPHS = "graph-sizes"  # the fixture's key of the graph sizes
GRAPH_SEED, GRAPH_STATES = 101, 20

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


def _task(name: str, seed: int) -> model.Task:
    family_name, knobs, _ = CASES[name]
    family = families.FAMILIES[family_name](seed, **knobs)
    return pddl.parse_task(family.domain, family.problem)


def counts(name: str, seed: int, strategy: str) -> list[int]:
    """(expansions, generated, candidates, applicable) of one solve."""
    task = _task(name, seed)
    stats = search.solve(task, successors.GeneratorConfig(strategy=strategy),
                         search.Limits(nodes=NODE_CAP)).stats
    return [stats.expansions, stats.generated, stats.candidates, stats.applicable]


def graph_sizes(name: str) -> dict:
    """strategy -> schema -> [vertices alive, edges], summed over the first
    GRAPH_STATES states of a breadth-first search."""
    task = _task(name, GRAPH_SEED)
    generator = successors.SuccessorGenerator(task)
    states, seen, i = [task.init], {task.init}, 0
    while i < len(states) < GRAPH_STATES:
        for action in generator.applicable(states[i])[0]:
            child = model.apply_effects(states[i], action)
            if child not in seen and len(states) < GRAPH_STATES:
                seen.add(child)
                states.append(child)
        i += 1
    sizes = {}
    for strategy in ("numeric", "propositional"):
        per_schema = sizes[strategy] = {schema.name: [0, 0] for schema in task.schemas}
        for state in states:
            ctx = generator.context(state)
            for schema in task.schemas:
                graph = consistency.build_graph(schema, ctx, numeric=strategy == "numeric")
                per_schema[schema.name][0] += sum(mask.bit_count() for mask in graph.alive)
                per_schema[schema.name][1] += graph.edge_count()
    return sizes


def all_counts() -> dict:
    pinned = {name: {strategy: {str(seed): counts(name, seed, strategy) for seed in SEEDS}
                     for strategy in strategies}
              for name, (_, _, strategies) in CASES.items()}
    pinned[GRAPHS] = {name: graph_sizes(name) for name in CASES}
    return pinned


def main() -> None:
    text = json.dumps(all_counts(), indent=1)  # then one line per count row
    text = re.sub(r"\[\s+([^\]]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    FIXTURE.write_text(text + "\n")


if __name__ == "__main__":
    main()
