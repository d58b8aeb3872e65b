#!/usr/bin/env python3
"""Consistency-graph dumps, pinned in tests/data/graph_dumps.json.

    python3 tests/graph_fixture.py          # rewrite the fixture

Each entry maps to the sha256 of one dump:
  - 'record <task> <strategy>': the `lnplan successors --dump-graph` dumps
    of the task's initial state (every schema's record graph, as the
    command prints them) under `numeric` and `propositional`;
  - 'static <task> <schema>': `static_graph(schema, statics).dump()`, the
    static half of the paper's graph, whose cliques are the bindings that
    `ground_all`'s hash join keeps.
The tasks are the bundled problems and the relay, delivery and farmland
workload tasks of `perfbench/spec.py` at seed 101. The work-count fixture
pins only graph sizes; this pins every vertex, edge and exclusion.

A change to how graphs are built that keeps every graph leaves the
fixture byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "data" / "graph_dumps.json"
DOMAINS = ROOT / "src" / "lnplan" / "domains"
for path in (ROOT / "perfbench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import families  # noqa: E402
from spec import WORKLOADS  # noqa: E402

from lnplan import pddl  # noqa: E402
from lnplan.consistency import StateContext, build_graph, static_graph, task_statics  # noqa: E402

SEED = 101
WORKLOAD_TASKS = ("relay-wide", "delivery-fuel", "farmland-dense")
STRATEGIES = ("numeric", "propositional")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tasks() -> dict[str, tuple[str, str]]:
    """'name' -> (domain text, problem text) of each bundled problem and
    workload task."""
    pairs = {}
    for base in sorted(DOMAINS.iterdir()):
        for problem in sorted(base.glob("problem*.pddl")):
            pairs[f"{base.name}/{problem.name}"] = ((base / "domain.pddl").read_text(),
                                                    problem.read_text())
    for name in WORKLOAD_TASKS:
        workload = WORKLOADS[name]
        family = families.FAMILIES[workload.family](SEED, **workload.knobs)
        pairs[f"{name} seed {SEED}"] = (family.domain, family.problem)
    return pairs


def dumps(name: str, domain: str, problem: str) -> dict[str, str]:
    """The entries of one task."""
    task = pddl.parse_task(domain, problem)
    out = {}
    ctx = StateContext(task, task.init)
    for strategy in STRATEGIES:
        text = "\n".join(build_graph(schema, ctx, numeric=strategy == "numeric",
                                     record=True).dump() for schema in task.schemas)
        out[f"record {name} {strategy}"] = sha(text)
    statics = task_statics(task)
    for schema in task.schemas:
        out[f"static {name} {schema.name}"] = sha(static_graph(schema, statics).dump())
    return out


def all_dumps() -> dict[str, str]:
    out = {}
    for name, (domain, problem) in tasks().items():
        out.update(dumps(name, domain, problem))
    return out


def main() -> None:
    FIXTURE.write_text(json.dumps(all_dumps(), indent=1) + "\n")


if __name__ == "__main__":
    main()
