"""Workloads and metrics of the benchmark; `python3 perfbench/spec.py` writes BENCHMARK.json.

Each workload names a task family, its knobs and the successor-generation
strategy under test. The per-layer -> end-to-end mapping behind each choice
is in perfbench/README.md.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

RUN_SECONDS = 20


@dataclass(frozen=True)
class Workload:
    family: str
    strategy: str
    why: str
    knobs: dict = field(default_factory=dict)


RELAY_KNOBS = {"robots": 3, "waypoints": 40, "links": 2, "energy": 6, "node_cap": 150}

WORKLOADS = {
    "relay-wide": Workload(
        "relay", "numeric",
        "3 untyped params + ternary link over 43 objects: consistency edge rules and"
        " AtomIndex dominate (oa > 1); moves expansions_per_s, succ_ms via"
        " consistency.build_graph_s",
        RELAY_KNOBS),
    "relay-grounded": Workload(
        "relay", "grounded",
        "same tasks under grounded, the paper's baseline: ground_all enumerates 43^3"
        " bindings, so successors.ground_s dominates setup_s and consistency is bypassed",
        RELAY_KNOBS),
    "delivery-fuel": Workload(
        "delivery", "numeric",
        "typed ring, fan-out 2 plus fuel-infeasible roads: numeric edge rule rebuilds"
        " fuel/dist range tables per state; assignments.build_s, relaxed_unsat_s move"
        " expansions_per_s",
        {"trucks": 2, "locations": 20, "reach": 15, "long_roads": 2}),
    "farmland-dense": Workload(
        "farmland", "numeric",
        "exhausts all C(u+N-1,N-1) states, each with N(N-1) mostly duplicate successors:"
        " model apply/State.key and search dedup move expansions_per_s and peak_rss_mb",
        {"farms": 6, "units": 5}),
}

# Even rescaled to the reference speed (speed.py), medians of 20 s runs on the
# shared 2-vCPU sandbox spread by up to 16% across seeds, hence wide bounds.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "expansions_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "succ_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "succ_ms.p95", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

_S, _N = "s", "count"
PER_LAYER = [
    ("pddl.parse_s", _S, "lower"),
    ("pddl.self_s", _S, "lower"),
    ("successors.ground_s", _S, "lower"),
    ("successors.ground_store", _N, "lower"),
    ("successors.context_s", _S, "lower"),
    ("successors.filter_s", _S, "lower"),
    ("successors.filter_calls", _N, "lower"),
    ("successors.candidates", _N, "lower"),
    ("successors.applicable", _N, "lower"),
    ("successors.oa", "ratio", "lower"),
    ("successors.self_s", _S, "lower"),
    ("consistency.build_graph_s", _S, "lower"),
    ("consistency.graphs", _N, "lower"),
    ("consistency.vertices_alive", _N, "lower"),
    ("consistency.edges", _N, "lower"),
    ("consistency.match_exists_calls", _N, "lower"),
    ("consistency.relaxed_unsat_s", _S, "lower"),
    ("consistency.relaxed_unsat_calls", _N, "lower"),
    ("consistency.excluded.positive-miss", _N, "higher"),
    ("consistency.excluded.negative-hit", _N, "higher"),
    ("consistency.excluded.numeric-unsat", _N, "higher"),
    ("consistency.self_s", _S, "lower"),
    ("assignments.build_s", _S, "lower"),
    ("assignments.tables", _N, "lower"),
    ("assignments.entries", _N, "lower"),
    ("assignments.self_s", _S, "lower"),
    ("intervals.arith_calls", _N, "lower"),
    ("intervals.compare_calls", _N, "lower"),
    ("cliques.enum_s", _S, "lower"),
    ("cliques.emitted", _N, "lower"),
    ("cliques.self_s", _S, "lower"),
    ("model.is_applicable_s", _S, "lower"),
    ("model.is_applicable_calls", _N, "lower"),
    ("model.is_applicable_s.recheck", _S, "lower"),
    ("model.is_applicable_calls.recheck", _N, "lower"),
    ("model.apply_effects_s", _S, "lower"),
    ("model.state_key_s", _S, "lower"),
    ("model.state_key_calls", _N, "lower"),
    ("model.goal_s", _S, "lower"),
    ("model.self_s", _S, "lower"),
    ("search.expansions", _N, "higher"),
    ("search.generated", _N, "lower"),
    ("search.duplicates", _N, "lower"),
    ("search.self_s", _S, "lower"),
    ("trace.solve_s", _S, "lower"),
    ("trace.untraced_solve_s", _S, "lower"),
    ("trace.overhead_s", _S, "lower"),
    ("trace.self_share", "ratio", "higher"),
]

LAYERS = ("pddl", "successors", "consistency", "assignments", "cliques", "model", "search")


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w.why} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").write_text(render())
