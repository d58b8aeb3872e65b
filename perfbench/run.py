#!/usr/bin/env python3
"""lnplan benchmark: one workload, one process, one caller in a closed loop.

    python3 perfbench/run.py --workload relay-wide --seed 1 --seconds 20 --trace 0

The workload's task is generated from the seed as PDDL text and handed to
lnplan through its public API only. An untraced run (`--trace 0`) repeats
rounds of one solve, a batch of set-ups and one pass over the sampled states
until --seconds pass, and reports

  setup_s            parse + SuccessorGenerator construction (grounding included
                     under `grounded`), median of the set-ups
  solve_s            parse + search.solve: time to a verdict from the task text,
                     median of the solves
  expansions_per_s   expansions / (solve - set-up), each round's solve less
                     the median of the set-ups right after it; median of rounds
  succ_ms.p50/.p95   per-state SuccessorGenerator.applicable latency over a
                     seeded sample of 200 distinct reachable states, each
                     state's median over the passes, after one warm-up pass
  peak_rss_mb        ru_maxrss of this process at the end of the run

A traced run (`--trace 1`) alternates untraced solves with solves traced by
the layer wrappers of `tracing.py`, which are installed for each traced solve
and restored right after it, and reports per-layer times and counts plus the
tracing overhead.

Every run checks its outputs against references computed by `families.py`
from the generator's own data: verdict, plan cost (and `search.validate`),
expansion count, identical counts across repeats, the applicable set of every
sampled state, and on a seeded subset of them the chain
applicable <= numeric <= propositional <= exhaustive. The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`;
failed_share is `failed / attempted`.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import families
from spec import LAYERS, PER_LAYER, WORKLOADS
from speed import REFERENCE_NOMINAL_S, Speed

SRC = Path(__file__).resolve().parent.parent / "src"

MIN_ROUNDS = 3
SAMPLE_STATES = 200
CHAIN_STATES = 30
SETUP_SHARE = 0.25  # set-ups after each solve run for this share of its time

_clock = time.perf_counter


class Gate:
    """Correctness checks feeding `failed / attempted`."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def guard(self, what: str, fn, *args):
        """Run fn; an exception counts as one failed check and yields None."""
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - every exception is a failed check
            self.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        from lnplan import pddl, search, successors

        self.pddl, self.search, self.successors = pddl, search, successors
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.family = families.FAMILIES[self.spec.family](seed, **self.spec.knobs)
        self.config = successors.GeneratorConfig(strategy=self.spec.strategy)
        self.limits = search.Limits(nodes=self.family.node_cap)
        self.gate = Gate()
        self.first_stats = None
        self.speed: Speed | None = None
        self.unscaled: dict[str, float] = {}

    # --- timed operations ---

    def parse(self):
        return self.pddl.parse_task(self.family.domain, self.family.problem)

    def setup_once(self) -> float:
        start = _clock()
        self.successors.SuccessorGenerator(self.parse(), self.config)
        return _clock() - start

    def solve_once(self, tracer=None):
        start = _clock()
        if tracer is None:
            task = self.parse()
            result = self.search.solve(task, self.config, self.limits)
        else:
            root = tracer.open("bench.solve")
            task = tracer.call("pddl.parse", self.parse)
            result = tracer.call("search.solve", self.search.solve,
                                 task, self.config, self.limits)
            tracer.close(root)
        elapsed = _clock() - start
        self.check_result(task, result)
        return elapsed, result

    # --- checks ---

    def check_result(self, task, result) -> None:
        exp, gate, stats = self.family.expected, self.gate, result.stats
        gate.check(result.status == exp.status,
                   f"verdict {result.status} ({result.limit_hit}), expected {exp.status}")
        gate.check(result.limit_hit == exp.limit_hit,
                   f"limit {result.limit_hit}, expected {exp.limit_hit}")
        gate.check(exp.expansions_lo <= stats.expansions <= exp.expansions_hi,
                   f"expansions {stats.expansions} outside "
                   f"[{exp.expansions_lo}, {exp.expansions_hi}]")
        if exp.status == self.search.SOLVED and result.plan is not None:
            report = self.search.validate(task, result.plan)
            gate.check(report.valid and report.cost == exp.cost,
                       f"plan valid={report.valid} cost={report.cost}, expected {exp.cost}")
        counts = (stats.expansions, stats.generated, stats.candidates, stats.applicable)
        if self.first_stats is None:
            self.first_stats = counts
        gate.check(counts == self.first_stats,
                   f"counts {counts} differ from the first solve's {self.first_stats}")

    def check_states(self, generator, states) -> None:
        from lnplan.successors import NUMERIC, PROPOSITIONAL, GeneratorConfig, SuccessorGenerator

        task = generator.task
        for state in states:
            actions = self.gate.guard("applicable", generator.applicable, state)
            if actions is None:
                continue
            got = [action_key(a) for a in actions[0]]
            expected = self.family.oracle(facts(state))
            self.gate.check(sorted(got) == expected,
                            f"applicable set differs from the oracle at {state.key()}")
        numeric = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
        propositional = SuccessorGenerator(task, GeneratorConfig(strategy=PROPOSITIONAL))
        rng = random.Random(self.seed)
        for state in rng.sample(states, min(CHAIN_STATES, len(states))):
            self.gate.guard("chain", self.check_chain, numeric, propositional, state)

    def check_chain(self, numeric, propositional, state) -> None:
        ctx = numeric.context(state)
        applicable = set(self.family.oracle(facts(state)))
        lifted = [{action_key(a) for schema in numeric.task.schemas
                   for a in gen.candidates(schema, state, ctx)}
                  for gen in (numeric, propositional)]
        pools = self.family.pools
        exhaustive_ok = all(
            all(arg in pool for arg, pool in zip(args, pools[name]))
            for name, args in lifted[1]
        )
        self.gate.check(applicable <= lifted[0] <= lifted[1] and exhaustive_ok,
                        f"chain applicable <= numeric <= propositional <= exhaustive "
                        f"fails at {state.key()}")

    # --- measurement ---

    def sample_states(self, task) -> list:
        """A seeded sample of distinct reachable states, from random walks.

        Each step applies an action the family's oracle picks, so drawing the
        sample costs no successor generation.
        """
        from lnplan.model import GroundAction, apply_effects

        rng = random.Random(self.seed)
        objects = {o.name: o for o in task.objects}
        seen: dict = {task.init.key(): task.init}
        walks = 0
        while len(seen) < SAMPLE_STATES and walks < 50 * SAMPLE_STATES:
            walks += 1
            state = task.init
            for _ in range(64):
                choices = self.family.oracle(facts(state))
                if not choices:
                    break
                name, args = rng.choice(choices)
                action = GroundAction(task.schema(name), [objects[a] for a in args])
                state = apply_effects(state, action)
                seen.setdefault(state.key(), state)
        states = list(seen.values())
        if len(states) < SAMPLE_STATES:
            raise RuntimeError(f"only {len(states)} reachable states found")
        return rng.sample(states, SAMPLE_STATES)

    def prepare_states(self):
        """The generator under test and its checked, warmed-up state sample."""
        generator = self.successors.SuccessorGenerator(self.parse(), self.config)
        states = self.sample_states(generator.task)
        self.check_states(generator, states)
        return generator, states

    def run_untraced(self) -> dict:
        """Rounds of one solve, a batch of set-ups and one applicable() pass.

        Rounds repeat until --seconds pass (at least MIN_ROUNDS), so every
        metric samples the whole run. Each stretch is rescaled by Speed.
        """
        generator, states = self.prepare_states()
        speed = self.speed = Speed()
        solves, setups, searches, result = [], [], [], None
        per_state: list[list[float]] = [[] for _ in states]
        start = _clock()
        while len(solves) < MIN_ROUNDS or _clock() - start < self.seconds:
            elapsed, result = self.solve_once()
            solve = elapsed * speed.factor()
            solves.append((elapsed, solve))
            batch = [self.setup_once()]
            while sum(batch) < SETUP_SHARE * elapsed:
                batch.append(self.setup_once())
            scale = speed.factor()
            setups.extend((t, t * scale) for t in batch)
            # pair each solve with the set-ups right after it, so that drift the
            # rescaling leaves is shared by both terms of the difference
            searches.append(solve - statistics.median(batch) * scale)
            times = []
            for state in states:
                t0 = _clock()
                generator.applicable(state)
                times.append((_clock() - t0) * 1000.0)
            scale = speed.factor()
            for per, t in zip(per_state, times):
                per.append((t, t * scale))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.unscaled = {"solve_s": statistics.median(t for t, _ in solves),
                         "setup_s": statistics.median(t for t, _ in setups),
                         "succ_ms.p50": statistics.median(
                             statistics.median(t for t, _ in per) for per in per_state)}
        solve_s = statistics.median(t for _, t in solves)
        setup_s = statistics.median(t for _, t in setups)
        latencies = [statistics.median(t for _, t in per) for per in per_state]
        return {
            "setup_s": (setup_s, "s"),
            "solve_s": (solve_s, "s"),
            "expansions_per_s": (result.stats.expansions / statistics.median(searches), "1/s"),
            "succ_ms.p50": (statistics.median(latencies), "ms"),
            "succ_ms.p95": (statistics.quantiles(latencies, n=20)[18], "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    def run_traced(self) -> dict:
        """Alternate untraced and traced solves until --seconds pass.

        The wrappers are installed for each traced solve only and restored
        right after it. Times are rescaled by Speed.
        """
        import tracing

        generator, states = self.prepare_states()
        speed = self.speed = Speed()
        tracer = tracing.Tracer()
        untraced, traced, per_solve = [], [], []
        start = _clock()
        while len(traced) < MIN_ROUNDS or _clock() - start < self.seconds:
            elapsed = self.solve_once()[0]
            untraced.append(elapsed * speed.factor())
            tracer.reset()
            tracer.install()
            try:
                elapsed, result = self.solve_once(tracer)
            finally:
                tracer.restore()
            scale = speed.factor()
            traced.append(elapsed * scale)
            per_solve.append(layer_metrics(tracer.spans, tracer.counts, scale, result))
        metrics = {name: statistics.median(one[name] for one in per_solve)
                   for name in per_solve[0]}
        for name, unit, _ in PER_LAYER:
            if unit == "count" and name in metrics:
                self.gate.check(all(one[name] == metrics[name] for one in per_solve),
                                f"traced count {name} differs between solves")
        metrics["trace.solve_s"] = statistics.median(traced)
        metrics["trace.untraced_solve_s"] = statistics.median(untraced)
        metrics["trace.overhead_s"] = metrics["trace.solve_s"] - metrics["trace.untraced_solve_s"]
        # the grounded strategy builds no graph, so it excludes nothing
        excluded = (Counter() if self.config.strategy == self.successors.GROUNDED
                    else exclusion_histogram(generator.task, states))
        for reason in ("positive-miss", "negative-hit", "numeric-unsat"):
            metrics[f"consistency.excluded.{reason}"] = sum(
                n for (_, r), n in excluded.items() if r == reason)
        for (schema, reason), n in sorted(excluded.items()):
            print(f"excluded {schema} {reason} {n}")
        return {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}


def layer_metrics(spans, counts, scale, result) -> dict:
    """Per-layer metrics of one traced solve; times rescaled by `scale`."""
    from tracing import summarize

    total, layer = summarize(spans)
    root = spans[0]
    root_s = root[2] - root[1]
    t = lambda name: total.get(name, 0.0) * scale  # noqa: E731
    stats = result.stats
    out = {
        "pddl.parse_s": t("pddl.parse"),
        "successors.ground_s": t("successors.ground"),
        "successors.ground_store": counts["successors.ground_store"],
        "successors.context_s": t("successors.context"),
        "successors.filter_s": t("model.is_applicable.filter"),
        "successors.filter_calls": counts["model.is_applicable.filter.calls"],
        "successors.candidates": counts["successors.candidates"],
        "successors.applicable": counts["successors.applicable"],
        "successors.oa": (counts["successors.candidates"] / counts["successors.applicable"]
                          if counts["successors.applicable"] else 0.0),
        "consistency.build_graph_s": t("consistency.build_graph"),
        "consistency.graphs": counts["consistency.build_graph.calls"],
        "consistency.vertices_alive": counts["consistency.vertices_alive"],
        "consistency.edges": counts["consistency.edges"],
        "consistency.match_exists_calls": counts["consistency.match_exists"],
        "consistency.relaxed_unsat_s": t("consistency.relaxed_unsat"),
        "consistency.relaxed_unsat_calls": counts["consistency.relaxed_unsat.calls"],
        "assignments.build_s": t("assignments.build"),
        "assignments.tables": counts["assignments.build.calls"],
        "assignments.entries": counts["assignments.entries"],
        "intervals.arith_calls": counts["intervals.arith"],
        "intervals.compare_calls": counts["intervals.compare"],
        "cliques.enum_s": t("cliques.enum"),
        "cliques.emitted": counts["cliques.enum.emitted"],
        "model.is_applicable_s": t("model.is_applicable.filter")
        + t("model.is_applicable.recheck"),
        "model.is_applicable_calls": counts["model.is_applicable.filter.calls"]
        + counts["model.is_applicable.recheck.calls"],
        "model.is_applicable_s.recheck": t("model.is_applicable.recheck"),
        "model.is_applicable_calls.recheck": counts["model.is_applicable.recheck.calls"],
        "model.apply_effects_s": t("model.apply_effects"),
        "model.state_key_s": t("model.state_key"),
        "model.state_key_calls": counts["model.state_key.calls"],
        "model.goal_s": t("model.goal"),
        "search.expansions": stats.expansions,
        "search.generated": stats.generated,
        "search.duplicates": stats.applicable - stats.generated,
    }
    for name in LAYERS:
        out[f"{name}.self_s"] = layer.get(name, 0.0) * scale
    out["trace.self_share"] = sum(layer.get(name, 0.0) for name in LAYERS) / root_s
    return out


def exclusion_histogram(task, states) -> Counter:
    """(schema, reason) -> vertices and vertex pairs the numeric graph excludes."""
    from lnplan.consistency import StateContext, build_graph

    hist: Counter = Counter()
    for state in states:
        ctx = StateContext(task, state)
        for schema in task.schemas:
            if not schema.params:
                continue
            graph = build_graph(schema, ctx, numeric=True, record=True)
            for record in graph.exclusions:
                hist[(schema.name, record[-1])] += 1
            for note in graph.notes:
                hist[(schema.name, note.split(":", 1)[0])] += 1
    return hist


def action_key(action) -> tuple:
    return (action.schema.name, tuple(o.name for o in action.binding))


def facts(state) -> families.Facts:
    return families.Facts(
        frozenset((a.predicate.name,) + tuple(o.name for o in a.args) for a in state.atoms),
        {(f.function.name,) + tuple(o.name for o in f.args): v
         for f, v in state.fluents.items()},
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lnplan" / "__init__.py").is_file():
        print(f"perfbench: no lnplan sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds)
    metrics = bench.run_traced() if args.trace else bench.run_untraced()
    gate = bench.gate
    for failure in gate.failures[:20]:
        print(f"FAILED {failure}")
    print(f"reference_s {statistics.median(bench.speed.references):.6g} s; times are rescaled "
          f"to the reference speed ({REFERENCE_NOMINAL_S} s)")
    for name, value in bench.unscaled.items():
        print(f"unscaled {name} {value:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_share {len(gate.failures) / gate.attempted:.6g} "
          f"({len(gate.failures)}/{gate.attempted})")
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": len(gate.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
