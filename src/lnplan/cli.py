"""Command-line interface.

Subcommands: solve, successors, ground, bench, check-exactness, satgadget.
Exit codes: 0 plan found / success, 10 unsolvable, 20 resource limit hit,
30 input or usage error. Set LNP_LOG=debug|info|warning to adjust logging.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

from . import metrics, satgadget, search
from .consistency import build_graph, exactness_violations, wide_elements
from .model import Literal, Task
from .pddl import ParseError, load_task, parse_domain
from .successors import (
    DEFAULT_GROUND_CAP,
    GROUNDED,
    NUMERIC,
    GeneratorConfig,
    GroundLimitError,
    STRATEGIES,
    SuccessorGenerator,
    ground_all,
    residual_check,
)

EXIT_OK = 0
EXIT_UNSOLVABLE = 10
EXIT_LIMIT = 20
EXIT_INPUT = 30

log = logging.getLogger("lnplan")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_task_args(p):
    p.add_argument("--domain", required=True, help="domain PDDL file")
    p.add_argument("--problem", required=True, help="problem PDDL file")


def _add_ground_cap_arg(p):
    p.add_argument("--ground-cap", type=int, default=DEFAULT_GROUND_CAP,
                   help="abort grounding once its join streams more than this many"
                        " candidate bindings, counted over all schemas")


def _add_generator_args(p):
    p.add_argument("--generator", default=NUMERIC, choices=STRATEGIES,
                   help=f"candidate generation strategy (default: {NUMERIC})")
    _add_ground_cap_arg(p)


def _add_limit_args(p):
    p.add_argument("--time-limit", type=float, default=None, help="seconds of wall clock")
    p.add_argument("--node-cap", type=int, default=None, help="max expansions")
    p.add_argument("--mem-limit", type=float, default=None, help="approximate MB cap")


def build_parser() -> _Parser:
    parser = _Parser(prog="lnplan", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find a minimum-length plan with blind search")
    _add_task_args(p)
    _add_generator_args(p)
    _add_limit_args(p)
    p.add_argument("--plan-out", default=None, help="write the plan to this file")
    p.add_argument("--report-out", default=None, help="write a JSON run report to this file")
    p.add_argument("--tolerance", type=float, default=0.0,
                   help="numeric slack for the plan-validation report only;"
                        " semantics stay exact (default: 0)")

    p = sub.add_parser("successors", help="list applicable actions in the initial state")
    _add_task_args(p)
    _add_generator_args(p)
    p.add_argument("--dump-graph", action="store_true",
                   help="print the consistency graph per schema, with exclusion reasons")

    p = sub.add_parser("ground", help="precompute the ground-action store")
    _add_task_args(p)
    _add_ground_cap_arg(p)
    p.add_argument("--list", action="store_true", help="print every stored action")

    p = sub.add_parser("bench", help="run a task suite under several strategies")
    p.add_argument("--suite", required=True,
                   help="directory scanned for domain.pddl plus problem*.pddl pairs")
    p.add_argument("--strategies", default=",".join(STRATEGIES),
                   help="comma-separated strategy list")
    _add_limit_args(p)
    p.add_argument("--out", required=True, help="JSONL output path")
    p.add_argument("--csv", default=None, help="optional CSV summary path")
    p.add_argument("--per-expansion", action="store_true",
                   help="record per-expansion candidate counts in the reports")

    p = sub.add_parser("check-exactness",
                       help="report whether candidate generation is provably exact")
    p.add_argument("--domain", required=True)

    p = sub.add_parser("satgadget", help="compile a DIMACS CNF into a constraint gadget")
    p.add_argument("--cnf", required=True, help="DIMACS file, or - for stdin")
    p.add_argument("--out", default=None, help="write the snippet here instead of stdout")

    return parser


def _load(args) -> Task:
    return load_task(args.domain, args.problem)


def _config(strategy: str, ground_cap: int = DEFAULT_GROUND_CAP) -> GeneratorConfig:
    """Generator settings from the command line; a bad value is a usage error."""
    try:
        return GeneratorConfig(strategy, ground_cap)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _limits(args) -> search.Limits:
    """Search limits from the command line; a bad value is a usage error."""
    try:
        return search.Limits(time_s=args.time_limit, nodes=args.node_cap,
                             memory_mb=args.mem_limit)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def cmd_solve(args) -> int:
    if not args.tolerance >= 0:  # also rejects nan
        raise _UsageError("tolerance must be non-negative")
    config = _config(args.generator, args.ground_cap)
    limits = _limits(args)
    task = _load(args)
    result = search.solve(task, config, limits)
    report = metrics.report_from_result(Path(args.problem).stem, args.generator, result,
                                        keep_per_expansion=False)
    if result.status == search.SOLVED:
        plan_text = search.format_plan(result.plan)
        check = search.validate(task, result.plan, tolerance=args.tolerance)
        plan_text += f"; validation: {'valid' if check.valid else 'INVALID'}" \
                     f" (tolerance={args.tolerance})\n"
        sys.stdout.write(plan_text)
        if args.plan_out:
            Path(args.plan_out).write_text(plan_text)
    elif result.status == search.UNSOLVABLE:
        print("; unsolvable: reachable space exhausted")
    else:
        print(f"; limit reached: {result.limit_hit}")
    if args.report_out:
        Path(args.report_out).write_text(json.dumps(report.to_json(), indent=2) + "\n")
    log.info("solve finished: %s in %.3fs, %d expansions",
             result.status, result.stats.wall_time_s, result.stats.expansions)
    return {search.SOLVED: EXIT_OK, search.UNSOLVABLE: EXIT_UNSOLVABLE,
            search.LIMIT: EXIT_LIMIT}[result.status]


def cmd_successors(args) -> int:
    config = _config(args.generator, args.ground_cap)
    task = _load(args)
    generator = SuccessorGenerator(task, config)
    ctx = generator.context(task.init)
    if args.dump_graph:
        for schema in task.schemas:
            print(build_graph(schema, ctx, numeric=config.strategy == NUMERIC,
                              record=True).dump())
    actions, report = generator.applicable(task.init, ctx)
    for action in actions:
        print(action.pddl())
    print(json.dumps({"candidates": report.candidates, "applicable": report.applicable}))
    return EXIT_OK


def cmd_ground(args) -> int:
    config = _config(GROUNDED, args.ground_cap)
    task = _load(args)
    store = ground_all(task, cap=config.ground_cap)
    for schema in task.schemas:
        actions = store.for_schema(schema.name)
        print(f"; {schema.name}: {len(actions)} ground actions")
        if args.list:
            for action in actions:
                print(action.pddl())
    print(f"; total: {store.total}")
    return EXIT_OK


def cmd_bench(args) -> int:
    configs = [_config(s.strip()) for s in args.strategies.split(",") if s.strip()]
    if not configs:
        raise _UsageError("--strategies names no strategy")
    limits = _limits(args)
    if not metrics.discover_suite(args.suite):
        raise _UsageError(f"no domain.pddl with a problem*.pddl under {args.suite}")
    reports = metrics.run_suite(args.suite, configs, limits,
                                keep_per_expansion=args.per_expansion)
    metrics.write_jsonl(reports, args.out)
    if args.csv:
        Path(args.csv).write_text(metrics.summarize_csv(reports))
    for r in reports:
        oa = "null" if r.oa is None else f"{r.oa:.2f}"
        print(f"{r.task} {r.strategy} status={r.status} time={r.wall_time_s:.3f}s"
              f" expansions={r.expansions} oa={oa}")
    return EXIT_OK


# what can fail, per flag of a model.EffectCheck
_EFFECT_FAILURES = ("expression may be undefined", "divisor may be 0",
                    "target may be undefined", "may conflict with another effect")


def cmd_check_exactness(args) -> int:
    with open(args.domain) as fh:
        domain = parse_domain(fh.read(), args.domain)
    violations = exactness_violations(domain)
    if not violations:
        print("exactness guaranteed: all precondition elements have arity <= 2")
    else:
        for schema, element, why in violations:
            print(f"exactness NOT guaranteed: {schema}/{element} ({why})")
    for schema in domain.schemas:
        for element in wide_elements(schema):
            under = "" if isinstance(element, Literal) else " under the numeric strategy"
            print(f"decided while enumerating cliques{under}: {schema.name}/{element!r}")
    # with no problem, only the terms a precondition constraint reads count
    # as defined
    for schema in domain.schemas:
        for check in residual_check(schema, NUMERIC).effects:
            what = "; ".join(text for flag, text in zip(check[1:], _EFFECT_FAILURES) if flag)
            print(f"effect condition checked: {schema.name}/{check.effect!r} ({what})")
    return EXIT_OK


def cmd_satgadget(args) -> int:
    if args.cnf == "-":
        text = sys.stdin.read()
    else:
        with open(args.cnf) as fh:
            text = fh.read()
    try:
        cnf = satgadget.parse_dimacs(text)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    snippet = satgadget.to_problem_text(satgadget.encode(cnf))
    if args.out:
        Path(args.out).write_text(snippet)
    else:
        sys.stdout.write(snippet)
    return EXIT_OK


_COMMANDS = {
    "solve": cmd_solve,
    "successors": cmd_successors,
    "ground": cmd_ground,
    "bench": cmd_bench,
    "check-exactness": cmd_check_exactness,
    "satgadget": cmd_satgadget,
}


def _setup_logging() -> None:
    level_name = os.environ.get("LNP_LOG", "warning").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ParseError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INPUT
    except GroundLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
