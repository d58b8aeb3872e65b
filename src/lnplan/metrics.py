"""Run instrumentation: overapproximation ratios, timings, expansion counts.

A RunReport aggregates one (task, strategy) run. The overapproximation ratio
is total candidates over total applicable across the whole run, rounded to
two decimals; it is null when nothing was applicable. Reports serialize to
JSON lines, with an optional CSV summary for spreadsheets.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from . import search
from .pddl import load_task
from .successors import GeneratorConfig


@dataclass
class RunReport:
    task: str
    strategy: str
    solved: bool
    status: str
    wall_time_s: float
    expansions: int
    candidates: int
    applicable: int
    oa: Optional[float]
    cost: Optional[int] = None
    limit_hit: Optional[str] = None
    per_expansion: Optional[list[tuple[int, int]]] = None

    def to_json(self) -> dict:
        data = {
            "task": self.task,
            "strategy": self.strategy,
            "solved": self.solved,
            "status": self.status,
            "wall_time_s": round(self.wall_time_s, 4),
            "expansions": self.expansions,
            "candidates": self.candidates,
            "applicable": self.applicable,
            "oa": self.oa,
            "cost": self.cost,
            "limit_hit": self.limit_hit,
        }
        if self.per_expansion is not None:
            data["per_expansion"] = [list(pair) for pair in self.per_expansion]
        return data


def overapproximation(candidates: int, applicable: int) -> Optional[float]:
    if applicable == 0:
        return None
    return round(candidates / applicable, 2)


def report_from_result(task_id: str, strategy: str, result: search.SolveResult,
                       keep_per_expansion: bool = True) -> RunReport:
    """The report of one solve, from its run totals."""
    stats = result.stats
    return RunReport(
        task=task_id,
        strategy=strategy,
        solved=result.status == search.SOLVED,
        status=result.status,
        wall_time_s=stats.wall_time_s,
        expansions=stats.expansions,
        candidates=stats.candidates,
        applicable=stats.applicable,
        oa=overapproximation(stats.candidates, stats.applicable),
        cost=result.cost,
        limit_hit=result.limit_hit,
        per_expansion=list(stats.per_expansion) if keep_per_expansion else None,
    )


def write_jsonl(reports: Iterable[RunReport], path) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(json.dumps(report.to_json()) + "\n")


CSV_COLUMNS = ("task", "strategy", "status", "wall_time_s", "expansions",
               "candidates", "applicable", "oa", "cost")


def summarize_csv(reports: Iterable[RunReport]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in reports:
        oa = "" if r.oa is None else f"{r.oa:.2f}"
        cost = "" if r.cost is None else str(r.cost)
        lines.append(
            f"{r.task},{r.strategy},{r.status},{r.wall_time_s:.3f},"
            f"{r.expansions},{r.candidates},{r.applicable},{oa},{cost}"
        )
    return "\n".join(lines) + "\n"


def discover_suite(suite_dir) -> list[tuple[str, Path, Path]]:
    """Find (task id, domain file, problem file) triples under a directory.

    Convention: any directory containing domain.pddl forms one entry per
    sibling problem*.pddl file.
    """
    suite_dir = Path(suite_dir)
    tasks = []
    for domain_path in sorted(suite_dir.rglob("domain.pddl")):
        base = domain_path.parent
        for problem_path in sorted(base.glob("problem*.pddl")):
            stem = problem_path.stem
            task_id = base.name if stem == "problem" else f"{base.name}:{stem}"
            tasks.append((task_id, domain_path, problem_path))
    return tasks


def run_suite(suite_dir, configs: Sequence[GeneratorConfig],
              limits: search.Limits = search.Limits(), *,
              keep_per_expansion: bool = False) -> list[RunReport]:
    """Solve every task in the suite under every generator config and report."""
    reports = []
    for task_id, domain_path, problem_path in discover_suite(suite_dir):
        task = load_task(domain_path, problem_path)
        for config in configs:
            result = search.solve(task, config, limits)
            reports.append(report_from_result(task_id, config.strategy, result,
                                              keep_per_expansion))
    return reports
