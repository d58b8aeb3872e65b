"""Blind forward search: breadth-first with duplicate detection.

Actions cost one, so breadth-first order (FIFO among equal g-values) is
uniform-cost order and the first plan found is a shortest one. The goal is
tested at expansion. A state is queued only when first generated, which is
at its least g; later copies are dropped against a seen set of state keys.
Each successor's key is derived from its parent's key and the action's
delta before any state is built (`model.successor_key`), so a duplicate
costs its key and one probe, and only a new key gets a `State`.
Resource limits are enforced in-process: a wall-clock deadline, which the
grounding join checks too, an expansion cap, and a stored-state cap
standing in for a memory bound.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .model import (
    GroundAction,
    Task,
    applicability_failure,
    apply,
    goal_satisfied,
    keyed_successor,
    successor_key,
)
from .successors import GeneratorConfig, GroundDeadlineError, GroundLimitError, SuccessorGenerator

SOLVED = "solved"
UNSOLVABLE = "unsolvable"
LIMIT = "limit"

# bytes per stored state used to turn a memory bound into a state cap: above
# tracemalloc's peak over a numeric solve divided by its stored states, which
# reads 555 B on farmland (8 farms, 8 units), 762 B on farmland (6, 5) and
# 837 B on relay (40 waypoints, node cap 2,000) under CPython 3.11
_STATE_BYTES_ESTIMATE = 1024


@dataclass(frozen=True)
class Limits:
    time_s: Optional[float] = None
    nodes: Optional[int] = None
    states: Optional[int] = None
    memory_mb: Optional[float] = None

    def __post_init__(self):
        for name in ("time_s", "nodes", "states", "memory_mb"):
            value = getattr(self, name)
            if value is not None and not value >= 0:  # also rejects nan
                raise ValueError(f"{name} must be non-negative")

    def state_cap(self) -> Optional[int]:
        """The stored-state cap; an infinite memory limit sets none."""
        caps = []
        if self.states is not None:
            caps.append(self.states)
        if self.memory_mb is not None and self.memory_mb != math.inf:
            caps.append(max(1, int(self.memory_mb * 1024 * 1024 / _STATE_BYTES_ESTIMATE)))
        return min(caps) if caps else None


@dataclass
class SolveStats:
    expansions: int = 0
    generated: int = 0
    candidates: int = 0
    applicable: int = 0
    wall_time_s: float = 0.0
    per_expansion: list[tuple[int, int]] = field(default_factory=list)
    g_trace: list[int] = field(default_factory=list)  # g-value per expansion


@dataclass
class SolveResult:
    status: str  # solved | unsolvable | limit
    plan: Optional[list[GroundAction]] = None
    limit_hit: Optional[str] = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def cost(self) -> Optional[int]:
        return len(self.plan) if self.plan is not None else None


class _Node:
    __slots__ = ("state", "parent", "action", "g")

    def __init__(self, state, parent, action, g):
        self.state = state
        self.parent = parent
        self.action = action
        self.g = g


def solve(task: Task, config: GeneratorConfig = GeneratorConfig(),
          limits: Limits = Limits()) -> SolveResult:
    """Minimum-length plan, or proof of unsolvability, within the limits."""
    stats = SolveStats()
    start = time.perf_counter()

    def finish(status, plan=None, limit_hit=None):
        stats.wall_time_s = time.perf_counter() - start
        return SolveResult(status, plan, limit_hit, stats)

    deadline = None if limits.time_s is None else start + limits.time_s
    try:
        generator = SuccessorGenerator(task, config, deadline)
    except GroundLimitError as exc:
        return finish(LIMIT, limit_hit=f"ground-store-cap: {exc}")
    except GroundDeadlineError:
        return finish(LIMIT, limit_hit="time")

    queue = deque([_Node(task.init, None, None, 0)])
    seen = {task.init.key()}
    state_cap = limits.state_cap()

    while queue:
        node = queue.popleft()
        if goal_satisfied(node.state, task):
            return finish(SOLVED, plan=_extract_plan(node))
        if deadline is not None and time.perf_counter() >= deadline:
            return finish(LIMIT, limit_hit="time")
        if limits.nodes is not None and stats.expansions >= limits.nodes:
            return finish(LIMIT, limit_hit="nodes")
        stats.expansions += 1
        stats.g_trace.append(node.g)

        actions, report = generator.applicable(node.state)
        stats.candidates += report.candidates
        stats.applicable += report.applicable
        stats.per_expansion.append((report.candidates, report.applicable))
        state, child_g = node.state, node.g + 1
        for action in actions:
            key = successor_key(state, action)
            if key in seen:
                continue
            seen.add(key)
            stats.generated += 1
            queue.append(_Node(keyed_successor(state, action, key), node, action, child_g))
        if state_cap is not None and len(seen) > state_cap:
            return finish(LIMIT, limit_hit="states" if state_cap == limits.states else "memory")
    return finish(UNSOLVABLE)


def _extract_plan(node: _Node) -> list[GroundAction]:
    plan = []
    while node.parent is not None:
        plan.append(node.action)
        node = node.parent
    plan.reverse()
    return plan


@dataclass
class ValidationResult:
    valid: bool
    cost: Optional[int] = None
    failed_index: Optional[int] = None
    reason: Optional[str] = None


def validate(task: Task, plan: list[GroundAction], tolerance: float = 0.0) -> ValidationResult:
    """Replay the plan from the initial state and check the goal.

    The tolerance loosens numeric comparisons during this replay only: a
    comparison holds when it holds exactly or within the slack. Definedness,
    literal truth, the effect conditions and state evolution remain exact.
    The default is exact.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    state = task.init
    for index, action in enumerate(plan):
        failure = applicability_failure(state, action, tolerance)
        if failure is not None:
            return ValidationResult(False, failed_index=index,
                                    reason=f"step {index} {action.pddl()}: {failure}")
        state = apply(state, action)
    if not goal_satisfied(state, task, tolerance):
        return ValidationResult(False, failed_index=len(plan), reason="goal not satisfied")
    return ValidationResult(True, cost=len(plan))


def format_plan(plan: list[GroundAction]) -> str:
    lines = [action.pddl() for action in plan]
    lines.append(f"; cost = {len(plan)} (unit cost)")
    return "\n".join(lines) + "\n"
