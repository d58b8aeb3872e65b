"""Applicable-action generation: four strategies behind one exact filter.

Strategies:
  numeric        consistency graph with the numeric-constraint rules
  propositional  the same graph without them
  exhaustive     every type-consistent total binding
  grounded       a precomputed per-schema store, statically pruned, scanned
                 per state

Every strategy streams candidate ground actions that are then passed through
the exact applicability check, so all four agree on the final set; they
differ only in how many candidates they touch, which the CandidateReport
records per expansion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .cliques import iter_cliques
from .consistency import StateContext, build_graph
from .model import (
    ActionSchema,
    GroundAction,
    State,
    Task,
    constraint_holds,
    is_applicable,
    literal_holds,
    static_function_names,  # re-exported: the one definition of "static"
    static_predicate_names,
)

NUMERIC = "numeric"
PROPOSITIONAL = "propositional"
EXHAUSTIVE = "exhaustive"
GROUNDED = "grounded"
STRATEGIES = (NUMERIC, PROPOSITIONAL, EXHAUSTIVE, GROUNDED)

DEFAULT_GROUND_CAP = 1_000_000


@dataclass(frozen=True)
class GeneratorConfig:
    strategy: str = NUMERIC
    ground_cap: int = DEFAULT_GROUND_CAP

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.ground_cap <= 0:
            raise ValueError("ground_cap must be positive")


@dataclass
class CandidateReport:
    """Per-expansion accounting: candidates streamed vs. survivors."""

    candidates: int = 0
    applicable: int = 0


class GroundLimitError(Exception):
    def __init__(self, cap: int, schema: str):
        super().__init__(f"ground-action store exceeds cap {cap} at schema {schema}")
        self.cap = cap
        self.schema = schema


@dataclass
class GroundStore:
    by_schema: dict[str, tuple[GroundAction, ...]]
    total: int

    def for_schema(self, name: str) -> tuple[GroundAction, ...]:
        return self.by_schema.get(name, ())


def ground_all(task: Task, cap: int = DEFAULT_GROUND_CAP) -> GroundStore:
    """Enumerate per-schema type-consistent bindings, dropping statically false ones.

    Raises GroundLimitError once the enumeration or the store passes `cap`;
    that blowup is exactly what the lifted strategies avoid.
    """
    ctx = StateContext(task, task.init)
    static = ctx.statics.predicates
    by_schema: dict[str, tuple[GroundAction, ...]] = {}
    total = 0
    enumerated = 0
    for schema in task.schemas:
        static_pre = [
            lit for lit in schema.pre_literals if lit.atom.predicate.name in static
        ]
        pools = [ctx.typed_objects(t) for t in _param_types(schema)]
        kept: list[GroundAction] = []
        for combo in itertools.product(*pools):
            enumerated += 1
            if enumerated > cap:
                raise GroundLimitError(cap, schema.name)
            action = GroundAction(schema, combo)
            binding = action.binding_map()
            if all(literal_holds(task.init, lit, binding) for lit in static_pre):
                kept.append(action)
                total += 1
                if total > cap:
                    raise GroundLimitError(cap, schema.name)
        by_schema[schema.name] = tuple(kept)
    return GroundStore(by_schema, total)


def _param_types(schema: ActionSchema) -> tuple[Optional[str], ...]:
    if schema.param_types:
        return schema.param_types
    return (None,) * len(schema.params)


class SuccessorGenerator:
    """Per-task generator; builds the grounded store once when needed."""

    def __init__(self, task: Task, config: GeneratorConfig = GeneratorConfig()):
        self.task = task
        self.config = config
        self.store: Optional[GroundStore] = (
            ground_all(task, config.ground_cap) if config.strategy == GROUNDED else None
        )

    def context(self, state: State) -> StateContext:
        return StateContext(self.task, state)

    def candidates(self, schema: ActionSchema, state: State,
                   ctx: Optional[StateContext] = None) -> Iterator[GroundAction]:
        """Stream of candidate ground actions for one schema."""
        strategy = self.config.strategy
        if strategy == GROUNDED:
            yield from self.store.for_schema(schema.name)
            return
        if ctx is None:
            ctx = self.context(state)
        if strategy == EXHAUSTIVE:
            pools = [ctx.typed_objects(t) for t in _param_types(schema)]
            for combo in itertools.product(*pools):
                yield GroundAction(schema, combo)
            return
        numeric = strategy == NUMERIC
        if not schema.params:
            # no graph for arity 0; decide by direct ground evaluation
            ok = all(literal_holds(state, lit) for lit in schema.pre_literals)
            if ok and numeric:
                ok = all(constraint_holds(state, c) for c in schema.pre_constraints)
            if ok:
                yield GroundAction(schema, ())
            return
        graph = build_graph(schema, ctx, numeric=numeric)
        objects = ctx.objects
        n = len(objects)
        for clique in iter_cliques(graph):
            yield GroundAction(
                schema, tuple(objects[v - p * n] for p, v in enumerate(clique))
            )

    def applicable(self, state: State, ctx: Optional[StateContext] = None
                   ) -> tuple[list[GroundAction], CandidateReport]:
        """Exactly the applicable ground actions, plus candidate accounting."""
        if ctx is None and self.config.strategy in (NUMERIC, PROPOSITIONAL, EXHAUSTIVE):
            ctx = self.context(state)
        report = CandidateReport()
        out: list[GroundAction] = []
        for schema in self.task.schemas:
            for action in self.candidates(schema, state, ctx):
                report.candidates += 1
                if is_applicable(state, action):
                    out.append(action)
        report.applicable = len(out)
        return out, report
