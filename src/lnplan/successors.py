"""Applicable-action generation: four strategies behind one exact filter.

Strategies:
  numeric        consistency graph with the numeric-constraint rules, built
                 for every schema, parameter-free ones included
  propositional  the same graph without them
  exhaustive     every binding over the parameters' static pools
  grounded       a join-grounded store, built once from the cliques of each
                 schema's static graph, scanned per state

Every strategy streams candidate ground actions that are then passed through
an exact filter, so all four agree on the final set; they differ only in how
many candidates they touch, which the CandidateReport records per expansion.
Each ground action is built once per generator: `grounded` builds its store
once, and the other strategies intern the actions they build, per schema by
the binding's key, so that a binding streamed in an earlier state costs one
lookup, and the action's binding map and ground effects are reused with it
(see `SuccessorGenerator`).

The filter checks only what a strategy leaves undecided. Per schema and
strategy, `residual_check` compiles the applicability conditions that one of
its candidates can still fail, once per generator (on first use): the
precondition elements the strategy does not decide and the effect
conditions that no static argument rules out. The graph strategies decide
the elements on three or more variables while enumerating cliques, and the
range tables read a term bound at every position exactly, whatever its
arity, so `numeric` leaves no precondition element. A schema whose residual
is empty costs no filter call. The residual relies on two facts about the
task's states. They share the static atoms and fluents of the initial state
by construction (its static part, which every successor passes on), and
they define every fluent the initial state defines, since no effect
undefines a fluent.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .cliques import iter_cliques
from .consistency import StateContext, TaskStatics, build_graph, static_graph, task_statics
from .model import (
    ASSIGN,
    SCALE_DOWN,
    ActionSchema,
    Check,
    Constant,
    EffectCheck,
    Expr,
    FunctionTerm,
    GroundAction,
    Literal,
    NO_STATIC_FACTS,
    NumericConstraint,
    Object,
    State,
    Task,
    effects_compatible,
    expr_value,
    function_terms,
    is_applicable,
)

NUMERIC = "numeric"
PROPOSITIONAL = "propositional"
EXHAUSTIVE = "exhaustive"
GROUNDED = "grounded"
STRATEGIES = (NUMERIC, PROPOSITIONAL, EXHAUSTIVE, GROUNDED)

DEFAULT_GROUND_CAP = 1_000_000
# the grounding join reads the clock once per this many streamed cliques
_DEADLINE_STRIDE = 4096


@dataclass(frozen=True)
class GeneratorConfig:
    strategy: str = NUMERIC
    ground_cap: int = DEFAULT_GROUND_CAP

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not self.ground_cap > 0:  # also rejects nan
            raise ValueError("ground_cap must be positive")


@dataclass
class CandidateReport:
    """Per-expansion accounting: candidates streamed vs. survivors."""

    candidates: int = 0
    applicable: int = 0


class GroundLimitError(Exception):
    def __init__(self, cap: int, schema: str):
        super().__init__(f"grounding join streams more than {cap} candidates at schema {schema}")
        self.cap = cap
        self.schema = schema


class GroundDeadlineError(Exception):
    """The grounding join was still running at its deadline."""


@dataclass
class GroundStore:
    by_schema: dict[str, tuple[GroundAction, ...]]
    total: int

    def for_schema(self, name: str) -> tuple[GroundAction, ...]:
        return self.by_schema.get(name, ())


def ground_all(task: Task, cap: int = DEFAULT_GROUND_CAP,
               deadline: Optional[float] = None) -> GroundStore:
    """Every binding whose static precondition literals hold, per schema in
    object-index order.

    The bindings are joined, not enumerated: they are the cliques of the
    schema's static graph (`consistency.static_graph`), which decides every
    static literal, those of three or more variables in the clique search.

    Raises GroundLimitError once the join has streamed more than `cap`
    cliques over all schemas; that blowup is exactly what the lifted
    strategies avoid. The store holds what the join streams, so it needs no
    cap of its own. Raises GroundDeadlineError when `time.perf_counter()`
    has reached the deadline at the first clique or at one of every
    `_DEADLINE_STRIDE` after it.
    """
    statics = task_statics(task)
    objects = statics.objects
    n = len(objects)
    by_schema: dict[str, tuple[GroundAction, ...]] = {}
    streamed = 0
    for schema in task.schemas:
        kept: list[tuple[int, ...]] = []
        for clique in iter_cliques(static_graph(schema, statics)):
            if (deadline is not None and streamed % _DEADLINE_STRIDE == 0
                    and time.perf_counter() >= deadline):
                raise GroundDeadlineError
            streamed += 1
            if streamed > cap:
                raise GroundLimitError(cap, schema.name)
            kept.append(tuple(v - p * n for p, v in enumerate(clique)))
        kept.sort()
        by_schema[schema.name] = tuple(
            GroundAction(schema, tuple([objects[oi] for oi in combo])) for combo in kept)
    return GroundStore(by_schema, sum(map(len, by_schema.values())))


def undecided_preconditions(schema: ActionSchema, strategy: str, static: frozenset[str]
                            ) -> tuple[tuple[Literal, ...], tuple[NumericConstraint, ...]]:
    """The precondition literals and constraints that a candidate of the
    strategy can still fail; `static` names the static predicates.

    - numeric: none. The graph decides every element on at most two
      variables, reading each function term at its exact value where the
      element's variables are bound, and the clique search the rest.
    - propositional: every constraint.
    - grounded: the literals on dynamic predicates plus every constraint;
      `ground_all` keeps only bindings whose static literals hold.
    - exhaustive: every element.
    """
    literals, constraints = schema.pre_literals, schema.pre_constraints
    return {
        NUMERIC: ((), ()),
        PROPOSITIONAL: ((), constraints),
        GROUNDED: (tuple(lit for lit in literals if lit.atom.predicate.name not in static),
                   constraints),
        EXHAUSTIVE: (literals, constraints),
    }[strategy]


def fallible_effects(schema: ActionSchema, statics: Optional[TaskStatics] = None,
                     numeric: bool = False) -> tuple[EffectCheck, ...]:
    """The effect conditions that an action of the schema whose preconditions
    hold can still fail, in any state reachable from the initial state.

    A condition is left out only when a static argument rules its failure
    out:
    - a /= by a constant expression with a nonzero value cannot divide by 0;
    - an expression of constants and always-defined terms, in which every
      divisor is such a constant expression, is defined;
    - a term that a precondition constraint reads is defined, because a
      constraint holds only when both its sides are;
    - a term is always defined when the initial state defines its function
      for every object tuple over the parameters' static pools
      (`TaskStatics.pools` of the plan with or without the `numeric` rules),
      because no effect undefines a fluent;
    - effects on one function that are all additive or all multiplicative,
      or that are the only effect on it, cannot conflict.
    Without `statics` (a domain with no problem) only the terms that the
    preconditions read count as defined.
    """
    defined = _always_defined_terms(schema, statics, numeric)
    ops: dict[str, list[str]] = {}
    for eff in schema.eff_numeric:
        ops.setdefault(eff.target.function.name, []).append(eff.op)
    out = []
    for eff in schema.eff_numeric:
        check = EffectCheck(
            eff,
            defined=not _always_defined(eff.expr, defined),
            nonzero=eff.op == SCALE_DOWN and not _nonzero_constant(eff.expr),
            target=eff.op != ASSIGN and not defined(eff.target),
            conflict=not effects_compatible(ops[eff.target.function.name]),
        )
        if any(check[1:]):
            out.append(check)
    return tuple(out)


def residual_check(schema: ActionSchema, strategy: str,
                   statics: Optional[TaskStatics] = None) -> Check:
    """What the exact filter must still check of the strategy's candidates
    for the schema (see `undecided_preconditions` and `fallible_effects`).

    Without `statics` (a domain with no problem) every predicate counts as
    dynamic, and only the terms that a precondition constraint reads count
    as defined.
    """
    static = statics.predicates if statics is not None else frozenset()
    return Check(*undecided_preconditions(schema, strategy, static),
                 fallible_effects(schema, statics, numeric=strategy == NUMERIC))


def _nonzero_constant(expr: Expr) -> bool:
    """Is the expression free of function terms, with a value other than 0?"""
    if next(function_terms(expr), None) is not None:
        return False
    value = expr_value(NO_STATIC_FACTS, expr)
    return value is not None and value != 0.0


def _always_defined(expr: Expr, defined) -> bool:
    if isinstance(expr, Constant):
        return True
    if isinstance(expr, FunctionTerm):
        return defined(expr)
    if expr.op == "/" and not _nonzero_constant(expr.right):
        return False
    return _always_defined(expr.left, defined) and _always_defined(expr.right, defined)


def _always_defined_terms(schema: ActionSchema, statics: Optional[TaskStatics], numeric: bool):
    """A test of whether a function term of the schema is defined under every
    binding that satisfies the schema's preconditions, in every state
    reachable from the initial state."""
    read = {term for con in schema.pre_constraints for term in function_terms(con)}
    if statics is None:
        return read.__contains__
    fluents = statics.init.fluents
    counts = Counter(term.function.name for term in fluents)
    pool = dict(zip(schema.params, statics.pools(schema, numeric)))

    def defined(term: FunctionTerm) -> bool:
        if term in read:
            return True
        # positions are filled independently, which asks for more tuples than
        # a repeated variable needs and so stays sound
        pools = [(arg,) if type(arg) is Object else pool[arg] for arg in term.args]
        if counts[term.function.name] < math.prod(map(len, pools)):
            return False
        # a term with no instance is in no state; None is no key of `fluents`
        name = term.function.name
        return all(FunctionTerm.find((name, args)) in fluents
                   for args in itertools.product(*pools))

    return defined


class SuccessorGenerator:
    """Per-task generator; builds the grounded store once when needed, by
    the deadline if one is given (see `ground_all`).

    The lifted strategies build each distinct ground action once per
    generator. Per schema, a table maps the key of each binding they have
    streamed, a clique's vertex-id tuple or, under exhaustive, the object
    tuple, to its action, which every later state reuses along with what the
    action derives from its binding: its binding map, ground effects and
    delta (`GroundAction.ground_effects`, `GroundAction.delta`). A table
    holds at most one action per distinct binding streamed, at most as many
    as the candidates, and lives as long as the generator.
    """

    def __init__(self, task: Task, config: GeneratorConfig = GeneratorConfig(),
                 deadline: Optional[float] = None):
        self.task = task
        self.config = config
        self.store: Optional[GroundStore] = (
            ground_all(task, config.ground_cap, deadline) if config.strategy == GROUNDED else None
        )
        self._actions: defaultdict[str, dict[tuple, GroundAction]] = defaultdict(dict)

    @cached_property
    def checks(self) -> tuple[tuple[ActionSchema, Optional[Check]], ...]:
        """Each schema with its residual check, or None when the residual is
        empty; compiled on first use, like the graph plans."""
        statics = task_statics(self.task)
        return tuple((schema, residual_check(schema, self.config.strategy, statics) or None)
                     for schema in self.task.schemas)

    def context(self, state: State) -> StateContext:
        return StateContext(self.task, state)

    def candidates(self, schema: ActionSchema, state: State,
                   ctx: Optional[StateContext] = None) -> Sequence[GroundAction]:
        """The candidate ground actions for one schema, in stream order."""
        strategy = self.config.strategy
        if strategy == GROUNDED:
            return self.store.for_schema(schema.name)
        table = self._actions[schema.name]
        get = table.get
        if strategy == EXHAUSTIVE:
            pools = task_statics(self.task).pools(schema, numeric=False)
            return [get(combo) or _built(table, combo, schema, combo)
                    for combo in itertools.product(*pools)]
        if ctx is None:
            ctx = self.context(state)
        graph = build_graph(schema, ctx, numeric=strategy == NUMERIC)
        objects = ctx.objects
        n = len(objects)
        return [get(clique) or _built(table, clique, schema,
                                      tuple([objects[v - p * n] for p, v in enumerate(clique)]))
                for clique in iter_cliques(graph)]

    def applicable(self, state: State, ctx: Optional[StateContext] = None
                   ) -> tuple[list[GroundAction], CandidateReport]:
        """Exactly the applicable ground actions, plus candidate accounting.

        Each candidate is filtered by its schema's residual check only, so the
        state must be one the residual is compiled for (see the module
        docstring): any state reachable from the task's initial state.
        """
        if ctx is None and self.config.strategy in (NUMERIC, PROPOSITIONAL):
            ctx = self.context(state)
        out: list[GroundAction] = []
        streamed = 0
        for schema, check in self.checks:
            found = self.candidates(schema, state, ctx)
            streamed += len(found)
            if check is None:
                out += found
            else:
                out += [action for action in found if is_applicable(state, action, check)]
        return out, CandidateReport(streamed, len(out))


def _built(table: dict, key: tuple, schema: ActionSchema, binding: tuple) -> GroundAction:
    """The action of a binding a generator has not streamed yet, kept in its table."""
    table[key] = action = GroundAction(schema, binding)
    return action
