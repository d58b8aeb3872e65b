"""Applicable-action generation: four strategies behind one exact filter.

Strategies:
  numeric        consistency graph with the numeric-constraint rules, built
                 for every schema, parameter-free ones included
  propositional  the same graph without them
  exhaustive     every binding over the parameters' static pools
  grounded       a store built once by a hash join over the static atoms,
                 with the constraints on static functions decided per
                 binding, scanned per state

Every strategy streams candidate ground actions that are then passed through
an exact filter, so all four agree on the final set; they differ only in how
many candidates they touch, which the CandidateReport records per expansion.
Each ground action is built once per generator: `grounded` builds its store
once, and the other strategies intern the actions they build, per schema by
the binding's key, so that a binding streamed in an earlier state costs one
lookup. What an action grounds on first use is reused with it in every
later state: its binding map, the ground atoms of its precondition
literals, which the filter tests against each state, and its ground effects
(see `GroundAction` and `SuccessorGenerator`).

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
from operator import itemgetter
from typing import Optional, Sequence

from .cliques import iter_cliques
from .consistency import StateContext, TaskStatics, build_graph, task_statics
from .model import (
    ASSIGN,
    EQUALITY_NAME,
    SCALE_DOWN,
    ActionSchema,
    Atom,
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
    Variable,
    constraint_holds,
    effects_compatible,
    expr_value,
    free_variables,
    function_terms,
    is_applicable,
)

NUMERIC = "numeric"
PROPOSITIONAL = "propositional"
EXHAUSTIVE = "exhaustive"
GROUNDED = "grounded"
STRATEGIES = (NUMERIC, PROPOSITIONAL, EXHAUSTIVE, GROUNDED)

DEFAULT_GROUND_CAP = 1_000_000
# the grounding join reads the clock once per this many rows it builds
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

    The bindings are joined, not enumerated: a hash join over the task's
    static atoms, grouped by predicate (`TaskStatics.relations`), in the
    steps of `_join_plan`. The bindings it keeps are the cliques of the
    schema's static graph (`consistency.static_graph`), which no grounding
    builds.

    A precondition constraint that reads static functions only
    (`TaskStatics.functions`) has one truth value per binding in every
    state: it is evaluated once per joined row, in the task's static part,
    and a row where it fails is dropped.

    Raises GroundLimitError once the joins have streamed more than `cap`
    bindings over all schemas; that blowup is exactly what the lifted
    strategies avoid. The store holds at most what the joins stream, so it
    needs no cap of its own. Raises GroundDeadlineError when
    `time.perf_counter()` has reached the deadline at one of its readings:
    before a schema's join, every `_DEADLINE_STRIDE` rows the joins build,
    at any step, before a schema's rows are sorted, and every
    `_DEADLINE_STRIDE` actions built from them.
    """
    statics = task_statics(task)
    objects, static = statics.objects, statics.static
    by_schema: dict[str, tuple[GroundAction, ...]] = {}
    streamed = built = 0
    mark = _DEADLINE_STRIDE
    for schema in task.schemas:
        if deadline is not None and time.perf_counter() >= deadline:
            raise GroundDeadlineError
        plan = _join_plan(schema, statics)
        rows: list[tuple[int, ...]] = []
        if plan is not None:
            order, steps = plan
            rows = [()]
            for step in steps:
                key, table, tests = step
                out: list[tuple[int, ...]] = []
                for row in rows:
                    exts = table if key is None else table.get(key(row))
                    if not exts:
                        continue
                    new = [row + ext for ext in exts]
                    for get, members, positive in tests:
                        new = [r for r in new if (get(r) in members) is positive]
                    out += new
                    built += len(exts)
                    if built >= mark:
                        mark = built + _DEADLINE_STRIDE
                        if deadline is not None and time.perf_counter() >= deadline:
                            raise GroundDeadlineError
                    if step is steps[-1] and streamed + len(out) > cap:
                        raise GroundLimitError(cap, schema.name)
                rows = out
            if len(order) > 1 and order != schema.params:
                rows = list(map(itemgetter(*map(order.index, schema.params)), rows))
        streamed += len(rows)
        if streamed > cap:
            raise GroundLimitError(cap, schema.name)
        if deadline is not None and time.perf_counter() >= deadline:
            raise GroundDeadlineError
        rows.sort()
        decided = static_constraints(schema, statics.functions)
        actions: list[GroundAction] = []
        for start in range(0, len(rows), _DEADLINE_STRIDE):
            if start and deadline is not None and time.perf_counter() >= deadline:
                raise GroundDeadlineError
            bindings = [tuple([objects[oi] for oi in combo])
                        for combo in rows[start:start + _DEADLINE_STRIDE]]
            if decided:
                bindings = [binding for binding in bindings
                            if _constraints_hold(static, decided, schema.params, binding)]
            actions += [GroundAction(schema, binding) for binding in bindings]
        by_schema[schema.name] = tuple(actions)
    return GroundStore(by_schema, sum(map(len, by_schema.values())))


def _constraints_hold(state: State, constraints: Sequence[NumericConstraint],
                      params: tuple[Variable, ...], binding: tuple[Object, ...]) -> bool:
    """Do the constraints hold in the state under the parameters' binding?"""
    sub = dict(zip(params, binding))
    return all(constraint_holds(state, con, sub) for con in constraints)


def static_constraints(schema: ActionSchema, functions: frozenset[str]
                       ) -> tuple[NumericConstraint, ...]:
    """The schema's precondition constraints that read only the functions
    named in `functions`, the static ones: each has one truth value per
    binding in every state of the task."""
    return tuple(con for con in schema.pre_constraints
                 if all(term.function.name in functions for term in function_terms(con)))


def _join_plan(schema: ActionSchema, statics: TaskStatics
               ) -> Optional[tuple[tuple[Variable, ...], list[tuple]]]:
    """The steps of the schema's static join, with the variables in the
    order they bind them; None when a static literal rules every binding
    out.

    A row is a tuple of object indexes, one per variable bound so far. Each
    step extends every row by (key, table, tests): table[key(row)], or the
    whole table when key is None, lists the tuples that extend the row, and
    each test (getter, members, positive) keeps a row only when whether
    getter(row) is in members is positive. The static literals take part
    as follows:
    - one without variables holds or rules every binding out;
    - one on a single variable, a type literal among them, narrows that
      variable's pool;
    - the positive ones on more variables, equality among them, are joined
      one at a time: first the smallest relation, then always the smallest
      one that shares a bound variable, or the smallest left when none
      does, each hashed on its shared variables;
    - a parameter that none of them holds ranges over its pool, after them;
    - every literal on more variables is a membership test once all its
      variables are bound: the negative ones, and the positive ones that
      are bound before their turn to be joined, which close a cycle.
    """
    n = len(statics.objects)
    pools: dict[Variable, Optional[set[int]]] = dict.fromkeys(schema.params)
    literals = [lit for lit in schema.pre_literals if lit.atom.predicate.name in statics.predicates]
    for lit in literals:
        if len(free_variables(lit)) > 1:
            continue
        variables, matches = _matches(lit.atom, statics, pools)
        if not variables:
            if bool(matches) != lit.positive:
                return None
            continue
        found = {oi for oi, in matches}
        pool = pools[variables[0]]
        pools[variables[0]] = found if lit.positive else (
            set(range(n)) if pool is None else pool) - found
    if any(pool is not None and not pool for pool in pools.values()):
        return None
    # (variables, matches, positive) per literal on more variables, until
    # a step binds it or all its variables
    pending = [(*_matches(lit.atom, statics, pools), lit.positive)
               for lit in literals if len(free_variables(lit)) > 1]
    if any(positive and not matches for _, matches, positive in pending):
        return None
    free = [var for var in schema.params
            if not any(positive and var in variables for variables, _, positive in pending)]

    order: list[Variable] = []
    steps = []
    while True:
        joins = [lit for lit in pending if lit[2]]
        if joins:
            linked = [join for join in joins if any(var in order for var in join[0])]
            join = min(linked or joins, key=lambda join: len(join[1]))
            pending = [lit for lit in pending if lit is not join]
            variables, matches, _ = join
            shared = [i for i, var in enumerate(variables) if var in order]
            new = [i for i in range(len(variables)) if i not in shared]
            if shared:
                key, table = itemgetter(*[order.index(variables[i]) for i in shared]), {}
                on = itemgetter(*shared)
                ext = itemgetter(*new) if len(new) > 1 else (lambda m, j=new[0]: (m[j],))
                for match in matches:
                    table.setdefault(on(match), []).append(ext(match))
            else:
                key, table = None, matches
            order += [variables[i] for i in new]
        elif free:
            var = free.pop(0)
            pool = pools[var]
            key, table = None, [(oi,) for oi in (range(n) if pool is None else sorted(pool))]
            order.append(var)
        else:
            return tuple(order), steps
        ready = [all(var in order for var in lit[0]) for lit in pending]
        steps.append((key, table, [(itemgetter(*map(order.index, variables)), set(matches), positive)
                                   for (variables, matches, positive), bound in zip(pending, ready)
                                   if bound]))
        pending = [lit for lit, bound in zip(pending, ready) if not bound]


def _matches(atom: Atom, statics: TaskStatics, pools: dict[Variable, Optional[set[int]]]
             ) -> tuple[tuple[Variable, ...], list[tuple[int, ...]]]:
    """The atom's variables in order of first occurrence, and per static atom
    it matches the object indexes they take there, kept where each lies in
    its variable's pool (None: every object). An atom matches when it holds
    the constants and a repeated variable's object at each of its positions;
    equality's atoms are the pairs (o, o) over the task's objects."""
    args = atom.args
    name = atom.predicate.name
    relation = ([(obj, obj) for obj in statics.objects] if name == EQUALITY_NAME
                else statics.relations.get(name, []))
    first: dict[Variable, int] = {}
    for i, arg in enumerate(args):
        if type(arg) is Variable:
            first.setdefault(arg, i)
    consts = [(i, arg) for i, arg in enumerate(args) if type(arg) is Object]
    repeats = [(i, first[arg]) for i, arg in enumerate(args)
               if type(arg) is Variable and first[arg] != i]
    if consts or repeats:
        relation = [t for t in relation if all(t[i] is obj for i, obj in consts)
                    and all(t[i] is t[j] for i, j in repeats)]
    get, positions = statics.index_of.get, tuple(first.values())
    if positions == tuple(range(len(args))):
        rows = [tuple(map(get, t)) for t in relation]
    else:
        rows = [tuple([get(t[i]) for i in positions]) for t in relation]
    pooled = [(j, pools[var]) for j, var in enumerate(first) if pools[var] is not None]
    # an object outside the task's has no index, and no variable binds it
    return tuple(first), [row for row in rows if None not in row
                          and all(row[j] in pool for j, pool in pooled)]


def undecided_preconditions(schema: ActionSchema, strategy: str, static: frozenset[str],
                            functions: frozenset[str]
                            ) -> tuple[tuple[Literal, ...], tuple[NumericConstraint, ...]]:
    """The precondition literals and constraints that a candidate of the
    strategy can still fail; `static` names the static predicates and
    `functions` the static functions.

    - numeric: none. The graph decides every element on at most two
      variables, reading each function term at its exact value where the
      element's variables are bound, and the clique search the rest.
    - propositional: every constraint.
    - grounded: the literals on dynamic predicates plus the constraints
      that read a dynamic function; `ground_all` keeps only bindings whose
      static literals and static constraints hold.
    - exhaustive: every element.
    """
    literals, constraints = schema.pre_literals, schema.pre_constraints
    if strategy == GROUNDED:
        decided = static_constraints(schema, functions)
        return (tuple(lit for lit in literals if lit.atom.predicate.name not in static),
                tuple(con for con in constraints if con not in decided))
    return {
        NUMERIC: ((), ()),
        PROPOSITIONAL: ((), constraints),
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

    Without `statics` (a domain with no problem) every predicate and
    function counts as dynamic, and only the terms that a precondition
    constraint reads count as defined.
    """
    static, functions = ((statics.predicates, statics.functions) if statics is not None
                         else (frozenset(), frozenset()))
    literals, constraints = undecided_preconditions(schema, strategy, static, functions)
    return Check(literals, constraints,
                 fallible_effects(schema, statics, numeric=strategy == NUMERIC),
                 tuple(map(schema.pre_literals.index, literals)))


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
    pool = None  # the parameters' pools, built for the first term the reads leave

    def defined(term: FunctionTerm) -> bool:
        nonlocal pool
        if term in read:
            return True
        if pool is None:
            pool = dict(zip(schema.params, statics.pools(schema, numeric)))
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
    action derives from its binding: its binding map, ground precondition
    atoms, ground effects and delta (`GroundAction.ground_preconditions`,
    `GroundAction.ground_effects`, `GroundAction.delta`). A table
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
