"""Random numeric tasks and brute-force oracles for differential testing.

Two generator modes:
  exact=True    every literal, constraint, and function term mentions at most
                two variables, all function symbols have arity <= 2, fluents
                are total over the object universe with integer values, and
                effects are built so they can never make an action
                inapplicable on their own (no division in effect expressions,
                compatible operators per function symbol). On such tasks the
                applicable actions are exactly the bindings whose
                preconditions hold.
  exact=False   arity-3 predicates/functions/constraints, partial fluent
                maps, division everywhere, assignment and scaling effects,
                and occasional deliberately conflicting effect sets.

Random tasks mostly end within one expansion. `searching_task` builds tasks
whose search runs over dozens to hundreds of states instead: an agent on a
static link graph with static costs and marks, a fuel budget and switches
with bounded counters, so that duplicate detection and state identity are
exercised. `search_record` is what a search test compares of one solve.

The oracles are deliberately naive: enumerate every total binding and filter.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Iterable, Iterator, Optional

from lnplan.model import (
    ASSIGN,
    DECREASE,
    EQUALITY,
    EQUALITY_NAME,
    INCREASE,
    SCALE_DOWN,
    SCALE_UP,
    ActionSchema,
    Atom,
    BinaryExpr,
    Constant,
    FunctionSymbol,
    FunctionTerm,
    GroundAction,
    Literal,
    NumericConstraint,
    NumericEffect,
    Object,
    PredicateSymbol,
    State,
    Task,
    Variable,
    apply,
    constraint_holds,
    expr_value,
    function_terms,
    goal_satisfied,
    is_applicable,
    literal_holds,
    static_function_names,
    static_predicate_names,
    substitute,
)
from lnplan.intervals import ARITH

_UPDATES = {INCREASE: ARITH["+"], DECREASE: ARITH["-"],
            SCALE_UP: ARITH["*"], SCALE_DOWN: ARITH["/"]}


def all_bindings(schema: ActionSchema, objects: Iterable[Object]) -> Iterator[GroundAction]:
    """Every total binding of the schema over the given objects."""
    objects = tuple(objects)
    for combo in itertools.product(objects, repeat=len(schema.params)):
        yield GroundAction(schema, combo)


def product_store(task: Task) -> dict[str, list[GroundAction]]:
    """Per schema, every binding whose static precondition literals (type
    literals among them) and constraints on static functions only hold in
    the initial state, in product order: the grounded store by
    enumeration."""
    static = static_predicate_names(task) | {EQUALITY_NAME}
    functions = static_function_names(task)
    out = {}
    for schema in task.schemas:
        static_pre = [lit for lit in schema.pre_literals if lit.atom.predicate.name in static]
        static_cons = [con for con in schema.pre_constraints
                       if all(term.function.name in functions for term in function_terms(con))]
        kept = out[schema.name] = []
        for action in all_bindings(schema, task.objects):
            binding = action.binding_map()
            if all(literal_holds(task.init, lit, binding) for lit in static_pre) and all(
                    constraint_holds(task.init, con, binding) for con in static_cons):
                kept.append(action)
    return out


def brute_applicable(task: Task, state: State) -> list[GroundAction]:
    """Every applicable ground action, by filtering all total bindings."""
    out = []
    for schema in task.schemas:
        for action in all_bindings(schema, task.objects):
            if is_applicable(state, action):
                out.append(action)
    return out


def reference_successor(state: State, action: GroundAction) -> State:
    """The successor of an applicable action, from each effect substituted
    by the action's binding: (atoms - deletes) + adds, and the numeric
    effects, their expressions evaluated in the state, folded into their
    targets in order. The state is built by hand, over the full contents."""
    sub = action.binding_map()
    adds, deletes = set(), set()
    for lit in action.schema.eff_literals:
        (adds if lit.positive else deletes).add(substitute(lit.atom, sub))
    fluents = dict(state.fluents)
    for effect in action.schema.eff_numeric:
        ground = substitute(effect, sub)
        value = expr_value(state, ground.expr)
        if ground.op != ASSIGN:
            value = _UPDATES[ground.op](fluents[ground.target], value)
        fluents[ground.target] = value
    return State((state.atoms - deletes) | adds, fluents)


def bfs_optimal_cost(task: Task, max_states: int = 100_000) -> Optional[int]:
    """Optimal plan length by breadth-first search; None when unreachable."""
    if goal_satisfied(task.init, task):
        return 0
    seen = {task.init.key()}
    queue = deque([(task.init, 0)])
    while queue:
        state, g = queue.popleft()
        for action in brute_applicable(task, state):
            successor = apply(state, action)
            key = successor.key()
            if key in seen:
                continue
            if goal_satisfied(successor, task):
                return g + 1
            seen.add(key)
            if len(seen) > max_states:
                raise RuntimeError("state space exceeds oracle budget")
            queue.append((successor, g + 1))
    return None


def walk_states(task: Task, rng: random.Random, extra: int = 2
                ) -> list[tuple[State, list[GroundAction]]]:
    """Initial state plus a short random walk, each paired with its oracle set."""
    out = []
    state = task.init
    for step in range(extra + 1):
        oracle = brute_applicable(task, state)
        out.append((state, oracle))
        if not oracle or step == extra:
            break
        state = apply(state, rng.choice(oracle))
    return out


# --- random task construction ---


def random_task(rng: random.Random, exact: bool = True, task_id: int = 0) -> Task:
    objects = tuple(Object(f"o{i + 1}") for i in range(rng.randint(2, 6)))

    pred_arities = [0, 1, 1, 2, 2] if exact else [0, 1, 1, 2, 2, 3]
    predicates = [
        PredicateSymbol(f"p{i + 1}", rng.choice(pred_arities))
        for i in range(rng.randint(1, 3))
    ]
    fn_arities = [0, 1, 1, 2, 2] if exact else [0, 1, 1, 2, 2, 3]
    functions = [
        FunctionSymbol(f"f{i + 1}", rng.choice(fn_arities))
        for i in range(rng.randint(1, 3))
    ]
    if not exact:
        # make sure the high-arity paths get exercised
        if not any(p.arity == 3 for p in predicates) and rng.random() < 0.6:
            predicates.append(PredicateSymbol(f"p{len(predicates) + 1}", 3))
        if not any(f.arity == 3 for f in functions) and rng.random() < 0.5:
            functions.append(FunctionSymbol(f"f{len(functions) + 1}", 3))

    atoms = set()
    for pred in predicates:
        for combo in itertools.product(objects, repeat=pred.arity):
            if rng.random() < 0.4:
                atoms.add(Atom(pred, combo))
    fluents = {}
    for fn in functions:
        for combo in itertools.product(objects, repeat=fn.arity):
            if exact or rng.random() < 0.75:
                fluents[FunctionTerm(fn, combo)] = float(rng.randint(-5, 5))

    schemas = tuple(
        _random_schema(rng, f"act{j + 1}", predicates, functions, objects, exact)
        for j in range(rng.randint(1, 2))
    )

    goal_literals = []
    for pred in predicates[:1]:
        if rng.random() < 0.5:
            args = tuple(rng.choice(objects) for _ in range(pred.arity))
            goal_literals.append(Literal(Atom(pred, args), rng.random() < 0.8))

    return Task(
        domain_name="random-domain",
        problem_name=f"random-{task_id}",
        predicates=tuple(predicates),
        functions=tuple(functions),
        schemas=schemas,
        objects=objects,
        init=State(atoms, fluents),
        goal_literals=tuple(goal_literals),
    )


def _random_expr(rng, functions, var_pool, objects, depth, allow_div):
    if depth == 0 or rng.random() < 0.4 or not functions:
        if functions and rng.random() < 0.7:
            fn = rng.choice(functions)
            args = tuple(
                rng.choice(var_pool) if var_pool and rng.random() < 0.7 else rng.choice(objects)
                for _ in range(fn.arity)
            )
            return FunctionTerm(fn, args)
        return Constant(float(rng.randint(-4, 4)))
    ops = ["+", "-", "*"] + (["/"] if allow_div else [])
    return BinaryExpr(
        rng.choice(ops),
        _random_expr(rng, functions, var_pool, objects, depth - 1, allow_div),
        _random_expr(rng, functions, var_pool, objects, depth - 1, allow_div),
    )


def _random_schema(rng, name, predicates, functions, objects, exact) -> ActionSchema:
    k = rng.choices([0, 1, 2, 3, 4], weights=[4, 20, 40, 26, 10])[0]
    params = tuple(Variable(f"?v{i + 1}") for i in range(k))

    def term():
        if params and rng.random() < 0.75:
            return rng.choice(params)
        return rng.choice(objects)

    pre_literals = []
    for _ in range(rng.randint(1, 3)):
        pred = rng.choice(predicates)
        pre_literals.append(
            Literal(Atom(pred, tuple(term() for _ in range(pred.arity))), rng.random() < 0.8)
        )
    if k >= 2 and rng.random() < 0.2:
        a, b = rng.sample(params, 2)
        pre_literals.append(Literal(Atom(EQUALITY, (a, b)), rng.random() < 0.3))

    pre_constraints = []
    max_con_vars = 2 if exact else 3
    for _ in range(rng.randint(0, 2)):
        pool = rng.sample(params, rng.randint(0, min(k, max_con_vars)))
        pre_constraints.append(
            NumericConstraint(
                _random_expr(rng, functions, pool, objects, rng.randint(1, 2), True),
                rng.choice(["=", "<", ">", "<=", ">="]),
                _random_expr(rng, functions, pool, objects, rng.randint(0, 1), True),
            )
        )

    eff_literals = []
    for _ in range(rng.randint(0, 2)):
        pred = rng.choice(predicates)
        eff_literals.append(
            Literal(Atom(pred, tuple(term() for _ in range(pred.arity))), rng.random() < 0.6)
        )

    eff_numeric = []
    for _ in range(rng.randint(0, 2)):
        fn = rng.choice(functions)
        target = FunctionTerm(fn, tuple(term() for _ in range(fn.arity)))
        if exact:
            op = rng.choice([ASSIGN, INCREASE, INCREASE, DECREASE, SCALE_UP])
        else:
            op = rng.choice([ASSIGN, INCREASE, DECREASE, SCALE_UP, SCALE_DOWN])
        expr = _random_expr(rng, functions, list(params), objects, rng.randint(0, 1),
                            allow_div=not exact)
        eff_numeric.append(NumericEffect(target, op, expr))
    if exact:
        # aliased targets must stay compatible: force additive groups per symbol
        by_symbol: dict[str, list[int]] = {}
        for i, eff in enumerate(eff_numeric):
            by_symbol.setdefault(eff.target.function.name, []).append(i)
        for indexes in by_symbol.values():
            if len(indexes) > 1:
                for i in indexes:
                    eff = eff_numeric[i]
                    op = rng.choice([INCREASE, DECREASE])
                    eff_numeric[i] = NumericEffect(eff.target, op, eff.expr)

    return ActionSchema(
        name=name,
        params=params,
        pre_literals=tuple(pre_literals),
        pre_constraints=tuple(pre_constraints),
        eff_literals=tuple(eff_literals),
        eff_numeric=tuple(eff_numeric),
    )


# --- tasks with a search to do ---


def searching_task(rng: random.Random, task_id: int = 0) -> Task:
    """An agent moves along static links, paying each link's static cost out
    of a fuel budget, and switches on marked objects, each at most (cap)
    times. Optional schemas add a three-parameter hop (a constraint on three
    variables), switching off (cycles back to earlier states) and refuelling
    (an assignment). The goal asks for switches and sometimes a position or
    more fuel than can ever be held, so some tasks are unsolvable."""
    objects = tuple(Object(f"o{i + 1}") for i in range(rng.randint(5, 7)))
    link, mark, at, on = (PredicateSymbol("link", 2), PredicateSymbol("mark", 1),
                          PredicateSymbol("at", 1), PredicateSymbol("on", 1))
    cost, cap, fuel, count = (FunctionSymbol("cost", 2), FunctionSymbol("cap", 0),
                              FunctionSymbol("fuel", 0), FunctionSymbol("count", 1))
    a, b, c = Variable("?a"), Variable("?b"), Variable("?c")

    def lit(pred, *args, positive=True):
        return Literal(Atom(pred, args), positive)

    def term(fn, *args):
        return FunctionTerm(fn, args)

    atoms = {Atom(link, (u, v)) for u in objects for v in objects
             if u != v and rng.random() < 0.5}
    marked = [o for o in objects if rng.random() < 0.6] or [objects[-1]]
    atoms |= {Atom(mark, (o,)) for o in marked}
    atoms.add(Atom(at, (rng.choice(objects),)))
    atoms |= {Atom(on, (o,)) for o in objects if rng.random() < 0.2}
    fluents = {term(cost, u, v): float(rng.randint(0, 2)) for u in objects for v in objects}
    fluents.update({term(count, o): 0.0 for o in objects})
    fluents[term(cap)] = float(rng.randint(1, 2))
    fluents[term(fuel)] = float(rng.randint(5, 9))

    schemas = [
        ActionSchema("move", (a, b), pre_literals=(lit(at, a), lit(link, a, b)),
                     pre_constraints=(NumericConstraint(term(fuel), ">=", term(cost, a, b)),),
                     eff_literals=(lit(at, a, positive=False), lit(at, b)),
                     eff_numeric=(NumericEffect(term(fuel), DECREASE, term(cost, a, b)),)),
        ActionSchema("switch-on", (a,),
                     pre_literals=(lit(at, a), lit(mark, a), lit(on, a, positive=False)),
                     pre_constraints=(NumericConstraint(term(count, a), "<", term(cap)),),
                     eff_literals=(lit(on, a),),
                     eff_numeric=(NumericEffect(term(count, a), INCREASE, Constant(1.0)),)),
    ]
    if rng.random() < 0.5:
        both = BinaryExpr("+", term(cost, a, b), term(cost, b, c))
        schemas.append(ActionSchema(
            "hop", (a, b, c),
            pre_literals=(lit(at, a), lit(link, a, b), lit(link, b, c),
                          lit(EQUALITY, a, c, positive=False)),
            pre_constraints=(NumericConstraint(term(fuel), ">=", both),),
            eff_literals=(lit(at, a, positive=False), lit(at, c)),
            eff_numeric=(NumericEffect(term(fuel), DECREASE, both),)))
    if rng.random() < 0.5:
        schemas.append(ActionSchema("switch-off", (a, b),
                                    pre_literals=(lit(at, a), lit(link, a, b), lit(on, b)),
                                    eff_literals=(lit(on, b, positive=False),)))
    if rng.random() < 0.5:
        schemas.append(ActionSchema(
            "refuel", (a,), pre_literals=(lit(at, a), lit(mark, a)),
            pre_constraints=(NumericConstraint(term(fuel), "<", Constant(2.0)),),
            eff_numeric=(NumericEffect(term(fuel), ASSIGN,
                                       BinaryExpr("+", term(fuel), Constant(3.0))),)))

    goal_literals = [lit(on, o) for o in rng.sample(marked, min(len(marked), 3))]
    if rng.random() < 0.5:
        goal_literals.append(lit(at, rng.choice(objects)))
    goal_constraints = []
    if rng.random() < 0.25:
        goal_constraints.append(NumericConstraint(term(fuel), ">", Constant(10.0)))
    return Task(
        domain_name="searching-domain",
        problem_name=f"searching-{task_id}",
        predicates=(link, mark, at, on),
        functions=(cost, cap, fuel, count),
        schemas=tuple(schemas),
        objects=objects,
        init=State(atoms, fluents),
        goal_literals=tuple(goal_literals),
        goal_constraints=tuple(goal_constraints),
    )


def search_record(result) -> dict:
    """What a search test compares of one solve: verdict, plan, expansions,
    generated states and the g-value trace, the trace as the number of
    expansions per g-value (breadth-first g-values never decrease, so the
    counts give the trace back)."""
    trace = result.stats.g_trace
    assert all(g <= h <= g + 1 for g, h in zip(trace, trace[1:])), trace
    return {
        "status": result.status,
        "limit_hit": result.limit_hit,
        "plan": None if result.plan is None else [action.pddl() for action in result.plan],
        "expansions": result.stats.expansions,
        "generated": result.stats.generated,
        "g_counts": [trace.count(g) for g in range(trace[-1] + 1)] if trace else [],
    }
