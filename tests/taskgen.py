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
    goal_satisfied,
    is_applicable,
    literal_holds,
    static_predicate_names,
)


def all_bindings(schema: ActionSchema, objects: Iterable[Object]) -> Iterator[GroundAction]:
    """Every total binding of the schema over the given objects."""
    objects = tuple(objects)
    for combo in itertools.product(objects, repeat=len(schema.params)):
        yield GroundAction(schema, combo)


def product_store(task: Task) -> dict[str, list[GroundAction]]:
    """Per schema, every binding whose static precondition literals (type
    literals among them) hold in the initial state, in product order: the
    grounded store by enumeration."""
    static = static_predicate_names(task) | {EQUALITY_NAME}
    out = {}
    for schema in task.schemas:
        static_pre = [lit for lit in schema.pre_literals if lit.atom.predicate.name in static]
        kept = out[schema.name] = []
        for action in all_bindings(schema, task.objects):
            binding = action.binding_map()
            if all(literal_holds(task.init, lit, binding) for lit in static_pre):
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
