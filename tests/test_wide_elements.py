"""Precondition elements on three or more variables, decided in the clique search.

The graph holds only the pair projections of such elements, so its cliques
overapproximate the bindings that satisfy them; the clique search checks
each one where all its variables but one are bound. Under `numeric` the
candidates are then exactly the applicable actions, whatever the values:
NaN, infinite and undefined fluents satisfy a comparison exactly when
`model.constraint_holds` says so.
"""

import dataclasses
import itertools
import math
import random
from collections import Counter

from taskgen import brute_applicable, product_store, walk_states

from lnplan.cliques import iter_cliques
from lnplan.consistency import build_graph
from lnplan.model import (
    ASSIGN,
    ActionSchema,
    Atom,
    BinaryExpr,
    Constant,
    FunctionSymbol,
    FunctionTerm,
    Literal,
    NumericConstraint,
    NumericEffect,
    Object,
    PredicateSymbol,
    State,
    Task,
    Variable,
    literal_holds,
)
from lnplan.successors import (
    GROUNDED,
    NUMERIC,
    PROPOSITIONAL,
    GeneratorConfig,
    SuccessorGenerator,
    ground_all,
)

COMPARISONS = ("<", "<=", "=", ">=", ">")
# fluent values; None leaves the fluent undefined
VALUES = (-2.0, -1.0, 0.0, 1.0, 2.0, math.inf, -math.inf, math.nan, None)


def _term(function, *args):
    return FunctionTerm(function, args)


def _lit(predicate, *args, positive=True):
    return Literal(Atom(predicate, args), positive)


def _candidates(generator, task, state):
    ctx = generator.context(state)
    return [a for schema in task.schemas for a in generator.candidates(schema, state, ctx)]


def _same(actions, want):
    return Counter(a.pddl() for a in actions) == Counter(a.pddl() for a in want)


S3, D3, D1 = PredicateSymbol("s3", 3), PredicateSymbol("d3", 3), PredicateSymbol("d1", 1)
C1, C2, H3, F1 = (FunctionSymbol("c1", 1), FunctionSymbol("c2", 2), FunctionSymbol("h3", 3),
                  FunctionSymbol("f1", 1))


def _wide_constraint(rng, x, y, z, constant):
    """A constraint on x, y and z whose static side, depending on which
    variable the search binds last, is a threshold table or not."""
    lhs, rhs = rng.choice((
        (_term(F1, x), _term(C2, y, z)),
        # the pair rows of x and y read (h3 x y constant) at its exact value,
        # so a NaN there refutes the pair
        (_term(H3, x, y, constant), _term(C2, y, z)),
        (_term(C2, y, z), _term(F1, x)),
        (BinaryExpr("+", _term(C2, x, y), _term(C1, z)), BinaryExpr("*", _term(F1, x), Constant(2.0))),
        (_term(H3, x, y, z), _term(F1, y)),
        (BinaryExpr("-", _term(F1, x), _term(F1, y)), _term(C1, z)),
        (BinaryExpr("/", _term(F1, x), _term(C2, y, z)), Constant(1.0)),
    ))
    return NumericConstraint(lhs, rng.choice(COMPARISONS), rhs)


def wide_task(rng: random.Random, task_id: int) -> Task:
    """A schema with ternary static and dynamic literals and ternary
    constraints, over fluents that are NaN, infinite or undefined at random,
    and a schema whose effects write the dynamic symbols and never fail."""
    objects = tuple(Object(f"w{i}") for i in range(rng.randint(3, 5)))
    atoms = {Atom(p, args) for p in (S3, D3, D1)
             for args in itertools.product(objects, repeat=p.arity) if rng.random() < 0.5}
    fluents = {}
    for function in (C1, C2, H3, F1):
        for args in itertools.product(objects, repeat=function.arity):
            value = rng.choice(VALUES)
            if value is not None:
                fluents[FunctionTerm(function, args)] = value
    params = tuple(Variable(f"?x{i}") for i in range(rng.choice((3, 3, 4))))
    literals = [_lit(rng.choice((S3, D3)), *rng.sample(params, 3), positive=rng.random() < 0.7)
                for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        literals.append(_lit(D1, rng.choice(params), positive=rng.random() < 0.7))
    constraints = [_wide_constraint(rng, *rng.sample(params, 3), objects[0])
                   for _ in range(rng.randint(1, 2))]
    wide = ActionSchema("wide", params, pre_literals=tuple(literals),
                        pre_constraints=tuple(constraints))
    u, v, w = (Variable(f"?u{i}") for i in range(3))
    toggle = ActionSchema(
        "toggle", (u, v, w), pre_literals=(_lit(D1, u, positive=rng.random() < 0.5),),
        eff_literals=(_lit(D3, u, v, w, positive=rng.random() < 0.5), _lit(D1, v, positive=False)),
        eff_numeric=(NumericEffect(_term(F1, w), ASSIGN,
                                   Constant(rng.choice((-1.0, 0.0, 3.0, math.inf)))),))
    return Task("wide-domain", f"wide-{task_id}", (S3, D3, D1), (C1, C2, H3, F1),
                (wide, toggle), objects, State(atoms, fluents))


def test_numeric_candidates_are_the_applicable_actions_on_wide_random_tasks():
    rng = random.Random(2207)
    overapproximated = 0
    for i in range(80):
        task = wide_task(rng, i)
        numeric = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
        propositional = SuccessorGenerator(task, GeneratorConfig(strategy=PROPOSITIONAL))
        assert all(check is None for _, check in numeric.checks), task.problem_name
        for state, oracle in walk_states(task, rng, extra=3):
            assert _same(_candidates(numeric, task, state), oracle), task.problem_name
            assert _same(numeric.applicable(state)[0], oracle), task.problem_name
            # propositional decides every literal and no constraint
            want = [a for schema in task.schemas
                    for a in propositional.candidates(schema, state)
                    if all(literal_holds(state, lit, a.binding_map())
                           for lit in schema.pre_literals)]
            assert _same(_candidates(propositional, task, state), want), task.problem_name
            ctx = numeric.context(state)
            graph = build_graph(task.schema("wide"), ctx)
            paper = sum(1 for _ in iter_cliques(dataclasses.replace(graph, wide=[])))
            overapproximated += paper > sum(1 for _ in iter_cliques(graph))
        store = ground_all(task)
        assert {name: list(actions) for name, actions in store.by_schema.items()} == \
            product_store(task), task.problem_name
        assert _same(_candidates(SuccessorGenerator(task, GeneratorConfig(strategy=GROUNDED)),
                                 task, task.init), [a for s in task.schemas
                                                    for a in store.for_schema(s.name)])
    # the pair projections alone would have let candidates through
    assert overapproximated > 20


def test_numeric_candidates_are_the_applicable_actions_with_two_variables_bound():
    # (>= (d ?z) (d2 ?x ?y)) with d and d2 written: the static (p ?x) and
    # (p ?y) leave one object each, so the search binds ?z last, where the
    # check reads (d ?z) once per object and (d2 ?x ?y) once per row, both
    # bound in full. Each step raises (d ?x) and (d2 ?x ?y), so the walk
    # reaches states whose check drops ?z objects, and finally all of them.
    # (d2 b c), which no binding of the static (p ?x) reads, widens d2's
    # hull, so a read that left ?x or ?y unbound would keep ?z = a.
    a, b, c = Object("a"), Object("b"), Object("c")
    x, y, z = Variable("?x"), Variable("?y"), Variable("?z")
    p, d, d2 = PredicateSymbol("p", 1), FunctionSymbol("d", 1), FunctionSymbol("d2", 2)
    schema = ActionSchema(
        "s", (x, y, z), pre_literals=(_lit(p, x), _lit(p, y)),
        pre_constraints=(NumericConstraint(_term(d, z), ">=", _term(d2, x, y)),),
        eff_numeric=(NumericEffect(_term(d, x), "+=", Constant(1.0)),
                     NumericEffect(_term(d2, x, y), "+=", Constant(1.0))))
    fluents = {_term(d, obj): value for obj, value in zip((a, b, c), (0.0, 2.0, 5.0))}
    fluents[_term(d2, a, a)], fluents[_term(d2, b, c)] = 1.0, -10.0
    task = Task("reads-domain", "reads", (p,), (d, d2), (schema,), (a, b, c),
                State({Atom(p, (a,))}, fluents))
    numeric = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
    # the residual checks no effect, so the candidates must be exact too
    assert all(check is None or not check.effects for _, check in numeric.checks)
    sizes = []
    for state, oracle in walk_states(task, random.Random(33), extra=6):
        assert _same(numeric.applicable(state)[0], oracle)
        ctx = numeric.context(state)
        assert _same(numeric.candidates(schema, state, ctx), oracle)
        # the record plan reads the same sides per object and per row
        cliques = [list(iter_cliques(build_graph(schema, ctx, record=record)))
                   for record in (False, True)]
        assert cliques[0] == cliques[1]
        sizes.append(len(oracle))
    assert sizes == [2, 2, 1, 1, 1, 0]


def _fuel_task(constraint) -> Task:
    """Trucks t1-t5 at l1 and l2, one schema drive(?t ?a ?b) with the
    constraint. With ?t the smallest partition, the search binds ?b last.
    The fuels are NaN, inf, -inf, undefined and 1; the distances out of l1
    are NaN, inf, -inf and 1, out of l2 undefined, 0, -0 and 2, out of l3
    -1 to 2, and out of l4 undefined. The toll (toll ?t ?a l1) is NaN for
    some trucks and places, and (toll ?t ?a l2) is 0. The pair rows of ?t
    and ?a read (toll ?t ?a l1) at its exact value, so a NaN toll reads
    EMPTY there and refutes the pair before the clique search."""
    truck, at, seen, route = (PredicateSymbol("truck", 1), PredicateSymbol("at", 2),
                              PredicateSymbol("seen", 3), PredicateSymbol("route", 3))
    fuel, dist, toll = (FunctionSymbol("fuel", 1), FunctionSymbol("dist", 2),
                        FunctionSymbol("toll", 3))
    trucks = tuple(Object(f"t{i}") for i in range(1, 6))
    places = tuple(Object(f"l{i}") for i in range(1, 5))
    t, a, b = Variable("?t"), Variable("?a"), Variable("?b")
    atoms = {Atom(truck, (x,)) for x in trucks}
    atoms |= {Atom(at, (x, place)) for x in trucks for place in places[:2]}
    atoms |= {Atom(route, (x, p, q)) for x in trucks for p in places for q in places if p != q}
    atoms.add(Atom(seen, (trucks[4], places[0], places[1])))
    fluents = {_term(fuel, x): value for x, value in zip(trucks, (math.nan, math.inf, -math.inf))}
    fluents[_term(fuel, trucks[4])] = 1.0
    tolls = ((1.0, 1.0), (math.nan, math.inf), (-math.inf, 0.0), (math.nan, math.nan),
             (0.5, math.nan))
    for x, row in zip(trucks, tolls):
        for p, value in zip(places, row + row):
            fluents[_term(toll, x, p, places[0])] = value
            fluents[_term(toll, x, p, places[1])] = 0.0
    rows = ((math.nan, math.inf, -math.inf, 1.0), (None, 0.0, -0.0, 2.0), (-1.0, 0.0, 1.0, 2.0))
    for p, row in zip(places, rows):
        for q, value in zip(places, row):
            if value is not None:
                fluents[_term(dist, p, q)] = value
    lhs, cmp, rhs = constraint
    side = {"fuel": _term(fuel, t), "dist": _term(dist, a, b), "fuel-b": _term(fuel, b),
            "sum": BinaryExpr("+", _term(fuel, t), _term(dist, a, b)), "0": Constant(0.0),
            "toll": _term(toll, t, a, places[0])}
    drive = ActionSchema(
        "drive", (t, a, b),
        pre_literals=(_lit(truck, t), _lit(at, t, a), _lit(route, t, a, b),
                      _lit(seen, t, a, b, positive=False)),
        pre_constraints=(NumericConstraint(side[lhs], cmp, side[rhs]),),
        eff_literals=(_lit(at, t, a, positive=False), _lit(at, t, b), _lit(seen, t, a, b)))
    return Task("fuel-domain", "fuel", (truck, at, seen, route), (fuel, dist, toll), (drive,),
                trucks + places, State(atoms, fluents))


def test_threshold_and_exact_checks_agree_with_constraint_holds():
    # fuel or the toll against dist on both sides of every comparison is the
    # threshold case; (fuel ?b) and the sum hold the last variable on a
    # dynamic side, so they are evaluated at the full binding
    shapes = [(lhs, cmp, rhs) for cmp in COMPARISONS
              for lhs, rhs in (("fuel", "dist"), ("dist", "fuel"), ("fuel-b", "dist"),
                               ("sum", "0"), ("toll", "dist"), ("dist", "toll"))]
    overapproximated = 0
    for shape in shapes:
        task = _fuel_task(shape)
        generator = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
        assert all(check is None for _, check in generator.checks), shape
        state = task.init
        ctx = generator.context(state)
        graph = build_graph(task.schema("drive"), ctx)
        order = sorted(range(3), key=lambda p: (graph.alive[p].bit_count(), p))
        assert order[-1] == 2, shape  # ?b comes last
        oracle = brute_applicable(task, state)
        assert _same(_candidates(generator, task, state), oracle), shape
        paper = sum(1 for _ in iter_cliques(dataclasses.replace(graph, wide=[])))
        assert paper >= len(oracle), shape
        overapproximated += paper > len(oracle)
    # in 18 of the 30 shapes the pair projections alone let candidates
    # through; a NaN toll already refutes its (?t, ?a) pair
    assert overapproximated == 18
