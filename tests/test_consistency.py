import dataclasses
import itertools
import math
import random

import pytest

from taskgen import random_task, walk_states

from lnplan.assignments import AssignmentCache
from lnplan.cliques import iter_cliques
from lnplan.consistency import (
    StateContext,
    build_graph,
    relaxed_eval,
    relaxed_unsat,
    task_statics,
)
from lnplan.intervals import Interval
from lnplan.model import (
    ActionSchema,
    Atom,
    BinaryExpr,
    Constant,
    EQUALITY,
    FunctionSymbol,
    FunctionTerm,
    GroundAction,
    Literal,
    NumericConstraint,
    Object,
    PredicateSymbol,
    State,
    Task,
    Variable,
    constraint_holds,
    free_variables,
    is_applicable,
    literal_holds,
)

A, B, C = Object("a"), Object("b"), Object("c")
X, Y = Variable("?x"), Variable("?y")
P_AT = PredicateSymbol("at", 2)


def _task(schemas, objects, atoms, fluents, predicates=(), functions=()):
    return Task("d", "p", tuple(predicates), tuple(functions), tuple(schemas),
                tuple(objects), State(atoms, fluents))


def test_relaxed_eval_examples():
    f = FunctionSymbol("f", 1)
    state = State([], {FunctionTerm(f, (A,)): 2.0, FunctionTerm(f, (B,)): 4.0})
    cache = AssignmentCache(state.fluents)
    expr = BinaryExpr("+", FunctionTerm(f, (X,)), Constant(1.0))
    assert relaxed_eval(expr, {}, cache) == Interval(3.0, 5.0)
    assert relaxed_eval(expr, {X: A}, cache) == Interval(3.0, 3.0)
    g = FunctionSymbol("g", 1)
    assert relaxed_eval(FunctionTerm(g, (X,)), {}, cache).is_empty


def test_relaxed_unsat_examples():
    f = FunctionSymbol("f", 1)
    state = State([], {FunctionTerm(f, (A,)): 2.0, FunctionTerm(f, (B,)): 4.0})
    cache = AssignmentCache(state.fluents)
    too_high = NumericConstraint(FunctionTerm(f, (X,)), ">=", Constant(10.0))
    reachable = NumericConstraint(FunctionTerm(f, (X,)), ">=", Constant(3.0))
    assert relaxed_unsat(too_high, {}, cache)
    assert not relaxed_unsat(reachable, {}, cache)
    g = FunctionSymbol("g", 1)
    empty_side = NumericConstraint(FunctionTerm(g, (X,)), "=", Constant(0.0))
    assert relaxed_unsat(empty_side, {}, cache)


def test_point_relaxation_agrees_with_exact_evaluation_on_non_finite_values():
    # the residual filter trusts the graph on exact schemas, so a fully bound
    # element must be refuted exactly when exact evaluation says it fails,
    # including inf - inf, 0 * inf, inf / inf and x / 0
    f = FunctionSymbol("f", 1)
    values = (-math.inf, -1.0, 0.0, 2.5, math.inf, math.nan)
    objects = [Object(f"o{i}") for i in range(len(values))]
    state = State([], {FunctionTerm(f, (o,)): v for o, v in zip(objects, values)})
    ranges = AssignmentCache(state.fluents)
    fx, fy = FunctionTerm(f, (X,)), FunctionTerm(f, (Y,))
    sides = [fx] + [BinaryExpr(op, fx, fy) for op in "+-*/"]
    others = [fy, Constant(0.0), Constant(1.0), BinaryExpr("/", fy, Constant(0.0))]
    checked = 0
    for ox, oy in itertools.product(objects, repeat=2):
        binding = {X: ox, Y: oy}
        for lhs, rhs, cmp in itertools.product(sides, others, ("=", "<", ">", "<=", ">=")):
            con = NumericConstraint(lhs, cmp, rhs)
            holds = constraint_holds(state, con, binding)
            assert relaxed_unsat(con, binding, ranges) == (not holds), (con, ox, oy)
            checked += holds
    assert checked > 0


def test_build_graph_positive_edges():
    schema = ActionSchema("mv", (X, Y), pre_literals=(Literal(Atom(P_AT, (X, Y))),))
    task = _task([schema], [A, B], [Atom(P_AT, (A, B))], {}, predicates=[P_AT])
    graph = build_graph(schema, StateContext(task, task.init))
    edges = {
        (graph.objects[oi].name, graph.objects[oj].name)
        for oi in graph.iter_alive(0)
        for oj in graph.iter_alive(1)
        if graph.has_edge(graph.vertex_id(0, oi), graph.vertex_id(1, oj))
    }
    assert ("a", "b") in edges
    assert ("a", "a") not in edges


def test_build_graph_negative_edge_removed():
    p = PredicateSymbol("p", 2)
    schema = ActionSchema("mv", (X, Y), pre_literals=(Literal(Atom(p, (X, Y)), positive=False),))
    task = _task([schema], [A, B], [Atom(p, (A, B))], {}, predicates=[p])
    graph = build_graph(schema, StateContext(task, task.init))
    v_a = graph.vertex_id(0, 0)
    w_b = graph.vertex_id(1, 1)
    assert not graph.has_edge(v_a, w_b)
    assert graph.has_edge(graph.vertex_id(0, 1), graph.vertex_id(1, 0))  # (b, a) fine


def test_build_graph_numeric_edge_pruning():
    f = FunctionSymbol("f", 1)
    con = NumericConstraint(
        BinaryExpr("+", FunctionTerm(f, (X,)), FunctionTerm(f, (Y,))), "<=", Constant(3.0)
    )
    schema = ActionSchema("mv", (X, Y), pre_constraints=(con,))
    task = _task([schema], [A, B], [],
                 {FunctionTerm(f, (A,)): 1.0, FunctionTerm(f, (B,)): 5.0},
                 functions=[f])
    graph = build_graph(schema, StateContext(task, task.init))
    assert not graph.has_edge(graph.vertex_id(0, 0), graph.vertex_id(1, 1))  # 1 + 5 > 3
    assert graph.has_edge(graph.vertex_id(0, 0), graph.vertex_id(1, 0))  # 1 + 1 <= 3
    # without the numeric rules the edge comes back
    prop = build_graph(schema, StateContext(task, task.init), numeric=False)
    assert prop.has_edge(prop.vertex_id(0, 0), prop.vertex_id(1, 1))


def test_numeric_edges_subset_of_propositional():
    rng = random.Random(7)
    for i in range(40):
        task = random_task(rng, exact=rng.random() < 0.5, task_id=i)
        for state, _ in walk_states(task, rng, extra=1):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                num = build_graph(schema, ctx)
                prop = build_graph(schema, ctx, numeric=False)
                if num.empty:
                    continue
                for p in range(num.k):
                    assert num.alive[p] & prop.alive[p] == num.alive[p]
                for v in range(len(num.adjacency)):
                    assert num.adjacency[v] & prop.adjacency[v] == num.adjacency[v]


def _clique_bindings(task, schema, graph):
    from lnplan.cliques import iter_cliques

    n = len(graph.objects)
    for clique in iter_cliques(graph):
        yield tuple(graph.objects[v - p * n] for p, v in enumerate(clique))


def _preconditions_hold(task, state, schema, binding):
    sub = dict(zip(schema.params, binding))
    return all(literal_holds(state, lit, sub) for lit in schema.pre_literals) and all(
        constraint_holds(state, con, sub) for con in schema.pre_constraints
    )


def test_completeness_every_satisfying_binding_forms_a_clique():
    # holds regardless of arities: removals only ever refute unsatisfiable pairs
    rng = random.Random(13)
    for i in range(60):
        task = random_task(rng, exact=rng.random() < 0.5, task_id=i)
        for state, _ in walk_states(task, rng, extra=1):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                graph = build_graph(schema, ctx)
                found = set(_clique_bindings(task, schema, graph))
                for combo in itertools.product(task.objects, repeat=len(schema.params)):
                    if _preconditions_hold(task, state, schema, combo):
                        assert combo in found, (task.problem_name, schema.name, combo)


def test_soundness_under_arity_two_conditions():
    # with every literal, constraint, and function term on at most two
    # variables, each clique's binding satisfies the whole precondition
    rng = random.Random(17)
    for i in range(60):
        task = random_task(rng, exact=True, task_id=i)
        for state, _ in walk_states(task, rng, extra=1):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                graph = build_graph(schema, ctx)
                for binding in _clique_bindings(task, schema, graph):
                    assert _preconditions_hold(task, state, schema, binding), (
                        task.problem_name, schema.name, binding)


def test_numeric_rules_never_remove_applicable_bindings():
    rng = random.Random(23)
    for i in range(40):
        task = random_task(rng, exact=False, task_id=i)
        state = task.init
        ctx = StateContext(task, state)
        for schema in task.schemas:
            for combo in itertools.product(task.objects, repeat=len(schema.params)):
                action = GroundAction(schema, combo)
                if not is_applicable(state, action):
                    continue
                sub = action.binding_map()
                for con in schema.pre_constraints:
                    for size in (0, 1, 2):
                        for vars_ in itertools.combinations(schema.params[:3], min(size, len(schema.params))):
                            partial = {v: sub[v] for v in vars_}
                            assert not relaxed_unsat(con, partial, ctx.ranges)


def test_dump_lists_vertices_edges_and_reasons():
    f = FunctionSymbol("f", 1)
    con = NumericConstraint(FunctionTerm(f, (X,)), ">=", Constant(2.0))
    schema = ActionSchema(
        "mv", (X, Y),
        pre_literals=(Literal(Atom(P_AT, (X, Y))),),
        pre_constraints=(con,),
    )
    task = _task([schema], [A, B], [Atom(P_AT, (A, B))],
                 {FunctionTerm(f, (A,)): 2.0, FunctionTerm(f, (B,)): 0.0},
                 predicates=[P_AT], functions=[f])
    graph = build_graph(schema, StateContext(task, task.init), record=True)
    text = graph.dump()
    assert "v ?x a" in text
    assert "e ?x a ?y b" in text
    assert "numeric-unsat" in text  # vertex ?x/b dies on the constraint
    assert "variable-conflict" in text


# --- static/dynamic split against a reference that evaluates every element ---


def _reference_graph(schema, task, state, *, numeric, record):
    """The graph as defined: every element evaluated on every vertex and pair
    against a full index of the state and range tables rebuilt from it."""
    from lnplan.consistency import (
        NEGATIVE_HIT, NUMERIC_UNSAT, POSITIVE_MISS, AtomIndex, ConsistencyGraph,
    )
    from lnplan.model import free_variables

    index, ranges = AtomIndex(state.atoms), AssignmentCache(state.fluents)
    k, objects, n = len(schema.params), task.objects, len(task.objects)
    graph = ConsistencyGraph(schema, objects, [0] * k, [], exclusions=[] if record else None)
    pos = [(lit.atom, free_variables(lit.atom)) for lit in schema.pre_literals if lit.positive]
    neg = [(lit.atom, free_variables(lit.atom)) for lit in schema.pre_literals
           if not lit.positive]
    cons = [(c, free_variables(c)) for c in schema.pre_constraints] if numeric else []
    checks = ([(POSITIVE_MISS, a) for a, v in pos if not v]
              + [(NEGATIVE_HIT, a) for a, v in neg if not v]
              + [(POSITIVE_MISS, a) for a, v in pos if v]
              + [(NUMERIC_UNSAT, c) for c, _ in cons])

    def negative_hit(atom, binding):
        return not literal_holds(state, Literal(atom, positive=False), binding)

    for reason, element in checks:
        if (not index.match_exists(element, {}) if reason == POSITIVE_MISS
                else negative_hit(element, {}) if reason == NEGATIVE_HIT
                else relaxed_unsat(element, {}, ranges)):
            graph.empty = True
            graph.notes.append(f"{reason}: {element!r}")
            return graph

    def reason(binding, elements_pos, elements_neg, elements_con):
        if not all(index.match_exists(a, binding) for a in elements_pos):
            return POSITIVE_MISS
        if any(negative_hit(a, binding) for a in elements_neg):
            return NEGATIVE_HIT
        if any(relaxed_unsat(c, binding, ranges) for c in elements_con):
            return NUMERIC_UNSAT
        return None

    for p, var in enumerate(schema.params):
        for oi, obj in enumerate(objects):
            why = reason({var: obj}, [a for a, v in pos if v == {var}],
                         [a for a, v in neg if v == {var}], [c for c, v in cons if v == {var}])
            if why is None:
                graph.alive[p] |= 1 << oi
            elif record:
                graph.exclusions.append(("vertex", p, oi, why))
        graph.empty |= graph.alive[p] == 0
    if graph.empty or k == 1:
        return graph
    for p1, p2 in itertools.combinations(range(k), 2):
        pair = {schema.params[p1], schema.params[p2]}
        elements = ([a for a, v in pos if len(v) > 1 and v & pair],
                    [a for a, v in neg if v == pair],
                    [c for c, v in cons if len(v) > 1 and v & pair])
        rows = [0] * n
        for oi in graph.iter_alive(p1):
            for oj in graph.iter_alive(p2):
                binding = {schema.params[p1]: objects[oi], schema.params[p2]: objects[oj]}
                why = reason(binding, *elements)
                if why is None:
                    rows[oi] |= 1 << oj
                elif record:
                    graph.exclusions.append(("pair", p1, oi, p2, oj, why))
        graph.parts.append((p1, p2, graph.alive[p1], graph.alive[p2], rows))
    return graph


def _same_graph(got, want):
    return (got.alive, got.adjacency, got.empty, got.notes, got.exclusions) == (
        want.alive, want.adjacency, want.empty, want.notes, want.exclusions)


def _matches_reference(got, want, record):
    """A record graph is the reference's. Any other graph may drop the
    vertices that have no static partner in some partition, which are in no
    clique: its alive masks lie within the reference's, its edges are the
    reference's among the vertices it keeps (none when it is empty), and
    the two have the same cliques. The checks of the elements on three or
    more variables, which the reference does not build, only drop cliques."""
    if record:
        return _same_graph(got, want)
    n = got.n_objects
    kept = 0
    for p, mask in enumerate(got.alive):
        if mask & ~want.alive[p]:
            return False
        kept |= mask << p * n
    if got.empty:
        kept = 0
    restricted = [bits & kept if kept >> v & 1 else 0 for v, bits in enumerate(want.adjacency)]
    return ((got.adjacency, got.notes, got.exclusions) == (restricted, want.notes, None)
            and got.empty >= want.empty
            and set(iter_cliques(dataclasses.replace(got, wide=[]))) == set(iter_cliques(want))
            and set(iter_cliques(got)) <= set(iter_cliques(want)))


def test_static_split_matches_reference_on_random_walks():
    rng = random.Random(29)
    graphs = parameter_free = pruned = 0
    for i in range(50):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        for state, _ in walk_states(task, rng, extra=2):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                for numeric in (True, False):
                    for record in (True, False):
                        got = build_graph(schema, ctx, numeric=numeric, record=record)
                        want = _reference_graph(schema, task, state, numeric=numeric,
                                                record=record)
                        assert _matches_reference(got, want, record), (
                            task.problem_name, schema.name, numeric, record)
                        graphs += 1
                        parameter_free += not schema.params
                        pruned += got.alive != want.alive
    assert graphs > 500 and parameter_free > 0 and pruned > 0


def test_static_split_pair_elements_on_one_pair_variable():
    # (q ?x ?z) and (s ?y ?z) each hold both variables of one partition pair
    # and a single variable of the other two, where they are checked per
    # vertex; f adds a numeric element of the same shape. Every q and s over
    # two objects, with the predicates static and dynamic.
    Z = Variable("?z")
    q, s_, r, f = (PredicateSymbol("q", 2), PredicateSymbol("s", 2), PredicateSymbol("r", 1),
                   FunctionSymbol("f", 2))
    pairs = [(u, v) for u in (A, B) for v in (A, B)]
    positive = NumericConstraint(FunctionTerm(f, (X, Z)), ">", Constant(0.0))
    for touched in (False, True):
        effects = (Literal(Atom(q, (X, Y))), Literal(Atom(s_, (Y, X)))) if touched else (
            Literal(Atom(r, (X,))),)
        schema = ActionSchema("s", (X, Y, Z),
                              pre_literals=(Literal(Atom(q, (X, Z))), Literal(Atom(s_, (Y, Z)))),
                              pre_constraints=(positive,), eff_literals=effects)
        for q_bits, s_bits in itertools.product(range(16), repeat=2):
            atoms = [Atom(q, pq) for i, pq in enumerate(pairs) if q_bits >> i & 1]
            atoms += [Atom(s_, ps) for i, ps in enumerate(pairs) if s_bits >> i & 1]
            task = _task([schema], [A, B], atoms, {FunctionTerm(f, (A, B)): 1.0},
                         predicates=[q, s_, r], functions=[f])
            for record in (False, True):
                got = build_graph(schema, StateContext(task, task.init), record=record)
                want = _reference_graph(schema, task, task.init, numeric=True, record=record)
                assert _matches_reference(got, want, record), (touched, q_bits, s_bits, record)


def test_static_alive_masks_are_arc_consistent():
    # A chain (p ?x ?y) (s ?y ?z) (t ?z ?w). A pair's rows hold the
    # projections of the literals that touch it, so the (?x ?y) rows know
    # that ?y needs an s partner but not that this partner needs a t one.
    # The (?y ?z) rows drop ?y/b only after the (?x ?y) pair is done, and
    # ?x/b falls on the second pass.
    from lnplan.consistency import task_statics

    Z, W = Variable("?z"), Variable("?w")
    p, s_, t = (PredicateSymbol(name, 2) for name in "pst")
    schema = ActionSchema("s", (X, Y, Z, W),
                          pre_literals=tuple(Literal(Atom(pred, args)) for pred, args in
                                             ((p, (X, Y)), (s_, (Y, Z)), (t, (Z, W)))))
    atoms = [Atom(p, (A, A)), Atom(p, (B, B)), Atom(s_, (A, A)), Atom(s_, (B, B)),
             Atom(t, (A, C))]
    task = _task([schema], [A, B, C], atoms, {}, predicates=[p, s_, t])
    assert task_statics(task).pools(schema, numeric=True) == [(A,), (A,), (A,), (C,)]

    # on random tasks, every static alive object has a partner in each
    # partition it shares static rows with
    rng = random.Random(31)
    checked = 0
    for i in range(60):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        statics = task_statics(task)
        for schema in task.schemas:
            plan = statics.plan(schema, numeric=True, record=False)
            for p1, p2, *_, rows in [] if plan.failure else plan.pairs:
                if rows is not None:
                    alive = plan.alive
                    assert all(rows[oi] & alive[p2] for oi in range(len(rows))
                               if alive[p1] >> oi & 1)
                    assert all(any(rows[oi] >> oj & 1 for oi in range(len(rows))
                                   if alive[p1] >> oi & 1)
                               for oj in range(len(rows)) if alive[p2] >> oj & 1)
                    checked += 1
    assert checked > 0


def test_effect_touched_symbols_are_never_static(bundled_tasks):
    from lnplan.consistency import task_statics

    relay = bundled_tasks["relay"]
    statics = task_statics(relay)
    assert "at" not in statics.predicates and "link" in statics.predicates
    assert "=" in statics.predicates
    assert "energy" not in statics.functions
    for task in bundled_tasks.values():
        statics = task_statics(task)
        for schema in task.schemas:
            assert not {lit.atom.predicate.name for lit in schema.eff_literals} & statics.predicates
            assert not {eff.target.function.name for eff in schema.eff_numeric} & statics.functions


def test_state_index_shares_the_static_atoms_of_the_initial_state(bundled_tasks):
    from lnplan.model import apply
    from lnplan.successors import SuccessorGenerator

    task = bundled_tasks["delivery"]
    action = SuccessorGenerator(task).applicable(task.init)[0][0]
    state = apply(task.init, action)
    index = StateContext(task, state).index
    road = next(atom for atom in task.init.atoms if atom.predicate.name == "road")
    absent = Atom(road.predicate, (road.args[0], road.args[0]))
    assert absent not in task.init.atoms
    assert index.match_exists(road, {}) and not index.match_exists(absent, {})
    # shared as built from the static part, not extended by the state's atoms
    roads = sum(atom.predicate.name == "road" for atom in task.init.atoms)
    assert index.buckets["road"] is task_statics(task).index.buckets["road"]
    assert len(index.buckets["road"].atoms) == roads
    # the dynamic atoms are the state's own
    moved = [atom for atom in state.atoms if atom.predicate.name == "at"]
    left = [atom for atom in task.init.atoms - state.atoms if atom.predicate.name == "at"]
    assert moved and left
    assert all(index.match_exists(atom, {}) for atom in moved)
    assert not any(index.match_exists(atom, {}) for atom in left)


def test_context_refuses_a_state_that_does_not_share_the_static_part(bundled_tasks):
    # a state built by hand owns its static atoms; indexing them would
    # extend the task's shared buckets
    task = bundled_tasks["delivery"]
    shared = task_statics(task).index.buckets
    sizes = {name: len(bucket.atoms) for name, bucket in shared.items()}
    by_hand = State(task.init.atoms, task.init.fluents)
    with pytest.raises(ValueError, match="static part"):
        StateContext(task, by_hand)
    assert {name: len(bucket.atoms) for name, bucket in shared.items()} == sizes


# --- atom shapes that random tasks rarely produce ---


def test_atom_shapes_match_reference():
    # Each shape is one schema over ?x ?y ?z, checked on random states of
    # p/3, q/2 and the atomless e/2 over three objects, with the predicates
    # static (only d is written) and dynamic (an effect writes each).
    Z = Variable("?z")
    p, q, e, d = (PredicateSymbol("p", 3), PredicateSymbol("q", 2), PredicateSymbol("e", 2),
                  PredicateSymbol("d", 1))
    f = FunctionSymbol("f", 2)

    def lit(pred, *args, positive=True):
        return Literal(Atom(pred, args), positive)

    def eq(left, right, positive=True):
        return lit(EQUALITY, left, right, positive=positive)

    shapes = {
        "constant": [lit(q, X, B), lit(p, X, A, Y)],
        "repeated variable": [lit(p, X, X, Y)],
        "one pair variable and a free third": [lit(q, Y, Z)],
        "static on x1 and x3, not x2": [lit(q, X, Z)],
        "negative on the pair": [lit(q, X, Y, positive=False)],
        "equality": [eq(X, Y)],
        "inequality": [eq(X, Y, positive=False)],
        "equality of a variable with itself": [eq(X, X)],
        "equality with a constant": [eq(Y, C), eq(A, X, positive=False)],
        "ternary": [lit(p, X, Y, Z)],
        "no atoms": [lit(e, X, Y)],
        "no atoms, negative": [lit(e, Y, Z, positive=False)],
        "negatives and a constraint": [lit(q, Y, X, positive=False), lit(p, Y, Y, Y, positive=False),
                                       lit(q, X, Z)],
    }
    constraint = NumericConstraint(FunctionTerm(f, (X, Y)), ">", Constant(0.0))
    objects = (A, B, C)
    universe = ([Atom(p, args) for args in itertools.product(objects, repeat=3)]
                + [Atom(q, args) for args in itertools.product(objects, repeat=2)])
    rng = random.Random(41)
    states = [([atom for atom in universe if rng.random() < 0.4],
               {FunctionTerm(f, (u, v)): float(rng.randint(-1, 1)) for u in objects
                for v in objects}) for _ in range(12)]
    for name, literals in shapes.items():
        for touched in (False, True):
            effects = (lit(p, X, Y, Z), lit(q, X, Y), lit(e, X, Y)) if touched else (lit(d, X),)
            schema = ActionSchema("s", (X, Y, Z), pre_literals=tuple(literals),
                                  pre_constraints=(constraint,), eff_literals=effects)
            for atoms, fluents in states:
                task = _task([schema], objects, atoms, fluents, predicates=[p, q, e, d],
                             functions=[f])
                ctx = StateContext(task, task.init)
                for numeric in (False, True):
                    for record in (False, True):
                        got = build_graph(schema, ctx, numeric=numeric, record=record)
                        want = _reference_graph(schema, task, task.init, numeric=numeric,
                                                record=record)
                        assert _matches_reference(got, want, record), (
                            name, touched, numeric, record)


def test_constraint_shapes_match_reference():
    # Each shape is one constraint over ?x ?y ?z, under all five comparisons
    # and with its sides either way round, checked against the reference on
    # random states with and without record mode. s/1, s2/2, s3/3, s4/4
    # and c/0 are static unless `touched`, when an effect writes them too; d/1,
    # d2/2 and k/0 are always written. Values include +-inf, and any ground
    # term may be undefined, so sides and table entries read empty. A
    # dynamic literal (q ?x ?y) thins the pair rows before the constraint.
    from lnplan.consistency import NUMERIC_UNSAT, task_statics
    from lnplan.model import NumericEffect

    Z = Variable("?z")
    s, s2, s3, c = (FunctionSymbol("s", 1), FunctionSymbol("s2", 2), FunctionSymbol("s3", 3),
                    FunctionSymbol("c", 0))
    s4 = FunctionSymbol("s4", 4)
    d, d2, k = FunctionSymbol("d", 1), FunctionSymbol("d2", 2), FunctionSymbol("k", 0)
    q = PredicateSymbol("q", 2)

    def term(fn, *args):
        return FunctionTerm(fn, args)

    shapes = {
        "dynamic side of the bound variable against a static table": (term(d, X), term(s, Y)),
        "static side of the bound variable": (term(s, X), term(s, Y)),
        "constant": (Constant(1.0), term(s, X)),
        "static nullary side, arithmetic on the table": (
            term(c), BinaryExpr("*", term(s, Y), Constant(2.0))),
        "dynamic nullary side": (term(k), term(s, Z)),
        "dynamic per object against a constant": (term(d, Y), Constant(0.0)),
        "a third variable left free, as in delivery": (term(d, X), term(s2, Y, Z)),
        "both variables in one static side": (
            term(d, Z), BinaryExpr("-", term(s2, X, Y), term(s, X))),
        "both variables in a dynamic side, table on the other": (term(d2, X, Y), term(s, Y)),
        "repeated variable, two tables": (term(s, Y), term(s2, Y, Y)),
        "constant argument": (term(d, X), term(s2, Y, B)),
        "arity three, a repeated variable and a constant": (term(d, X), term(s3, Y, B, Y)),
        "arity three over all variables": (term(s3, X, Y, Z), term(k)),
        "arity four, truncated to DEGREE positions but for the full binding": (
            term(d, X), term(s4, Y, B, B, Z)),
    }
    written = [term(d, X), term(d2, X, Y), term(k)]
    static = [term(s, X), term(s2, X, Y), term(s3, X, Y, Z), term(s4, X, Y, Z, X), term(c)]
    objects = (A, B, C)
    values = (-math.inf, -1.0, 0.0, 1.0, 2.0, math.inf)
    rng = random.Random(43)
    states = []
    for _ in range(5):
        fluents = {}
        for fn in (s, s2, s3, s4, c, d, d2, k):
            for args in itertools.product(objects, repeat=fn.arity):
                if rng.random() < 0.75:
                    fluents[FunctionTerm(fn, args)] = rng.choice(values)
        atoms = [Atom(q, args) for args in itertools.product(objects, repeat=2)
                 if rng.random() < 0.7]
        states.append((atoms, fluents))
    thresholds = unsat = keyed = sparse = 0
    for name, sides in shapes.items():
        for touched in (False, True):
            effects = tuple(NumericEffect(t, "+=", Constant(1.0))
                            for t in written + static * touched)
            for (lhs, rhs), cmp in itertools.product((sides, sides[::-1]),
                                                     ("=", "<", ">", "<=", ">=")):
                schema = ActionSchema("s", (X, Y, Z), pre_literals=(Literal(Atom(q, (X, Y))),),
                                      pre_constraints=(NumericConstraint(lhs, cmp, rhs),),
                                      eff_literals=(Literal(Atom(q, (Y, X))),),
                                      eff_numeric=effects)
                for atoms, fluents in states:
                    task = _task([schema], objects, atoms, fluents, predicates=[q],
                                 functions=[s, s2, s3, s4, c, d, d2, k])
                    ctx = StateContext(task, task.init)
                    for record in (False, True):
                        got = build_graph(schema, ctx, record=record)
                        want = _reference_graph(schema, task, task.init, numeric=True,
                                                record=record)
                        assert _matches_reference(got, want, record), (
                            name, touched, lhs, cmp, rhs, record)
                        unsat += record and any(x[-1] == NUMERIC_UNSAT for x in got.exclusions)
                    statics = task_statics(task)
                    sparse += _tables_read_as_dense(statics)
                    plan = statics.plan(schema, numeric=True, record=False)
                    rules = plan.unary + [r for pair in plan.pairs for r in pair[2:5]]
                    thresholds += any(r is not None and r.thresholds for r in rules)
                    # a threshold whose table is keyed by a bound variable
                    keyed += any(r is not None and any(table.keys for *_, table in r.thresholds)
                                 for r in rules)
    assert thresholds > 100 and unsat > 100
    assert keyed > 0 and sparse > 100


def _tables_read_as_dense(statics) -> int:
    """Every value a table has filled is the side's interval at the object,
    the objects outside its support included, and so are its threshold
    masks; returns how many keys left some object outside the support."""
    from lnplan.consistency import _bits, _conditions

    skipped = 0
    for table in statics._tables.values():
        dense = {}
        for key, values in table._values.items():
            at = dict(zip(table.keys, key))
            dense[key] = [relaxed_eval(table.expr, {**at, table.var: obj}, table.ranges)
                          for obj in table.objects]
            assert values == dense[key], (table.expr, key)
            if table._support is not None:
                slots, masks = table._support
                support = masks.get(tuple(key[s] for s in slots), 0)
                skipped += len(list(_bits(support))) < len(table.objects)
        for (cmp, *key), conditions in table._conditions.items():
            assert conditions == _conditions(cmp, dense[tuple(key)])
    return skipped


def test_a_dropped_task_is_freed_without_the_cycle_collector():
    # `TaskStatics` holds no reference to the task, and nothing it keeps (its
    # plans, their compiled rows and clique-search checks, its tables) holds
    # one back to it, so reference counting alone frees them with the task.
    import gc
    import weakref

    from conftest import load_bundled
    from lnplan import search, successors

    gc.disable()
    try:
        for name in ("delivery", "relay", "watering"):
            for strategy in successors.STRATEGIES:
                task = load_bundled(name)
                search.solve(task, successors.GeneratorConfig(strategy=strategy),
                             search.Limits(nodes=50))
                statics = weakref.ref(task_statics(task))
                del task
                assert statics() is None, (name, strategy)
    finally:
        gc.enable()


def test_static_plans_of_a_wide_relay_make_no_match_query_per_object(monkeypatch):
    # 3 robots on 400 waypoints, two links per robot and waypoint. The static
    # rows come from projections of the link atoms; a match query is left
    # only for each static literal the plan checks with nothing bound. Arc
    # consistency over those rows leaves the robots alone for ?r, so a state
    # checks the energy of 3 objects, not of 403.
    from conftest import load_bundled
    from lnplan import assignments, consistency
    from lnplan.consistency import AtomIndex, static_graph, task_statics

    relay = load_bundled("relay")
    at, link = (next(s for s in relay.predicates if s.name == name) for name in ("at", "link"))
    energy, step_cost = relay.function("energy"), relay.function("step-cost")
    rng = random.Random(400)
    robots = [Object(f"r{i}") for i in range(3)]
    waypoints = [Object(f"w{i}") for i in range(400)]
    links = {(r, a, b) for r in robots for a in waypoints
             for b in rng.sample([w for w in waypoints if w != a], 2)}
    atoms = [Atom(at, (r, waypoints[0])) for r in robots] + [Atom(link, args) for args in links]
    fluents = {FunctionTerm(energy, (r,)): 6.0 for r in robots}
    fluents[FunctionTerm(step_cost, ())] = 1.0
    task = _task(relay.schemas, robots + waypoints, atoms, fluents, relay.predicates,
                 relay.functions)

    calls = []
    match_exists = AtomIndex.match_exists
    monkeypatch.setattr(AtomIndex, "match_exists",
                        lambda self, atom, binding: calls.append(atom) or match_exists(
                            self, atom, binding))
    statics = task_statics(task)
    checked = 0
    for schema in task.schemas:
        for numeric in (False, True):
            statics.plan(schema, numeric, record=False)
            checked += sum(lit.atom.predicate.name in statics.predicates
                           and (lit.positive or not free_variables(lit))
                           for lit in schema.pre_literals)
        graph = static_graph(schema, statics)
    assert 0 < len(calls) <= checked

    # the (?a ?b) rows are the link projections
    (move,) = task.schemas
    params = list(move.params)
    pa, pb = params.index(Variable("?a")), params.index(Variable("?b"))
    index_of = {obj: oi for oi, obj in enumerate(task.objects)}
    got = {(oi, oj) for oi in graph.iter_alive(pa) for oj in graph.iter_alive(pb)
           if graph.has_edge(graph.vertex_id(pa, oi), graph.vertex_id(pb, oj))}
    assert got == {(index_of[a], index_of[b]) for _, a, b in links}

    def mask(objs):
        return sum(1 << index_of[obj] for obj in set(objs))

    alive = statics.plan(move, numeric=True, record=False).alive
    assert alive[params.index(Variable("?r"))] == mask(robots)
    assert alive[pa] == mask(a for _, a, _ in links)
    assert alive[pb] == mask(b for _, _, b in links)

    # On a copy of the task, whose plans are not built yet: the energy rule
    # is checked whole only with nothing bound, once per graph. Its
    # (step-cost) side is read once per plan, and (energy ?r) once per robot.
    # Every read of a function's value is a lookup in its range table by
    # `relaxed_eval`, so the spy wraps the tables as they are built and
    # lists their lookups.
    unsat, reads = [], []
    relaxed_unsat = consistency.relaxed_unsat
    monkeypatch.setattr(consistency, "relaxed_unsat",
                        lambda con, binding, ranges: unsat.append(dict(binding))
                        or relaxed_unsat(con, binding, ranges))

    class Lookups(dict):
        def get(self, key, default=None):
            reads.append((self.name, key))
            return super().get(key, default)

    build = assignments.build_assignment_set

    def spy(function, items):
        table = Lookups(build(function, items).table)
        table.name = function.name
        return assignments.AssignmentSet(table, function.arity)

    monkeypatch.setattr(assignments, "build_assignment_set", spy)
    copy = _task(relay.schemas, robots + waypoints, atoms, fluents, relay.predicates,
                 relay.functions)
    ctx = StateContext(copy, copy.init)
    ground = [("energy", ()), ("step-cost", ())]
    per_robot = [("energy", ((0, r),)) for r in robots]
    build_graph(move, ctx)
    assert reads == [("step-cost", ())] + ground + per_robot
    reads.clear()
    build_graph(move, ctx)
    assert reads == ground + per_robot
    assert unsat == [{}, {}]


# --- the clique search reads the search rows, not the full graph ---


def _search_paths(graph, plan) -> tuple[int, int]:
    """(dynamic pairs whose transpose the graph filled, partitions whose pool
    a pair's single-variable rules emptied while alive stays nonempty)."""
    from lnplan.consistency import search_order

    if graph.empty or graph.k < 2:
        return 0, 0
    rank = {p: depth for depth, p in enumerate(search_order(graph.alive))}
    transposed = sum(dynamic is not None and rank[p2] < rank[p1]
                     for p1, p2, _, _, dynamic, *_ in plan.pairs)
    emptied = sum(pool == 0 < mask for pool, mask in zip(graph.pools, graph.alive))
    return transposed, emptied


def _streams_as_full_graph(graph) -> bool:
    """The cliques streamed from the graph's search rows are, in order, those
    of a copy with the same parts but no search rows or pools, which is
    searched over the full adjacency derived from the parts."""
    from lnplan.consistency import ConsistencyGraph

    copy = ConsistencyGraph(graph.schema, graph.objects, list(graph.alive), graph.parts,
                            empty=graph.empty, wide=graph.wide)
    return list(iter_cliques(graph)) == list(iter_cliques(copy))


def test_search_rows_stream_the_cliques_of_the_full_graph():
    # A built graph's search rows hold the static edges of the plan and the
    # dynamic rows in the search direction only; its pools drop the vertices
    # a pair's single-variable rules refute. None of that moves a clique.
    rng = random.Random(47)
    graphs = transposed = 0
    for i in range(120):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        statics = task_statics(task)
        for state, _ in walk_states(task, rng, extra=2):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                for numeric in (True, False):
                    graph = build_graph(schema, ctx, numeric=numeric)
                    assert _streams_as_full_graph(graph), (task.problem_name, schema.name)
                    plan = statics.plan(schema, numeric, record=False)
                    transposed += _search_paths(graph, plan)[0]
                    graphs += 1
    assert graphs > 500 and transposed > 0


def test_search_rows_with_a_transposed_pair_and_an_emptied_pool():
    # (p ?x ?y) is dynamic, and the type literal (t ?y) leaves ?y fewer
    # objects than ?x, so the search binds ?y first and reads the pair's
    # rows transposed. (q ?x ?z) is dynamic and holds ?x but not ?y, so it
    # narrows ?x's pool by the ?x that have a q atom: with q only on the ?x
    # that (r ?x) drops, that pool is empty while ?x's alive mask is not.
    Z = Variable("?z")
    p, q, r, t = (PredicateSymbol("p", 2), PredicateSymbol("q", 2), PredicateSymbol("r", 1),
                  PredicateSymbol("t", 1))
    objects = (A, B, C)
    schema = ActionSchema(
        "s", (X, Y, Z),
        pre_literals=(Literal(Atom(p, (X, Y))), Literal(Atom(t, (Y,))), Literal(Atom(r, (X,))),
                      Literal(Atom(q, (X, Z)))),
        eff_literals=(Literal(Atom(p, (Y, X))), Literal(Atom(q, (Z, X))),
                      Literal(Atom(r, (Z,)))))
    transposed = emptied = 0
    rng = random.Random(53)
    for _ in range(40):
        atoms = [Atom(pred, args) for pred in (p, q)
                 for args in itertools.product(objects, repeat=2) if rng.random() < 0.5]
        atoms += [Atom(r, (o,)) for o in objects if rng.random() < 0.6]
        atoms += [Atom(t, (A,))]
        task = _task([schema], objects, atoms, {}, predicates=[p, q, r, t])
        ctx = StateContext(task, task.init)
        for record in (False, True):
            graph = build_graph(schema, ctx, record=record)
            want = _reference_graph(schema, task, task.init, numeric=True, record=record)
            assert _matches_reference(graph, want, record)
            assert _streams_as_full_graph(graph)
            plan = task_statics(task).plan(schema, True, record)
            paths = _search_paths(graph, plan)
            transposed += paths[0]
            emptied += paths[1]
    assert transposed > 0 and emptied > 0


def test_the_adjacency_is_built_only_on_request():
    # Copying a built graph, searching it and counting its edges read its
    # parts, search rows and pools: the full adjacency stays unbuilt in both
    # graphs. Read, it holds the edges `_connect` writes from the parts, and
    # as many as `edge_count` counts.
    from lnplan.consistency import _connect

    rng = random.Random(59)
    graphs = edges = 0
    for i in range(60):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        for state, _ in walk_states(task, rng, extra=2):
            ctx = StateContext(task, state)
            for schema in task.schemas:
                for numeric, record in itertools.product((True, False), repeat=2):
                    graph = build_graph(schema, ctx, numeric=numeric, record=record)
                    copy = dataclasses.replace(graph, wide=[])
                    assert set(iter_cliques(graph)) <= set(iter_cliques(copy))
                    count = graph.edge_count()
                    assert copy.edge_count() == count
                    assert "adjacency" not in graph.__dict__
                    assert "adjacency" not in copy.__dict__
                    n = graph.n_objects
                    want = [0] * (graph.k * n)
                    for p1, p2, a1, a2, rows in graph.parts:
                        _connect(want, p1 * n, a1, p2 * n, a2, rows)
                    assert graph.adjacency == copy.adjacency == want
                    assert count == sum(bits.bit_count() for bits in want) // 2
                    graphs += 1
                    edges += count
    assert graphs > 500 and edges > 1000


def test_connect_writes_the_edges_of_its_rows_and_masks():
    # The one edge writer against a brute-force edge set: with rows and
    # without, in one direction and in both, on masks narrower than the
    # rows, ORed into rows that already hold edges.
    from lnplan.consistency import _connect

    rng = random.Random(61)
    seen, narrower = set(), 0
    for _ in range(400):
        n = rng.randint(1, 7)
        p1, p2 = rng.sample(range(3), 2)
        off1, off2 = p1 * n, p2 * n
        a1, a2 = rng.getrandbits(n), rng.getrandbits(n)
        rows = None if rng.random() < 0.3 else [rng.getrandbits(n) for _ in range(n)]
        both = rng.random() < 0.5
        before = [rng.getrandbits(3 * n) if rng.random() < 0.3 else 0 for _ in range(3 * n)]
        want = list(before)
        for oi, oj in itertools.product(range(n), repeat=2):
            if a1 >> oi & 1 and a2 >> oj & 1 and (rows is None or rows[oi] >> oj & 1):
                want[off1 + oi] |= 1 << off2 + oj
                if both:
                    want[off2 + oj] |= 1 << off1 + oi
        got = list(before)
        _connect(got, off1, a1, off2, a2, rows, both)
        assert got == want, (n, p1, p2, a1, a2, rows, both)
        seen.add((rows is None, both))
        if rows is not None:
            # a row beyond a2, and one of an object outside a1
            narrower += (any(rows[oi] & ~a2 for oi in range(n) if a1 >> oi & 1)
                         and any(rows[oi] for oi in range(n) if not a1 >> oi & 1))
    assert len(seen) == 4 and narrower > 50
