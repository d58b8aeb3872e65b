import itertools
import math
import random
from types import SimpleNamespace

import pytest

from taskgen import brute_applicable, product_store, random_task, searching_task, walk_states

from lnplan.cliques import iter_cliques
from lnplan.consistency import static_graph, task_statics
from lnplan.model import (
    DECREASE,
    EQUALITY,
    ActionSchema,
    Atom,
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
    apply_effects,
    constraint_holds,
    is_applicable,
    static_predicate_names,
)
from lnplan.pddl import parse_task
from lnplan.search import solve
from lnplan.successors import (
    EXHAUSTIVE,
    GROUNDED,
    NUMERIC,
    PROPOSITIONAL,
    STRATEGIES,
    GeneratorConfig,
    GroundDeadlineError,
    GroundLimitError,
    SuccessorGenerator,
    ground_all,
    residual_check,
    static_constraints,
)

A, B = Object("a"), Object("b")
X = Variable("?x")


def _candidate_count(task, state, strategy):
    generator = SuccessorGenerator(task, GeneratorConfig(strategy=strategy))
    ctx = generator.context(state)
    return sum(len(list(generator.candidates(s, state, ctx))) for s in task.schemas)


def test_all_strategies_agree_with_oracle_on_random_tasks():
    rng = random.Random(101)
    for i in range(40):
        task = random_task(rng, exact=rng.random() < 0.5, task_id=i)
        for state, oracle in walk_states(task, rng, extra=1):
            want = set(oracle)
            for strategy in STRATEGIES:
                got, report = SuccessorGenerator(task, GeneratorConfig(strategy=strategy)).applicable(state)
                assert set(got) == want, (strategy, task.problem_name)
                assert len(got) == len(set(got))
                assert report.applicable == len(got) <= report.candidates


def test_candidate_subset_chain():
    rng = random.Random(202)
    for i in range(30):
        task = random_task(rng, exact=rng.random() < 0.5, task_id=i)
        for state, oracle in walk_states(task, rng, extra=1):
            numeric = _candidate_count(task, state, NUMERIC)
            prop = _candidate_count(task, state, PROPOSITIONAL)
            exhaustive = _candidate_count(task, state, EXHAUSTIVE)
            assert len(oracle) <= numeric <= prop <= exhaustive


def test_candidates_are_supersets_as_binding_multisets():
    rng = random.Random(203)
    for i in range(15):
        task = random_task(rng, exact=True, task_id=i)
        state = task.init
        for schema in task.schemas:
            gen_n = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
            gen_p = SuccessorGenerator(task, GeneratorConfig(strategy=PROPOSITIONAL))
            gen_e = SuccessorGenerator(task, GeneratorConfig(strategy=EXHAUSTIVE))
            n = set(gen_n.candidates(schema, state))
            p = set(gen_p.candidates(schema, state))
            e = set(gen_e.candidates(schema, state))
            assert n <= p <= e


def test_candidate_order_deterministic():
    rng = random.Random(303)
    task = random_task(rng, exact=False, task_id=0)
    for strategy in STRATEGIES:
        config = GeneratorConfig(strategy=strategy)
        first, _ = SuccessorGenerator(task, config).applicable(task.init)
        second, _ = SuccessorGenerator(task, config).applicable(task.init)
        assert first == second


def test_zero_arity_schema_paths():
    p = PredicateSymbol("p", 0)
    ok = ActionSchema("go", (), pre_literals=(Literal(Atom(p, ())),))
    task = Task("d", "t", (p,), (), (ok,), (A,), State([Atom(p, ())], {}))
    for strategy in STRATEGIES:
        got, report = SuccessorGenerator(task, GeneratorConfig(strategy=strategy)).applicable(task.init)
        assert [a.pddl() for a in got] == ["(go)"]

    failing = Task("d", "t", (p,), (), (ok,), (A,), State([], {}))
    for strategy in (NUMERIC, PROPOSITIONAL):
        got, report = SuccessorGenerator(failing, GeneratorConfig(strategy=strategy)).applicable(
            failing.init)
        assert got == [] and report.candidates == 0


def test_zero_arity_numeric_checks_constraints_but_propositional_defers():
    f = FunctionSymbol("f", 0)
    con = NumericConstraint(FunctionTerm(f, ()), ">", Constant(0.0))
    schema = ActionSchema("go", (), pre_constraints=(con,))
    task = Task("d", "t", (), (f,), (schema,), (A,), State([], {FunctionTerm(f, ()): 0.0}))
    gen_n = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
    gen_p = SuccessorGenerator(task, GeneratorConfig(strategy=PROPOSITIONAL))
    assert list(gen_n.candidates(schema, task.init)) == []
    assert len(list(gen_p.candidates(schema, task.init))) == 1
    got, _ = gen_p.applicable(task.init)
    assert got == []


def test_ground_store_counts_and_static_pruning():
    p = PredicateSymbol("kind", 1)
    q = PredicateSymbol("busy", 1)
    schema = ActionSchema(
        "use", (X,),
        pre_literals=(Literal(Atom(p, (X,))), Literal(Atom(q, (X,)), positive=False)),
        eff_literals=(Literal(Atom(q, (X,))),),
    )
    task = Task("d", "t", (p, q), (), (schema,), (A, B),
                State([Atom(p, (A,))], {}))
    assert static_predicate_names(task) == frozenset({"kind"})
    store = ground_all(task)
    # busy is dynamic so only the static 'kind' filter applies: b is dropped
    assert [a.pddl() for a in store.for_schema("use")] == ["(use a)"]


def test_ground_cap_enforced():
    p = PredicateSymbol("p", 1)
    schema = ActionSchema("big", (Variable("?a"), Variable("?b"), Variable("?c")),
                          pre_literals=(Literal(Atom(p, (Variable("?a"),))),))
    objects = tuple(Object(f"o{i}") for i in range(10))
    task = Task("d", "t", (p,), (), (schema,), objects,
                State([Atom(p, (objects[0],))], {}))
    with pytest.raises(GroundLimitError):
        ground_all(task, cap=99)
    store = ground_all(task, cap=10_000)
    assert store.total == 100  # 1 * 10 * 10 statically surviving
    # a NaN cap would never be exceeded, so it is rejected like 0
    for bad in (0, -1, float("nan")):
        with pytest.raises(ValueError, match="ground_cap must be positive"):
            GeneratorConfig(ground_cap=bad)


def test_ground_cap_counts_join_candidates():
    # every pair projection of t is full, so the static graph has all 64
    # bindings as cliques; the clique search's check of t streams only the
    # 32 with an even sum, and the cap counts those
    t = PredicateSymbol("t", 3)
    a, b, c = Variable("?a"), Variable("?b"), Variable("?c")
    schema = ActionSchema("even", (a, b, c), pre_literals=(Literal(Atom(t, (a, b, c))),))
    objects = tuple(Object(f"o{i}") for i in range(4))
    atoms = [Atom(t, combo) for combo in itertools.product(objects, repeat=3)
             if sum(objects.index(o) for o in combo) % 2 == 0]
    task = Task("d", "t", (t,), (), (schema,), objects, State(atoms, {}))
    assert ground_all(task, cap=32).total == 32
    with pytest.raises(GroundLimitError):
        ground_all(task, cap=31)


def test_grounding_reads_the_clock_every_stride_of_rows(monkeypatch):
    # two free parameters over 100 objects: the join builds 100 rows, then
    # 100 per row; the clock is read before the join and once the rows
    # built reach a stride, where the deadline has passed
    from lnplan import successors

    objects = tuple(Object(f"o{i}") for i in range(100))
    task = Task("d", "t", (), (), (ActionSchema("pair", (X, Variable("?y"))),), objects,
                State([], {}))
    readings = []

    def read():
        readings.append(None)
        return 0.0 if len(readings) == 1 else 2.0

    monkeypatch.setattr(successors, "time", SimpleNamespace(perf_counter=read))
    with pytest.raises(GroundDeadlineError):
        ground_all(task, deadline=1.0)
    assert len(readings) == 2 and successors._DEADLINE_STRIDE < 100 * 100


def test_grounding_reads_the_clock_while_it_builds_the_actions(monkeypatch):
    # one free parameter over 25 objects at a stride of 10: the clock is read
    # before the join, once in it (25 rows built), before the sort and after
    # every 10 actions built
    from lnplan import successors

    objects = tuple(Object(f"o{i}") for i in range(25))
    task = Task("d", "t", (), (), (ActionSchema("one", (X,)),), objects, State([], {}))
    monkeypatch.setattr(successors, "_DEADLINE_STRIDE", 10)
    built = []
    monkeypatch.setattr(successors, "GroundAction",
                        lambda schema, binding: built.append(binding) or GroundAction(schema, binding))
    readings = []
    monkeypatch.setattr(successors, "time", SimpleNamespace(
        perf_counter=lambda: readings.append(None) or len(readings)))
    assert ground_all(task, deadline=math.inf).total == 25
    assert len(readings) == 5 and len(built) == 25
    # the deadline passes at the sort's reading, then at each stride's
    for passed, actions in ((3, 0), (4, 10), (5, 20)):
        readings.clear()
        built.clear()
        with pytest.raises(GroundDeadlineError):
            ground_all(task, deadline=passed)
        assert len(readings) == passed and len(built) == actions


def test_grounding_decides_the_constraints_on_static_functions():
    # no effect writes cost or cap, so (<= (cost ?a ?b) (cap)) and (> (cap) 0)
    # hold or fail per binding in every state: grounding keeps the rows where
    # they hold, and the grounded filter checks only (>= (fuel) (cost ?a ?b))
    link, at = PredicateSymbol("link", 2), PredicateSymbol("at", 1)
    cost, cap, fuel = FunctionSymbol("cost", 2), FunctionSymbol("cap", 0), FunctionSymbol("fuel", 0)
    a, b = Variable("?a"), Variable("?b")
    static = (NumericConstraint(FunctionTerm(cost, (a, b)), "<=", FunctionTerm(cap, ())),
              NumericConstraint(FunctionTerm(cap, ()), ">", Constant(0.0)))
    dynamic = NumericConstraint(FunctionTerm(fuel, ()), ">=", FunctionTerm(cost, (a, b)))
    move = ActionSchema(
        "move", (a, b), pre_literals=(Literal(Atom(link, (a, b))), Literal(Atom(at, (a,)))),
        pre_constraints=(static[0], dynamic, static[1]),
        eff_literals=(Literal(Atom(at, (a,)), False), Literal(Atom(at, (b,)))),
        eff_numeric=(NumericEffect(FunctionTerm(fuel, ()), DECREASE, FunctionTerm(cost, (a, b))),))
    objects = tuple(Object(f"w{i}") for i in range(5))
    rng = random.Random(808)
    for seed in range(8):
        links = [(u, v) for u in objects for v in objects if u is not v and rng.random() < 0.6]
        # a cost left undefined fails the constraint that reads it
        costs = {FunctionTerm(cost, pair): float(rng.randint(0, 3))
                 for pair in links if rng.random() < 0.9}
        fluents = {**costs, FunctionTerm(cap, ()): 2.0, FunctionTerm(fuel, ()): 6.0}
        task = Task("d", f"static-constraints-{seed}", (link, at), (cost, cap, fuel), (move,),
                    objects, State([Atom(link, pair) for pair in links] + [Atom(at, (objects[0],))],
                                   fluents))
        statics = task_statics(task)
        assert static_constraints(move, statics.functions) == static
        assert residual_check(move, GROUNDED, statics).constraints == (dynamic,)
        _assert_store_matches_product(task)
        assert len(ground_all(task).for_schema("move")) < len(links)
        generator = SuccessorGenerator(task, GeneratorConfig(strategy=GROUNDED))
        for state, oracle in walk_states(task, rng, extra=4):
            assert set(generator.applicable(state)[0]) == set(oracle), task.problem_name
    # a static constraint with no variables that fails leaves no action
    fluents[FunctionTerm(cap, ())] = 0.0
    task = Task("d", "no-cap", (link, at), (cost, cap, fuel), (move,), objects,
                State([Atom(link, pair) for pair in links] + [Atom(at, (objects[0],))], fluents))
    assert ground_all(task).total == 0 and brute_applicable(task, task.init) == []


def test_the_filter_finds_a_precondition_atom_that_an_effect_builds_later():
    # no (trap-q trap-a) exists when use(trap-a) is first checked; its check
    # builds the atom and keeps it, and the effect of make(trap-a) that adds
    # the atom later builds that instance again, so use(trap-a) passes there
    q = PredicateSymbol("trap-q", 1)
    obj = Object("trap-a")
    make = ActionSchema("make", (X,), eff_literals=(Literal(Atom(q, (X,))),))
    use = ActionSchema("use", (X,), pre_literals=(Literal(Atom(q, (X,))),),
                       eff_literals=(Literal(Atom(q, (X,)), False),))
    task = Task("d", "trap", (q,), (), (make, use), (obj,), State([], {}))
    assert Atom.find(("trap-q", (obj,))) is None
    generator = SuccessorGenerator(task, GeneratorConfig(strategy=GROUNDED))
    # grounding builds no precondition atom; the first check does
    assert all(action._pre is None for action in generator.store.for_schema("use"))
    assert Atom.find(("trap-q", (obj,))) is None
    applicable, _ = generator.applicable(task.init)
    assert [action.pddl() for action in applicable] == ["(make trap-a)"]
    (used,) = generator.store.for_schema("use")
    assert used.ground_preconditions() == (Atom.find(("trap-q", (obj,))),)
    state = apply(task.init, applicable[0])
    assert [action.pddl() for action in generator.applicable(state)[0]] == [
        "(make trap-a)", "(use trap-a)"]
    assert is_applicable(state, used) and not is_applicable(task.init, used)


def _assert_store_matches_product(task):
    store, want = ground_all(task), product_store(task)
    assert {name: list(actions) for name, actions in store.by_schema.items()} == want, \
        task.problem_name
    assert store.total == sum(map(len, want.values()))


def test_ground_store_matches_product_loop(bundled_tasks):
    for task in bundled_tasks.values():
        _assert_store_matches_product(task)
    rng = random.Random(606)
    for i in range(60):
        _assert_store_matches_product(random_task(rng, exact=rng.random() < 0.3, task_id=i))


def test_ground_store_matches_product_loop_on_static_shapes():
    kind, dyn = PredicateSymbol("kind", 1), PredicateSymbol("dyn", 1)
    r, t = PredicateSymbol("r", 2), PredicateSymbol("t", 3)
    a, b, c, d = Variable("?a"), Variable("?b"), Variable("?c"), Variable("?d")
    objects = tuple(Object(f"o{i}") for i in range(5))
    o1, o2 = objects[1], objects[2]

    def lit(pred, *args, positive=True):
        return Literal(Atom(pred, args), positive)

    schemas = (
        ActionSchema("ternary", (a, b, c), pre_literals=(lit(t, a, b, c), lit(t, c, b, a, positive=False))),
        ActionSchema("repeated", (a, b), pre_literals=(lit(t, a, a, b), lit(t, b, a, b, positive=False))),
        ActionSchema("constants", (a, b), pre_literals=(lit(t, a, o1, b), lit(r, o2, a, positive=False))),
        ActionSchema("equality", (a, b, c), pre_literals=(
            lit(EQUALITY, a, b), lit(EQUALITY, b, c, positive=False), lit(r, a, c))),
        # type literals: a static one on a and b, one that an effect writes on c
        ActionSchema("typed", (a, b, c), pre_literals=(lit(kind, a), lit(kind, b), lit(r, a, b),
                                                       lit(dyn, c)),
                     eff_literals=(lit(dyn, c, positive=False),)),
        ActionSchema("free", (), pre_literals=(lit(r, o1, o1, positive=False), lit(dyn, o1))),
        ActionSchema("false", (a,), pre_literals=(lit(kind, a), lit(r, o2, o2))),
        # a cycle: the join binds it with two literals, the third closes it
        ActionSchema("cyclic", (a, b, c), pre_literals=(lit(r, a, b), lit(r, b, c), lit(r, c, a))),
        # no variable shared: the join takes the second literal unlinked
        ActionSchema("disjoint", (a, b, c, d), pre_literals=(lit(r, a, b), lit(t, c, d, c))),
    )
    for seed in range(10):
        rng = random.Random(seed)
        atoms = [Atom(pred, combo) for pred in (kind, dyn, r, t)
                 for combo in itertools.product(objects, repeat=pred.arity) if rng.random() < 0.5]
        atoms = [atom for atom in atoms if atom not in (Atom(r, (o2, o2)), Atom(r, (o1, o1)))]
        task = Task("d", f"shapes-{seed}", (kind, dyn, r, t), (), schemas, objects,
                    State(atoms, {}))
        assert static_predicate_names(task) == frozenset({"kind", "r", "t"})
        _assert_store_matches_product(task)
        store = ground_all(task)
        assert store.for_schema("free") and not store.for_schema("false")
        assert 0 < len(store.for_schema("ternary")) < 5 ** 3
        assert 0 < len(store.for_schema("cyclic")) < 5 ** 3


def test_ground_store_is_the_static_graphs_cliques(bundled_tasks):
    # the static graph is the static half of the paper's graph; its cliques
    # are exactly the bindings that the grounding join keeps, and the store
    # keeps those where the constraints on static functions hold
    rng = random.Random(707)
    tasks = list(bundled_tasks.values()) + [
        random_task(rng, exact=rng.random() < 0.3, task_id=i) for i in range(40)]
    dropped = 0
    for task in tasks:
        statics, store, n = task_statics(task), ground_all(task), len(task.objects)
        for schema in task.schemas:
            decided = static_constraints(schema, statics.functions)
            cliques = sorted(tuple(v - p * n for p, v in enumerate(clique))
                             for clique in iter_cliques(static_graph(schema, statics)))
            kept = [combo for combo in cliques
                    if all(constraint_holds(task.init, con,
                                            {var: task.objects[oi] for var, oi in
                                             zip(schema.params, combo)})
                           for con in decided)]
            dropped += len(cliques) - len(kept)
            stored = [tuple(map(statics.index_of.__getitem__, action.binding))
                      for action in store.for_schema(schema.name)]
            assert stored == kept, (task.problem_name, schema.name)
    assert dropped > 0


def test_grounded_generator_builds_no_consistency_plan():
    # relay's preconditions read every term its effects use, so the
    # residual check never asks for the parameters' pools, and grounding
    # joins the static atoms without the plans or their atom index
    from conftest import load_bundled

    relay = load_bundled("relay")
    generator = SuccessorGenerator(relay, GeneratorConfig(strategy=GROUNDED))
    assert generator.applicable(relay.init)[0]
    statics = task_statics(relay)
    assert statics._plans == {} and "index" not in vars(statics)


def test_grounded_strategy_reproduces_exhaustive_applicable_sets():
    rng = random.Random(404)
    task = random_task(rng, exact=True, task_id=9)
    gen_g = SuccessorGenerator(task, GeneratorConfig(strategy=GROUNDED))
    gen_e = SuccessorGenerator(task, GeneratorConfig(strategy=EXHAUSTIVE))
    for state, oracle in walk_states(task, rng, extra=2):
        got_g, _ = gen_g.applicable(state)
        got_e, _ = gen_e.applicable(state)
        assert set(got_g) == set(got_e) == set(oracle)


def test_typed_pools_restrict_exhaustive(bundled_tasks):
    task = bundled_tasks["counters"]
    gen = SuccessorGenerator(task, GeneratorConfig(strategy=EXHAUSTIVE))
    inc = task.schema("increment")
    cands = list(gen.candidates(inc, task.init))
    names = {a.binding[0].name for a in cands}
    assert names == {"c1", "c2"}


def test_exact_numeric_generation_no_overapproximation():
    rng = random.Random(505)
    for i in range(25):
        task = random_task(rng, exact=True, task_id=i)
        for state, oracle in walk_states(task, rng, extra=1):
            _, report = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC)).applicable(state)
            assert report.candidates == report.applicable == len(oracle)


NAN_DOMAIN = """(define (domain nan)
  (:requirements :strips :numeric-fluents)
  (:predicates (p ?x))
  (:functions (h ?x))
  (:action blow :parameters (?x) :precondition (p ?x) :effect (scale-up (h ?x) 1e300))
  (:action zap :parameters (?x) :precondition (p ?x)
    :effect (assign (h ?x) (- (h ?x) (h ?x))))
  (:action use :parameters (?x ?y ?z)
    :precondition (and (p ?x) (p ?y) (p ?z) (>= (+ (h ?x) (h ?y)) 1))))"""

NAN_PROBLEM = """(define (problem nan-1) (:domain nan)
  (:objects a b c)
  (:init (p a) (p b) (p c) (= (h a) 1e300) (= (h b) 5) (= (h c) 5))
  (:goal (and (p a))))"""


def test_nan_fluent_keeps_numeric_candidates():
    # h a overflows to inf and then becomes inf - inf = NaN; a NaN seen first
    # used to pin the range table's hull of h at [nan, nan], which refuted
    # every pair edge of `use` that left ?y unbound
    task = parse_task(NAN_DOMAIN, NAN_PROBLEM)
    state = task.init
    for name in ("blow", "zap"):
        state = apply(state, GroundAction(task.schema(name), (A,)))
    assert math.isnan(state.fluents[FunctionTerm(task.function("h"), (A,))])
    got = {}
    for strategy in STRATEGIES:
        generator = SuccessorGenerator(task, GeneratorConfig(strategy=strategy))
        got[strategy] = {a for a in generator.applicable(state)[0] if a.schema.name == "use"}
    assert len(got[NUMERIC]) == 12  # ?x, ?y in {b, c}, any ?z
    assert all(actions == got[NUMERIC] for actions in got.values())


PROMOTE_DOMAIN = """(define (domain promote)
  (:requirements :strips :typing)
  (:types thing)
  (:predicates (used ?y))
  (:action promote :parameters (?x) :effect (thing ?x))
  (:action use :parameters (?y - thing) :effect (used ?y)))"""

PROMOTE_PROBLEM = """(define (problem promote-1) (:domain promote)
  (:objects o1 - thing o2)
  (:init)
  (:goal (used o2)))"""


def test_type_written_by_an_effect_is_a_dynamic_literal():
    # `thing` is a type and an effect writes it, so `use o2` becomes
    # applicable after `promote o2`; a pool for ?y read from the initial
    # extent of `thing` misses it
    task = parse_task(PROMOTE_DOMAIN, PROMOTE_PROBLEM)
    o2 = Object("o2")
    state = apply(task.init, GroundAction(task.schema("promote"), (o2,)))
    want = set(brute_applicable(task, state))
    assert GroundAction(task.schema("use"), (o2,)) in want
    for strategy in STRATEGIES:
        config = GeneratorConfig(strategy=strategy)
        assert set(SuccessorGenerator(task, config).applicable(state)[0]) == want, strategy
        result = solve(task, config)
        assert (result.status, result.cost) == ("solved", 2), strategy


def _walk_with_interned_actions(task, strategy, rng, steps):
    """Walk from the initial state with one generator, checking each state
    against a fresh generator; returns how many interned actions were
    applied in a state later than the one that built them."""
    generator = SuccessorGenerator(task, GeneratorConfig(strategy=strategy))
    built_at, reapplied = {}, 0
    state = task.init
    for step in range(steps):
        fresh = SuccessorGenerator(task, GeneratorConfig(strategy=strategy))
        for schema in task.schemas:
            assert generator.candidates(schema, state) == fresh.candidates(schema, state)
        actions, report = generator.applicable(state)
        assert (actions, report) == fresh.applicable(state)
        for schema in task.schemas:
            for action in generator.candidates(schema, state):
                # the same (schema, binding) is the same object in every state
                first = built_at.setdefault((schema.name, action.binding), (action, step))[0]
                assert first is action
        for action in actions:
            rebuilt = GroundAction(task.schema(action.schema.name), action.binding)
            assert apply_effects(state, action).key() == apply_effects(state, rebuilt).key()
            reapplied += built_at[action.schema.name, action.binding][1] < step
        if not actions:
            break
        state = apply_effects(state, rng.choice(actions))
    return reapplied


def test_interned_actions_match_fresh_generators_along_walks(bundled_tasks):
    rng = random.Random(8128)
    reapplied = 0
    tasks = [random_task(rng, exact=i % 2 == 0, task_id=i) for i in range(40)]
    tasks += [searching_task(rng, task_id=i) for i in range(6)]
    # delivery's drive decreases (fuel ?t) by (dist ?a ?b), an expression
    # evaluated per application
    tasks += [bundled_tasks["delivery"], bundled_tasks["farmland"], bundled_tasks["relay"]]
    for task in tasks:
        for strategy in STRATEGIES:
            reapplied += _walk_with_interned_actions(task, strategy, rng, 12)
    assert reapplied > 500
