import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import load_bundled

from lnplan.model import (
    ASSIGN,
    DECREASE,
    EQUALITY,
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
    applicability_failure,
    apply,
    apply_effects,
    constraint_holds,
    expr_value,
    free_variables,
    function_terms,
    goal_satisfied,
    is_applicable,
    keyed_successor,
    literal_holds,
    substitute,
    successor_key,
)

P_AT = PredicateSymbol("at", 2)
F_VAL = FunctionSymbol("f", 0)
F_UN = FunctionSymbol("g", 1)
X, Y = Variable("?x"), Variable("?y")
A, B, C = Object("a"), Object("b"), Object("c")


def term(fn, *args):
    return FunctionTerm(fn, args)


def test_substitute_examples():
    atom = Atom(P_AT, (X, Y))
    assert substitute(atom, {X: A}) == Atom(P_AT, (A, Y))
    rep = Atom(PredicateSymbol("p", 2), (X, X))
    assert substitute(rep, {X: A}) == Atom(PredicateSymbol("p", 2), (A, A))
    con = NumericConstraint(term(F_UN, X), ">=", term(F_UN, Y))
    got = substitute(con, {X: A})
    assert got == NumericConstraint(term(F_UN, A), ">=", term(F_UN, Y))
    assert free_variables(got) == {Y}


@given(st.permutations([A, B, C]))
@settings(max_examples=20)
def test_substitute_composes_on_disjoint_domains(objs):
    o1, o2, _ = objs
    atom = Atom(P_AT, (X, Y))
    assert substitute(substitute(atom, {X: o1}), {Y: o2}) == substitute(atom, {X: o1, Y: o2})


F_BIN = FunctionSymbol("h", 2)


@pytest.mark.parametrize("element, variables, terms", [
    (Atom(P_AT, (X, A)), {X}, []),
    (Literal(Atom(P_AT, (A, Y)), positive=False), {Y}, []),
    (term(F_BIN, Y, X), {X, Y}, [term(F_BIN, Y, X)]),
    (BinaryExpr("*", term(F_UN, X), BinaryExpr("-", Constant(1.0), term(F_VAL))),
     {X}, [term(F_UN, X), term(F_VAL)]),
    (NumericConstraint(term(F_UN, Y), "<", BinaryExpr("+", term(F_UN, X), term(F_UN, Y))),
     {X, Y}, [term(F_UN, Y), term(F_UN, X), term(F_UN, Y)]),
    (NumericEffect(term(F_UN, X), ASSIGN, BinaryExpr("/", term(F_BIN, Y, A), Constant(2.0))),
     {X, Y}, [term(F_UN, X), term(F_BIN, Y, A)]),
    (Atom(P_AT, (X, X)), {X}, []),
    (NumericConstraint(term(F_BIN, A, B), ">=", Constant(0.0)), set(), [term(F_BIN, A, B)]),
    (Constant(3.0), set(), []),
], ids=["atom", "literal", "term", "nested-expression", "constraint", "effect",
        "repeated-variable", "constants-only", "number"])
def test_free_variables_and_function_terms(element, variables, terms):
    assert free_variables(element) == variables
    assert list(function_terms(element)) == terms


@pytest.mark.parametrize("element", [X, A, "(p ?x)", GroundAction(ActionSchema("s", ()), ())],
                         ids=["variable", "object", "text", "ground-action"])
def test_walk_rejects_other_elements(element):
    with pytest.raises(TypeError):
        free_variables(element)
    with pytest.raises(TypeError):
        list(function_terms(element))


def test_holds_literal():
    s = State([Atom(P_AT, (A, B))], {})
    assert literal_holds(s, Literal(Atom(P_AT, (A, B))))
    assert literal_holds(s, Literal(Atom(P_AT, (A, C)), positive=False))
    assert not literal_holds(State([], {}), Literal(Atom(P_AT, (A, B))))


def test_builtin_equality():
    s = State([], {})
    assert literal_holds(s, Literal(Atom(EQUALITY, (A, A))))
    assert not literal_holds(s, Literal(Atom(EQUALITY, (A, B))))
    assert literal_holds(s, Literal(Atom(EQUALITY, (A, B)), positive=False))


def test_unbound_variable_in_ground_evaluation_names_it():
    s = State([Atom(P_AT, (A, B))], {term(F_UN, A): 1.0})
    for evaluate, name in (
        (lambda: literal_holds(s, Literal(Atom(P_AT, (A, Y))), {X: A}), "?y"),
        (lambda: literal_holds(s, Literal(Atom(EQUALITY, (X, Y)), False), {X: A}), "?y"),
        (lambda: expr_value(s, BinaryExpr("+", term(F_UN, X), term(F_UN, Y)), {X: A}), "?y"),
        (lambda: expr_value(s, term(F_UN, X)), "?x"),
    ):
        with pytest.raises(ValueError) as err:
            evaluate()
        assert str(err.value) == f"unbound variable {name} in ground evaluation"


def test_eval_expr():
    s = State([], {term(F_VAL): 3.0})
    assert expr_value(s, BinaryExpr("+", term(F_VAL), Constant(2.0))) == 5.0
    assert expr_value(State([], {}), term(F_VAL)) is None
    s2 = State([], {term(F_VAL): 1.0, term(F_UN, A): 0.0})
    assert expr_value(s2, BinaryExpr("/", term(F_VAL), term(F_UN, A))) is None


def test_holds_constraint():
    s = State([], {term(F_VAL): 3.0})
    assert constraint_holds(s, NumericConstraint(term(F_VAL), ">=", Constant(2.0)))
    assert not constraint_holds(s, NumericConstraint(term(F_VAL), "=", Constant(4.0)))
    assert not constraint_holds(State([], {}), NumericConstraint(term(F_VAL), ">=", Constant(2.0)))
    # a tolerance loosens each comparison by the slack and never tightens it
    for cmp, near, far in (("=", 3.25, 3.75), ("<", 2.75, 2.25), ("<=", 2.75, 2.25),
                           (">", 3.25, 3.75), (">=", 3.25, 3.75)):
        assert constraint_holds(s, NumericConstraint(term(F_VAL), cmp, Constant(near)),
                                tolerance=0.5), cmp
        assert not constraint_holds(s, NumericConstraint(term(F_VAL), cmp, Constant(far)),
                                    tolerance=0.5), cmp
    # at exactly the slack, the non-strict comparisons hold and the strict ones do not
    for cmp, edge, want in (("=", 3.5, True), ("<=", 2.5, True), (">=", 3.5, True),
                            ("<", 2.5, False), (">", 3.5, False)):
        got = constraint_holds(s, NumericConstraint(term(F_VAL), cmp, Constant(edge)),
                               tolerance=0.5)
        assert got == want, cmp
    infinite = State([], {term(F_VAL): float("inf"), term(F_UN, A): float("inf")})
    assert constraint_holds(infinite, NumericConstraint(term(F_VAL), "=", term(F_UN, A)),
                            tolerance=0.5)


def _schema(**kw):
    defaults = dict(name="act", params=(X,), pre_literals=(), pre_constraints=(),
                    eff_literals=(), eff_numeric=())
    defaults.update(kw)
    return ActionSchema(**defaults)


def test_applicability_three_conditions():
    p = PredicateSymbol("p", 1)
    g = FunctionSymbol("fl", 1)
    s = State([Atom(p, (A,))], {term(g, A): 1.0})

    ok = _schema(pre_literals=(Literal(Atom(p, (X,))),),
                 pre_constraints=(NumericConstraint(term(g, X), ">", Constant(0.0)),),
                 eff_numeric=(NumericEffect(term(g, X), INCREASE, Constant(1.0)),))
    assert is_applicable(s, GroundAction(ok, (A,)))

    conflicting = _schema(eff_numeric=(
        NumericEffect(term(g, X), ASSIGN, Constant(1.0)),
        NumericEffect(term(g, X), INCREASE, Constant(1.0)),
    ))
    assert not is_applicable(s, GroundAction(conflicting, (A,)))
    assert "conflicting" in applicability_failure(s, GroundAction(conflicting, (A,)))

    target_undefined = _schema(eff_numeric=(NumericEffect(term(g, X), INCREASE, Constant(1.0)),))
    no_fluents = State([Atom(p, (A,))], {})
    assert not is_applicable(no_fluents, GroundAction(target_undefined, (A,)))

    assign_ok = _schema(eff_numeric=(NumericEffect(term(g, X), ASSIGN, Constant(1.0)),))
    assert is_applicable(no_fluents, GroundAction(assign_ok, (A,)))

    divides_by_zero = _schema(eff_numeric=(NumericEffect(term(g, X), SCALE_DOWN, Constant(0.0)),))
    assert not is_applicable(s, GroundAction(divides_by_zero, (A,)))


_P = PredicateSymbol("p", 1)
_G = FunctionSymbol("fl", 1)
_H = FunctionSymbol("h", 1)


@pytest.mark.parametrize("schema, reason", [
    (_schema(pre_literals=(Literal(Atom(_P, (X,))),)),
     "precondition literal does not hold: (p a)"),
    (_schema(pre_constraints=(NumericConstraint(term(_G, X), ">", Constant(1.0)),)),
     "precondition constraint does not hold: (> (fl a) 1)"),
    (_schema(eff_numeric=(NumericEffect(term(_G, X), INCREASE, term(F_VAL)),)),
     "effect expression undefined: (+= (fl a) (f))"),
    (_schema(eff_numeric=(NumericEffect(term(_H, X), INCREASE, Constant(1.0)),)),
     "effect target undefined: (h a)"),
    (_schema(eff_numeric=(NumericEffect(term(_G, X), SCALE_DOWN, Constant(0.0)),)),
     "effect divides by zero: (/= (fl a) 0)"),
    (_schema(eff_numeric=(NumericEffect(term(_G, X), ASSIGN, Constant(1.0)),
                          NumericEffect(term(_G, X), INCREASE, Constant(1.0)))),
     "conflicting effects on (fl a)"),
    # the first failing condition is the one reported
    (_schema(pre_literals=(Literal(Atom(_P, (X,))),),
             pre_constraints=(NumericConstraint(term(_G, X), ">", Constant(1.0)),)),
     "precondition literal does not hold: (p a)"),
    (_schema(pre_constraints=(NumericConstraint(term(_G, X), "=", Constant(1.0)),),
             eff_numeric=(NumericEffect(term(_G, X), SCALE_UP, Constant(2.0)),)),
     None),
])
def test_applicability_failure_reasons(schema, reason):
    s = State([], {term(_G, A): 1.0})
    action = GroundAction(schema, (A,))
    assert applicability_failure(s, action) == reason
    assert is_applicable(s, action) == (reason is None)


def test_apply_additive_group():
    g = FunctionSymbol("fl", 0)
    s = State([], {term(g): 10.0})
    schema = _schema(params=(), eff_numeric=(
        NumericEffect(term(g), INCREASE, Constant(2.0)),
        NumericEffect(term(g), DECREASE, Constant(3.0)),
    ))
    assert apply(s, GroundAction(schema, ())).fluents[term(g)] == 9.0


def test_apply_multiplicative_group():
    g = FunctionSymbol("fl", 0)
    s = State([], {term(g): 10.0})
    schema = _schema(params=(), eff_numeric=(
        NumericEffect(term(g), SCALE_UP, Constant(2.0)),
        NumericEffect(term(g), SCALE_DOWN, Constant(4.0)),
    ))
    assert apply(s, GroundAction(schema, ())).fluents[term(g)] == 5.0


def test_apply_delete_then_add():
    p = PredicateSymbol("p", 1)
    q = PredicateSymbol("q", 1)
    s = State([Atom(p, (A,))], {})
    schema = _schema(eff_literals=(Literal(Atom(p, (X,)), positive=False),
                                   Literal(Atom(q, (X,)))))
    assert apply(s, GroundAction(schema, (A,))).atoms == frozenset([Atom(q, (A,))])
    # the same atom deleted and added ends up true
    readd = _schema(eff_literals=(Literal(Atom(p, (X,)), positive=False),
                                  Literal(Atom(p, (X,)))))
    assert apply(s, GroundAction(readd, (A,))).atoms == frozenset([Atom(p, (A,))])


def test_apply_simultaneous_reads_from_original():
    f = FunctionSymbol("fa", 0)
    g = FunctionSymbol("fb", 0)
    s = State([], {term(f): 1.0, term(g): 2.0})
    schema = _schema(params=(), eff_numeric=(
        NumericEffect(term(f), INCREASE, term(g)),
        NumericEffect(term(g), INCREASE, term(f)),
    ))
    s2 = apply(s, GroundAction(schema, ()))
    assert s2.fluents[term(f)] == 3.0
    assert s2.fluents[term(g)] == 3.0


def test_apply_frame_property():
    rng = random.Random(11)
    p = PredicateSymbol("p", 1)
    g = FunctionSymbol("fl", 1)
    objs = (A, B, C)
    for _ in range(50):
        atoms = {Atom(p, (o,)) for o in objs if rng.random() < 0.5}
        fluents = {term(g, o): float(rng.randint(0, 5)) for o in objs}
        s = State(atoms, fluents)
        schema = _schema(
            eff_literals=(Literal(Atom(p, (X,)), positive=rng.random() < 0.5),),
            eff_numeric=(NumericEffect(term(g, X), INCREASE, Constant(1.0)),),
        )
        chosen = rng.choice(objs)
        s2 = apply(s, GroundAction(schema, (chosen,)))
        for o in objs:
            if o != chosen:
                assert (Atom(p, (o,)) in s2.atoms) == (Atom(p, (o,)) in s.atoms)
                assert s2.fluents[term(g, o)] == s.fluents[term(g, o)]


def test_effect_order_independence():
    g = FunctionSymbol("fl", 0)
    s = State([], {term(g): 7.0})
    effects = [
        NumericEffect(term(g), INCREASE, Constant(2.0)),
        NumericEffect(term(g), DECREASE, Constant(5.0)),
        NumericEffect(term(g), INCREASE, Constant(1.0)),
    ]
    results = set()
    for perm in itertools.permutations(effects):
        schema = _schema(params=(), eff_numeric=tuple(perm))
        results.add(apply(s, GroundAction(schema, ())).fluents[term(g)])
    assert results == {5.0}


def test_goal_satisfied():
    p = PredicateSymbol("p", 1)
    g = FunctionSymbol("fl", 0)
    task = Task(
        domain_name="d", problem_name="t",
        predicates=(p,), functions=(g,), schemas=(),
        objects=(A,), init=State([Atom(p, (A,))], {term(g): 5.0}),
        goal_literals=(Literal(Atom(p, (A,))),),
        goal_constraints=(NumericConstraint(term(g), ">=", Constant(5.0)),),
    )
    assert goal_satisfied(task.init, task)
    empty_goal = Task("d", "t", (p,), (g,), (), (A,), State([], {}))
    assert goal_satisfied(empty_goal.init, empty_goal)


def test_schema_collapses_repeated_elements():
    g = FunctionSymbol("fl", 0)
    bump = NumericEffect(term(g), INCREASE, Constant(1.0))
    schema = _schema(params=(), eff_numeric=(bump, bump))
    assert schema.eff_numeric == (bump,)
    s = State([], {term(g): 0.0})
    assert apply(s, GroundAction(schema, ())).fluents[term(g)] == 1.0


def test_schema_rejects_loose_variables():
    p = PredicateSymbol("p", 1)
    with pytest.raises(ValueError):
        ActionSchema(name="bad", params=(X,), pre_literals=(Literal(Atom(p, (Y,))),))


def test_state_identity_is_exact():
    g = FunctionSymbol("fl", 0)
    s1 = State([], {term(g): 1.0})
    s2 = State([], {term(g): 1.0})
    s3 = State([], {term(g): 1.0 + 1e-12})
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1 != s3

    def same(a, b):
        return a.key() == b.key() and hash(a) == hash(b) and a == b

    assert same(State([], {term(g): -0.0}), State([], {term(g): 0.0}))
    # the order in which fluents were inserted is not part of the identity
    forward = {term(F_UN, o): float(i) for i, o in enumerate((A, B, C))}
    backward = dict(reversed(list(forward.items())))
    assert list(forward) != list(backward)
    atoms = [Atom(P_AT, (A, B)), Atom(P_AT, (B, C))]
    assert same(State(atoms, forward), State(reversed(atoms), backward))
    # the init states of two separate parses of one task
    first, second = load_bundled("delivery").init, load_bundled("delivery").init
    assert first.atoms and first.fluents
    assert same(first, second)
    dropped = State(list(first.atoms)[1:], first.fluents)
    some_term = next(iter(first.fluents))
    bumped = State(first.atoms, {**first.fluents, some_term: first.fluents[some_term] + 1})
    for changed in (dropped, bumped):
        assert changed.key() != first.key() and changed != first


# --- states own what effects change and share the static rest ---


def test_successors_share_the_static_part_of_their_task(bundled_tasks):
    from lnplan.successors import SuccessorGenerator

    for name, task in bundled_tasks.items():
        init, generator = task.init, SuccessorGenerator(task)
        for action in generator.applicable(init)[0]:
            child = apply(init, action)
            assert child.static is init.static, name
            for grandchild_action in generator.applicable(child)[0][:3]:
                assert apply(child, grandchild_action).static is init.static, name


def test_relay_states_own_only_positions_and_energy(bundled_tasks):
    from lnplan.successors import SuccessorGenerator

    task = bundled_tasks["relay"]
    step_cost = FunctionTerm(task.function("step-cost"), ())
    assert step_cost in task.init.static.fluents and step_cost not in task.init.own_fluents
    assert task.init.static.atoms and all(
        atom.predicate.name != "at" for atom in task.init.static.atoms)
    states = [task.init] + [apply(task.init, a)
                            for a in SuccessorGenerator(task).applicable(task.init)[0]]
    assert len(states) > 1
    for state in states:
        assert state.own_atoms and {a.predicate.name for a in state.own_atoms} == {"at"}
        assert state.own_fluents and {t.function.name for t in state.own_fluents} == {"energy"}
        assert state.fluents[step_cost] == task.init.fluents[step_cost]


def test_states_differ_when_only_their_static_parts_do(bundled_tasks):
    import dataclasses

    task = bundled_tasks["relay"]
    static = task.init.static
    link = next(iter(static.atoms))
    step_cost = next(iter(static.fluents))
    for init in (State(task.init.atoms - {link}, task.init.fluents),
                 State(task.init.atoms, {**task.init.fluents, step_cost: 2.0})):
        other = dataclasses.replace(task, init=init).init
        assert other.own_atoms == task.init.own_atoms
        assert other.own_fluents == task.init.own_fluents
        assert other.static != static and other.key() != task.init.key() and other != task.init
    # the same static content in another object compares equal
    again = dataclasses.replace(task, init=State(task.init.atoms, task.init.fluents)).init
    assert again.static is not static and again.static == static
    assert again.key() == task.init.key() and hash(again) == hash(task.init)


def test_full_views_equal_the_unsplit_contents(monkeypatch):
    # the parser hands Task a state that owns everything it read; the task's
    # split initial state and its successors read back the same contents as
    # that state and the successors computed from it
    from conftest import BUNDLED
    from taskgen import brute_applicable

    from lnplan import pddl
    from lnplan.model import NO_STATIC_FACTS

    unsplit = []
    real = pddl.Task
    monkeypatch.setattr(pddl, "Task", lambda **fields: unsplit.append(fields["init"])
                        or real(**fields))
    for name in BUNDLED:
        task = load_bundled(name)
        (whole,) = unsplit
        unsplit.clear()
        split = task.init
        assert whole.static is NO_STATIC_FACTS and split.static is not NO_STATIC_FACTS
        assert split.static.atoms or split.static.fluents, name
        assert not split.own_atoms & split.static.atoms
        assert not split.own_fluents.keys() & split.static.fluents.keys()
        rng = random.Random(name)
        for _ in range(6):
            assert not split.own_atoms & split.static.own_atoms, name
            assert not split.own_fluents.keys() & split.static.own_fluents.keys(), name
            assert split.atoms == whole.own_atoms, name
            assert split.fluents == whole.own_fluents, name
            assert goal_satisfied(split, task) == goal_satisfied(whole, task), name
            actions = brute_applicable(task, split)
            assert actions == brute_applicable(task, whole), name
            if not actions:
                break
            action = rng.choice(actions)
            split, whole = apply(split, action), apply(whole, action)


# --- successors from ground effects, over interned objects and terms ---


def _check_successor(state, action):
    """apply_effects agrees with the reference successor: equal full contents,
    a key derived from the state's key that equals the key packed for the
    reference once it is split like the state, and every value a float with
    -0.0 stored as 0.0. Returns the successor."""
    from taskgen import reference_successor

    got, want = apply_effects(state, action), reference_successor(state, action)
    assert got.atoms == want.atoms, action
    assert got.fluents == want.fluents, action
    assert all(type(v) is float and (v != 0 or math.copysign(1.0, v) > 0)
               for v in got.own_fluents.values()), action
    static = state.static
    split = State(want.atoms - static.own_atoms,
                  {t: v for t, v in want.fluents.items() if t not in static.own_fluents}, static)
    assert got.key() == split.key() and hash(got) == hash(split) and got == split, action
    return got


def _walk(task, rng, steps, applicable=None):
    """Every applicable action of each state along a random walk, checked;
    the states of the walk and all their successors. `applicable` gives a
    state's actions, by default the brute-force oracle's."""
    from taskgen import brute_applicable

    if applicable is None:
        applicable = lambda state: brute_applicable(task, state)  # noqa: E731
    state, states = task.init, [task.init]
    for _ in range(steps):
        actions = applicable(state)
        if not actions:
            break
        successors = [_check_successor(state, action) for action in actions]
        states += successors
        state = rng.choice(successors)
    return states


P1, Q2 = PredicateSymbol("p", 1), PredicateSymbol("q", 2)
F0, G1, H1 = FunctionSymbol("f", 0), FunctionSymbol("g", 1), FunctionSymbol("h", 1)


def _effects_task(f=0.0):
    lit, neg = Literal, (lambda atom: Literal(atom, False))
    schemas = (
        # constants in effect arguments, a target not defined initially
        ActionSchema("consts", (X,), eff_literals=(lit(Atom(Q2, (X, A))), neg(Atom(P1, (B,)))),
                     eff_numeric=(NumericEffect(term(G1, C), INCREASE, Constant(1.0)),
                                  NumericEffect(term(H1, X), ASSIGN, term(G1, A)))),
        # a repeated parameter, arguments out of parameter order, and two
        # updates that share a target when ?x = ?y
        ActionSchema("repeat", (X, Y), eff_literals=(lit(Atom(Q2, (X, X))), neg(Atom(Q2, (Y, X)))),
                     eff_numeric=(NumericEffect(term(G1, X), INCREASE, Constant(1.0)),
                                  NumericEffect(term(G1, Y), DECREASE, term(F0)))),
        # an assignment to a target that the schemas above update
        ActionSchema("reset", (X,), pre_literals=(Literal(Atom(P1, (X,)), False),),
                     eff_numeric=(NumericEffect(term(G1, X), ASSIGN,
                                                BinaryExpr("*", Constant(2.0), Constant(-0.0))),)),
        # a delete and an add of the same atom
        ActionSchema("flip", (X,), eff_literals=(neg(Atom(P1, (X,))), lit(Atom(P1, (X,))))),
        ActionSchema("negate", (),
                     eff_numeric=(NumericEffect(term(F0), SCALE_UP, Constant(-1.0)),)),
    )
    return Task("effects", "effects", (P1, Q2), (F0, G1, H1), schemas, (A, B, C),
                State([Atom(P1, (A,)), Atom(P1, (B,))],
                      {term(F0): f, term(H1, A): 1.0,
                       **{term(G1, o): 0.0 for o in (A, B, C)}}))


def test_apply_effects_matches_the_reference_on_walks(seed):
    from taskgen import random_task, searching_task

    rng = random.Random(seed)
    for f in (0.0, 2.0):
        _walk(_effects_task(f=f), rng, 12)
    for i in range(24):
        _walk(random_task(rng, exact=bool(i % 2), task_id=i), rng, 4)
        _walk(searching_task(rng, task_id=i), rng, 4)
    # states built by hand, with no static part, agree as well
    task = _effects_task()
    hand = State(task.init.atoms, task.init.fluents)
    for action in (GroundAction(task.schema("consts"), (B,)),
                   GroundAction(task.schema("repeat"), (A, A))):
        _check_successor(hand, action)


def test_apply_effects_edge_cases():
    task = _effects_task()
    init = task.init
    flipped = apply_effects(init, GroundAction(task.schema("flip"), (A,)))
    assert Atom(P1, (A,)) in flipped.atoms and flipped == init
    # (scale-up (f) -1) on f = 0 writes -0.0, which keys equal to 0.0
    negated = apply_effects(init, GroundAction(task.schema("negate"), ()))
    assert math.copysign(1.0, negated.fluents[term(F0)]) == 1.0
    assert negated == init and hash(negated) == hash(init)
    # the reset schema's constant expression 2 * -0.0 stores 0.0 as well
    reset = apply_effects(init, GroundAction(task.schema("reset"), (C,)))
    assert math.copysign(1.0, reset.fluents[term(G1, C)]) == 1.0 and reset == init
    both = apply_effects(init, GroundAction(task.schema("repeat"), (B, B)))
    assert both.fluents[term(G1, B)] == 1.0
    assert Atom(Q2, (B, B)) in both.atoms


def test_an_action_grounds_its_effects_once():
    task = _effects_task()
    consts = task.schema("consts")
    with pytest.raises(ValueError, match="arity mismatch"):
        GroundAction(consts, (A, B))
    action = GroundAction(consts, (B,))
    assert action == GroundAction(consts, [B]) and hash(action) == hash(GroundAction(consts, [B]))
    parts = action.ground_effects()
    assert parts == ((Atom(P1, (B,)),), (Atom(Q2, (B, A)),), (term(G1, C), term(H1, B)))
    assert action.ground_effects() is parts
    # (assign (h ?x) (g a)) reads g(a) in the state it is applied in, each
    # time: g is written by effects, so its delta keeps the expression, while
    # the constant of (increase (g c) 1) is fixed once
    init = task.init
    once = apply_effects(init, action)
    writes = action.delta(init, init.key()[1]).writes
    assert [(expr, value) for _, _, expr, value in writes] == [(None, 1.0), (term(G1, A), None)]
    bumped = apply_effects(once, GroundAction(task.schema("repeat"), (A, B)))
    assert apply_effects(once, action).fluents[term(H1, B)] == 0.0
    assert apply_effects(bumped, action).fluents[term(H1, B)] == 1.0
    assert action.ground_effects() is parts


def test_successors_write_the_initial_states_keys(bundled_tasks):
    # the atoms and terms a successor writes are the initial state's own
    # instances wherever it has them, not equal copies: matched by symbol
    # name and arguments, not by equality, each one is the very instance
    from lnplan.successors import SuccessorGenerator

    for name in ("farmland", "relay", "delivery", "switches"):
        task = bundled_tasks[name]
        init, generator = task.init, SuccessorGenerator(task)
        atoms = {(a.predicate.name, a.args): a for a in init.own_atoms}
        terms = {(t.function.name, t.args): t for t in init.own_fluents}
        for action in generator.applicable(init)[0]:
            child = apply_effects(init, action)
            for step in generator.applicable(child)[0]:
                grandchild = apply_effects(child, step)
                for a in grandchild.own_atoms:
                    assert atoms.get((a.predicate.name, a.args), a) is a, name
                    assert Atom.find((a.predicate.name, a.args)) is a, name
                for t in grandchild.own_fluents:
                    assert terms.get((t.function.name, t.args), t) is t, name
                    assert FunctionTerm.find((t.function.name, t.args)) is t, name


def test_keys_equal_across_separate_parses():
    from lnplan.successors import SuccessorGenerator

    for name in ("delivery", "farmland", "relay", "doubling"):
        first, second = load_bundled(name), load_bundled(name)
        rng = random.Random(name)
        states = [first.init, second.init]
        for _ in range(8):
            assert states[0].key() == states[1].key(), name
            assert hash(states[0]) == hash(states[1]) and states[0] == states[1], name
            actions = [SuccessorGenerator(task).applicable(state)[0]
                       for task, state in zip((first, second), states)]
            assert [a.pddl() for a in actions[0]] == [a.pddl() for a in actions[1]], name
            if not actions[0]:
                break
            i = rng.randrange(len(actions[0]))
            states = [_check_successor(state, acts[i]) for state, acts in zip(states, actions)]


# --- packed keys, derived from the parent's key and the action's delta ---


def _assert_keys_follow_contents(states, label):
    """Equal keys exactly for equal atoms and fluents."""
    keys_of: dict = {}
    for state in states:
        keys_of.setdefault((state.atoms, frozenset(state.fluents.items())), set()).add(state.key())
    assert all(len(keys) == 1 for keys in keys_of.values()), label
    assert len({state.key() for state in states}) == len(keys_of), label


def test_derived_keys_equal_packed_keys_and_follow_contents(seed, bundled_tasks):
    from taskgen import random_task, searching_task

    from lnplan.successors import SuccessorGenerator

    # `_walk` checks each successor's key, derived from its parent's key and
    # the action's delta, against the key packed afresh for the reference
    # successor built by hand over the same static part
    rng = random.Random(seed)
    for i in range(16):
        for task in (random_task(rng, exact=bool(i % 2), task_id=i),
                     searching_task(rng, task_id=i)):
            _assert_keys_follow_contents(_walk(task, rng, 4), task.problem_name)
    for name, task in bundled_tasks.items():
        generator = SuccessorGenerator(task)
        states = _walk(task, rng, 6, lambda state: generator.applicable(state)[0])
        _assert_keys_follow_contents(states, name)


def test_keys_of_signed_zeros_ints_and_floats():
    task = _effects_task()
    init = task.init
    # (scale-up (f) -1) on f = 0 writes -0.0, which keys as 0.0
    assert successor_key(init, GroundAction(task.schema("negate"), ())) == init.key()
    # the reset schema's 2 * -0.0 leaves g(c) = 0.0 as it was
    assert successor_key(init, GroundAction(task.schema("reset"), (C,))) == init.key()
    fluents = init.own_fluents
    as_ints = {t: int(v) for t, v in fluents.items()}
    negative_zeros = {t: -0.0 if v == 0 else v for t, v in fluents.items()}
    for hand in (State(init.own_atoms, as_ints, init.static),
                 State(init.own_atoms, negative_zeros, init.static)):
        assert hand.key() == init.key() and hash(hand) == hash(init) and hand == init
    assert State((), {term(F0): -0.0}).key() == State((), {term(F0): 0}).key()
    assert State((), {term(F0): 1}).key() == State((), {term(F0): 1.0}).key()
    assert State((), {term(F0): 0.0}).key() != State((), {term(F0): 1e-300}).key()
    # NaN is as unequal to itself in a key as elsewhere: two states holding
    # distinct NaN objects differ, as they did before keys were packed
    nan = State((), {term(F0): float("nan")})
    assert nan == nan and nan != State((), {term(F0): float("nan")})


def test_keys_grow_a_slot_for_a_fluent_defined_on_the_way():
    import uuid

    tag = uuid.uuid4().hex  # names no layout has numbered yet
    level, count = FunctionSymbol(f"level-{tag}", 0), FunctionSymbol(f"count-{tag}", 1)
    u, v = Object(f"u-{tag}"), Object(f"v-{tag}")
    define = ActionSchema("define", (X,), eff_numeric=(
        NumericEffect(term(count, X), ASSIGN, BinaryExpr("+", term(level), Constant(1))),))
    task = Task("grow", "grow", (), (level, count), (define,), (u, v),
                State((), {term(level): 2.0}))
    init = task.init
    # level is static, so (+ (level) 1) is evaluated once per action
    assert not init.own_fluents and term(level) in init.static.own_fluents
    before = init.key()
    define_u = GroundAction(define, (u,))
    at_u = successor_key(init, define_u)
    assert len(at_u) == len(before) + 1 and at_u[-1] == 3.0
    # its delta holds the value and no expression
    writes = define_u.delta(init, before[1]).writes
    assert [(expr, value) for _, _, expr, value in writes] == [(None, 3.0)]
    only_u = keyed_successor(init, define_u, at_u)
    at_v = successor_key(init, GroundAction(define, (v,)))
    both = successor_key(only_u, GroundAction(define, (v,)))
    # count(u) undefined sits in the middle of count(v)'s key as None
    assert at_v[-2] is None and at_v[-1] == 3.0 and both[-2:] == (3.0, 3.0)
    assert len({before, at_u, at_v, both}) == 4
    # a state packed after the slots grew ends at its last defined slot, so
    # the same contents key alike before and after
    assert State((), dict(init.own_fluents), init.static).key() == before
    for key, fluents in ((at_u, {term(count, u): 3.0}), (at_v, {term(count, v): 3.0}),
                         (both, {term(count, v): 3, term(count, u): 3})):
        hand = State((), fluents, init.static)
        assert hand.key() == key and hash(hand) == hash(key)
    # undefined stays distinct from every value the slot can hold
    for value in (0.0, -0.0, 3.0):
        hand = State((), {term(count, u): value}, init.static)
        assert hand.key() != before and (hand.key() == at_u) == (value == 3.0)


# --- interned objects, variables, atoms and function terms ---


def test_objects_and_variables_are_interned():
    assert Object("a") is Object("a") and Object("a") is A
    assert Variable("?x") is Variable("?x") and Variable("?x") is X
    assert Object("a") != Variable("a") and Variable("a") != Object("a")
    assert Object("a") != "a" and hash(Object("a")) == hash(A)
    # atoms and terms: one instance per symbol name and arguments, whatever
    # symbol instance or argument iterable builds them
    atom, fterm = Atom(P_AT, (A, B)), term(F_UN, A)
    assert Atom(PredicateSymbol("at", 2), iter([A, B])) is atom
    assert FunctionTerm(FunctionSymbol("g", 1), [A]) is fterm
    assert Atom(P_AT, (B, A)) is not atom and Atom(P_AT, (A, X)) is not atom
    assert Atom.find(("at", (A, B))) is atom and FunctionTerm.find(("g", (A,))) is fterm
    # an atom and a term of one name and arguments never compare equal
    twin = Atom(PredicateSymbol("g", 1), (A,))
    assert twin is not fterm and twin != fterm and fterm != twin
    assert len({twin, fterm}) == 2
    # the arity is checked before the lookup: the key ("at", (a,)) of a
    # unary symbol named at does not answer for the binary one
    unary = Atom(PredicateSymbol("at", 1), (A,))
    assert Atom.find(("at", (A,))) is unary
    with pytest.raises(ValueError, match="atom at expects 2 arguments, got 1"):
        Atom(P_AT, (A,))
    with pytest.raises(ValueError, match="function g expects 1 arguments, got 2"):
        FunctionTerm(F_UN, (A, B))
    import copy
    import pickle

    assert copy.deepcopy(A) is A and pickle.loads(pickle.dumps((A, X))) == (A, X)
    assert copy.deepcopy(atom) is atom and copy.copy(fterm) is fterm
    assert pickle.loads(pickle.dumps(atom)) is atom
    assert pickle.loads(pickle.dumps(fterm)) is fterm
    effect = NumericEffect(fterm, ASSIGN, term(F_VAL))
    assert copy.deepcopy(effect).target is fterm and pickle.loads(pickle.dumps(effect)) == effect


def test_probes_build_no_atom_or_term():
    import gc

    state = State([Atom(P_AT, (A, B))], {term(F_UN, A): 1.0})
    gc.collect()
    before = len(Atom._instances), len(FunctionTerm._instances)
    assert not literal_holds(state, Literal(Atom(P_AT, (X, Y))), {X: B, Y: C})
    assert literal_holds(state, Literal(Atom(P_AT, (X, Y)), False), {X: C, Y: C})
    assert literal_holds(state, Literal(Atom(P_AT, (X, Y))), {X: A, Y: B})
    assert expr_value(state, term(F_UN, X), {X: C}) is None
    assert expr_value(state, BinaryExpr("+", term(F_UN, X), Constant(1.0)), {X: B}) is None
    assert expr_value(state, term(F_UN, X), {X: A}) == 1.0
    assert not constraint_holds(state, NumericConstraint(term(F_UN, X), ">", Constant(0.0)),
                                {X: C})
    assert Atom.find(("at", (B, C))) is None and FunctionTerm.find(("g", (C,))) is None
    assert (len(Atom._instances), len(FunctionTerm._instances)) == before


def test_a_dropped_instance_leaves_its_table():
    # the table holds weak references: an instance that nothing else holds
    # leaves it at once, and a key built again after that maps to the new
    # instance, which the old reference's removal leaves in place
    import uuid

    name = f"o{uuid.uuid4().hex}"
    obj = Object(name)
    entry = Object._instances[name]
    assert entry() is obj and Object.find(name) is obj
    del obj
    assert name not in Object._instances and Object.find(name) is None
    again = Object(name)
    Object._remove(entry)  # a late removal of the dead reference
    assert Object._instances[name]() is again and Object.find(name) is again
    atom = Atom(P_AT, (again, again))
    key = ("at", (again, again))
    assert Atom.find(key) is atom
    del atom
    assert key not in Atom._instances


def test_intern_tables_shrink_when_tasks_are_dropped():
    import gc
    import uuid

    from lnplan.pddl import parse_task
    from lnplan.successors import SuccessorGenerator

    gc.collect()
    tables = (Object._instances, Variable._instances, Atom._instances, FunctionTerm._instances)
    before = [len(table) for table in tables]
    tasks = []
    for i in range(50):
        tag = uuid.uuid4().hex
        domain = (f"(define (domain d{i}) (:predicates (at ?x{tag}))"
                  f" (:functions (n ?x{tag}))"
                  f" (:action go :parameters (?a{tag} ?b{tag})"
                  f"  :precondition (at ?a{tag})"
                  f"  :effect (and (not (at ?a{tag})) (at ?b{tag}) (increase (n ?b{tag}) 1))))")
        problem = (f"(define (problem p{i}) (:domain d{i}) (:objects u{tag} v{tag})"
                   f" (:init (at u{tag}) (= (n u{tag}) 0) (= (n v{tag}) 0))"
                   f" (:goal (at v{tag})))")
        task = parse_task(domain, problem)
        actions = SuccessorGenerator(task).applicable(task.init)[0]
        assert len(actions) == 2
        tasks.append((task, [apply_effects(task.init, action) for action in actions]))
    assert len(Object._instances) >= before[0] + 2 * 50
    assert len(Variable._instances) >= before[1] + 2 * 50
    # per task, the atoms (at u), (at v), (at ?a) and (at ?b) and the terms
    # (n u), (n v) and (n ?b)
    assert len(Atom._instances) >= before[2] + 4 * 50
    assert len(FunctionTerm._instances) >= before[3] + 3 * 50
    del tasks, task, actions
    gc.collect()
    assert all(len(table) <= size for table, size in zip(tables, before))
