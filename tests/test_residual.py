"""The residual checks: what the exact filter still tests per schema and strategy."""

import dataclasses
import random

from conftest import BUNDLED, load_bundled
from taskgen import all_bindings, random_task, walk_states

from lnplan.model import (
    EQUALITY_NAME,
    _failure,
    applicability_failure,
    apply,
    is_applicable,
    literal_holds,
)
from lnplan.pddl import parse_task
from lnplan.successors import (
    EXHAUSTIVE,
    GROUNDED,
    NUMERIC,
    PROPOSITIONAL,
    STRATEGIES,
    GeneratorConfig,
    SuccessorGenerator,
)

FLAGS = ("defined", "nonzero", "target", "conflict")


def _describe(check) -> tuple:
    if check is None:
        return ()
    out = [repr(e) for e in check.literals + check.constraints]
    for effect in check.effects:
        out.append(f"{effect.effect!r} " + "+".join(f for f in FLAGS if getattr(effect, f)))
    return tuple(out)


def _residuals(task, strategy) -> dict:
    generator = SuccessorGenerator(task, GeneratorConfig(strategy=strategy))
    return {schema.name: _describe(check) for schema, check in generator.checks if check}


DELIVERY_FUEL = "(>= (fuel ?t) (dist ?a ?b))"

# task -> strategy -> schema -> residual; a schema left out has none
RESIDUALS = {
    "counters": {
        NUMERIC: {},
        PROPOSITIONAL: {"increment": ("(<= (+ (value ?c) 1) (max_int))",),
                        "decrement": ("(>= (- (value ?c) 1) 0)",)},
    },
    # the clique search decides (link ?r ?a ?b), and the precondition reads
    # the target and the expression of the energy effect
    "relay": {
        NUMERIC: {},
        PROPOSITIONAL: {"move": ("(>= (energy ?r) (step-cost))",)},
        GROUNDED: {"move": ("(at ?r ?a)", "(>= (energy ?r) (step-cost))")},
    },
    "switches": {
        NUMERIC: {},
        PROPOSITIONAL: {},
        GROUNDED: {"flip-on": ("(not (on ?s))",), "flip-off": ("(on ?s)",)},
    },
    "farmland": {
        NUMERIC: {},
        PROPOSITIONAL: {"move-unit": ("(>= (units ?a) 1)",)},
    },
    # the numeric clique search decides the fuel constraint, which reads
    # what the fuel effect reads and writes
    "delivery": {
        NUMERIC: {},
        PROPOSITIONAL: {"drive": (DELIVERY_FUEL,)},
        GROUNDED: {"drive": ("(at ?t ?a)", DELIVERY_FUEL)},
    },
    "ratecounters": {
        NUMERIC: {},
        PROPOSITIONAL: {"step": ("(<= (+ (value ?c) (rate ?c)) (max-val))",),
                        "boost": ("(<= (rate ?c) 2)",)},
    },
    "watering": {
        NUMERIC: {},
        PROPOSITIONAL: {"water": ("(>= (tank) 1)", "(< (poured ?p) (need ?p))")},
    },
    "doubling": {
        NUMERIC: {},
        PROPOSITIONAL: {"double": ("(<= (* (val ?x) 2) (limit))",)},
    },
    "tokens": {
        NUMERIC: {},
        PROPOSITIONAL: {},
        GROUNDED: {"slide": ("(token-at ?a)", "(not (token-at ?b))")},
    },
    "dials": {
        NUMERIC: {},
        PROPOSITIONAL: {"preset": ("(< (dial ?m) 5)",),
                        "fine-tune": ("(>= (dial ?m) 5)", "(<= (dial ?m) 6)")},
    },
    # the graph reads the arity-3 toll at its exact value where ?t and the
    # location are bound, and the precondition reads what the effect reads
    "tolls": {
        NUMERIC: {},
        PROPOSITIONAL: {"enter": ("(>= (fuel ?t) (toll ?t ?a hub))",),
                        "leave": ("(>= (fuel ?t) (toll ?t hub ?b))",)},
        GROUNDED: {"enter": ("(at ?t ?a)", "(>= (fuel ?t) (toll ?t ?a hub))"),
                   "leave": ("(at ?t hub)", "(>= (fuel ?t) (toll ?t hub ?b))")},
    },
}


def test_residuals_of_bundled_schemas():
    assert set(RESIDUALS) == set(BUNDLED)
    for name, want in RESIDUALS.items():
        task = load_bundled(name)
        for strategy in (NUMERIC, PROPOSITIONAL, GROUNDED):
            # without a static literal, grounded leaves what propositional leaves
            expected = want.get(strategy, want[PROPOSITIONAL])
            assert _residuals(task, strategy) == expected, (name, strategy)
        # exhaustive decides nothing: every precondition, and the same effects
        generator = SuccessorGenerator(task, GeneratorConfig(strategy=EXHAUSTIVE))
        numeric = dict(SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC)).checks)
        for schema, check in generator.checks:
            assert check.literals == schema.pre_literals, (name, schema.name)
            assert check.constraints == schema.pre_constraints, (name, schema.name)
            assert check.effects == (numeric[schema].effects if numeric[schema] else ())


DOMAIN = """(define (domain d)
  (:requirements :strips :typing :numeric-fluents)
  (:types c other)
  (:constants k - other)
  (:predicates (p ?x) (q ?x))
  (:functions (v ?x) (w ?x) (u ?x) (m ?x ?y) (h ?x ?y ?z) (total))
  {actions})"""

PROBLEM = """(define (problem t) (:domain d)
  (:objects a b - c z - other)
  (:init (p a) (p b) {init})
  (:goal (and (p a))))"""


def _case(actions: str, init: str):
    """The numeric residual per action and the applicable set in the initial
    state. Under all four strategies, the residual filter must agree with
    the full one in that state and in each of its successors."""
    task = parse_task(DOMAIN.format(actions=actions), PROBLEM.format(init=init))
    generators = [SuccessorGenerator(task, GeneratorConfig(strategy=s)) for s in STRATEGIES]
    first = sorted(a.pddl() for a in generators[0].applicable(task.init)[0])
    states = [task.init] + [apply(task.init, a) for a in generators[0].applicable(task.init)[0]]
    for state in states:
        for generator in generators:
            got, _ = generator.applicable(state)
            want = [a for schema in task.schemas
                    for a in generator.candidates(schema, state) if is_applicable(state, a)]
            assert got == want, (generator.config.strategy, state)
            if state is task.init:
                assert sorted(a.pddl() for a in got) == first, generator.config.strategy
    return _residuals(task, NUMERIC), first


def test_divisor_check_kept_for_a_fluent_and_dropped_for_a_nonzero_constant():
    residuals, applicable = _case(
        "(:action shrink :parameters (?x - c) :effect (scale-down (v ?x) (w ?x)))"
        " (:action halve :parameters (?x - c) :effect (scale-down (v ?x) 2))"
        " (:action void :parameters (?x - c) :effect (scale-down (v ?x) (- 2 2)))",
        "(= (v a) 1) (= (v b) 1) (= (w a) 0) (= (w b) 2)",
    )
    assert residuals == {
        "shrink": ("(/= (v ?x) (w ?x)) nonzero",),
        "void": ("(/= (v ?x) (- 2 2)) nonzero",),
    }
    assert applicable == ["(halve a)", "(halve b)", "(shrink b)"]


def test_target_check_kept_when_init_leaves_an_allowed_object_undefined():
    residuals, applicable = _case(
        "(:action bump-v :parameters (?x - c) :effect (increase (v ?x) 1))"
        " (:action bump-u :parameters (?x - c) :effect (increase (u ?x) 1))"
        " (:action bump-w :parameters (?x) :effect (increase (w ?x) 1))"
        " (:action bump-p :parameters (?x) :precondition (p ?x)"
        " :effect (increase (w ?x) 1))"
        " (:action bump-q :parameters (?x) :precondition (q ?x)"
        " :effect (increase (v ?x) 1))"
        " (:action mark :parameters (?x - c) :effect (q ?x))"
        " (:action bump-m :parameters (?x - c) :effect (increase (m ?x ?x) 1))"
        " (:action bump-k :parameters () :effect (increase (v k) 1))",
        # v misses b; u and w are defined for every object of type c, not for
        # z or k; q holds only for a at first, but is dynamic; m misses (a a)
        "(q a) (= (v a) 1) (= (u a) 1) (= (u b) 1) (= (w a) 1) (= (w b) 1)"
        " (= (m a b) 1) (= (m b a) 1) (= (v k) 1)",
    )
    assert residuals == {
        "bump-v": ("(+= (v ?x) 1) target",),
        "bump-w": ("(+= (w ?x) 1) target",),  # untyped: z is allowed too
        "bump-q": ("(+= (v ?x) 1) target",),  # (mark b) adds (q b)
        "bump-m": ("(+= (m ?x ?x) 1) target",),
    }
    assert applicable == ["(bump-k)", "(bump-p a)", "(bump-p b)", "(bump-q a)",
                          "(bump-u a)", "(bump-u b)", "(bump-v a)", "(bump-w a)",
                          "(bump-w b)", "(mark a)", "(mark b)"]


def test_expression_check_kept_when_it_reads_a_partial_fluent():
    residuals, applicable = _case(
        "(:action add-v :parameters (?x - c) :effect (increase (total) (v ?x)))"
        " (:action add-u :parameters (?x - c) :effect (increase (total) (/ (u ?x) 4)))"
        " (:action set-w :parameters (?x - c) :effect (assign (w ?x) (/ 1 (u ?x))))",
        "(= (v a) 1) (= (u a) 0) (= (u b) 2) (= (total) 0)",
    )
    assert residuals == {
        "add-v": ("(+= (total) (v ?x)) defined",),
        "set-w": ("(:= (w ?x) (/ 1 (u ?x))) defined",),
    }
    assert applicable == ["(add-u a)", "(add-u b)", "(add-v a)", "(set-w b)"]


def test_conflict_check_kept_for_mixed_operators_on_one_function():
    residuals, applicable = _case(
        "(:action reset :parameters (?x - c ?y - c)"
        " :effect (and (assign (v ?x) 0) (increase (v ?y) 1)))"
        " (:action shift :parameters (?x - c ?y - c)"
        " :effect (and (decrease (u ?x) 1) (increase (u ?y) 1)))",
        "(= (v a) 1) (= (v b) 1) (= (u a) 1) (= (u b) 1)",
    )
    assert residuals == {
        "reset": ("(:= (v ?x) 0) conflict", "(+= (v ?y) 1) conflict"),
    }
    assert applicable == ["(reset a b)", "(reset b a)", "(shift a a)", "(shift a b)",
                          "(shift b a)", "(shift b b)"]


def test_constraint_on_a_ternary_function_decided_for_a_parameter_free_schema():
    # the range table reads (h k k k) at its exact value 0, not the hull
    # [0, 5] of (h k k ?), so the graph decides both constraints
    residuals, applicable = _case(
        "(:action high :parameters () :precondition (>= (h k k k) 1) :effect (q k))"
        " (:action low :parameters () :precondition (<= (h k k k) 1) :effect (q k))",
        "(= (h k k k) 0) (= (h k k a) 5)",
    )
    assert residuals == {}
    assert applicable == ["(low)"]


def test_effect_checks_read_the_own_and_the_static_fluents_of_the_initial_state():
    # relay's (-= (energy ?r) (step-cost)) without the precondition that
    # reads both terms: the initial state owns the energy of every robot, and
    # (step-cost) is in its static part; both count as defined over the
    # robots, so the effect has nothing left to check
    from lnplan.consistency import task_statics
    from lnplan.successors import fallible_effects

    task = load_bundled("relay")
    move = task.schema("move")
    bare = dataclasses.replace(move, name="bare-move", pre_constraints=())
    (effect,) = bare.eff_numeric
    assert effect.target.function.name in {t.function.name for t in task.init.own_fluents}
    assert effect.expr in task.init.static.fluents
    for numeric in (True, False):
        assert fallible_effects(bare, task_statics(task), numeric) == ()
    (unknown,) = fallible_effects(bare)  # without a problem nothing is defined
    assert unknown.defined and unknown.target
    # (>= (energy ?r) (step-cost)) holds only when both its sides are defined
    assert fallible_effects(move) == ()


def _fails_an_effect(state, action) -> bool:
    failure = applicability_failure(state, action)
    return failure is not None and failure.startswith(("effect", "conflicting"))


def test_residual_filter_matches_the_full_filter_on_random_walks():
    rng = random.Random(606)
    dropped = effect_failures = 0
    for i in range(60):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        generators = [SuccessorGenerator(task, GeneratorConfig(strategy=s)) for s in STRATEGIES]
        for schema, check in generators[0].checks:
            dropped += len(check.effects if check else ()) < len(schema.eff_numeric)
        for state, _ in walk_states(task, rng, extra=2):
            for generator in generators:
                got, _ = generator.applicable(state)
                ctx = generator.context(state)
                candidates = [a for schema in task.schemas
                              for a in generator.candidates(schema, state, ctx)]
                full = [a for a in candidates if is_applicable(state, a)]
                assert got == full, (generator.config.strategy, task.problem_name)
                effect_failures += sum(_fails_an_effect(state, a) for a in candidates)
    # the static arguments dropped some effect checks, and the kept ones fail
    assert dropped > 0 and effect_failures > 0


def _literal_walk(state, action, check):
    """The first failure of the check when each literal is grounded again
    over the action's binding and looked up (`literal_holds`), then the rest
    of the check as `_failure` walks it."""
    binding = action.binding_map()
    for lit in check.literals:
        if not literal_holds(state, lit, binding):
            return "precondition literal does not hold:", lit
    return _failure(state, action, 0.0, dataclasses.replace(check, literals=(), positions=()))


def test_kept_precondition_atoms_give_the_verdicts_of_a_literal_walk():
    # each action is checked in the initial state before the walk builds any
    # other state, so some of the atoms it keeps from that check are built
    # there, and then in every state of the walk
    rng = random.Random(909)
    literal_failures = passes = equalities = 0
    for i in range(40):
        task = random_task(rng, exact=i % 2 == 0, task_id=i)
        residuals = [dict(SuccessorGenerator(task, GeneratorConfig(strategy=s)).checks)
                     for s in STRATEGIES]
        actions = [action for schema in task.schemas
                   for action in all_bindings(schema, task.objects)]
        equalities += any(lit.atom.predicate.name == EQUALITY_NAME
                          for schema in task.schemas for lit in schema.pre_literals)

        def compare(state):
            nonlocal passes, literal_failures
            for action in actions:
                schema = action.schema
                for check in [schema.conditions] + [r[schema] for r in residuals if r[schema]]:
                    got = _failure(state, action, 0.0, check)
                    assert got == _literal_walk(state, action, check), (task.problem_name, action)
                    passes += got is None
                    literal_failures += got is not None and got[0].startswith("precondition literal")

        compare(task.init)
        for state, _ in walk_states(task, rng, extra=3)[1:]:
            compare(state)
    assert literal_failures > 0 and passes > 0 and equalities > 0
