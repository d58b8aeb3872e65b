import gc

import parse_fixture
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnplan.model import (
    Atom,
    BinaryExpr,
    Constant,
    FunctionTerm,
    Literal,
    NumericConstraint,
    Object,
    Variable,
)
from lnplan.pddl import (
    MAX_DEPTH,
    _TOKEN_RE,
    ParseError,
    SourceSpan,
    parse_domain,
    parse_problem,
    parse_task,
    token_offsets,
    tokenize,
    write_domain,
    write_problem,
)
from lnplan.successors import STRATEGIES, GeneratorConfig, SuccessorGenerator

COUNTERS_DOMAIN = """
(define (domain counters)
  (:requirements :strips :typing :numeric-fluents)
  (:types counter)
  (:functions (value ?c - counter) (max_int))
  (:action increment
    :parameters (?c - counter)
    :precondition (<= (+ (value ?c) 1) (max_int))
    :effect (increase (value ?c) 1))
)
"""

COUNTERS_PROBLEM = """
(define (problem counters-1)
  (:domain counters)
  (:objects c1 c2 - counter)
  (:init (= (value c1) 0) (= (value c2) 1) (= (max_int) 2))
  (:goal (and (< (value c1) (value c2))))
)
"""


def test_counters_style_domain_ast():
    domain = parse_domain(COUNTERS_DOMAIN)
    assert domain.name == "counters"
    inc = domain.schemas[0]
    assert inc.name == "increment"
    assert [v.name for v in inc.params] == ["?c"]
    # typed parameter compiles into a unary type-predicate literal
    assert inc.pre_literals == (Literal(Atom(domain.predicates[0], (Variable("?c"),))),)
    assert domain.predicates[0].name == "counter"
    assert len(inc.pre_constraints) == 1
    con = inc.pre_constraints[0]
    value = next(f for f in domain.functions if f.name == "value")
    max_int = next(f for f in domain.functions if f.name == "max_int")
    assert con == NumericConstraint(
        BinaryExpr("+", FunctionTerm(value, (Variable("?c"),)), Constant(1.0)),
        "<=",
        FunctionTerm(max_int, ()),
    )
    assert inc.eff_numeric[0].op == "+="


def test_problem_init_and_goal():
    domain = parse_domain(COUNTERS_DOMAIN)
    task = parse_problem(COUNTERS_PROBLEM, domain)
    value = next(f for f in domain.functions if f.name == "value")
    assert task.init.fluents[FunctionTerm(value, (Object("c1"),))] == 0.0
    # typed objects got their type atoms
    counter = domain.predicates[0]
    assert Atom(counter, (Object("c1"),)) in task.init.atoms
    assert len(task.goal_constraints) == 1
    assert task.goal_constraints[0].cmp == "<"


def test_unsupported_requirement_rejected():
    text = "(define (domain d) (:requirements :durative-actions))"
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert "unsupported requirement" in str(err.value)
    assert "d.pddl:1:" in str(err.value)


def test_arity_mismatch_names_symbol():
    text = """
    (define (domain d)
      (:predicates (p ?x ?y))
      (:action a :parameters (?x) :precondition (p ?x) :effect (p ?x ?x)))
    """
    with pytest.raises(ParseError) as err:
        parse_domain(text)
    assert "p expects 2 arguments" in str(err.value)


def test_goal_with_variable_rejected():
    domain = parse_domain(COUNTERS_DOMAIN)
    bad = """
    (define (problem bad) (:domain counters)
      (:objects c1 - counter)
      (:init (= (value c1) 0) (= (max_int) 2))
      (:goal (< (value ?c) 1)))
    """
    with pytest.raises(ParseError) as err:
        parse_problem(bad, domain)
    assert "ground" in str(err.value)


def test_undeclared_object_rejected():
    domain = parse_domain(COUNTERS_DOMAIN)
    bad = """
    (define (problem bad) (:domain counters)
      (:objects c1 - counter)
      (:init (= (value c9) 0))
      (:goal (and)))
    """
    with pytest.raises(ParseError) as err:
        parse_problem(bad, domain)
    assert "unknown object" in str(err.value)


def test_unknown_predicate_and_function():
    with pytest.raises(ParseError):
        parse_domain("(define (domain d) (:action a :parameters (?x) :precondition (nope ?x) :effect ()))")
    with pytest.raises(ParseError):
        parse_domain("(define (domain d) (:action a :parameters (?x) :precondition (>= (f ?x) 1) :effect ()))")


def test_object_equality_vs_numeric_equality():
    text = """
    (define (domain d)
      (:requirements :strips :equality :numeric-fluents)
      (:functions (f ?x))
      (:action a
        :parameters (?x ?y)
        :precondition (and (not (= ?x ?y)) (= (f ?x) 1))
        :effect ()))
    """
    domain = parse_domain(text)
    schema = domain.schemas[0]
    assert len(schema.pre_literals) == 1
    assert schema.pre_literals[0].atom.predicate.name == "="
    assert not schema.pre_literals[0].positive
    assert len(schema.pre_constraints) == 1
    assert schema.pre_constraints[0].cmp == "="


def test_negative_and_decimal_constants():
    text = """
    (define (domain d)
      (:functions (f))
      (:action a :parameters () :precondition (>= (f) -2.5) :effect (increase (f) 0.5)))
    """
    domain = parse_domain(text)
    assert domain.schemas[0].pre_constraints[0].rhs == Constant(-2.5)
    assert domain.schemas[0].eff_numeric[0].expr == Constant(0.5)


def test_metric_parsed_and_kept():
    domain = parse_domain(COUNTERS_DOMAIN)
    text = """
    (define (problem m) (:domain counters)
      (:objects c1 - counter)
      (:init (= (value c1) 0) (= (max_int) 2))
      (:goal (and))
      (:metric minimize (value c1)))
    """
    task = parse_problem(text, domain)
    assert task.metric is not None
    assert task.metric[0] == "minimize"


@pytest.mark.parametrize("metric, written", [
    ("(total-time)", "0"),
    ("(+ (value c1) (* 2 (max_int)))", "(+ (value c1) (* 2 (max_int)))"),
], ids=["total-time", "fluent-expression"])
def test_metric_roundtrips(metric, written):
    problem = COUNTERS_PROBLEM.replace("\n)", f"\n  (:metric minimize {metric}))")
    task = parse_task(COUNTERS_DOMAIN, problem)
    problem_text = write_problem(task)
    assert f"  (:metric minimize {written})\n" in problem_text
    again = parse_task(write_domain(task), problem_text)
    assert again.metric == task.metric
    assert again == task


def test_duplicate_fluent_init_rejected():
    domain = parse_domain(COUNTERS_DOMAIN)
    bad = """
    (define (problem b) (:domain counters)
      (:objects c1 - counter)
      (:init (= (value c1) 0) (= (value c1) 1))
      (:goal (and)))
    """
    with pytest.raises(ParseError) as err:
        parse_problem(bad, domain)
    assert "duplicate" in str(err.value)


def test_case_insensitive_identifiers():
    domain = parse_domain(COUNTERS_DOMAIN.replace("increment", "Increment").replace("(value", "(VALUE"))
    assert domain.schemas[0].name == "increment"
    assert any(f.name == "value" for f in domain.functions)


def test_roundtrip_counters(bundled_tasks):
    for name, task in bundled_tasks.items():
        domain_text = write_domain(task)
        problem_text = write_problem(task)
        again = parse_task(domain_text, problem_text)
        assert again == task, name
        # equality compares the static atoms and fluents by value
        assert again.init.static is not task.init.static
        assert again.init.static == task.init.static, name
        # the written domain keeps everything generation reads, so every
        # strategy streams as many candidates from the round-tripped task
        for strategy in STRATEGIES:
            reports = [SuccessorGenerator(t, GeneratorConfig(strategy=strategy))
                       .applicable(t.init)[1] for t in (task, again)]
            assert reports[0] == reports[1], (name, strategy)


def test_roundtrip_random_tasks():
    import random

    from taskgen import random_task

    rng = random.Random(8080)
    for i in range(60):
        task = random_task(rng, exact=rng.random() < 0.5, task_id=i)
        again = parse_task(write_domain(task), write_problem(task))
        assert again == task, i


def test_exponent_notation_parses_and_roundtrips():
    text = """
    (define (domain d)
      (:functions (f))
      (:action a :parameters () :precondition (>= (f) 2.5E+3) :effect (increase (f) 1e-05)))
    """
    domain = parse_domain(text)
    assert domain.schemas[0].pre_constraints[0].rhs == Constant(2500.0)
    assert domain.schemas[0].eff_numeric[0].expr == Constant(0.00001)
    problem = """
    (define (problem p) (:domain d)
      (:init (= (f) 0.00001))
      (:goal (>= (f) -3.5e-7)))
    """
    task = parse_problem(problem, domain)
    written = write_domain(task) + write_problem(task)
    assert "1e-05" in written  # the writer's repr form for small values
    assert parse_task(write_domain(task), write_problem(task)) == task


@pytest.mark.parametrize("value", ["inf", "nan", "1e", "e5", "1e+"])
def test_non_numbers_stay_rejected(value):
    domain = parse_domain("(define (domain d) (:functions (f)))")
    problem = f"(define (problem p) (:domain d) (:init (= (f) {value})) (:goal (and)))"
    with pytest.raises(ParseError):
        parse_problem(problem, domain)


@pytest.mark.parametrize("expr, written", [("(* (f) 1e300)", "inf"),
                                           ("(- (* (f) 1e300) (* (f) 1e300))", "nan")],
                         ids=["inf", "nan"])
def test_non_finite_init_is_not_written(expr, written):
    # one step from f = 1e300 overflows; the writer refuses the state as init
    # instead of printing a number the parser rejects
    import dataclasses

    from lnplan.model import GroundAction, apply

    domain = parse_domain(f"""
    (define (domain d)
      (:functions (f))
      (:action grow :parameters () :precondition () :effect (assign (f) {expr})))
    """)
    task = parse_problem("(define (problem p) (:domain d) (:init (= (f) 1e300)) (:goal (and)))",
                         domain)
    state = apply(task.init, GroundAction(task.schemas[0], ()))
    overflowed = dataclasses.replace(task, init=state)
    with pytest.raises(ValueError, match=rf"\(f\) = {written}"):
        write_problem(overflowed)
    write_problem(task)  # finite values are still written


def test_unary_minus_and_nary_plus():
    text = """
    (define (domain d)
      (:functions (f))
      (:action a :parameters ()
        :precondition (>= (+ (f) 1 2) (- (f)))
        :effect ()))
    """
    con = parse_domain(text).schemas[0].pre_constraints[0]
    assert con.lhs == BinaryExpr("+", BinaryExpr("+", FunctionTerm(parse_domain(text).functions[0], ()), Constant(1.0)), Constant(2.0))
    assert con.rhs == BinaryExpr("-", Constant(0.0), FunctionTerm(parse_domain(text).functions[0], ()))


CONSTANTS_DOMAIN = """
(define (domain depot)
  (:requirements :strips :typing :numeric-fluents)
  (:types place)
  (:constants home - place)
  (:predicates (at ?p - place))
  (:functions (load))
  (:action return-home
    :parameters ()
    :precondition (>= (load) 1)
    :effect (and (at home) (decrease (load) 1)))
)
"""


def test_domain_constants_usable_in_schemas():
    domain = parse_domain(CONSTANTS_DOMAIN)
    assert [o.name for o in domain.constants] == ["home"]
    schema = domain.schemas[0]
    assert schema.eff_literals[0].atom.args == (Object("home"),)
    problem = """
    (define (problem p) (:domain depot)
      (:objects away - place)
      (:init (= (load) 2))
      (:goal (at home)))
    """
    task = parse_problem(problem, domain)
    assert [o.name for o in task.objects] == ["home", "away"]
    # typed constant received its type atom
    place = next(p for p in domain.predicates if p.name == "place")
    assert Atom(place, (Object("home"),)) in task.init.atoms


def test_roundtrip_with_constants():
    domain = parse_domain(CONSTANTS_DOMAIN)
    problem = """
    (define (problem p) (:domain depot)
      (:objects away - place)
      (:init (= (load) 2) (at away))
      (:goal (at home)))
    """
    task = parse_problem(problem, domain)
    again = parse_task(write_domain(task), write_problem(task))
    assert again == task


def test_type_may_share_name_with_declared_unary_predicate():
    text = """
    (define (domain d)
      (:requirements :strips :typing)
      (:types counter)
      (:predicates (counter ?c) (busy ?c - counter))
      (:action touch :parameters (?c - counter)
        :precondition (not (busy ?c)) :effect (busy ?c)))
    """
    domain = parse_domain(text)
    assert sum(1 for p in domain.predicates if p.name == "counter") == 1
    with pytest.raises(ParseError):
        parse_domain(text.replace("(counter ?c)", "(counter ?c ?d)"))


def test_error_reports_position():
    text = "(define (domain d)\n  (:predicates (p ?x))\n  (:action a :parameters (?x)\n    :precondition (q ?x) :effect ()))"
    with pytest.raises(ParseError) as err:
        parse_domain(text, "dom.pddl")
    assert str(err.value).startswith("dom.pddl:4:")


EMPTY_FORM_DOMAIN = """
(define (domain d)
  (:predicates (p ?x))
  (:functions (f ?x))
  (:action a :parameters (?x) :precondition PRE :effect EFF))
"""


@pytest.mark.parametrize("pre, eff, what", [
    ("(not ())", "(p ?x)", "an atom"),
    ("(p ?x)", "(not ())", "an atom"),
    ("(p ?x)", "(increase () 1)", "a function term"),
])
def test_empty_form_in_action_is_a_parse_error(pre, eff, what):
    text = EMPTY_FORM_DOMAIN.replace("PRE", pre).replace("EFF", eff)
    before = text[:text.index("()")].split("\n")
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert str(err.value) == f"d.pddl:{len(before)}:{len(before[-1]) + 1}: expected {what}"


def test_domain_section_without_name_is_a_parse_error():
    domain = parse_domain(COUNTERS_DOMAIN)
    with pytest.raises(ParseError) as err:
        parse_problem("(define (problem q)\n  (:domain) (:init) (:goal (and)))", domain, "q.pddl")
    assert str(err.value) == "q.pddl:2:3: expected (:domain NAME)"


@pytest.mark.parametrize("section", ["(:init (= (max_int) 3))", "(:goal (and))",
                                     "(:metric minimize (total-time))"])
def test_repeated_problem_section_is_a_parse_error(section):
    domain = parse_domain(COUNTERS_DOMAIN)
    head = section.split()[0][1:]
    text = COUNTERS_PROBLEM.replace("\n)", f"\n  (:metric minimize (max_int))\n  {section})")
    with pytest.raises(ParseError) as err:
        parse_problem(text, domain, "q.pddl")
    assert str(err.value) == f"q.pddl:8:3: duplicate {head} section"


@pytest.mark.parametrize("init, goal, col", [
    ("(= (f) 1e999)", "(and)", 47),
    ("(= (f) 1)", "(< (f) -1e999)", 65),
], ids=["init", "expression"])
def test_numeral_overflowing_to_inf_is_a_parse_error(init, goal, col):
    domain = parse_domain("(define (domain d) (:functions (f)))")
    problem = f"(define (problem p) (:domain d) (:init {init}) (:goal {goal}))"
    with pytest.raises(ParseError) as err:
        parse_problem(problem, domain, "p.pddl")
    assert str(err.value) == f"p.pddl:1:{col}: number out of range"


@pytest.mark.parametrize("types, line, col, name", [
    ("(:types a - b b - a)", 2, 17, "b"),
    ("(:types a - a)", 2, 11, "a"),
    ("(:types a - b c)\n  (:types c - a b - c)", 3, 17, "b"),
], ids=["one-section", "self", "two-sections"])
def test_cyclic_type_hierarchy_is_a_parse_error(types, line, col, name):
    with pytest.raises(ParseError) as err:
        parse_domain(f"(define (domain d)\n  {types})", "d.pddl")
    assert str(err.value) == f"d.pddl:{line}:{col}: type {name} is its own ancestor"


@pytest.mark.parametrize("section, col", [
    ("(:predicates (at ?x - t ?y - nosuchtype))", 27),
    ("(:functions (f ?x - nosuchtype))", 18),
], ids=["predicate", "function"])
def test_unknown_type_in_declaration_is_a_parse_error(section, col):
    with pytest.raises(ParseError) as err:
        parse_domain(f"(define (domain d) (:types t)\n  {section})", "d.pddl")
    assert str(err.value) == f"d.pddl:2:{col}: unknown type nosuchtype"


@pytest.mark.parametrize("keyword, value", [(":parameters", "(?y)"), (":precondition", "(q ?x)"),
                                            (":effect", "(p ?x)")])
def test_repeated_action_keyword_is_a_parse_error(keyword, value):
    text = ("(define (domain d)\n  (:predicates (p ?x) (q ?x))\n"
            "  (:action a :parameters (?x) :precondition (p ?x) :effect (q ?x)\n"
            f"    {keyword} {value}))")
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert str(err.value) == f"d.pddl:4:5: duplicate {keyword}"


@pytest.mark.parametrize("domain_text, objects, col", [
    (COUNTERS_DOMAIN, "c1 c2 c1 - counter", 19),
    (CONSTANTS_DOMAIN, "away home - place", 18),
], ids=["objects", "constant"])
def test_repeated_object_is_a_parse_error(domain_text, objects, col):
    domain = parse_domain(domain_text)
    name = objects.split()[-3]
    problem = f"(define (problem p) (:domain {domain.name})\n  (:objects {objects})\n  (:goal (and)))"
    with pytest.raises(ParseError) as err:
        parse_problem(problem, domain, "p.pddl")
    assert str(err.value) == f"p.pddl:2:{col}: duplicate object {name}"


@pytest.mark.parametrize("lead, col", [("\t \t(", 5), ("(", 2)], ids=["tabs", "after-comment"])
def test_error_position_after_tabs_crlf_and_comments(lead, col):
    # a tab and a \r count as one column each, and a comment ends at the line end
    text = ("(define (domain d)\r\n"
            ";; a whole-line comment\r\n"
            "\t(:predicates\t(p ?x)) ; trailing comment\r\n"
            "\t(:action a :parameters (?x)\r\n"
            "\t\t:precondition (and (p ?x) ;; ends right before the next token\n"
            f"{lead}q ?x)) :effect ()))")
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert str(err.value) == f"d.pddl:6:{col}: unknown predicate q"


def test_tokenize_texts_and_spans():
    # lower-cased texts; a comment runs to the line end, a \r is one column;
    # only a space, \t, \r and \n part words, not every whitespace character
    text = "(Define ;; (not a token)\r\n  (P ?X)); tail\r\n\t42 -1.5e3 \xa0A\x0bB\x85\x1c\n"
    tokens, offsets = tokenize(text), token_offsets(text)
    assert len(tokens) == len(offsets)
    got = [(token, str(SourceSpan.at("t.pddl", text, offset))) for token, offset in zip(tokens, offsets)]
    assert got == [("(", "t.pddl:1:1"), ("define", "t.pddl:1:2"),
                   ("(", "t.pddl:2:3"), ("p", "t.pddl:2:4"), ("?x", "t.pddl:2:6"),
                   (")", "t.pddl:2:8"), (")", "t.pddl:2:9"),
                   ("42", "t.pddl:3:2"), ("-1.5e3", "t.pddl:3:5"),
                   ("\xa0a\x0bb\x85\x1c", "t.pddl:3:12")]
    span = SourceSpan.at("t.pddl", text, offsets[1])
    assert (span.file, span.line, span.col) == ("t.pddl", 1, 2)


# the delimiters, the whitespace that str.split() knows but a PDDL word may
# hold, characters whose lowercase is longer or depends on its neighbours,
# and the characters of variables and numerals
_TOKEN_ALPHABET = "();\t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 İΣ?-.1e"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=_TOKEN_ALPHABET, max_size=40))
def test_tokenize_cuts_the_tokens_of_the_token_expression(text):
    tokens = tokenize(text)
    assert tokens == [m[1] for m in _TOKEN_RE.finditer(text.lower()) if m.lastindex]
    # each token is its own text's lowercase, as written at its offset
    assert tokens == [m[1].lower() for m in _TOKEN_RE.finditer(text) if m.lastindex]
    assert len(token_offsets(text)) == len(tokens)


def test_column_counts_characters_as_written():
    # 'İ' lowers to two code points; the columns after it count it once
    text = ("(define (domain İd) (:predicates (p)) "
            "(:action a :parameters () :precondition (q) :effect ()))")
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert str(err.value) == "d.pddl:1:80: unknown predicate q"
    # lowering the whole text gives each token's own lowercase, final sigma too
    assert tokenize("(Domain İd (ΑΣ) ΑΣ;c\nΑΣΑ)") == [
        "(", "domain", "i\u0307d", "(", "ας", ")", "ας", "ασα", ")"]


_SPAN_DOMAIN = "(define (domain d){0}(:predicates (p)){0}(:action a :parameters () :precondition (@q) :effect ()))"


# (text with '@' where the error's span must point, message)
SPAN_EDGES = [
    pytest.param(_SPAN_DOMAIN.format("\r"), "unknown predicate q", id="lone-cr"),
    pytest.param(_SPAN_DOMAIN.format("\r\n\t"), "unknown predicate q", id="crlf-tab"),
    pytest.param(_SPAN_DOMAIN.format("\t\t"), "unknown predicate q", id="tabs"),
    pytest.param("@(define (domain d) (:predicates (p ?x)) ; no newline at the end",
                 "unbalanced parenthesis: missing ')'", id="comment-at-eof"),
    pytest.param("@x", "expected a domain definition list", id="first-character"),
    pytest.param("(define (domain d)) @x", "expected a single domain definition", id="last-character"),
    pytest.param("(define (domain d))@)", "unexpected ')'", id="last-character-close"),
    pytest.param("(define (domain d)\n (:action a :parameters (?x)\n  :precondition @(and (p ?x) (not (p ?x))",
                 "unbalanced parenthesis: missing ')'", id="innermost-open"),
]


@pytest.mark.parametrize("marked, message", SPAN_EDGES)
def test_span_edge_cases(marked, message):
    before, after = marked.split("@")
    line = before.count("\n") + 1
    col = len(before) - before.rfind("\n")
    with pytest.raises(ParseError) as err:
        parse_domain(before + after, "d.pddl")
    assert str(err.value) == f"d.pddl:{line}:{col}: {message}"


def test_comment_at_eof_without_newline():
    domain = parse_domain("(define (domain d) (:predicates (p))) ; no newline")
    assert [p.name for p in domain.predicates] == ["p"]


def _nested(depth: int) -> str:
    """A domain whose precondition nests forms `depth` levels deep."""
    ands = depth - 3  # (define, (:action and the innermost (p) make three
    return ("(define (domain d) (:predicates (p)) (:action a :parameters () :precondition "
            + "(and " * ands + "(p)" + ")" * ands + "))")


def test_nesting_up_to_the_limit_parses():
    schema, = parse_domain(_nested(MAX_DEPTH)).schemas
    assert repr(schema.pre_literals) == "((p),)"


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 3000])
def test_nesting_past_the_limit_is_a_parse_error(depth):
    text = _nested(depth)
    # the '(' that opens the first form past the limit; the first (and is at depth 3
    offset = text.index("(and") + len("(and ") * (MAX_DEPTH + 1 - 3)
    with pytest.raises(ParseError) as err:
        parse_domain(text, "d.pddl")
    assert str(err.value) == f"d.pddl:1:{offset + 1}: forms nested deeper than {MAX_DEPTH} levels"


def test_parsing_leaves_no_reference_cycles():
    # a dropped task and a caught error are freed by reference counts alone,
    # so a parse never waits for the cycle collector
    family = parse_fixture.families.relay(101, **parse_fixture.WORKLOADS["relay-wide"].knobs)
    bad = [family.domain.replace("(link ?r ?a ?b) (>=", "(link ?r ?a ?nowhere) (>="),
           _nested(3000), family.domain[:-5]]
    gc.collect()
    gc.disable()
    try:
        task = parse_task(family.domain, family.problem, "d.pddl", "p.pddl")
        del task
        assert gc.collect() == 0
        for text in bad:
            try:
                parse_task(text, family.problem, "d.pddl", "p.pddl")
            except ParseError as err:
                assert "d.pddl:" in str(err)
            else:
                raise AssertionError("no ParseError")
            assert gc.collect() == 0
    finally:
        gc.enable()


def _action(tail: str) -> str:
    return ("(define (domain d) (:predicates (p ?x) (q)) (:functions (f ?x) (g))\n"
            f"  (:action a :parameters (?x) {tail}))")


def _problem(body: str) -> str:
    return f"(define (problem p) (:domain d)\n  {body})"


# (parser, text, message): one malformed text per error the parser can raise,
# with '@' where the error's span must point (the '@' is removed before parsing)
PARSE_ERRORS = [
    pytest.param("domain", "(define (domain d)\n  @(:predicates (p)", "unbalanced parenthesis: missing ')'",
                 id="unbalanced"),
    pytest.param("domain", "(define (domain d))\n@)", "unexpected ')'", id="extra-close"),
    pytest.param("domain", "@; nothing but a comment\n", "empty domain file", id="empty-file"),
    pytest.param("domain", "(define (domain d)) @(define (domain e))", "expected a single domain definition",
                 id="two-definitions"),
    pytest.param("domain", "@domain", "expected a domain definition list", id="bare-token"),
    pytest.param("domain", "@(domain d)", "expected (define (domain ...) ...)", id="no-define"),
    pytest.param("domain", "@(define (problem p))", "expected (domain NAME) after define", id="wrong-header"),
    pytest.param("domain", "(define (domain @(d)))", "expected domain name", id="list-as-name"),
    pytest.param("domain", "(define (domain d) (:types @- t))", "dangling '-' in typed list",
                 id="dangling-dash"),
    pytest.param("domain", "(define (domain d) (:types t @-))", "missing type name after '-'",
                 id="missing-type-name"),
    pytest.param("domain", "(define (domain d) (:predicates (@= ?x ?y)))",
                 "predicate name '=' is reserved for built-in equality", id="equality-predicate"),
    pytest.param("domain", "(define (domain d) (:action a :parameters ())\n  @(:action a :parameters ()))",
                 "duplicate action name a", id="duplicate-action"),
    pytest.param("domain", "(define (domain d) @:predicates)", "expected a domain section",
                 id="bare-domain-section"),
    pytest.param("domain", "(define (domain d) @(:derived (p)))", "unsupported domain section :derived",
                 id="unsupported-domain-section"),
    pytest.param("domain", "(define (domain d) (:constants @?c))", "object names must not start with '?'",
                 id="variable-constant"),
    pytest.param("domain", "(define (domain d) (:predicates @p))", "expected a predicate declaration",
                 id="bare-declaration"),
    pytest.param("domain", "(define (domain d) (:predicates (p @x)))", "predicate parameters must be variables",
                 id="declaration-constant"),
    pytest.param("domain", "(define (domain d) (:functions (f) @-))", "missing type after '-'",
                 id="function-group-no-type"),
    pytest.param("domain", "(define (domain d) (:functions (f) - @object))",
                 "functions must map to type 'number'", id="function-group-not-number"),
    pytest.param("domain", "(define (domain d) (:functions (f) (@f ?x)))",
                 "function f redeclared with different arity", id="function-redeclared"),
    pytest.param("domain", _action(":precondition (p @?y)"), "variable ?y is not a parameter",
                 id="unknown-variable"),
    pytest.param("domain", _action(":effect (@= ?x)"), "equality takes exactly 2 arguments",
                 id="equality-arity"),
    pytest.param("domain", _action(":precondition (< @?x 1)"), "expected a number or function term, got '?x'",
                 id="variable-in-expression"),
    pytest.param("domain", _action(":precondition (< @() 1)"), "empty expression", id="empty-expression"),
    pytest.param("domain", _action(":precondition (< (@+ 1) 2)"), "operator + needs at least 2 operands",
                 id="plus-arity"),
    pytest.param("domain", _action(":precondition (< (@- 1 2 3) 2)"), "operator - takes 1 or 2 operands",
                 id="minus-arity"),
    pytest.param("domain", _action(":precondition (< (@/ 1) 2)"), "operator / takes exactly 2 operands",
                 id="divide-arity"),
    pytest.param("domain", _action(":precondition (and @q)"), "expected a condition", id="bare-condition"),
    pytest.param("domain", _action(":precondition (@not (q) (q))"), "'not' takes a single atom",
                 id="condition-not-arity"),
    pytest.param("domain", _action(":precondition (not (@< 1 2))"),
                 "negated numeric constraints are not supported", id="negated-constraint"),
    pytest.param("domain", _action(":precondition (@< 1)"), "comparison < takes exactly 2 operands",
                 id="comparison-arity"),
    pytest.param("domain", _action(":effect (and @q)"), "expected an effect", id="bare-effect"),
    pytest.param("domain", _action(":effect (@increase (g))"),
                 "increase takes a function term and an expression", id="update-arity"),
    pytest.param("domain", _action(":effect (@not q)"), "'not' takes a single atom", id="effect-not-atom"),
    pytest.param("domain", _action(":effect (@not (= ?x ?x))"), "built-in equality cannot appear in effects",
                 id="equality-effect"),
    pytest.param("domain", "(define (domain d) @(:action))", "action needs a name", id="nameless-action"),
    pytest.param("domain", "(define (domain d) (:action a @:duration 1))", "unsupported action keyword :duration",
                 id="action-keyword"),
    pytest.param("domain", "(define (domain d) (:action a :parameters () @:effect))", "missing value for :effect",
                 id="keyword-without-value"),
    pytest.param("domain", "(define (domain d) (:action @a :effect ()))", "action requires a :parameters list",
                 id="no-parameters"),
    pytest.param("domain", "(define (domain d) (:action a :parameters (@x)))",
                 "parameters must be variables starting with '?'", id="constant-parameter"),
    pytest.param("domain", "(define (domain d) (:action a :parameters (?x @?x)))", "duplicate parameter ?x",
                 id="duplicate-parameter"),
    pytest.param("problem", "(define (problem p) (:domain @e))", "problem requires domain e, parsed domain is d",
                 id="other-domain"),
    pytest.param("problem", _problem("@x"), "expected a problem section", id="bare-problem-section"),
    pytest.param("problem", _problem("@(:constraints (q))"), "unsupported problem section :constraints",
                 id="unsupported-problem-section"),
    pytest.param("problem", "@(define (problem p) (:objects a))", "problem is missing a (:domain ...) section",
                 id="no-domain-section"),
    pytest.param("problem", _problem("(:init @a)"), "expected an init entry", id="bare-init-entry"),
    pytest.param("problem", _problem("(:objects a) (:init (@= a a))"),
                 "built-in equality cannot be asserted in :init", id="equality-init"),
    # fluent entries, which :init reads in one step unless one of these is wrong
    pytest.param("problem", _problem("(:objects a) (:init (= (f a) 1) (@= (f a) 1))"),
                 "duplicate initial value for (f a)", id="init-duplicate-value"),
    pytest.param("problem", _problem("(:objects a) (:init (= (f a) @nan))"),
                 "initial fluent values must be numeric constants", id="init-nan-value"),
    pytest.param("problem", _problem("(:objects a) (:init (= (f a) @(g)))"), "expected fluent value",
                 id="init-term-value"),
    pytest.param("problem", _problem("(:objects a) (:init (= (@h a) 1))"), "unknown function h",
                 id="init-unknown-function"),
    pytest.param("problem", _problem("(:objects a) (:init (= (@f a a) 1))"),
                 "function f expects 1 arguments, got 2", id="init-function-arity"),
    pytest.param("problem", _problem("(:objects a) (:init (= (f @b) 1))"), "unknown object b",
                 id="init-unknown-object"),
    pytest.param("problem", _problem("(:objects a) (:init (= (f @?x) 1))"),
                 "variable ?x not allowed here; element must be ground", id="init-variable-argument"),
    pytest.param("problem", _problem("(:objects a) (:init (= (f @(a)) 1))"), "expected term",
                 id="init-form-argument"),
    pytest.param("problem", _problem("@(:goal (q) (q))"), "goal takes a single condition", id="goal-arity"),
    pytest.param("problem", _problem("@(:metric minimize)"), "metric takes a direction and an expression",
                 id="metric-arity"),
    pytest.param("problem", _problem("(:metric @fastest (g))"), "unknown metric direction fastest",
                 id="metric-direction"),
]


@pytest.mark.parametrize("parser, marked, message", PARSE_ERRORS)
def test_parse_error_span_and_message(parser, marked, message):
    before, after = marked.split("@")
    line = before.count("\n") + 1
    col = len(before) - before.rfind("\n")
    text = before + after
    with pytest.raises(ParseError) as err:
        if parser == "domain":
            parse_domain(text, "d.pddl")
        else:
            parse_problem(text, parse_domain(_action(":effect ()")), "p.pddl")
    assert (err.value.span, err.value.message) == ((f"{parser[0]}.pddl", line, col), message)
    assert str(err.value) == f"{parser[0]}.pddl:{line}:{col}: {message}"


def test_function_group_type_number_is_accepted():
    domain = parse_domain("(define (domain d) (:functions (f) (g ?x) - number (h)))")
    assert [(f.name, f.arity) for f in domain.functions] == [("f", 0), ("g", 1), ("h", 0)]
