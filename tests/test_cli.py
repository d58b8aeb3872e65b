import json
import re

import pytest

from conftest import BUNDLED, domains_root, load_bundled

from lnplan.cli import main
from lnplan.pddl import MAX_DEPTH
from lnplan.successors import ground_all


def _paths(name):
    base = domains_root() / name
    return str(base / "domain.pddl"), str(base / "problem.pddl")


def test_solve_writes_plan_and_report(tmp_path, capsys):
    domain, problem = _paths("counters")
    plan_file = tmp_path / "plan.txt"
    report_file = tmp_path / "report.json"
    code = main([
        "solve", "--domain", domain, "--problem", problem,
        "--generator", "numeric",
        "--plan-out", str(plan_file), "--report-out", str(report_file),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "(increment c2)" in out
    assert "; cost = 2 (unit cost)" in out
    assert "; validation: valid (tolerance=0.0)" in out
    assert "; cost = 2 (unit cost)" in plan_file.read_text()
    report = json.loads(report_file.read_text())
    assert report["strategy"] == "numeric"
    assert report["oa"] == 1.0
    assert report["cost"] == 2


def test_solve_exit_codes(tmp_path):
    domain, _ = _paths("counters")
    unsat = str(domains_root() / "counters" / "problem-unsat.pddl")
    assert main(["solve", "--domain", domain, "--problem", unsat]) == 10
    _, problem = _paths("counters")
    assert main(["solve", "--domain", domain, "--problem", problem,
                 "--node-cap", "1"]) == 20
    assert main(["solve", "--domain", domain, "--problem", problem,
                 "--node-cap", "0"]) == 20


def test_parse_error_exit_30(tmp_path, capsys):
    bad = tmp_path / "bad.pddl"
    bad.write_text("(define (domain d) (:requirements :durative-actions))")
    _, problem = _paths("counters")
    code = main(["solve", "--domain", str(bad), "--problem", problem])
    assert code == 30
    err = capsys.readouterr().err
    assert "bad.pddl:1:" in err and "unsupported requirement" in err


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    # a precondition of 3,000 nested (and ...) forms: a file:line:col
    # message and exit 30, not a RecursionError
    domain = tmp_path / "deep.pddl"
    head = "(define (domain d) (:predicates (p)) (:action a :parameters () :precondition "
    domain.write_text(head + "(and " * 3000 + "(p)" + ")" * 3000 + "))")
    assert main(["check-exactness", "--domain", str(domain)]) == 30
    col = len(head) + len("(and ") * (MAX_DEPTH - 2) + 1  # the form at depth MAX_DEPTH + 1
    assert capsys.readouterr().err == f"{domain}:1:{col}: forms nested deeper than {MAX_DEPTH} levels\n"


@pytest.mark.parametrize("domain_text, problem_text", [
    ("(:action a :parameters (?x) :precondition (not ()) :effect (p ?x))", "(:domain d)"),
    ("(:action a :parameters (?x) :precondition (p ?x) :effect (not ()))", "(:domain d)"),
    ("", "(:domain)"),
    ("", "(:domain d) (:init (p a))\n(:init (p b))"),
    ("(:functions (f))", "(:domain d) (:init (= (f) 1e999))"),
    ("(:types t - u u - t)", "(:domain d) (:objects o - t)"),
    ("(:action a :parameters (?x) :effect (p ?x) :effect (not (p ?x)))", "(:domain d)"),
    ("(:functions (f ?x - nosuchtype))", "(:domain d)"),
])
def test_malformed_pddl_exit_30_without_traceback(domain_text, problem_text, tmp_path, capsys):
    domain, problem = tmp_path / "domain.pddl", tmp_path / "problem.pddl"
    domain.write_text(f"(define (domain d) (:predicates (p ?x)) {domain_text})")
    problem.write_text(f"(define (problem q) {problem_text} (:objects a b) (:goal (p a)))")
    assert main(["solve", "--domain", str(domain), "--problem", str(problem)]) == 30
    err = capsys.readouterr().err
    assert re.match(r"\S+\.pddl:\d+:\d+: ", err) and "Traceback" not in err


def test_usage_error_exit_30(tmp_path, capsys):
    assert main(["solve", "--domain", "x"]) == 30
    assert main(["bench", "--suite", "x", "--out", "y", "--strategies", "bogus"]) == 30
    # a suite without a domain.pddl and problem*.pddl pair is not an empty run
    out = tmp_path / "report.jsonl"
    for suite in (tmp_path / "missing", tmp_path):
        assert main(["bench", "--suite", str(suite), "--out", str(out)]) == 30
        assert not out.exists()
    assert "usage error: no domain.pddl" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--ground-cap", "0"],
    ["solve", "--tolerance", "-1"],
    ["solve", "--tolerance", "nan"],
    ["solve", "--node-cap", "-1"],
    ["solve", "--time-limit", "-1"],
    ["solve", "--time-limit", "nan"],
    ["solve", "--mem-limit", "-1"],
    ["bench", "--node-cap", "-1"],
    ["bench", "--time-limit", "nan"],
    ["bench", "--mem-limit", "-1"],
])
def test_bad_values_exit_30_without_traceback(argv, tmp_path, capsys):
    domain, problem = _paths("counters")
    if argv[0] == "bench":
        out = tmp_path / "report.jsonl"
        argv = argv + ["--suite", str(domains_root() / "counters"), "--out", str(out)]
    else:
        argv = argv + ["--domain", domain, "--problem", problem]
    assert main(argv) == 30
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    if argv[0] == "bench":
        assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_infinite_limits_set_no_cap(command, tmp_path, capsys):
    domain, problem = _paths("counters")
    limits = ["--mem-limit", "inf", "--time-limit", "inf"]
    if command == "bench":
        out = tmp_path / "report.jsonl"
        argv = ["bench", "--suite", str(domains_root() / "counters"), "--out", str(out),
                "--strategies", "numeric"] + limits
    else:
        argv = ["solve", "--domain", domain, "--problem", problem] + limits
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    if command == "bench":
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows and all(r["status"] in ("solved", "unsolvable") for r in rows)


def test_successors_lists_actions_and_counts(capsys):
    domain, problem = _paths("counters")
    code = main(["successors", "--domain", domain, "--problem", problem])
    assert code == 0
    out_lines = capsys.readouterr().out.strip().splitlines()
    assert "(increment c1)" in out_lines
    assert "(increment c2)" in out_lines
    counts = json.loads(out_lines[-1])
    assert counts == {"candidates": 2, "applicable": 2}


def test_successors_dump_graph(capsys):
    domain, problem = _paths("relay")
    code = main(["successors", "--domain", domain, "--problem", problem, "--dump-graph"])
    assert code == 0
    out = capsys.readouterr().out
    assert "graph move k=3" in out
    assert "\nv ?r r1" in out
    assert "numeric-unsat" in out  # r2 has no energy for a step
    assert "(move r1 w1 w2)" in out


def test_successors_dump_graph_of_parameter_free_schemas(tmp_path, capsys):
    domain, problem = tmp_path / "domain.pddl", tmp_path / "problem.pddl"
    domain.write_text("""(define (domain sw)
      (:predicates (on) (p ?x))
      (:action flip :parameters () :precondition (not (on)) :effect (on))
      (:action wait :parameters () :precondition (on) :effect ())
      (:action mark :parameters (?x) :precondition (on) :effect (p ?x)))""")
    problem.write_text("(define (problem q) (:domain sw) (:objects a) (:init (on)) (:goal (p a)))")
    code = main(["successors", "--domain", str(domain), "--problem", str(problem),
                 "--dump-graph"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    flip = lines.index("graph flip k=0 objects=1 EMPTY")
    assert lines[flip + 1] == "# negative-hit: (on)"
    assert "graph wait k=0 objects=1" in lines
    assert "(wait)" in lines and "(mark a)" in lines and "(flip)" not in lines
    assert json.loads(lines[-1]) == {"candidates": 2, "applicable": 2}


def test_ground_counts_and_cap(capsys):
    domain, problem = _paths("delivery")
    assert main(["ground", "--domain", domain, "--problem", problem]) == 0
    out = capsys.readouterr().out
    assert "; drive:" in out and "; total:" in out
    assert main(["ground", "--domain", domain, "--problem", problem,
                 "--ground-cap", "1"]) == 20


@pytest.mark.parametrize("name", BUNDLED)
def test_ground_list_prints_the_store(name, capsys):
    domain, problem = _paths(name)
    assert main(["ground", "--domain", domain, "--problem", problem, "--list"]) == 0
    task = load_bundled(name)
    store = ground_all(task)
    want = []
    for schema in task.schemas:
        actions = store.for_schema(schema.name)
        want.append(f"; {schema.name}: {len(actions)} ground actions")
        want.extend(action.pddl() for action in actions)
    want.append(f"; total: {store.total}")
    assert capsys.readouterr().out.splitlines() == want


def test_successors_ground_cap_exit_20(capsys):
    domain, problem = _paths("relay")
    assert main(["successors", "--domain", domain, "--problem", problem,
                 "--generator", "grounded", "--ground-cap", "1"]) == 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: grounding join streams more than 1 candidates at schema move\n"


@pytest.mark.parametrize("command", ["solve", "successors", "ground"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_non_positive_ground_cap_is_a_usage_error(command, cap, tmp_path, capsys):
    # reported before the task is loaded: the domain file does not exist
    _, problem = _paths("relay")
    missing = str(tmp_path / "missing.pddl")
    assert main([command, "--domain", missing, "--problem", problem,
                 "--ground-cap", cap]) == 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: ground_cap must be positive\n"


@pytest.mark.parametrize("command", ["solve", "successors", "ground"])
def test_missing_domain_file_exit_30(command, tmp_path, capsys):
    _, problem = _paths("counters")
    missing = tmp_path / "missing.pddl"
    assert main([command, "--domain", str(missing), "--problem", problem]) == 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(missing) in captured.err
    assert "Traceback" not in captured.err


def test_bench_writes_jsonl_and_csv(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    csv = tmp_path / "report.csv"
    code = main([
        "bench", "--suite", str(domains_root() / "counters"),
        "--strategies", "numeric,propositional",
        "--out", str(out), "--csv", str(csv),
    ])
    assert code == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert {r["strategy"] for r in rows} == {"numeric", "propositional"}
    numeric_rows = [r for r in rows if r["strategy"] == "numeric" and r["task"] == "counters"]
    assert numeric_rows[0]["oa"] == 1.0
    assert csv.read_text().startswith("task,strategy,")


@pytest.mark.parametrize("strategies", [",", "", " , "])
def test_bench_without_strategies_is_a_usage_error(strategies, tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    assert main(["bench", "--suite", str(domains_root() / "counters"),
                 "--strategies", strategies, "--out", str(out)]) == 30
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: --strategies names no strategy\n"
    assert not out.exists()


def test_solve_grounded_strategy_and_cap(tmp_path, capsys):
    domain, problem = _paths("relay")
    assert main(["solve", "--domain", domain, "--problem", problem,
                 "--generator", "grounded"]) == 0
    capsys.readouterr()
    assert main(["solve", "--domain", domain, "--problem", problem,
                 "--generator", "grounded", "--ground-cap", "2"]) == 20
    out = capsys.readouterr().out
    assert "limit reached: ground-store-cap" in out


def test_check_exactness_guaranteed(capsys):
    domain, _ = _paths("counters")
    assert main(["check-exactness", "--domain", domain]) == 0
    out = capsys.readouterr().out
    assert "exactness guaranteed" in out


def test_check_exactness_flags_high_arity(capsys):
    domain, _ = _paths("relay")
    assert main(["check-exactness", "--domain", domain]) == 0
    out = capsys.readouterr().out
    assert "exactness NOT guaranteed: move/" in out
    assert "3 variables" in out


def test_check_exactness_names_the_elements_the_clique_search_decides(capsys):
    # the paper's verdict stays; each element on three or more variables is
    # also reported as decided, and the fuel constraint, which reads both
    # terms of the fuel effect, leaves no effect condition to check
    want = {
        "relay": ["exactness NOT guaranteed: move/(link ?r ?a ?b) (literal with 3 variables)",
                  "decided while enumerating cliques: move/(link ?r ?a ?b)"],
        "delivery": ["exactness NOT guaranteed: drive/(>= (fuel ?t) (dist ?a ?b))"
                     " (constraint with 3 variables)",
                     "decided while enumerating cliques under the numeric strategy:"
                     " drive/(>= (fuel ?t) (dist ?a ?b))"],
    }
    for name, lines in want.items():
        domain, _ = _paths(name)
        assert main(["check-exactness", "--domain", domain]) == 0
        assert capsys.readouterr().out.splitlines() == lines, name


def test_check_exactness_lists_effect_conditions(tmp_path, capsys):
    domain = tmp_path / "domain.pddl"
    domain.write_text(
        "(define (domain d) (:requirements :numeric-fluents)"
        " (:functions (v ?x) (w ?x))"
        " (:action shrink :parameters (?x) :effect (scale-down (v ?x) (w ?x)))"
        " (:action set :parameters (?x) :effect (assign (w ?x) 2))"
        " (:action reset :parameters (?x ?y)"
        "  :effect (and (assign (v ?x) 0) (increase (v ?y) 1))))"
    )
    assert main(["check-exactness", "--domain", str(domain)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "exactness guaranteed: all precondition elements have arity <= 2",
        "effect condition checked: shrink/(/= (v ?x) (w ?x)) (expression may be"
        " undefined; divisor may be 0; target may be undefined)",
        "effect condition checked: reset/(:= (v ?x) 0) (may conflict with another effect)",
        "effect condition checked: reset/(+= (v ?y) 1) (target may be undefined;"
        " may conflict with another effect)",
    ]


def test_exactness_verdict_predicts_perfect_ratio(bundled_tasks):
    # whenever the static scan reports no violations, a numeric-strategy run
    # must emit exactly as many candidates as applicable actions, per expansion
    from lnplan import search
    from lnplan.consistency import exactness_violations
    from lnplan.successors import GeneratorConfig

    guaranteed = []
    for name, task in bundled_tasks.items():
        if not exactness_violations(task):
            guaranteed.append(name)
            result = search.solve(task, GeneratorConfig(strategy="numeric"))
            for candidates, applicable in result.stats.per_expansion:
                assert candidates == applicable, (name, candidates, applicable)
    assert "counters" in guaranteed and "relay" not in guaranteed
    assert "delivery" not in guaranteed  # three-variable fuel constraint


def test_satgadget_subcommand(tmp_path, capsys):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 -2 0\n2 2 2 0\n")
    assert main(["satgadget", "--cnf", str(cnf)]) == 0
    out = capsys.readouterr().out
    assert "(= (fy1 o-true) 1)" in out
    assert "(:constraint" in out
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1 1\n1 1 1 1 0\n")
    assert main(["satgadget", "--cnf", str(bad)]) == 30
