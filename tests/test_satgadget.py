import itertools
import random

import pytest

from lnplan.consistency import relaxed_unsat
from lnplan.assignments import AssignmentCache
from lnplan.model import constraint_holds, substitute
from lnplan.satgadget import (
    CnfFormula,
    assignments,
    decode,
    encode,
    parse_dimacs,
    satisfiable,
    to_problem_text,
)


def cnf_satisfiable_brute(cnf: CnfFormula) -> bool:
    """Independent truth-table oracle over the clause list."""
    for bits in itertools.product([False, True], repeat=cnf.n):
        ok = True
        for clause in cnf.clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            return True
    return False


def random_cnf(rng: random.Random, n: int, m: int) -> CnfFormula:
    clauses = []
    for _ in range(m):
        clause = tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3))
        clauses.append(clause)
    return CnfFormula(n, tuple(clauses))


def test_forced_satisfiable_single_clause():
    cnf = CnfFormula(1, (((1, 1, 1)),))
    inst = encode(cnf)
    sat, witness = satisfiable(inst)
    assert sat
    assert decode(inst, witness)[1] is True


def test_contradiction_unsatisfiable():
    cnf = CnfFormula(1, ((1, 1, 1), (-1, -1, -1)))
    sat, witness = satisfiable(encode(cnf))
    assert not sat and witness is None


def test_equivalence_with_truth_table_oracle_small():
    rng = random.Random(606)
    for _ in range(120):
        n = rng.randint(1, 6)
        cnf = random_cnf(rng, n, rng.randint(1, 10))
        inst = encode(cnf)
        sat, witness = satisfiable(inst)
        assert sat == cnf_satisfiable_brute(cnf)
        if sat:
            # round-trip: the decoded assignment satisfies the formula
            assignment = decode(inst, witness)
            for clause in cnf.clauses:
                assert any(assignment[abs(l)] == (l > 0) for l in clause)


def test_literal_and_clause_gadgets_are_boolean():
    rng = random.Random(707)
    cnf = random_cnf(rng, 4, 5)
    inst = encode(cnf)
    for sub in assignments(inst):
        total = 0.0
        # the constraint lhs is a sum of clause gadgets; peel them off
        from lnplan.model import BinaryExpr, expr_value

        def values(expr):
            if isinstance(expr, BinaryExpr) and expr.op == "+":
                yield from values(expr.left)
                yield expr.right
            else:
                yield expr

        for clause_expr in values(inst.constraint.lhs):
            ground = substitute(clause_expr, sub)
            value = expr_value(inst.state, ground)
            assert value in (0.0, 1.0)
            total += value
        assert 0.0 <= total <= inst.clause_count


def test_binding_walk_matches_substitute_then_evaluate():
    rng = random.Random(808)
    for _ in range(20):
        cnf = random_cnf(rng, 3, 4)
        inst = encode(cnf)
        for sub in assignments(inst):
            fast = constraint_holds(inst.state, inst.constraint, sub)
            slow = constraint_holds(inst.state, substitute(inst.constraint, sub))
            assert fast == slow


def test_relaxation_never_flags_satisfiable_gadget():
    # stress for the wide-arity fallback: constraints over n variables
    rng = random.Random(909)
    for _ in range(60):
        n = rng.randint(2, 6)
        cnf = random_cnf(rng, n, rng.randint(1, 8))
        inst = encode(cnf)
        sat, _ = satisfiable(inst)
        if sat:
            ranges = AssignmentCache(inst.state.fluents)
            assert not relaxed_unsat(inst.constraint, {}, ranges)


def test_parse_dimacs_pads_and_validates():
    cnf = parse_dimacs("c comment\np cnf 3 2\n1 -2 0\n2 3 1 0\n")
    assert cnf.n == 3
    assert cnf.clauses == ((1, -2, -2), (2, 3, 1))
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 -1 2 1 0\n")  # four literals
    with pytest.raises(ValueError):
        parse_dimacs("1 2 3 0\n")  # missing header
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause


def test_problem_text_snippet():
    inst = encode(CnfFormula(2, ((1, -2, 2),)))
    text = to_problem_text(inst)
    assert "(= (fy1 o-true) 1)" in text
    assert "(= (fy2 o-false) 0)" in text
    assert "(:constraint" in text and "= " in text
    assert "?x1" in text and "?x2" in text


def test_problem_text_is_exact():
    # the gadget's state is built by hand, so it owns every fluent it holds
    inst = encode(CnfFormula(3, ((1, -2, 3), (-1, 2, -3))))
    assert to_problem_text(inst) == (
        "(define (problem cnf-gadget)\n"
        "  (:objects o-true o-false)\n"
        "  (:init (= (fy1 o-false) 0) (= (fy1 o-true) 1) (= (fy2 o-false) 0)"
        " (= (fy2 o-true) 1) (= (fy3 o-false) 0) (= (fy3 o-true) 1))\n"
        "  (:constraint (+ (- 1 (* (* (- 1 (fy1 ?x1)) (- 1 (- 1 (fy2 ?x2)))) (- 1 (fy3 ?x3))))"
        " (- 1 (* (* (- 1 (- 1 (fy1 ?x1))) (- 1 (fy2 ?x2))) (- 1 (- 1 (fy3 ?x3)))))) = 2)\n"
        "  (:free-variables ?x1 ?x2 ?x3)\n"
        ")\n")


def test_encoding_size_linear():
    def node_count(expr):
        from lnplan.model import BinaryExpr

        if isinstance(expr, BinaryExpr):
            return 1 + node_count(expr.left) + node_count(expr.right)
        return 1

    sizes = {
        m: node_count(encode(CnfFormula(4, tuple([(1, -2, 3)] * m))).constraint.lhs)
        for m in (2, 5, 8)
    }
    assert sizes[5] - sizes[2] == sizes[8] - sizes[5]  # constant marginal cost
    assert (sizes[5] - sizes[2]) % 3 == 0
