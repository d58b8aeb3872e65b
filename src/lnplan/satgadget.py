"""3-CNF formulas compiled into a single lifted numeric constraint.

Each propositional variable y gets an object-valued variable x_y, a unary
function term F_y with F_y(true) = 1 and F_y(false) = 0, and a 0/1 literal
expression. A clause becomes 1 - prod(1 - literal_i); the formula becomes
the constraint sum(clauses) = m over the two-object universe. Substitutions
of the x_y then correspond exactly to truth assignments, which makes these
instances a sharp stress corpus for the constraint evaluators: satisfiability
of the constraint over all substitutions coincides with satisfiability of
the formula.

The expressions are ordinary model-module trees, so they flow through the
exact and the relaxed evaluators without any special casing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

from .model import (
    BinaryExpr,
    Constant,
    Expr,
    FunctionSymbol,
    FunctionTerm,
    NumericConstraint,
    Object,
    State,
    Variable,
    constraint_holds,
)

TRUE_OBJECT = "o-true"
FALSE_OBJECT = "o-false"


@dataclass(frozen=True)
class CnfFormula:
    """Exactly-three-literal clauses over variables 1..n, DIMACS sign convention."""

    n: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("formula needs at least one variable")
        for clause in self.clauses:
            if len(clause) != 3:
                raise ValueError("every clause must have exactly three literals")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n:
                    raise ValueError(f"literal {lit} out of range for {self.n} variables")

    @property
    def m(self) -> int:
        return len(self.clauses)


@dataclass
class GadgetInstance:
    objects: tuple[Object, Object]  # (true, false)
    variables: dict[int, Variable]  # propositional index -> object variable
    functions: dict[int, FunctionSymbol]
    state: State
    constraint: NumericConstraint
    clause_count: int

    @property
    def true_object(self) -> Object:
        return self.objects[0]

    @property
    def false_object(self) -> Object:
        return self.objects[1]


def encode(cnf: CnfFormula) -> GadgetInstance:
    """Compile the formula; encoding size is linear in the formula size."""
    o_true = Object(TRUE_OBJECT)
    o_false = Object(FALSE_OBJECT)
    variables = {i: Variable(f"?x{i}") for i in range(1, cnf.n + 1)}
    functions = {i: FunctionSymbol(f"fy{i}", 1) for i in range(1, cnf.n + 1)}

    fluents = {}
    for i, fn in functions.items():
        fluents[FunctionTerm(fn, (o_true,))] = 1.0
        fluents[FunctionTerm(fn, (o_false,))] = 0.0
    state = State((), fluents)

    one = Constant(1.0)

    def literal_expr(lit: int) -> Expr:
        i = abs(lit)
        term = FunctionTerm(functions[i], (variables[i],))
        return term if lit > 0 else BinaryExpr("-", one, term)

    def clause_expr(clause: tuple[int, int, int]) -> Expr:
        product: Expr = BinaryExpr("-", one, literal_expr(clause[0]))
        for lit in clause[1:]:
            product = BinaryExpr("*", product, BinaryExpr("-", one, literal_expr(lit)))
        return BinaryExpr("-", one, product)

    total: Expr = clause_expr(cnf.clauses[0]) if cnf.clauses else Constant(0.0)
    for clause in cnf.clauses[1:]:
        total = BinaryExpr("+", total, clause_expr(clause))
    constraint = NumericConstraint(total, "=", Constant(float(cnf.m)))

    return GadgetInstance(
        objects=(o_true, o_false),
        variables=variables,
        functions=functions,
        state=state,
        constraint=constraint,
        clause_count=cnf.m,
    )


def decode(instance: GadgetInstance, substitution: Mapping[Variable, Object]) -> dict[int, bool]:
    """Truth assignment read off a total substitution of the object variables."""
    out = {}
    for i, var in instance.variables.items():
        obj = substitution[var]
        out[i] = obj == instance.true_object
    return out


def assignments(instance: GadgetInstance) -> Iterator[dict[Variable, Object]]:
    """All 2^n substitutions of the object variables, false-first per variable."""
    vars_ = [instance.variables[i] for i in sorted(instance.variables)]
    for combo in itertools.product((instance.false_object, instance.true_object),
                                   repeat=len(vars_)):
        yield dict(zip(vars_, combo))


def satisfiable(instance: GadgetInstance) -> tuple[bool, Optional[dict[Variable, Object]]]:
    """Existential satisfiability over all substitutions, with a witness."""
    for sub in assignments(instance):
        if constraint_holds(instance.state, instance.constraint, sub):
            return True, sub
    return False, None


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF; clauses shorter than 3 are padded by repetition."""
    n = 0
    clauses: list[tuple[int, int, int]] = []
    current: list[int] = []
    seen_header = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"malformed DIMACS header: {line!r}")
            n = int(parts[2])
            seen_header = True
            continue
        for word in line.split():
            lit = int(word)
            if lit == 0:
                if not current:
                    raise ValueError("empty clause is not encodable")
                if len(current) > 3:
                    raise ValueError("clauses with more than three literals are not supported")
                while len(current) < 3:
                    current.append(current[-1])
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if current:
        raise ValueError("trailing clause without terminating 0")
    if not seen_header:
        raise ValueError("missing DIMACS header")
    return CnfFormula(n, tuple(clauses))


def to_problem_text(instance: GadgetInstance) -> str:
    """PDDL-style snippet of the instance for inspection."""
    lines = ["(define (problem cnf-gadget)"]
    lines.append(f"  (:objects {instance.true_object.name} {instance.false_object.name})")
    init = " ".join(
        f"(= {term!r} {int(value)})"
        for term, value in sorted(
            instance.state.fluents.items(),
            key=lambda kv: (kv[0].function.name, kv[0].args[0].name),
        )
    )
    lines.append(f"  (:init {init})")
    c = instance.constraint
    lines.append(f"  (:constraint {c.lhs!r} {c.cmp} {c.rhs!r})")
    vars_ = " ".join(instance.variables[i].name for i in sorted(instance.variables))
    lines.append(f"  (:free-variables {vars_})")
    lines.append(")")
    return "\n".join(lines) + "\n"
