"""Acceptance suite: prints one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criterion tests share the randomly generated task suites through module-level
caches, so the whole file runs front to back in a few minutes.
"""

import dataclasses
import itertools
import random
import time

from conftest import BUNDLED, load_bundled
from taskgen import bfs_optimal_cost, brute_applicable, random_task, walk_states

from lnplan import metrics
from lnplan.assignments import build_assignment_set
from lnplan.cliques import iter_cliques
from lnplan.consistency import build_graph
from lnplan.intervals import EMPTY, INF, Interval, arith, scalar_op
from lnplan.model import FunctionSymbol, FunctionTerm, Object, State, apply
from lnplan.satgadget import CnfFormula, encode, satisfiable
from lnplan.search import SOLVED, solve, validate
from lnplan.successors import (
    EXHAUSTIVE,
    GROUNDED,
    NUMERIC,
    PROPOSITIONAL,
    GeneratorConfig,
    SuccessorGenerator,
)

_CACHE = {}


def _report(name, ok, detail=""):
    print(f"\n[{name}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name}: {detail}"


def _suite(kind: str, seed: int, count: int = 200):
    """Cached list of (task, [(state, oracle), ...]) cases."""
    if (kind, seed) not in _CACHE:
        rng = random.Random(seed if kind == "exact" else seed + 1)
        cases = []
        for i in range(count):
            task = random_task(rng, exact=kind == "exact", task_id=i)
            cases.append((task, walk_states(task, rng, extra=2)))
        _CACHE[(kind, seed)] = cases
    return _CACHE[(kind, seed)]


def _numeric_candidates(task, state):
    generator = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
    ctx = generator.context(state)
    out = []
    for schema in task.schemas:
        out.extend(generator.candidates(schema, state, ctx))
    return out


def test_criterion_1_numeric_generator_is_exact_on_arity_two_tasks(seed):
    started = time.perf_counter()
    mismatches = 0
    states = 0
    for task, cases in _suite("exact", seed):
        for state, oracle in cases:
            states += 1
            candidates = _numeric_candidates(task, state)
            if len(candidates) != len(oracle) or set(candidates) != set(oracle):
                mismatches += 1
    elapsed = time.perf_counter() - started
    # the general suite's constraints read functions of arity three: numeric
    # candidates are still exactly the applicable actions of every schema
    # whose residual checks no effect
    checked = general_mismatches = 0
    for task, cases in _suite("general", seed):
        generator = SuccessorGenerator(task, GeneratorConfig(strategy=NUMERIC))
        exact = [schema for schema, check in generator.checks if check is None or not check.effects]
        for state, oracle in cases:
            ctx = generator.context(state)
            for schema in exact:
                checked += 1
                candidates = generator.candidates(schema, state, ctx)
                want = [action for action in oracle if action.schema is schema]
                if len(candidates) != len(want) or set(candidates) != set(want):
                    general_mismatches += 1
    _report(
        "criterion-1 exact generation",
        mismatches == 0 and general_mismatches == 0 and elapsed < 60.0,
        f"tasks=200 states={states} mismatches={mismatches} time={elapsed:.1f}s (limit 60s);"
        f" general schema-states={checked} mismatches={general_mismatches}",
    )


def test_criterion_2_all_strategies_complete_with_arity_three(seed):
    mismatches = 0
    states = 0
    for task, cases in _suite("general", seed):
        generators = {
            s: SuccessorGenerator(task, GeneratorConfig(strategy=s))
            for s in (NUMERIC, PROPOSITIONAL, EXHAUSTIVE, GROUNDED)
        }
        for state, oracle in cases:
            states += 1
            want = set(oracle)
            for strategy, generator in generators.items():
                got, _ = generator.applicable(state)
                if set(got) != want or len(got) != len(want):
                    mismatches += 1
    _report(
        "criterion-2 completeness",
        mismatches == 0,
        f"tasks=200 states={states} strategies=4 mismatches={mismatches}",
    )


def test_criterion_3_per_expansion_subset_chain(seed):
    violations = 0
    checked = 0
    for kind in ("exact", "general"):
        for task, cases in _suite(kind, seed):
            gens = {
                s: SuccessorGenerator(task, GeneratorConfig(strategy=s))
                for s in (NUMERIC, PROPOSITIONAL, EXHAUSTIVE)
            }
            for state, oracle in cases:
                checked += 1
                counts = {}
                for strategy, generator in gens.items():
                    ctx = generator.context(state)
                    counts[strategy] = sum(
                        1 for schema in task.schemas
                        for _ in generator.candidates(schema, state, ctx)
                    )
                chain = (
                    len(oracle) <= counts[NUMERIC] <= counts[PROPOSITIONAL] <= counts[EXHAUSTIVE]
                )
                if not chain:
                    violations += 1
    _report(
        "criterion-3 subset chain",
        violations == 0,
        f"states={checked} violations={violations}",
    )


def test_criterion_4_overapproximation_pattern_at_desk_scale():
    counters = load_bundled("counters")
    res_numeric = solve(counters, GeneratorConfig(strategy=NUMERIC))
    res_prop = solve(counters, GeneratorConfig(strategy=PROPOSITIONAL))
    rep_numeric = metrics.report_from_result("counters", NUMERIC, res_numeric)
    rep_prop = metrics.report_from_result("counters", PROPOSITIONAL, res_prop)

    # relay's (link ?r ?a ?b) is on three variables, so the graph holds only
    # its pair projections and overapproximates the applicable actions, as
    # the paper says; the clique search decides the literal, so numeric
    # candidates equal the applicable actions on every reachable state
    relay = load_bundled("relay")
    relay_generator = SuccessorGenerator(relay, GeneratorConfig(strategy=NUMERIC))
    graph_cliques = candidates = applicable = 0
    exact = True
    frontier, seen = [relay.init], {relay.init.key()}
    while frontier:
        state = frontier.pop()
        oracle = brute_applicable(relay, state)
        ctx = relay_generator.context(state)
        for schema in relay.schemas:
            graph = build_graph(schema, ctx)
            graph_cliques += sum(1 for _ in iter_cliques(dataclasses.replace(graph, wide=[])))
        got, report = relay_generator.applicable(state, ctx)
        candidates += report.candidates
        applicable += len(oracle)
        exact = exact and set(got) == set(oracle) and report.candidates == len(oracle)
        for action in oracle:
            succ = apply(state, action)
            if succ.key() not in seen:
                seen.add(succ.key())
                frontier.append(succ)

    ok = (
        res_numeric.status == SOLVED
        and rep_numeric.oa == 1.00
        and rep_prop.oa is not None
        and rep_prop.oa > 1.00
        and graph_cliques > applicable
        and exact
        and candidates == applicable
    )
    _report(
        "criterion-4 desk-scale ratio pattern",
        ok,
        f"counters numeric oa={rep_numeric.oa} propositional oa={rep_prop.oa};"
        f" relay graph cliques={graph_cliques} numeric candidates={candidates}"
        f" applicable={applicable}",
    )


def _range_hull_oracle(function, state, objects, binding):
    values = []
    free = [i for i in range(function.arity) if i not in binding]
    for combo in itertools.product(objects, repeat=len(free)):
        args = [None] * function.arity
        for i, obj in binding.items():
            args[i] = obj
        for i, obj in zip(free, combo):
            args[i] = obj
        value = state.fluents.get(FunctionTerm(function, tuple(args)))
        if value is not None:
            values.append(value)
    return Interval(min(values), max(values)) if values else EMPTY


def test_criterion_5_range_tables_sound_and_exact(seed):
    rng = random.Random(seed + 5)
    objects = tuple(Object(f"o{i}") for i in range(5))
    unsound = 0
    inexact = 0
    for _ in range(1000):
        arity = rng.randint(0, 3)
        fn = FunctionSymbol("f", arity)
        fluents = {}
        for combo in itertools.product(objects, repeat=arity):
            if rng.random() < 0.6:
                fluents[FunctionTerm(fn, combo)] = float(rng.randint(-9, 9))
        state = State([], fluents)
        table = build_assignment_set(fn, state.fluents.items())
        # up to two positions, or all of them: the keys a table holds
        size = rng.randint(0, arity)
        binding = {
            i: rng.choice(objects)
            for i in (rng.sample(range(arity), size) if arity else [])
        }
        got = table.lookup(binding)
        want = _range_hull_oracle(fn, state, objects, binding)
        contained = want.is_empty or (
            not got.is_empty and got.lo <= want.lo and want.hi <= got.hi
        )
        if not contained:
            unsound += 1
        if (arity <= 2 or size == arity) and got != want:
            inexact += 1
    _report(
        "criterion-5 range tables",
        unsound == 0 and inexact == 0,
        f"triples=1000 unsound={unsound} inexact_at_low_arity_or_full_binding={inexact}",
    )


def _cnf_sat_oracle(cnf: CnfFormula) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in cnf.clauses):
            return True
    return False


def _random_cnf(rng, n, m):
    return CnfFormula(
        n, tuple(tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3)) for _ in range(m))
    )


def test_criterion_6_constraint_gadgets_match_sat_oracle(seed):
    rng = random.Random(seed + 6)
    started = time.perf_counter()
    disagreements = 0
    for i in range(500):
        if i % 50 == 0:  # planted contradiction exercises the unsat sweep
            n = rng.randint(1, 12)
            v = rng.randint(1, n)
            extra = tuple(
                tuple(rng.choice([-1, 1]) * rng.randint(1, n) for _ in range(3))
                for _ in range(rng.randint(0, 13))
            )
            cnf = CnfFormula(n, ((v, v, v), (-v, -v, -v)) + extra)
        elif i % 5 == 4:  # dense and small leans unsatisfiable
            cnf = _random_cnf(rng, rng.randint(2, 6), rng.randint(8, 15))
        else:
            cnf = _random_cnf(rng, rng.randint(3, 12), rng.randint(1, 15))
        sat, _ = satisfiable(encode(cnf))
        if sat != _cnf_sat_oracle(cnf):
            disagreements += 1
    elapsed = time.perf_counter() - started
    _report(
        "criterion-6 gadget equivalence",
        disagreements == 0 and elapsed < 120.0,
        f"formulas=500 disagreements={disagreements} time={elapsed:.1f}s (limit 120s)",
    )


def test_criterion_7_search_matches_breadth_first_oracle():
    failures = []
    for name in BUNDLED:
        task = load_bundled(name)
        want = bfs_optimal_cost(task)
        for strategy in (NUMERIC, PROPOSITIONAL, EXHAUSTIVE, GROUNDED):
            result = solve(task, GeneratorConfig(strategy=strategy))
            check = validate(task, result.plan) if result.plan is not None else None
            if result.status != SOLVED or result.cost != want or not check.valid:
                failures.append((name, strategy, result.status, result.cost, want))
    _report(
        "criterion-7 search correctness",
        not failures,
        f"tasks={len(BUNDLED)} strategies=4 failures={failures or 0}",
    )


_PALETTE = [-INF, -4.0, -2.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0, INF]


def _sample(j: Interval, rng) -> list[float]:
    lo = j.lo if j.lo != -INF else (j.hi - 8.0 if j.hi != INF else -8.0)
    hi = j.hi if j.hi != INF else (j.lo + 8.0 if j.lo != -INF else 8.0)
    pts = [j.lo, j.hi, lo + (hi - lo) * rng.random()]
    return [p for p in pts if j.lo <= p <= j.hi]


def test_criterion_8_interval_overapproximation_contract(seed):
    rng = random.Random(seed + 8)
    violations = 0
    pairs = 0
    for op in ("+", "-", "*", "/"):
        for _ in range(100_000):
            a, b = sorted((rng.choice(_PALETTE), rng.choice(_PALETTE)))
            c, d = sorted((rng.choice(_PALETTE), rng.choice(_PALETTE)))
            ja, jb = Interval(a, b), Interval(c, d)
            result = arith(ja, op, jb)
            pairs += 1
            for x in _sample(ja, rng):
                for y in _sample(jb, rng):
                    value = scalar_op(x, op, y)
                    if value is None:
                        continue
                    if result.is_empty or not (result.lo <= value <= result.hi):
                        violations += 1

    # definedness-guard semantics at the known edge cases
    guards = (
        arith(Interval(1.0, 2.0), "/", Interval(0.0, 1.0)) == Interval(1.0, INF)
        and arith(Interval(0.0, 0.0), "/", Interval(0.0, 0.0)).is_empty
        and arith(Interval(INF, INF), "-", Interval(INF, INF)).is_empty
        and arith(Interval(0.0, 0.0), "*", Interval(INF, INF)).is_empty
        and arith(Interval(INF, INF), "/", Interval(INF, INF)).is_empty
        and arith(Interval(-INF, -INF), "+", Interval(INF, INF)).is_empty
    )
    _report(
        "criterion-8 interval arithmetic",
        violations == 0 and guards,
        f"operand_pairs={pairs} violations={violations} definedness_guards={'ok' if guards else 'BAD'}",
    )
