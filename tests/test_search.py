import heapq
import json
import math
import random
import statistics
from pathlib import Path

import pytest

from conftest import load_bundled
from taskgen import bfs_optimal_cost, brute_applicable, random_task, search_record, searching_task

from lnplan.model import (
    ActionSchema,
    Atom,
    Constant,
    FunctionSymbol,
    FunctionTerm,
    GroundAction,
    Literal,
    NumericConstraint,
    PredicateSymbol,
    State,
    Task,
    apply,
    goal_satisfied,
)
from lnplan.search import LIMIT, SOLVED, UNSOLVABLE, Limits, format_plan, solve, validate
from lnplan.successors import NUMERIC, GeneratorConfig, STRATEGIES, SuccessorGenerator


def test_plan_cost_matches_breadth_first_oracle(bundled_tasks):
    for name, task in bundled_tasks.items():
        want = bfs_optimal_cost(task)
        assert want is not None, name
        result = solve(task, GeneratorConfig())
        assert result.status == SOLVED, name
        assert result.cost == want, name


def _reference_solve(task, config, node_cap):
    """Uniform-cost search on a heap of (g, tie, node), with a best-g map and a
    closed list: the search that the breadth-first queue replaced."""
    generator = SuccessorGenerator(task, config)
    heap, tie = [(0, 0, (task.init, None, None))], 1
    best_g, closed = {task.init.key(): 0}, set()
    expansions = generated = 0
    g_trace = []
    while heap:
        g, _, node = heapq.heappop(heap)
        state = node[0]
        if state.key() in closed:
            continue
        if goal_satisfied(state, task):
            plan = []
            while node[1] is not None:
                plan.append(node[2])
                node = node[1]
            return SOLVED, plan[::-1], expansions, generated, g_trace
        if expansions >= node_cap:
            return LIMIT, None, expansions, generated, g_trace
        closed.add(state.key())
        expansions += 1
        g_trace.append(g)
        for action in generator.applicable(state)[0]:
            successor = apply(state, action)
            known = best_g.get(successor.key())
            if known is None or known > g + 1:
                best_g[successor.key()] = g + 1
                generated += 1
                heapq.heappush(heap, (g + 1, tie, (successor, node, action)))
                tie += 1
    return UNSOLVABLE, None, expansions, generated, g_trace


def test_solve_matches_reference_heap_search(bundled_tasks):
    tasks = list(bundled_tasks.values()) + [load_bundled("counters", "problem-unsat.pddl")]
    # random tasks as generated, and with a goal that never holds, so that the
    # search runs until the reachable space or the node cap is exhausted
    never = NumericConstraint(Constant(0.0), "=", Constant(1.0))
    rng = random.Random(29)
    for i in range(16):
        task = random_task(rng, exact=bool(i % 2), task_id=i)
        tasks += [task, Task(task.domain_name, task.problem_name, task.predicates,
                             task.functions, task.schemas, task.objects, task.init,
                             goal_constraints=(never,))]
    for task in tasks:
        for strategy in STRATEGIES:
            config = GeneratorConfig(strategy=strategy)
            result = solve(task, config, Limits(nodes=40))
            stats = result.stats
            got = (result.status, result.plan, stats.expansions, stats.generated, stats.g_trace)
            assert got == _reference_solve(task, config, 40), (task.problem_name, strategy)


def test_plan_cost_identical_across_strategies(bundled_tasks):
    for name, task in bundled_tasks.items():
        costs = set()
        for strategy in STRATEGIES:
            result = solve(task, GeneratorConfig(strategy=strategy))
            assert result.status == SOLVED, (name, strategy)
            check = validate(task, result.plan)
            assert check.valid, (name, strategy, check.reason)
            assert check.cost == result.cost
            costs.add(result.cost)
        assert len(costs) == 1, name


def test_goal_true_at_init_gives_empty_plan(bundled_tasks):
    task = bundled_tasks["counters"]
    relaxed = type(task)(
        domain_name=task.domain_name, problem_name="trivial",
        predicates=task.predicates, functions=task.functions,
        schemas=task.schemas, objects=task.objects, init=task.init,
        goal_literals=(), goal_constraints=(),
    )
    result = solve(relaxed, GeneratorConfig())
    assert result.status == SOLVED and result.plan == []
    check = validate(relaxed, [])
    assert check.valid and check.cost == 0


def test_unsolvable_after_exhausting_reachable_space():
    task = load_bundled("counters", "problem-unsat.pddl")
    # the oracle agrees there is no plan in the finite reachable space
    assert bfs_optimal_cost(task) is None
    result = solve(task, GeneratorConfig())
    assert result.status == UNSOLVABLE


def test_limits_reported():
    task = load_bundled("counters")
    result = solve(task, GeneratorConfig(), Limits(nodes=1))
    assert result.status == LIMIT and result.limit_hit == "nodes"
    result = solve(task, GeneratorConfig(), Limits(time_s=0.0))
    assert result.status == LIMIT and result.limit_hit == "time"
    result = solve(task, GeneratorConfig(), Limits(states=1))
    assert result.status == LIMIT and result.limit_hit == "states"
    for bad in ({"nodes": -1}, {"time_s": float("nan")}, {"states": -1}, {"memory_mb": -0.5}):
        with pytest.raises(ValueError, match="must be non-negative"):
            Limits(**bad)


def test_grounding_stops_at_a_passed_deadline(monkeypatch):
    # the grounding join of the dense 60-waypoint relay streams 10,266
    # cliques; a deadline of 0 s has passed at its first clock reading, which
    # comes at the first clique
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import families

    from lnplan import pddl, successors

    family = families.relay(1, waypoints=60, links=58)
    task = pddl.parse_task(family.domain, family.problem)
    streamed = []
    real = successors.iter_cliques

    def counted(graph):
        for clique in real(graph):
            streamed.append(clique)
            yield clique

    monkeypatch.setattr(successors, "iter_cliques", counted)
    result = solve(task, GeneratorConfig(strategy="grounded"), Limits(time_s=0.0))
    assert result.status == LIMIT and result.limit_hit == "time"
    assert result.stats.expansions == 0
    assert len(streamed) == 1


def test_infinite_limits_set_no_cap():
    task = load_bundled("counters")
    limits = Limits(time_s=math.inf, memory_mb=math.inf)
    assert limits.state_cap() is None
    assert Limits(states=3, memory_mb=math.inf).state_cap() == 3
    assert solve(task, GeneratorConfig(), limits).status == SOLVED
    result = solve(task, GeneratorConfig(), Limits(states=1, memory_mb=math.inf))
    assert result.status == LIMIT and result.limit_hit == "states"


def test_memory_cap_reported_as_memory():
    # a zero memory limit still caps the search, at one state
    task = load_bundled("counters")
    result = solve(task, GeneratorConfig(), Limits(memory_mb=0.0))
    assert result.status == LIMIT and result.limit_hit == "memory"


def test_memory_limit_does_not_under_count_stored_states():
    # tracemalloc's peak over a numeric breadth-first solve, divided by the
    # states the search stores, stays within the bytes per state that
    # Limits.memory_mb assumes, so a memory limit never admits more states
    # than it pays for
    import gc
    import sys
    import tracemalloc

    from lnplan import pddl, search

    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    if perfbench not in sys.path:
        sys.path.insert(0, perfbench)
    import families

    for family, nodes in ((families.farmland(1, 6, 5), None),
                          (families.relay(1, waypoints=40, node_cap=2000), 2000)):
        task = pddl.parse_task(family.domain, family.problem)
        gc.collect()
        tracemalloc.start()
        try:
            result = solve(task, GeneratorConfig(strategy=NUMERIC), Limits(nodes=nodes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = result.stats.generated + 1
        assert stored > 200
        assert peak / stored <= search._STATE_BYTES_ESTIMATE, (family.problem[:40], peak / stored)


def test_validate_flags_broken_plans(bundled_tasks):
    task = bundled_tasks["tokens"]
    result = solve(task, GeneratorConfig())
    assert result.status == SOLVED and len(result.plan) == 2
    # drop the first step: the second is no longer applicable
    broken = result.plan[1:]
    check = validate(task, broken)
    assert not check.valid and check.failed_index == 0
    assert "precondition" in check.reason
    # wrong goal: replay succeeds but the goal check fails
    check = validate(task, result.plan[:1])
    assert not check.valid and check.failed_index == 1
    assert "goal" in check.reason


def test_validate_tolerance_applies_to_replay_only(bundled_tasks):
    task = bundled_tasks["delivery"]
    result = solve(task, GeneratorConfig())
    # tighten fuel below the needed 5 by a hair: exact validation fails,
    # a small slack accepts the same plan
    from lnplan.model import FunctionTerm, State, Task

    fuel_term = next(t for t in task.init.fluents if t.function.name == "fuel")
    fluents = dict(task.init.fluents)
    fluents[fuel_term] = 4.75
    tight = Task(
        domain_name=task.domain_name, problem_name="tight",
        predicates=task.predicates, functions=task.functions,
        schemas=task.schemas, objects=task.objects,
        init=State(task.init.atoms, fluents),
        goal_literals=task.goal_literals, goal_constraints=task.goal_constraints,
    )
    exact = validate(tight, result.plan)
    assert not exact.valid and "constraint" in exact.reason
    slack = validate(tight, result.plan, tolerance=0.5)
    assert slack.valid and slack.cost == result.cost
    # the search itself is unaffected by any tolerance: the plan now costs more
    detour = solve(tight, GeneratorConfig())
    assert detour.status != "solved" or detour.cost != result.cost


def test_validation_monotone_in_tolerance(bundled_tasks):
    # a tolerance only loosens: a plan accepted exactly stays accepted with slack
    plans = [(task, solve(task, GeneratorConfig()).plan) for task in bundled_tasks.values()]
    rng = random.Random(17)
    for i in range(20):
        task = random_task(rng, exact=False, task_id=i)
        aimless = Task(task.domain_name, task.problem_name, task.predicates, task.functions,
                       task.schemas, task.objects, task.init)
        plan, state = [], aimless.init
        for _ in range(4):
            options = brute_applicable(aimless, state)
            if not options:
                break
            action = rng.choice(options)
            plan.append(action)
            state = apply(state, action)
        plans.append((aimless, plan))

    # (= (f) (g)) with f = g = inf holds exactly, though inf - inf is undefined
    f, g, done = FunctionSymbol("f", 0), FunctionSymbol("g", 0), PredicateSymbol("done", 0)
    same = NumericConstraint(FunctionTerm(f, ()), "=", FunctionTerm(g, ()))
    check = ActionSchema("check", (), pre_constraints=(same,),
                         eff_literals=(Literal(Atom(done, ())),))
    inf = float("inf")
    infinite = Task("d", "infinite", (done,), (f, g), (check,), (),
                    State([], {FunctionTerm(f, ()): inf, FunctionTerm(g, ()): inf}),
                    goal_literals=(Literal(Atom(done, ())),), goal_constraints=(same,))
    plans.append((infinite, [GroundAction(check, ())]))

    for task, plan in plans:
        assert validate(task, plan).valid, task.problem_name
        for tolerance in (1e-9, 0.5, 10.0):
            assert validate(task, plan, tolerance=tolerance).valid, (task.problem_name, tolerance)


def test_validate_tolerance_loosens_goal_comparisons():
    f = FunctionSymbol("f", 0)
    near = NumericConstraint(FunctionTerm(f, ()), "=", Constant(1.25))
    task = Task("d", "near", (), (f,), (), (), State([], {FunctionTerm(f, ()): 1.0}),
                goal_constraints=(near,))
    exact = validate(task, [])
    assert not exact.valid and exact.reason == "goal not satisfied"
    assert validate(task, [], tolerance=0.5).valid


def test_no_state_expanded_twice(bundled_tasks):
    task = bundled_tasks["farmland"]
    result = solve(task, GeneratorConfig())
    # expansions never exceed the number of distinct reachable states
    from taskgen import brute_applicable
    from lnplan.model import apply
    seen = {task.init.key()}
    frontier = [task.init]
    while frontier:
        state = frontier.pop()
        for action in brute_applicable(task, state):
            succ = apply(state, action)
            if succ.key() not in seen:
                seen.add(succ.key())
                frontier.append(succ)
    assert result.stats.expansions <= len(seen)


def test_plan_format():
    task = load_bundled("tokens")
    result = solve(task, GeneratorConfig())
    text = format_plan(result.plan)
    lines = text.strip().splitlines()
    assert lines[0].startswith("(slide ")
    assert lines[-1] == f"; cost = {result.cost} (unit cost)"


def test_gvalues_nondecreasing_along_expansion_order(bundled_tasks):
    for name, task in bundled_tasks.items():
        result = solve(task, GeneratorConfig())
        trace = result.stats.g_trace
        assert all(a <= b for a, b in zip(trace, trace[1:])), name


# --- searches that visit many states, against a recorded fixture ---

SEARCH_FIXTURE = Path(__file__).parent / "data" / "searching_tasks.json"
SEARCH_TASKS, SEARCH_NODE_CAP = 16, 150


def _searching_records() -> dict:
    """Per `taskgen.searching_task` (seeds 0..15), per strategy, the
    `search_record` of a solve to SEARCH_NODE_CAP expansions."""
    records = {}
    for i in range(SEARCH_TASKS):
        task = searching_task(random.Random(i), i)
        records[task.problem_name] = {
            strategy: search_record(solve(task, GeneratorConfig(strategy),
                                          Limits(nodes=SEARCH_NODE_CAP)))
            for strategy in STRATEGIES}
    return records


def test_searches_match_the_recorded_fixture():
    # The fixture was recorded before states shared their static atoms and
    # fluents (commit 4f8ca0d). Verdicts, plans, expansion and generated
    # counts and g-values must not depend on how a state stores its facts;
    # a state-identity mistake shows as a changed count of generated states.
    want = json.loads(SEARCH_FIXTURE.read_text())
    got = _searching_records()
    assert got.keys() == want.keys()
    for name in want:
        assert got[name] == want[name], name
    # the tasks give the search something to do
    expansions = [records[NUMERIC]["expansions"] for records in want.values()]
    assert min(expansions) >= 12 and statistics.median(expansions) >= 48, expansions
    assert {records[NUMERIC]["status"] for records in want.values()} == {SOLVED, UNSOLVABLE, LIMIT}


if __name__ == "__main__":
    # rewrite the fixture: PYTHONPATH=src python tests/test_search.py
    records = _searching_records()
    SEARCH_FIXTURE.parent.mkdir(exist_ok=True)
    SEARCH_FIXTURE.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(strategy)}: {json.dumps(record, sort_keys=True)}"
            for strategy, record in records[name].items()) + "\n }"
        for name in records) + "\n}\n")
