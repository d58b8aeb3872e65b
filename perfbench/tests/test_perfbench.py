"""Tests of the benchmark itself: generators, span arithmetic, wrappers, gate.

Run with `python3 -m pytest perfbench/tests -q` from the repository root.
"""

import math
from pathlib import Path

import pytest

import families
import run
import spec
import tracing
from lnplan import assignments, consistency, model, pddl, search, successors


@pytest.mark.parametrize("name", sorted(families.FAMILIES))
def test_same_seed_gives_identical_pddl(name):
    make = families.FAMILIES[name]
    first, again, other = make(7), make(7), make(8)
    assert (first.domain, first.problem) == (again.domain, again.problem)
    assert first.problem != other.problem
    pddl.parse_task(first.domain, first.problem)


def test_benchmark_json_matches_spec():
    root = Path(spec.__file__).resolve().parent.parent
    assert (root / "BENCHMARK.json").read_text() == spec.render()


def test_self_times_of_synthetic_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.inner", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(tracing.self_times(spans)) == 10.0
    assert tracing.nested(spans)
    assert not tracing.nested(spans + [["late", 9.5, 11.0, 0]])
    total, layer = tracing.summarize(spans)
    assert total["a"] == 3.0 and layer["a"] == 3.0 and layer["root"] == 3.0


def _module_attributes():
    owners = [assignments, consistency, model, search, successors, model.State,
              successors.SuccessorGenerator, consistency.AtomIndex]
    return [(owner, dict(vars(owner))) for owner in owners]


def _assert_unchanged(before):
    for owner, attrs in before:
        now = dict(vars(owner))
        changed = [k for k in attrs if now.get(k) is not attrs[k]]
        assert not changed, f"{owner.__name__}: {changed} not restored"


def test_traced_solve_nests_spans_and_restores_every_wrapper():
    family = families.delivery(3, trucks=2, locations=10, reach=5)
    task = pddl.parse_task(family.domain, family.problem)
    before = _module_attributes()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert successors.build_graph is not consistency.build_graph
        root = tracer.open("bench.solve")
        result = tracer.call("search.solve", search.solve, task)
        tracer.close(root)
    finally:
        tracer.restore()
    _assert_unchanged(before)
    assert successors.build_graph is consistency.build_graph

    spans = tracer.spans
    assert tracing.nested(spans)
    names = {s[0] for s in spans}
    assert {"consistency.build_graph", "assignments.build", "cliques.enum",
            "model.is_applicable.filter", "model.state_key", "successors.context"} <= names
    assert sum(tracing.self_times(spans)) == pytest.approx(spans[0][2] - spans[0][1])
    for (_, start, end, parent), self_s in zip(spans, tracing.self_times(spans)):
        assert self_s >= -1e-9
        if parent >= 0:
            assert end - start <= spans[parent][2] - spans[parent][1]
    assert tracer.counts["successors.candidates"] == result.stats.candidates
    assert tracer.counts["successors.applicable"] == result.stats.applicable


def _small_bench(family):
    bench = run.Bench("farmland-dense", 1, 0.01)
    bench.family = family
    return bench


def test_traced_run_restores_wrappers_and_reports_every_layer_metric():
    before = _module_attributes()
    bench = _small_bench(families.farmland(2, farms=5, units=6))
    metrics = bench.run_traced()
    _assert_unchanged(before)
    assert set(metrics) == {name for name, _, _ in spec.PER_LAYER}
    assert not bench.gate.failures
    assert metrics["search.expansions"][0] == math.comb(10, 4)
    assert metrics["trace.self_share"][0] == pytest.approx(1.0, abs=0.01)


def test_gate_passes_on_correct_references():
    bench = _small_bench(families.farmland(2, farms=5, units=6))
    bench.solve_once()
    generator = successors.SuccessorGenerator(bench.parse(), bench.config)
    bench.check_states(generator, bench.sample_states(generator.task))
    assert bench.gate.attempted > 200 and not bench.gate.failures


def test_gate_fails_on_wrong_expansion_count():
    family = families.farmland(2, farms=5, units=6)
    family.expected.expansions_lo += 1
    family.expected.expansions_hi += 1
    bench = _small_bench(family)
    bench.solve_once()
    assert any("expansions" in f for f in bench.gate.failures)


def test_gate_fails_on_wrong_plan_cost():
    family = families.delivery(3, trucks=2, locations=10, reach=5)
    family.expected.cost += 1
    bench = _small_bench(family)
    bench.config = successors.GeneratorConfig()
    bench.solve_once()
    assert any("cost" in f for f in bench.gate.failures)


def test_gate_fails_on_wrong_applicable_oracle():
    family = families.farmland(2, farms=5, units=6)
    honest = family.oracle
    family.oracle = lambda facts: sorted(honest(facts) + [("move-unit", ("f1", "f1"))])
    bench = _small_bench(family)
    generator = successors.SuccessorGenerator(bench.parse(), bench.config)
    states = bench.sample_states(generator.task)
    bench.check_states(generator, states)
    assert any("oracle" in f for f in bench.gate.failures)
    assert any("chain" in f for f in bench.gate.failures)


def test_run_refuses_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "farmland-dense", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""
