import json

from conftest import domains_root

from lnplan import metrics, search
from lnplan.successors import GeneratorConfig


def test_overapproximation_rounding():
    assert metrics.overapproximation(116, 100) == 1.16
    assert metrics.overapproximation(100, 100) == 1.00
    assert metrics.overapproximation(7, 0) is None


def _result(per_expansion, status=search.SOLVED, cost=None, wall_time_s=0.0):
    """A solve result with the totals search.solve keeps for these expansions."""
    stats = search.SolveStats(expansions=len(per_expansion),
                              candidates=sum(c for c, _ in per_expansion),
                              applicable=sum(a for _, a in per_expansion),
                              wall_time_s=wall_time_s, per_expansion=list(per_expansion))
    plan = None if cost is None else [None] * cost  # only its length is read
    return search.SolveResult(status, plan, None, stats)


def test_aggregate_sums_and_ratio():
    result = _result([(10, 8), (6, 6), (100, 86)], cost=3, wall_time_s=0.5)
    report = metrics.report_from_result("t", "numeric", result)
    assert (report.solved, report.status, report.cost, report.wall_time_s) == (
        True, "solved", 3, 0.5)
    assert report.expansions == 3
    assert report.candidates == 116
    assert report.applicable == 100
    assert report.oa == 1.16
    assert report.per_expansion == [(10, 8), (6, 6), (100, 86)]
    report = metrics.report_from_result("t", "numeric", result, keep_per_expansion=False)
    assert report.per_expansion is None and report.candidates == 116
    assert "per_expansion" not in report.to_json()


def test_aggregate_oa_null_without_applicable():
    result = _result([(0, 0)], status=search.UNSOLVABLE)
    report = metrics.report_from_result("t", "numeric", result)
    assert not report.solved and report.cost is None
    assert report.oa is None
    assert report.to_json()["oa"] is None


def test_report_from_result(bundled_tasks):
    task = bundled_tasks["counters"]
    result = search.solve(task, GeneratorConfig())
    report = metrics.report_from_result("counters", "numeric", result)
    assert report.solved and report.status == "solved"
    assert report.candidates == result.stats.candidates
    assert report.oa == 1.00


def test_jsonl_and_csv_roundtrip(tmp_path):
    reports = [
        metrics.report_from_result("a", "numeric", _result([(4, 2)], cost=2, wall_time_s=0.01)),
        metrics.report_from_result("b", "exhaustive",
                                   _result([(0, 0)], status=search.UNSOLVABLE, wall_time_s=0.02)),
    ]
    out = tmp_path / "r.jsonl"
    metrics.write_jsonl(reports, out)
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert lines[0]["oa"] == 2.0
    assert lines[1]["oa"] is None
    csv_text = metrics.summarize_csv(reports)
    rows = csv_text.strip().splitlines()
    assert rows[0].startswith("task,strategy,")
    assert rows[1].startswith("a,numeric,solved,")
    assert rows[2].endswith(",,")  # null oa and cost stay blank


def test_ratio_ordering_across_lifted_strategies(bundled_tasks):
    for name, task in bundled_tasks.items():
        ratios = {}
        for strategy in ("numeric", "propositional", "exhaustive"):
            result = search.solve(task, GeneratorConfig(strategy=strategy))
            report = metrics.report_from_result(name, strategy, result)
            assert report.oa is not None and report.oa >= 1.00
            ratios[strategy] = report.candidates / report.applicable
        assert ratios["numeric"] <= ratios["propositional"] <= ratios["exhaustive"], name


def test_discover_and_run_suite(tmp_path):
    suite = domains_root()
    found = metrics.discover_suite(suite)
    ids = {t[0] for t in found}
    assert "counters" in ids and "counters:problem-unsat" in ids
    assert len(found) == 12

    configs = [GeneratorConfig("numeric"), GeneratorConfig("propositional")]
    reports = metrics.run_suite(domains_root() / "counters", configs,
                                search.Limits(nodes=2000))
    by_key = {(r.task, r.strategy): r for r in reports}
    assert by_key[("counters", "numeric")].oa == 1.00
    assert by_key[("counters", "propositional")].oa > 1.00
    assert by_key[("counters:problem-unsat", "numeric")].status == "unsolvable"
