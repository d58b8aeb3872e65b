"""The work counts of the benchmark families stay as pinned.

`tests/work_counts.py` writes the fixture; a change that moves a count on
purpose rewrites it and lists the moved counts.
"""

import json

import work_counts


def test_work_counts_match_the_fixture():
    want = json.loads(work_counts.FIXTURE.read_text())
    assert set(want) == set(work_counts.CASES) | {work_counts.GRAPHS}
    for name, (_, _, strategies) in work_counts.CASES.items():
        assert set(want[name]) == set(strategies), name
        for strategy in strategies:
            for seed in work_counts.SEEDS:
                got = work_counts.counts(name, seed, strategy)
                assert got == want[name][strategy][str(seed)], (name, strategy, seed)


def test_graph_sizes_match_the_fixture():
    want = json.loads(work_counts.FIXTURE.read_text())[work_counts.GRAPHS]
    assert set(want) == set(work_counts.CASES)
    for name in work_counts.CASES:
        assert work_counts.graph_sizes(name) == want[name], name
