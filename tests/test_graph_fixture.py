"""Consistency-graph dumps stay as pinned.

`tests/graph_fixture.py` writes the fixture; a change that moves a graph on
purpose rewrites it and lists which dumps moved.
"""

import json

import graph_fixture


def test_graph_dumps_match_the_fixture():
    want = json.loads(graph_fixture.FIXTURE.read_text())
    got = graph_fixture.all_dumps()
    assert list(got) == list(want)
    moved = [key for key, value in got.items() if value != want[key]]
    assert not moved, moved[:5]
