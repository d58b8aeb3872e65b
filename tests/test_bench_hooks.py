"""Guard for the benchmark's layer tracer, which patches lnplan from outside.

`perfbench/tracing.py` replaces functions at the attributes their callers
look up (for example `successors.build_graph`, `consistency.relaxed_unsat`,
`AtomIndex.match_exists`). A rename on the lnplan side would break the traced
benchmark; this test makes it fail here instead.
"""

import sys
from pathlib import Path

import pytest

from conftest import load_bundled
from lnplan import consistency, search, successors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing as module

    yield module
    sys.modules.pop("tracing", None)


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_hooks_exist_fire_and_are_restored(tracing):
    task = load_bundled("delivery")
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer._saved)
    try:
        assert patched, "the tracer patched nothing"
        for owner, attr, original in patched:
            assert _current(owner, attr) is not original, attr
        result = search.solve(task)
    finally:
        tracer.restore()

    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{attr} not restored"
    assert successors.build_graph is consistency.build_graph

    counts = tracer.counts
    for hook in ("consistency.build_graph.calls", "consistency.match_exists",
                 "consistency.relaxed_unsat.calls", "assignments.build.calls",
                 "model.is_applicable.filter.calls"):
        assert counts[hook] > 0, f"{hook} never fired"
    assert counts["successors.candidates"] == result.stats.candidates
    assert counts["successors.applicable"] == result.stats.applicable
