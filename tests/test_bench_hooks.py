"""Guards for the benchmark's traced mode, which reaches into lnplan from outside.

`perfbench/tracing.py` replaces functions at the attributes their callers
look up (for example `successors.build_graph`, `consistency.relaxed_unsat`,
`AtomIndex.match_exists`), and `perfbench/run.py` builds record-mode graphs
for its exclusion histograms. A rename or a change of record mode on the
lnplan side would break the traced benchmark; these tests make it fail here
instead.
"""

import sys
from pathlib import Path

import pytest

from conftest import BUNDLED, load_bundled
from lnplan import consistency, search, successors

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing as module

    yield module
    sys.modules.pop("tracing", None)


@pytest.fixture
def run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run as module

    yield module
    for name in ("run", "families", "spec", "speed"):
        sys.modules.pop(name, None)


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
        # no numeric candidate of a bundled task needs the filter, so a
        # propositional solve makes that hook fire
        results = [search.solve(task, successors.GeneratorConfig(strategy=strategy))
                   for strategy in (successors.NUMERIC, successors.PROPOSITIONAL)]
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
    assert counts["successors.candidates"] == sum(r.stats.candidates for r in results)
    assert counts["successors.applicable"] == sum(r.stats.applicable for r in results)


# (schema, reason) -> count in the initial state of each bundled task
EXCLUSIONS = {
    "counters": {("decrement", "numeric-unsat"): 1},
    "relay": {("move", "positive-miss"): 30, ("move", "numeric-unsat"): 4},
    "switches": {("flip-off", "positive-miss"): 1},
    "farmland": {("move-unit", "negative-hit"): 1, ("move-unit", "numeric-unsat"): 1},
    "delivery": {("drive", "positive-miss"): 16},
    "ratecounters": {},
    "watering": {},
    "doubling": {},
    "tokens": {("slide", "positive-miss"): 3, ("slide", "negative-hit"): 1},
    "dials": {("fine-tune", "numeric-unsat"): 1},
    # (toll t1 la hub) is read at its value 9, not the hull [1, 9] of (toll t1 la ?)
    "tolls": {("enter", "positive-miss"): 10, ("enter", "numeric-unsat"): 1,
              ("leave", "positive-miss"): 1},
}


def test_exclusion_histograms_of_bundled_initial_states(run):
    assert set(EXCLUSIONS) == set(BUNDLED)
    for name, want in EXCLUSIONS.items():
        task = load_bundled(name)
        assert dict(run.exclusion_histogram(task, [task.init])) == want, name
