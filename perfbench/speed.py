"""Machine-speed reference for timings taken on a shared host.

On the 2-vCPU sandbox the benchmark was tuned on, the vCPU's speed drifts by
up to 2x within seconds because other tenants share the host. Repeats inside
one run do not average that out, so medians of runs a minute apart spread by
20-30%. `Speed` brackets every measured stretch with a fixed pure-Python job
that does not use lnplan, and rescales the stretch's durations by
REFERENCE_NOMINAL_S / (mean of the two reference times): the reported times
are those the host would give at the reference speed. Optimising lnplan
moves them exactly as it moves the raw times; only the host's drift cancels.
"""

from __future__ import annotations

import gc
import statistics
import time

# About the reference job's time on a quiet vCPU of the 2.0 GHz Xeon sandbox.
REFERENCE_NOMINAL_S = 0.007

_clock = time.perf_counter


class _Name:
    """A name key with Python-level hashing and equality, as lnplan's objects have."""

    __slots__ = ("name", "_hash")

    def __init__(self, name: str):
        self.name = name
        self._hash = hash(("name", name))

    def __eq__(self, other):
        return type(other) is _Name and other.name == self.name

    def __hash__(self):
        return self._hash


_NAMES = [_Name(f"o{i}") for i in range(40)]


def _step(table: dict, i: int) -> int:
    key = (i % 3, _NAMES[i % 40], _NAMES[i * 7 % 40])
    bits = table.get(key)
    if bits is None:
        bits = table[key] = 1 << (i % 61)
    return bits


def _job() -> float:
    start = _clock()
    table: dict = {}
    bits = 0
    for i in range(6000):
        bits ^= _step(table, i)
        if bits & (bits - 1):
            bits &= -bits
    tuple(sorted((k[1].name, k[2].name, k[0]) for k in table))
    return _clock() - start


def reference_seconds() -> float:
    """Median wall time of three runs of the reference job, with GC paused.

    The job is shaped like lnplan's inner loops: function calls, tuple keys
    with Python-level hashes, dict lookups, int bitsets and a sort.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_job() for _ in range(3))
    finally:
        if enabled:
            gc.enable()


class Speed:
    def __init__(self):
        self.last = reference_seconds()
        self.references = [self.last]

    def factor(self) -> float:
        """Call right after a measured stretch: the scale for its durations."""
        before, self.last = self.last, reference_seconds()
        self.references.append(self.last)
        return REFERENCE_NOMINAL_S / ((before + self.last) / 2)
