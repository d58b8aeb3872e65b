"""Range tables for fluent values under partial argument bindings.

For a function symbol F and a state, the table maps each partial binding of
up to DEGREE argument positions to the hull of the values of all ground
terms of F that agree with the binding. Fixing more positions never widens
the interval, and at full arity the entry collapses to the exact value (or to
EMPTY when no such ground term exists).

Only bindings witnessed by some ground term are stored; a missing key reads
as EMPTY, which is equivalent to initializing every binding to the empty
interval up front. A NaN value is left out: it satisfies no comparison, so
no binding that reads it can satisfy a constraint, and a fully bound term
whose value is NaN reads EMPTY, as exact evaluation agrees.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping

from .intervals import EMPTY, Interval
from .model import FunctionSymbol, FunctionTerm, Object

PosBinding = Mapping[int, Object]  # argument position -> object

# Fixed positions per table entry. Edge rules bind two variables, and the
# exactness conditions bound functions at arity two, so two suffice.
DEGREE = 2


class AssignmentSet:
    """Per-symbol map from partial position bindings to value intervals."""

    __slots__ = ("table",)

    def __init__(self, table: dict):
        self.table = table

    def lookup(self, binding: PosBinding) -> Interval:
        """Interval for the binding; EMPTY when no ground term matches.

        Querying more than DEGREE fixed positions violates the table's
        construction contract and raises.
        """
        if len(binding) > DEGREE:
            raise ValueError(
                f"lookup with {len(binding)} fixed positions exceeds degree {DEGREE}"
            )
        key = tuple(sorted(binding.items()))
        return self.table.get(key, EMPTY)


def build_assignment_set(function: FunctionSymbol,
                         fluent_items: Iterable[tuple[FunctionTerm, float]]) -> AssignmentSet:
    """Fold the values of `function`'s ground terms in one state, given as
    (term, value) pairs, per binding.

    One pass over the n ground terms; each contributes to every subset of at
    most DEGREE of its positions, so construction is O(n * k^DEGREE) with
    k = ar(function).
    """
    bounds: dict[tuple, list[float]] = {}
    top = min(DEGREE, function.arity)
    for term, value in fluent_items:
        if value != value:
            continue  # NaN satisfies no comparison, and would pin the hull
        args = term.args
        for size in range(top + 1):
            for positions in itertools.combinations(range(function.arity), size):
                key = tuple((i, args[i]) for i in positions)
                cur = bounds.get(key)
                if cur is None:
                    bounds[key] = [value, value]
                else:
                    if value < cur[0]:
                        cur[0] = value
                    if value > cur[1]:
                        cur[1] = value
    table = {key: Interval(lo, hi) for key, (lo, hi) in bounds.items()}
    return AssignmentSet(table)


class AssignmentCache:
    """Lazy cache of assignment sets over one map of fluents, one per
    function symbol.

    Buckets the fluents by symbol once, then builds each table on first use.
    A state's cache is built over the state's own fluents, those of the
    functions some effect writes.

    `static` maps the names of functions no effect writes to a cache over the
    task's static fluents. Their tables are the same in every state of the
    task, so they are read from that shared cache instead of being rebuilt
    per state.
    """

    def __init__(self, fluents: Mapping[FunctionTerm, float],
                 static: Mapping[str, "AssignmentCache"] | None = None):
        self.fluents = fluents
        self.static = static or {}
        self._sets: dict[str, AssignmentSet] = {}
        self._buckets: dict[str, list] | None = None

    def _bucket(self, name: str) -> list:
        if self._buckets is None:
            buckets: dict[str, list] = {}
            for term, value in self.fluents.items():
                buckets.setdefault(term.function.name, []).append((term, value))
            self._buckets = buckets
        return self._buckets.get(name, [])

    def get(self, function: FunctionSymbol) -> AssignmentSet:
        cached = self._sets.get(function.name)
        if cached is not None:
            return cached
        shared = self.static.get(function.name)
        if shared is not None:
            built = shared.get(function)
        else:
            built = build_assignment_set(function, self._bucket(function.name))
        return self._sets.setdefault(function.name, built)
