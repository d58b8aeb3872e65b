"""Range tables for fluent values under partial argument bindings.

For a function symbol F and a state, the table maps each partial binding of
up to DEGREE argument positions, and the binding of all of F's positions,
to the hull of the values of all ground terms of F that agree with the
binding. Fixing more positions never widens the interval, and at full arity
the entry collapses to the exact value (or to EMPTY when no such ground term
exists), whatever the arity.

Only bindings witnessed by some ground term are stored; a missing key reads
as EMPTY, which is equivalent to initializing every binding to the empty
interval up front. A NaN value is left out: it satisfies no comparison, so
no binding that reads it can satisfy a constraint, and a fully bound term
whose value is NaN reads EMPTY, as exact evaluation agrees.

A table costs one pass over the function's n ground terms of arity k and
one zip of their argument columns per position subset of `_subsets`, which
is listed once per arity: O(n * k^DEGREE), with no subset enumerated per
term. Above arity DEGREE, the subset of all positions adds one key per
term. `AssignmentCache` picks the terms out of a state inside that call.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, repeat
from typing import Iterable, Mapping

from .intervals import EMPTY, Interval
from .model import FunctionSymbol, FunctionTerm, Object

PosBinding = Mapping[int, Object]  # argument position -> object

# Fixed positions per partial table entry. Edge rules bind two variables, so
# two suffice; a term bound at every position is keyed in full at any arity.
DEGREE = 2


class AssignmentSet:
    """Per-symbol map from partial position bindings to value intervals."""

    __slots__ = ("table", "arity")

    def __init__(self, table: dict, arity: int):
        self.table = table
        self.arity = arity

    def lookup(self, binding: PosBinding) -> Interval:
        """Interval for the binding; EMPTY when no ground term matches. A
        binding of every position reads the term's exact value.

        Querying more than DEGREE but fewer than all positions violates the
        table's construction contract and raises.
        """
        if DEGREE < len(binding) < self.arity:
            raise ValueError(f"lookup with {len(binding)} of {self.arity} fixed positions"
                             f" exceeds degree {DEGREE}")
        key = tuple(sorted(binding.items()))
        return self.table.get(key, EMPTY)


@cache
def _subsets(arity: int) -> tuple[tuple[int, ...], ...]:
    """The position subsets of one to DEGREE positions of an arity, in the
    order of `itertools.combinations`, then all positions when there are
    more than DEGREE: the keys a term contributes to, besides the empty one."""
    sizes = range(1, arity + 1) if arity <= DEGREE else (*range(1, DEGREE + 1), arity)
    return tuple(positions for size in sizes for positions in combinations(range(arity), size))


def build_assignment_set(function: FunctionSymbol,
                         fluent_items: Iterable[tuple[FunctionTerm, float]]) -> AssignmentSet:
    """Fold the values of `function`'s ground terms in one state, given as
    (term, value) pairs with each term once, per binding.

    One pass over the n ground terms collects their arguments and values;
    then, per position subset of `_subsets`, the terms' keys are zipped
    from the argument columns at those positions and their values folded,
    so construction is O(n * k^DEGREE) with k = ar(function). The subset of
    all k positions, at every arity, gives each term its own key, which
    holds its value's point interval, one per distinct value. Among equal
    values, the first one seen bounds the interval.
    """
    args, values = [], []
    for term, value in fluent_items:
        if value == value:  # NaN satisfies no comparison, and would pin the hull
            args.append(term.args)
            values.append(value)
    if not values:
        return AssignmentSet({}, function.arity)
    table = {(): Interval(min(values), max(values))}
    columns = list(zip(*args))
    bounds: dict[tuple, list[float]] = {}
    for positions in _subsets(function.arity):
        keys = zip(*[zip(repeat(i), columns[i]) for i in positions])
        if len(positions) == function.arity:
            points = dict.fromkeys(values)
            for value in points:
                points[value] = Interval(value, value)
            table.update(zip(keys, map(points.__getitem__, values)))
            continue
        for key, value in zip(keys, values):
            cur = bounds.get(key)
            if cur is None:
                bounds[key] = [value, value]
            else:
                if value < cur[0]:
                    cur[0] = value
                if value > cur[1]:
                    cur[1] = value
    for key, (lo, hi) in bounds.items():
        table[key] = Interval(lo, hi)
    return AssignmentSet(table, function.arity)


class AssignmentCache:
    """Lazy cache of assignment sets over one map of fluents, one per
    function symbol.

    Builds each table on first use, from the fluents of its symbol, which
    the build call itself picks out of the map as it reads them. A state's
    cache is built over the state's own fluents, those of the functions some
    effect writes.

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

    def get(self, function: FunctionSymbol) -> AssignmentSet:
        name = function.name
        cached = self._sets.get(name)
        if cached is not None:
            return cached
        shared = self.static.get(name)
        if shared is not None:
            built = shared.get(function)
        else:
            built = build_assignment_set(function, (item for item in self.fluents.items()
                                                    if item[0].function.name == name))
        return self._sets.setdefault(name, built)
