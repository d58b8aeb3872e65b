import itertools
import math
import random

import pytest

from lnplan.assignments import DEGREE, AssignmentCache, build_assignment_set
from lnplan.intervals import EMPTY, Interval
from lnplan.model import FunctionSymbol, FunctionTerm, Object, State

A, B, C, Z = Object("a"), Object("b"), Object("c"), Object("z")


def brute_hull(function, state, objects, binding):
    """Hull over all total position assignments extending the binding."""
    values = []
    free = [i for i in range(function.arity) if i not in binding]
    for combo in itertools.product(objects, repeat=len(free)):
        args = [None] * function.arity
        for i, obj in binding.items():
            args[i] = obj
        for i, obj in zip(free, combo):
            args[i] = obj
        value = state.fluents.get(FunctionTerm(function, tuple(args)))
        if value is not None:
            values.append(value)
    if not values:
        return EMPTY
    return Interval(min(values), max(values))


def test_unary_example():
    f = FunctionSymbol("f", 1)
    state = State([], {FunctionTerm(f, (A,)): 1.0, FunctionTerm(f, (B,)): 5.0})
    table = build_assignment_set(f, state.fluents.items())
    assert table.lookup({}) == Interval(1.0, 5.0)
    assert table.lookup({0: A}) == Interval(1.0, 1.0)
    assert table.lookup({0: B}) == Interval(5.0, 5.0)
    assert table.lookup({0: Z}).is_empty


def test_no_ground_terms_means_empty():
    f = FunctionSymbol("f", 1)
    table = build_assignment_set(f, [])
    assert table.lookup({}).is_empty


def test_binary_example():
    g = FunctionSymbol("g", 2)
    state = State([], {FunctionTerm(g, (A, B)): 2.0, FunctionTerm(g, (A, C)): 7.0})
    table = build_assignment_set(g, state.fluents.items())
    assert table.lookup({0: A}) == Interval(2.0, 7.0)
    assert table.lookup({0: A, 1: B}) == Interval(2.0, 2.0)
    assert table.lookup({1: C}) == Interval(7.0, 7.0)
    assert table.lookup({1: Z}).is_empty


def test_lookup_beyond_degree_is_a_contract_violation():
    # a binding of every position reads the exact value or EMPTY at any
    # arity; one of more than DEGREE positions but fewer than all raises
    h = FunctionSymbol("h", 3)
    table = build_assignment_set(h, [(FunctionTerm(h, (A, B, C)), 4.0),
                                     (FunctionTerm(h, (A, B, Z)), 9.0)])
    assert table.lookup({0: A, 1: B, 2: C}) == Interval(4.0, 4.0)
    assert table.lookup({0: A, 1: B}) == Interval(4.0, 9.0)
    assert table.lookup({0: A, 1: B, 2: A}).is_empty
    assert build_assignment_set(h, []).lookup({0: A, 1: B, 2: C}).is_empty
    q = FunctionSymbol("q", 4)
    table = build_assignment_set(q, [(FunctionTerm(q, (A, B, C, Z)), 1.0)])
    assert table.lookup({0: A, 1: B, 2: C, 3: Z}) == Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        table.lookup({0: A, 1: B, 2: C})


def test_soundness_and_exactness_randomized():
    rng = random.Random(4242)
    objects = (A, B, C, Z)
    for _ in range(300):
        arity = rng.randint(0, 3)
        fn = FunctionSymbol("f", arity)
        fluents = {}
        for combo in itertools.product(objects, repeat=arity):
            if rng.random() < 0.6:
                fluents[FunctionTerm(fn, combo)] = float(rng.randint(-9, 9))
        state = State([], fluents)
        table = build_assignment_set(fn, state.fluents.items())
        size = rng.randint(0, min(DEGREE, arity))
        positions = rng.sample(range(arity), size) if arity else []
        binding = {i: rng.choice(objects) for i in positions}
        got = table.lookup(binding)
        want = brute_hull(fn, state, objects, binding)
        if want.is_empty:
            assert got.is_empty or not got.is_empty  # containment holds trivially
        else:
            assert not got.is_empty
            assert got.lo <= want.lo and want.hi <= got.hi
        if arity <= DEGREE:
            assert got == want


def test_monotone_under_refinement():
    rng = random.Random(99)
    objects = (A, B, C)
    g = FunctionSymbol("g", 2)
    fluents = {}
    for combo in itertools.product(objects, repeat=2):
        if rng.random() < 0.7:
            fluents[FunctionTerm(g, combo)] = float(rng.randint(-5, 5))
    table = build_assignment_set(g, fluents.items())
    for o1 in objects:
        outer = table.lookup({0: o1})
        for o2 in objects:
            inner = table.lookup({0: o1, 1: o2})
            if not inner.is_empty:
                assert outer.lo <= inner.lo and inner.hi <= outer.hi


def test_cache_single_winner_and_reuse():
    f = FunctionSymbol("f", 1)
    state = State([], {FunctionTerm(f, (A,)): 3.0})
    cache = AssignmentCache(state.fluents)
    first = cache.get(f)
    assert cache.get(f) is first
    assert first.lookup({0: A}) == Interval(3.0, 3.0)


def test_cache_serves_static_functions_from_the_shared_cache():
    # the state's own tables hold only its own fluents of each symbol, and a
    # symbol in `static` is read from the shared cache, whatever the state says
    f, g, h = FunctionSymbol("f", 1), FunctionSymbol("g", 1), FunctionSymbol("h", 0)
    init = State([], {FunctionTerm(g, (A,)): 1.0, FunctionTerm(h, ()): 2.0})
    shared = AssignmentCache(init.fluents)
    state = State([], {FunctionTerm(f, (A,)): 3.0, FunctionTerm(f, (B,)): 4.0,
                       FunctionTerm(g, (A,)): 1.0, FunctionTerm(h, ()): 5.0})
    cache = AssignmentCache(state.fluents, {"h": shared})
    assert cache.get(f).lookup({}) == Interval(3.0, 4.0)
    assert cache.get(g).lookup({0: A}) == Interval(1.0, 1.0)
    assert cache.get(h) is shared.get(h)
    assert cache.get(h).lookup({}) == Interval(2.0, 2.0)
    assert shared.get(g).lookup({}) == Interval(1.0, 1.0)


def brute_table(function, items) -> dict:
    """Every key of at most DEGREE (position, object) pairs or of all the
    function's positions, over the objects the terms hold, that some term
    agrees with, mapped to the hull of those terms' values; NaN values are
    left out."""
    items = [(term, value) for term, value in items if value == value]
    objects = {obj for term, _ in items for obj in term.args}
    table = {}
    for size in {*range(min(DEGREE, function.arity) + 1), function.arity}:
        for positions in itertools.combinations(range(function.arity), size):
            for objs in itertools.product(objects, repeat=size):
                values = [value for term, value in items
                          if all(term.args[i] == obj for i, obj in zip(positions, objs))]
                if values:
                    table[tuple(zip(positions, objs))] = Interval(min(values), max(values))
    return table


def test_tables_are_exact_as_a_whole():
    # every key and every interval, against the brute-force table, for
    # arities 0 to 4, terms that repeat an object, no terms at all, and
    # values among NaN, +-inf and -0.0
    rng = random.Random(2718)
    objects = (A, B, C, Z)
    pool = [float("nan"), math.inf, -math.inf, -0.0, 0.0, 1.5, -2.0, 3.0, 7.0]
    shapes = set()
    for trial in range(400):
        arity = trial % 5
        fn = FunctionSymbol("f", arity)
        density = rng.choice([0.0, 0.1, 0.5, 1.0])
        items = [(FunctionTerm(fn, combo), rng.choice(pool))
                 for combo in itertools.product(objects, repeat=arity) if rng.random() < density]
        rng.shuffle(items)
        got = build_assignment_set(fn, items).table
        assert got == brute_table(fn, items), (arity, items)
        shapes.add((arity, bool(got)))
        assert all(iv.lo == iv.lo and iv.hi == iv.hi for iv in got.values())
    assert shapes == {(arity, filled) for arity in range(5) for filled in (False, True)}


def test_the_cache_reads_its_fluents_inside_the_build_call(monkeypatch):
    # the walk that picks a symbol's fluents out of the state's runs inside
    # the build call, so a span around that call times it
    from lnplan import assignments

    f, g = FunctionSymbol("f", 1), FunctionSymbol("g", 2)
    building, reads = [False], []

    class Fluents(dict):
        def items(self):
            for item in super().items():
                reads.append(building[0])
                yield item

    build = assignments.build_assignment_set

    def spy(function, items):
        building[0] = True
        try:
            return build(function, items)
        finally:
            building[0] = False

    monkeypatch.setattr(assignments, "build_assignment_set", spy)
    fluents = Fluents({FunctionTerm(f, (A,)): 1.0, FunctionTerm(g, (A, B)): 2.0,
                       FunctionTerm(f, (B,)): 3.0})
    cache = AssignmentCache(fluents)
    assert cache.get(f).table == {(): Interval(1.0, 3.0), ((0, A),): Interval(1.0, 1.0),
                                  ((0, B),): Interval(3.0, 3.0)}
    assert cache.get(g).lookup({1: B}) == Interval(2.0, 2.0)
    assert reads and all(reads)
