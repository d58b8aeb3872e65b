import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lnplan.intervals import (
    EMPTY,
    INF,
    Interval,
    arith,
    compare,
    hull,
    interval,
    point,
    scalar_op,
)

ENDPOINTS = [-INF, -5.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 5.0, INF]


def endpoints_strategy():
    return st.sampled_from(ENDPOINTS)


def intervals_strategy():
    return st.builds(
        lambda a, b: Interval(min(a, b), max(a, b)), endpoints_strategy(), endpoints_strategy()
    )


def test_hull_basics():
    assert hull([]) is EMPTY or hull([]).is_empty
    assert hull([3]) == interval(3, 3)
    assert hull([1, 5, -2]) == interval(-2, 5)


@pytest.mark.parametrize("values, want", [
    ([math.nan, 1.0], point(1.0)),
    ([1.0, math.nan], point(1.0)),
    ([math.nan, -2.0, math.nan, 3.0], interval(-2.0, 3.0)),
    ([math.nan, math.nan], EMPTY),
], ids=["nan-first", "nan-last", "interleaved", "all-nan"])
def test_hull_skips_nan_in_any_order(values, want):
    assert hull(values) == want


@pytest.mark.parametrize("x, op, y, want", [
    (INF, "-", INF, None),
    (-INF, "+", INF, None),
    (0.0, "*", INF, None),
    (INF, "/", -INF, None),
    (1.0, "/", 0.0, None),
    (1.0, "/", -0.0, None),
    (1e308, "*", 10.0, INF),
    (-INF, "*", -2.0, INF),
    (0.0, "/", INF, 0.0),
])
def test_scalar_op_definedness(x, op, y, want):
    got = scalar_op(x, op, y)
    assert got is None if want is None else got == want


def test_hull_idempotent_on_endpoints():
    j = interval(-2.5, 7.0)
    assert hull([j.lo, j.hi]) == j


def test_addition_monotone_endpoints():
    assert arith(interval(1, 3), "+", interval(2, 4)) == interval(3, 7)


def test_division_by_interval_containing_zero_is_unbounded():
    # brute-force oracle: quotients x/y for y in (0, 1] grow without bound
    rng = random.Random(7)
    samples = [
        x / y
        for x in [1.0 + rng.random() for _ in range(50)]
        for y in [rng.random() * 0.999 + 0.001 for _ in range(50)]
    ]
    result = arith(interval(1, 2), "/", interval(0, 1))
    assert result == Interval(1.0, INF)
    assert all(s in result for s in samples)


def test_division_no_defined_pairs_is_empty():
    assert arith(interval(0, 0), "/", interval(0, 0)).is_empty
    assert arith(EMPTY, "+", interval(0, 1)).is_empty
    assert arith(interval(0, 1), "*", EMPTY).is_empty


def test_indeterminate_forms_are_skipped_not_poisoning():
    # inf - inf excluded: only the finite-against-infinite pairs remain
    assert arith(Interval(INF, INF), "-", Interval(INF, INF)).is_empty
    assert arith(Interval(0.0, INF), "-", Interval(INF, INF)) == Interval(-INF, -INF)
    # 0 * inf excluded
    assert arith(point(0.0), "*", Interval(INF, INF)).is_empty
    assert arith(point(0.0), "*", Interval(1.0, INF)) == point(0.0)
    # inf / inf excluded
    assert arith(Interval(INF, INF), "/", Interval(INF, INF)).is_empty
    assert arith(Interval(1.0, INF), "/", Interval(INF, INF)) == point(0.0)
    assert arith(Interval(INF, INF), "/", Interval(1.0, INF)) == Interval(INF, INF)


def test_compare_examples():
    assert compare(interval(1, 2), "<", interval(0, 5)) is True
    assert compare(interval(3, 4), "=", interval(5, 6)) is False
    assert compare(point(0), ">=", EMPTY) is False
    assert compare(EMPTY, "=", EMPTY) is False
    assert compare(point(2), "<=", point(2)) is True
    assert compare(Interval(-INF, -INF), "<", Interval(-INF, 5.0)) is True
    assert compare(Interval(INF, INF), "<", Interval(INF, INF)) is False


def test_compare_agrees_with_its_definition_on_every_endpoint_pair():
    # the extremes of x cmp y lie at endpoints, so some pair of endpoints
    # that lie in a and b satisfies it exactly when some pair of points does;
    # the empty intervals include ones that are not [inf, -inf]
    tests = {"=": lambda x, y: x == y, "<": lambda x, y: x < y, "<=": lambda x, y: x <= y,
             ">": lambda x, y: x > y, ">=": lambda x, y: x >= y}
    pairs = [Interval(lo, hi) for lo in ENDPOINTS for hi in ENDPOINTS]
    for a in pairs:
        for b in pairs:
            ends = (a.lo, a.hi, b.lo, b.hi)
            xs, ys = [x for x in ends if x in a], [y for y in ends if y in b]
            for cmp, test in tests.items():
                want = any(test(x, y) for x in xs for y in ys)
                assert compare(a, cmp, b) is want, (a, cmp, b)


@pytest.mark.parametrize("a", [point(1), EMPTY])
def test_compare_rejects_an_unknown_operator(a):
    with pytest.raises(ValueError, match="unknown comparison operator"):
        compare(a, "!=", point(1))


def _sample_points(j: Interval, rng: random.Random) -> list[float]:
    pts = []
    lo = j.lo if not math.isinf(j.lo) else (j.hi - 10.0 if not math.isinf(j.hi) else -10.0)
    hi = j.hi if not math.isinf(j.hi) else (j.lo + 10.0 if not math.isinf(j.lo) else 10.0)
    if not math.isinf(j.lo):
        pts.append(j.lo)
    if not math.isinf(j.hi):
        pts.append(j.hi)
    if math.isinf(j.lo):
        pts.append(-INF)
    if math.isinf(j.hi):
        pts.append(INF)
    for _ in range(2):
        pts.append(lo + (hi - lo) * rng.random())
    return [p for p in pts if p in j]


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_pointwise_results_contained_randomized(op):
    rng = random.Random(hash(op) & 0xFFFF)
    for _ in range(3000):
        a, b = sorted(rng.choices(ENDPOINTS, k=2))
        c, d = sorted(rng.choices(ENDPOINTS, k=2))
        ja, jb = Interval(a, b), Interval(c, d)
        result = arith(ja, op, jb)
        for x in _sample_points(ja, rng):
            for y in _sample_points(jb, rng):
                value = scalar_op(x, op, y)
                if value is None or math.isnan(value):
                    continue
                assert not result.is_empty, (ja, op, jb, x, y, value)
                assert value in result, (ja, op, jb, x, y, value, result)


def test_exact_on_finite_boxes_via_corner_oracle():
    # for finite operands the pointwise extremes sit at the corners, so the
    # classic corner formulas are an independent exactness oracle
    rng = random.Random(12321)
    for _ in range(400):
        a, b = sorted(rng.randint(-6, 6) for _ in range(2))
        c, d = sorted(rng.randint(-6, 6) for _ in range(2))
        ja, jb = interval(a, b), interval(c, d)
        assert arith(ja, "+", jb) == interval(a + c, b + d)
        assert arith(ja, "-", jb) == interval(a - d, b - c)
        products = [a * c, a * d, b * c, b * d]
        assert arith(ja, "*", jb) == interval(min(products), max(products))
        if not (c <= 0 <= d):
            quotients = [a / c, a / d, b / c, b / d]
            assert arith(ja, "/", jb) == interval(min(quotients), max(quotients))


def test_division_by_zero_straddling_intervals_frozen_cases():
    # endpoints derived by one-sided limit analysis at the excluded divisor 0
    cases = [
        ((1, 2), (0, 1), Interval(1.0, INF)),
        ((-2, -1), (0, 1), Interval(-INF, -1.0)),
        ((1, 2), (-1, 0), Interval(-INF, -1.0)),
        ((1, 2), (-1, 1), Interval(-INF, INF)),
        ((0, 0), (-1, 1), Interval(0.0, 0.0)),
        ((-1, 1), (0, 1), Interval(-INF, INF)),
        ((0, 2), (0, 1), Interval(0.0, INF)),
    ]
    for (a, b), (c, d), want in cases:
        assert arith(interval(a, b), "/", interval(c, d)) == want, ((a, b), (c, d))


@given(intervals_strategy(), intervals_strategy(), intervals_strategy(), intervals_strategy(),
       st.sampled_from(["=", "<", ">", "<=", ">="]))
@settings(max_examples=300)
def test_compare_monotone_under_widening(a, b, wa, wb, cmp):
    ka = Interval(min(a.lo, wa.lo), max(a.hi, wa.hi))
    kb = Interval(min(b.lo, wb.lo), max(b.hi, wb.hi))
    if compare(a, cmp, b):
        assert compare(ka, cmp, kb)


@given(st.lists(st.sampled_from(ENDPOINTS), min_size=1, max_size=6))
@settings(max_examples=200)
def test_hull_contains_all_inputs(values):
    h = hull(values)
    assert all(v in h for v in values)
    assert h == hull([h.lo, h.hi])


@given(intervals_strategy(), intervals_strategy(),
       st.sampled_from(["+", "-", "*", "/"]))
@settings(max_examples=500)
def test_empty_result_only_when_no_defined_pair(a, b, op):
    result = arith(a, op, b)
    if result.is_empty:
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                assert scalar_op(x, op, y) is None


def _oracle_samples(j: Interval) -> list[float]:
    return [v for v in (j.lo, j.hi, 0.0, 1e-300, -1e-300, 1e300, -1e300) if v in j]


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_exact_on_infinite_and_zero_straddling_boxes(op):
    # independent of arith's corner analysis: sample each operand at its
    # endpoints and at the points near 0 and near +-inf it contains; the
    # result must hold every defined sample, its finite endpoints must be
    # samples, and its infinite endpoints must be approached by huge samples
    boxes = [Interval(lo, hi) for lo in ENDPOINTS for hi in ENDPOINTS if lo <= hi]
    for ja in boxes:
        for jb in boxes:
            result = arith(ja, op, jb)
            values = [v for x in _oracle_samples(ja) for y in _oracle_samples(jb)
                      if (v := scalar_op(x, op, y)) is not None]
            case = (ja, op, jb, result)
            if result.is_empty:
                assert not values, case
                continue
            assert all(v in result for v in values), case
            for end in (result.lo, result.hi):
                if math.isinf(end):
                    assert any(v >= 1e299 if end > 0 else v <= -1e299 for v in values), case
                else:
                    assert end in values, case
