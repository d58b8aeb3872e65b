"""Closed-interval arithmetic over the extended reals.

Endpoints are floats, with ``math.inf`` standing in for the infinite bounds.
The empty interval is a first-class member of the domain, so every operation
is total. Arithmetic is the pointwise image restricted to defined pairs:
division by a zero divisor and the indeterminate forms (inf - inf, 0 * inf,
inf / inf) contribute nothing to the result instead of poisoning it. When no
operand pair is defined, the image is empty.

Growth at excluded points is kept: [1, 2] / [0, 1] is [1, +inf] because the
quotients are unbounded as the divisor approaches zero from above, even
though division at zero itself is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

INF = math.inf

ARITH_OPS = ("+", "-", "*", "/")


@dataclass(frozen=True)
class Interval:
    """A closed interval [lo, hi]; empty when lo > hi (canonically [inf, -inf])."""

    lo: float
    hi: float

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def __contains__(self, value: float) -> bool:
        return self.lo <= value <= self.hi

    def __repr__(self) -> str:
        return "EMPTY" if self.is_empty else f"[{self.lo}, {self.hi}]"


EMPTY = Interval(INF, -INF)


def _clean(v: float) -> float:
    # normalize -0.0 so reprs and sort keys stay tidy; == semantics unchanged
    return 0.0 if v == 0.0 else v


def interval(lo: float, hi: float) -> Interval:
    """Validated constructor for a non-empty interval."""
    lo, hi = float(lo), float(hi)
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"invalid interval bounds [{lo}, {hi}]")
    return Interval(_clean(lo), _clean(hi))


def point(value: float) -> Interval:
    return interval(value, value)


def hull(values: Iterable[float]) -> Interval:
    """Smallest interval containing all values; EMPTY for no values."""
    vs = [float(v) for v in values]
    if not vs:
        return EMPTY
    return Interval(_clean(min(vs)), _clean(max(vs)))


# --- scalar operations on extended reals; None marks an undefined pair ---


def scalar_op(x: float, op: str, y: float) -> Optional[float]:
    if op == "+":
        if (x == INF and y == -INF) or (x == -INF and y == INF):
            return None
        return x + y
    if op == "-":
        if (x == INF and y == INF) or (x == -INF and y == -INF):
            return None
        return x - y
    if op == "*":
        if (x == 0.0 and math.isinf(y)) or (math.isinf(x) and y == 0.0):
            return None
        return x * y
    if op == "/":
        if y == 0.0:
            return None
        if math.isinf(x) and math.isinf(y):
            return None
        return x / y
    raise ValueError(f"unknown arithmetic operator {op!r}")


def arith(a: Interval, op: str, b: Interval) -> Interval:
    """Hull of {x op y : x in a, y in b, x op y defined}.

    Exact for closed extended-real intervals: operands are split at zero for
    the sign-sensitive operators so the scalar operation is monotone on each
    sub-box, and undefined corners contribute their one-sided edge limits.
    """
    if op not in ARITH_OPS:
        raise ValueError(f"unknown arithmetic operator {op!r}")
    if a.is_empty or b.is_empty:
        return EMPTY
    split = op in ("*", "/")
    out: list[float] = []
    for pa in _split_at_zero(a) if split else (a,):
        for pb in _split_at_zero(b) if split else (b,):
            _box_extremes(pa, op, pb, out)
    if not out:
        return EMPTY
    return Interval(_clean(min(out)), _clean(max(out)))


def compare(a: Interval, cmp: str, b: Interval) -> bool:
    """Existential comparison: true iff some x in a, y in b satisfy x cmp y."""
    if a.is_empty or b.is_empty:
        return False
    if cmp == "=":
        return a.lo <= b.hi and b.lo <= a.hi
    if cmp == "<":
        return a.lo < b.hi
    if cmp == "<=":
        return a.lo <= b.hi
    if cmp == ">":
        return a.hi > b.lo
    if cmp == ">=":
        return a.hi >= b.lo
    raise ValueError(f"unknown comparison operator {cmp!r}")


def _split_at_zero(j: Interval) -> tuple[Interval, ...]:
    if j.lo < 0.0 < j.hi:
        return (Interval(j.lo, 0.0), Interval(0.0, j.hi))
    return (j,)


def _box_extremes(a: Interval, op: str, b: Interval, out: list[float]) -> None:
    corners = {(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)}
    for x, y in corners:
        v = scalar_op(x, op, y)
        if v is not None:
            out.append(v)
        else:
            out.extend(_corner_limits(a, op, b, x, y))


def _corner_limits(a: Interval, op: str, b: Interval, x: float, y: float) -> list[float]:
    """One-sided limits of the operation along the box edges at an undefined corner.

    An edge contributes only when the corresponding operand interval is
    non-degenerate, i.e. there are defined points approaching the corner.
    After splitting at zero, every piece keeps a single sign, so the sign of
    the approach is read off the piece's other endpoint.
    """
    limits: list[float] = []
    if op == "+":
        # undefined corner: {x, y} = {+inf, -inf}
        if a.lo < a.hi:  # finite x' plus infinite y
            limits.append(y)
        if b.lo < b.hi:
            limits.append(x)
    elif op == "-":
        # undefined corner: x = y = +inf or x = y = -inf
        if a.lo < a.hi:
            limits.append(-y)
        if b.lo < b.hi:
            limits.append(x)
    elif op == "*":
        # undefined corner: one coordinate 0, the other infinite
        if x == 0.0:
            if a.lo < a.hi:  # x' -> 0 keeping the sign of the piece
                limits.append(y if a.hi > 0.0 else -y)
            if b.lo < b.hi:  # y' finite: products along this edge are 0
                limits.append(0.0)
        else:
            if b.lo < b.hi:
                limits.append(x if b.hi > 0.0 else -x)
            if a.lo < a.hi:
                limits.append(0.0)
    else:  # "/"
        if y == 0.0:
            # the y = 0 edge has no defined points; only y' -> 0 contributes
            if b.lo < b.hi:
                side = 1.0 if b.hi > 0.0 else -1.0
                if x == 0.0:
                    limits.append(0.0)
                else:
                    limits.append(INF * side * (1.0 if x > 0.0 else -1.0))
        else:
            # undefined corner: x and y both infinite
            if a.lo < a.hi:  # finite x' over an infinite divisor
                limits.append(0.0)
            if b.lo < b.hi:  # infinite x over finite y' of y's sign
                limits.append(x if y > 0.0 else -x)
    return limits
