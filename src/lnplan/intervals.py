"""Closed-interval arithmetic over the extended reals.

Endpoints are floats, with ``math.inf`` standing in for the infinite bounds;
they are never NaN. The empty interval is a first-class member of the domain,
so every operation is total. Arithmetic is the pointwise image restricted to
defined pairs, and one rule decides definedness: x op y is undefined when the
divisor is zero or IEEE arithmetic returns NaN. On non-NaN operands NaN comes
exactly from the indeterminate forms inf - inf, 0 * inf and inf / inf.
Undefined pairs contribute nothing to the result instead of poisoning it;
when no operand pair is defined, the image is empty. Overflow to +-inf stays
defined.

Growth at excluded points is kept: [1, 2] / [0, 1] is [1, +inf] because the
quotients are unbounded as the divisor approaches zero from above, even
though division at zero itself is skipped. That divergence is the only
limit at an undefined point that no defined point reaches.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional

INF = math.inf

ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


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
    """Smallest interval containing all values; NaN values are skipped, and
    EMPTY results when none are left."""
    vs = [v for v in map(float, values) if not math.isnan(v)]
    if not vs:
        return EMPTY
    return Interval(_clean(min(vs)), _clean(max(vs)))


def _function(op: str):
    try:
        return ARITH[op]
    except KeyError:
        raise ValueError(f"unknown arithmetic operator {op!r}") from None


def scalar_op(x: float, op: str, y: float) -> Optional[float]:
    """x op y on extended reals; None for a zero divisor or a NaN result."""
    fn = _function(op)
    if fn is operator.truediv and y == 0.0:
        return None
    value = fn(x, y)
    return None if math.isnan(value) else value


def arith(a: Interval, op: str, b: Interval) -> Interval:
    """Hull of {x op y : x in a, y in b, x op y defined}.

    Exact for closed extended-real intervals. For * and / the operands are
    split at zero, so the operation is monotone on each piece and its
    extremes lie at the defined corners, plus +-inf where a non-degenerate
    divisor piece ends at zero and the dividend there is nonzero. Every other
    limit along an edge into an undefined corner equals the value at the
    edge's other, defined corner: an infinite sum or difference stays
    infinite, a product of one-signed pieces tends to +-inf or 0, and inf/inf
    or 0/0 tends to 0 or +-inf.
    """
    fn = _function(op)
    if a.is_empty or b.is_empty:
        return EMPTY
    split = op in ("*", "/")
    out: list[float] = []
    for pa in _split_at_zero(a) if split else (a,):
        for pb in _split_at_zero(b) if split else (b,):
            for x in (pa.lo, pa.hi):
                for y in (pb.lo, pb.hi):
                    v = scalar_op(x, op, y)
                    if v is not None:
                        out.append(v)
                    elif fn is operator.truediv and y == 0.0 and x != 0.0 and pb.lo < pb.hi:
                        # the quotient diverges as the divisor leaves zero into the piece
                        side = 1.0 if pb.hi > 0.0 else -1.0
                        out.append(math.copysign(INF, x) * side)
    if not out:
        return EMPTY
    return Interval(_clean(min(out)), _clean(max(out)))


# comparison -> (the endpoint test, whether it reads a's upper and b's lower
# endpoint rather than a's lower and b's upper one); "=" tests both pairs
_EXISTS = {"<": (operator.lt, False), "<=": (operator.le, False),
           ">": (operator.gt, True), ">=": (operator.ge, True), "=": (None, None)}


def compare(a: Interval, cmp: str, b: Interval) -> bool:
    """Existential comparison: true iff some x in a, y in b satisfy x cmp y."""
    try:
        test, upper = _EXISTS[cmp]
    except KeyError:
        raise ValueError(f"unknown comparison operator {cmp!r}") from None
    if a.lo > a.hi or b.lo > b.hi:
        return False
    if test is None:
        return a.lo <= b.hi and b.lo <= a.hi
    return test(a.hi, b.lo) if upper else test(a.lo, b.hi)


def _split_at_zero(j: Interval) -> tuple[Interval, ...]:
    if j.lo < 0.0 < j.hi:
        return (Interval(j.lo, 0.0), Interval(0.0, j.hi))
    return (j,)
