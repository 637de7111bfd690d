"""Outward-rounded floating-point intervals.

Directed rounding is emulated by widening every arithmetic result one unit
in the last place on each side, which dominates the half-ulp error of
round-to-nearest.  Enclosures therefore stay conservative through chains of
operations, at the cost of a little slack per step.

The whole certified series probe (``series._resolvent_probe`` and the
``series._resolvent_denominator`` of each part) applies the same rule
inline, on float endpoint pairs: the head 1 + (n_s - n_H)/x, the
residuals, the sum, Varah's error term, each part's reciprocal and the
sum over the parts.  ``tests/test_series.py::TestProbeKernel`` and
``TestDenominatorKernel`` pin its bits to Ival's.
"""

from __future__ import annotations

import math

__all__ = ["Ival", "powers"]

_INF = math.inf
_NEG_INF = -math.inf
# nextafter returns +-inf and nan unchanged when stepping towards them.  The
# arithmetic below calls it inline, not through _up/_down: one Python call
# per endpoint is a large share of the cost of an interval operation.
_next = math.nextafter


def _up(x):
    return _next(x, _INF)


def _down(x):
    return _next(x, _NEG_INF)


class Ival:
    """Closed interval [lo, hi] of floats."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        if math.isnan(lo) or math.isnan(hi) or lo > hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)

    @staticmethod
    def from_int(w):
        """Enclosure of an exact integer; exact below 2**53, widened above."""
        if -(1 << 53) <= w <= (1 << 53):
            f = float(w)
            return Ival(f, f)
        try:
            f = float(w)
        except OverflowError:
            big = math.nextafter(_INF, 0.0)
            return Ival(big, _INF) if w > 0 else Ival(-_INF, -big)
        return Ival(_down(f), _up(f))

    @staticmethod
    def _coerce(x):
        if isinstance(x, Ival):
            return x
        if type(x) is float:
            return _ival(x, x)
        if isinstance(x, int):
            return Ival.from_int(x)
        return Ival(float(x))

    @property
    def width(self):
        return _up(self.hi - self.lo)

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, v):
        return self.lo <= v <= self.hi

    def __add__(self, other):
        if type(other) is float:  # a nan operand makes a nan endpoint: rejected
            return _ival(_next(self.lo + other, _NEG_INF), _next(self.hi + other, _INF))
        o = Ival._coerce(other)
        return _ival(_next(self.lo + o.lo, _NEG_INF), _next(self.hi + o.hi, _INF))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is float:
            return _ival(_next(self.lo - other, _NEG_INF), _next(self.hi - other, _INF))
        o = Ival._coerce(other)
        return _ival(_next(self.lo - o.hi, _NEG_INF), _next(self.hi - o.lo, _INF))

    def __rsub__(self, other):
        return Ival._coerce(other).__sub__(self)

    def __mul__(self, other):
        if type(other) is float:
            # The interval path's bits from two products; a nan product
            # (0 * inf, or a nan operand) fails both tests and goes there.
            a = self.lo * other
            b = self.hi * other
            if a <= b:
                return _ival(_next(a, _NEG_INF), _next(b, _INF))
            if b < a:
                return _ival(_next(b, _NEG_INF), _next(a, _INF))
        o = Ival._coerce(other)
        products = (
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        )
        if math.isnan(sum(products)):
            # An infinite endpoint bounds finite members only, and each of
            # them times 0 is 0: so 0 * inf counts as 0 here, not nan.
            products = tuple(0.0 if p != p else p for p in products)
        return _ival(_next(min(products), _NEG_INF), _next(max(products), _INF))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is float and other > 0.0:
            # A positive divisor keeps the order; inf / inf goes below.
            lo = self.lo / other
            hi = self.hi / other
            if lo <= hi:
                return _ival(_next(lo, _NEG_INF), _next(hi, _INF))
        o = Ival._coerce(other)
        if o.lo <= 0.0:
            raise ZeroDivisionError("interval division requires a positive divisor")
        if self.lo >= 0.0:
            lo = self.lo / o.hi if o.hi != _INF else 0.0
            return _ival(_next(lo, _NEG_INF), _next(self.hi / o.lo, _INF))
        quotients = (
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        )
        return _ival(_next(min(quotients), _NEG_INF), _next(max(quotients), _INF))

    def __rtruediv__(self, other):
        return Ival._coerce(other).__truediv__(self)

    def __repr__(self):
        return f"Ival({self.lo!r}, {self.hi!r})"


_new = object.__new__


def _ival(lo, hi):
    """Interval from float endpoints, as every arithmetic result is built:
    the one test lo <= hi also rejects a nan endpoint."""
    if not lo <= hi:
        raise ValueError(f"invalid interval [{lo}, {hi}]")
    iv = _new(Ival)
    iv.lo = lo
    iv.hi = hi
    return iv


def powers(base, k):
    """Enclosures of base**0 .. base**k by iterated interval products."""
    base = Ival._coerce(base)
    out = [Ival(1.0)]
    for _ in range(k):
        out.append(out[-1] * base)
    return out
