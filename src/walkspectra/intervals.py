"""Outward-rounded floating-point intervals.

Directed rounding is emulated by widening every arithmetic result one unit
in the last place on each side, which dominates the half-ulp error of
round-to-nearest.  Enclosures therefore stay conservative through chains of
operations, at the cost of a little slack per step.

No library computation runs on Ival.  It is the return type of
``series.inner_series``, whose truncated sum is an exact rational rounded
once per end, and the bit reference of the solver's certified probe
(``series._resolvent_probe`` and the ``series._resolvent_denominator`` of
each part).  The probe applies the rule above inline, on float endpoint
pairs; ``tests/test_series.py::TestProbeKernel`` and
``TestDenominatorKernel`` pin its bits to Ival's.
"""

from __future__ import annotations

import math

__all__ = ["Ival", "powers"]

_INF = math.inf


def _up(x):
    return math.nextafter(x, _INF)


def _down(x):
    return math.nextafter(x, -_INF)


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
        o = Ival._coerce(other)
        return Ival(_down(self.lo + o.lo), _up(self.hi + o.hi))

    __radd__ = __add__

    def __sub__(self, other):
        o = Ival._coerce(other)
        return Ival(_down(self.lo - o.hi), _up(self.hi - o.lo))

    def __rsub__(self, other):
        return Ival._coerce(other).__sub__(self)

    def __mul__(self, other):
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
        return Ival(_down(min(products)), _up(max(products)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = Ival._coerce(other)
        if o.lo <= 0.0:
            raise ZeroDivisionError("interval division requires a positive divisor")
        if self.lo >= 0.0:
            lo = self.lo / o.hi if o.hi != _INF else 0.0
            return Ival(_down(lo), _up(self.hi / o.lo))
        quotients = (
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        )
        return Ival(_down(min(quotients)), _up(max(quotients)))

    def __rtruediv__(self, other):
        return Ival._coerce(other).__truediv__(self)

    def __repr__(self):
        return f"Ival({self.lo!r}, {self.hi!r})"


def powers(base, k):
    """Enclosures of base**0 .. base**k by iterated interval products."""
    base = Ival._coerce(base)
    out = [Ival(1.0)]
    for _ in range(k):
        out.append(out[-1] * base)
    return out
