import math
import operator
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from walkspectra.intervals import Ival, powers

finite = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
positive = st.floats(min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False)
# integers from 1 to well past the float range (2**1024), either sign
huge_ints = st.builds(
    lambda sign, e, d: sign * ((1 << e) + d),
    st.sampled_from((-1, 1)), st.integers(0, 1100), st.integers(0, 3),
)


@st.composite
def with_members(draw):
    """An interval with extreme endpoints (infinities, subnormals, the
    largest floats, or an integer beyond 2**1024) and some of its finite
    members as exact fractions."""
    if draw(st.booleans()):
        w = draw(huge_ints)
        return Ival.from_int(w), [Fraction(w)]
    a, b = draw(st.floats(allow_nan=False)), draw(st.floats(allow_nan=False))
    iv = Ival(min(a, b), max(a, b))
    big = sys.float_info.max
    points = (iv.lo, iv.hi, iv.mid, 0.0, -big, big)
    return iv, [Fraction(p) for p in points if math.isfinite(p) and iv.lo <= p <= iv.hi]


@st.composite
def operands(draw):
    """An operand on either side of interval arithmetic: an interval from
    with_members, or a bare float (possibly infinite) with itself as its
    member when finite."""
    if draw(st.booleans()):
        return draw(with_members())
    f = draw(st.floats(allow_nan=False))
    return f, [Fraction(f)] if math.isfinite(f) else []


OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv)


def exact(iv):
    return Fraction(iv.lo), Fraction(iv.hi)


class TestConstruction:
    def test_point(self):
        iv = Ival(2.5)
        assert iv.lo == iv.hi == 2.5

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            Ival(2.0, 1.0)

    def test_from_int_exact_small(self):
        iv = Ival.from_int(12345)
        assert iv.lo == iv.hi == 12345.0

    def test_from_int_encloses_large(self):
        w = 3**64
        iv = Ival.from_int(w)
        assert Fraction(iv.lo) <= w <= Fraction(iv.hi)
        assert iv.lo < iv.hi

    def test_from_int_overflow(self):
        w = 10**400
        iv = Ival.from_int(w)
        assert iv.hi == float("inf")
        assert Fraction(iv.lo) <= w


class TestArithmetic:
    @given(finite, finite, finite, finite)
    @settings(max_examples=150)
    def test_add_sub_mul_enclose(self, a, b, c, d):
        x = Ival(min(a, b), max(a, b))
        y = Ival(min(c, d), max(c, d))
        for xa in (x.lo, x.hi):
            for ya in (y.lo, y.hi):
                fa, fb = Fraction(xa), Fraction(ya)
                s = x + y
                assert Fraction(s.lo) <= fa + fb <= Fraction(s.hi)
                m = x * y
                assert Fraction(m.lo) <= fa * fb <= Fraction(m.hi)
                dsub = x - y
                assert Fraction(dsub.lo) <= fa - fb <= Fraction(dsub.hi)

    @given(finite, finite, positive, positive)
    @settings(max_examples=150)
    def test_div_encloses(self, a, b, c, d):
        x = Ival(min(a, b), max(a, b))
        y = Ival(min(c, d), max(c, d))
        q = x / y
        for xa in (x.lo, x.hi):
            for ya in (y.lo, y.hi):
                assert Fraction(q.lo) <= Fraction(xa) / Fraction(ya) <= Fraction(q.hi)

    @given(operands(), operands())
    @example((Ival(-math.inf, -1.0), [Fraction(-1)]), (Ival(0.0, 1.0), [Fraction(0), Fraction(1)]))
    @example((Ival(-1.0, 1.0), [Fraction(0)]), (math.inf, []))
    @settings(max_examples=400)
    def test_extremes_enclose(self, xs, ys):
        (x, x_members), (y, y_members) = xs, ys
        assume(x_members and y_members)
        assume(isinstance(x, Ival) or isinstance(y, Ival))
        results = [(operator.add, x + y), (operator.sub, x - y), (operator.mul, x * y)]
        if (y.lo if isinstance(y, Ival) else y) > 0:
            results.append((operator.truediv, x / y))
        for op, result in results:
            for p in x_members:
                for q in y_members:
                    assert result.lo <= op(p, q) <= result.hi

    def test_div_requires_positive(self):
        with pytest.raises(ZeroDivisionError):
            Ival(1.0) / Ival(-1.0, 2.0)

    @pytest.mark.parametrize("x", [
        np.float64(2.5), np.float64(-0.1), True, False,
        2**53 + 1, -(2**60) - 3, 3**70, 10**400,
    ], ids=lambda x: f"{type(x).__name__}:{str(x)[:8]}")
    def test_operand_types_match_reference(self, x):
        # Each operand type gives the endpoints of its reference interval,
        # on either side of every operator.
        iv = Ival(1.5, 2.25)
        ref = Ival.from_int(x) if isinstance(x, int) else Ival(float(x))
        for op in OPERATORS:
            for args, ref_args in (((iv, x), (iv, ref)), ((x, iv), (ref, iv))):
                try:
                    want = op(*ref_args)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(*args)
                    continue
                got = op(*args)
                assert type(got) is Ival
                assert (got.lo.hex(), got.hi.hex()) == (want.lo.hex(), want.hi.hex())

    @pytest.mark.parametrize("op", OPERATORS)
    @pytest.mark.parametrize("nan", [math.nan, np.float64("nan")], ids=["float", "float64"])
    def test_nan_operand_rejected(self, op, nan):
        iv = Ival(1.5, 2.25)
        for args in ((iv, nan), (nan, iv)):
            with pytest.raises(ValueError, match="invalid interval"):
                op(*args)

    def test_scalar_coercion(self):
        iv = Ival(1.0, 2.0) + 1
        assert iv.lo <= 2.0 and iv.hi >= 3.0
        iv = 2 * Ival(1.0, 2.0)
        assert iv.lo <= 2.0 and iv.hi >= 4.0
        iv = 1 / Ival(2.0)
        assert iv.lo <= 0.5 <= iv.hi

    @given(
        st.floats(min_value=1e-6, max_value=1e5, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=40),
    )
    @settings(max_examples=100)
    def test_powers_enclose(self, base, k):
        pw = powers(Ival(base), k)
        want = Fraction(base) ** k
        assert Fraction(pw[k].lo) <= want
        assert pw[k].hi == float("inf") or want <= Fraction(pw[k].hi)

    def test_width_and_contains(self):
        iv = Ival(1.0, 2.0)
        assert iv.contains(1.5)
        assert not iv.contains(2.5)
        assert iv.width >= 1.0
