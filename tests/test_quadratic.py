import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from suspshift.quadratic import QuadraticReal, qr, sqrt_d, rationally_independent


small_fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=20
)


def test_basic_arithmetic():
    x = qr(1, 1)  # 1 + sqrt(2)
    y = qr(0, 1)  # sqrt(2)
    assert x + y == qr(1, 2)
    assert x - 1 == y
    assert y * y == qr(2)
    assert (x * (x - 2)) == qr(1)  # (1+s)(s-1) = 1


def test_division_by_conjugate():
    s = sqrt_d(2)
    assert (1 / (1 + s)) == s - 1
    assert (s / s) == qr(1)
    with pytest.raises(ZeroDivisionError):
        _ = qr(1) / qr(0)


def test_sign_cases():
    s = sqrt_d(2)
    assert (s - 1).sign() == 1
    assert (s - 2).sign() == -1
    assert (s - Fraction(3, 2)).sign() == -1
    assert (s - Fraction(7, 5)).sign() == 1
    assert qr(0).sign() == 0
    assert (2 * s - s - s).sign() == 0


def test_mixed_radicands():
    r2, r5 = sqrt_d(2), sqrt_d(5)
    assert r2 + qr(1, 0, 5) == qr(1, 1, 2)  # rational coerces freely
    with pytest.raises(ValueError):
        _ = r2 + r5


def test_floor_and_frac():
    s = sqrt_d(2)
    assert s.floor() == 1
    assert (-s).floor() == -2
    assert (17 * s).floor() == 24
    assert (99 * s).floor() == 140
    assert (s * s).floor() == 2
    f = 5 * s - (5 * s).floor()
    assert 0 <= f < 1
    assert f == 5 * s - 7


@given(small_fractions, small_fractions)
def test_floor_matches_float(a, b):
    v = QuadraticReal(a, b, 2)
    fv = float(a) + float(b) * math.sqrt(2)
    # floats are only a sanity check; keep away from integer boundaries
    if abs(fv - round(fv)) > 1e-6:
        assert v.floor() == math.floor(fv)


@given(small_fractions, small_fractions, small_fractions, small_fractions)
def test_order_matches_float(a1, b1, a2, b2):
    x, y = QuadraticReal(a1, b1, 3), QuadraticReal(a2, b2, 3)
    fx = float(a1) + float(b1) * math.sqrt(3)
    fy = float(a2) + float(b2) * math.sqrt(3)
    if abs(fx - fy) > 1e-6:
        assert (x < y) == (fx < fy)
    else:
        # near-ties must still be decided exactly and consistently
        assert (x < y) == ((y - x).sign() > 0)


def test_rational_independence():
    s = sqrt_d(2)
    assert rationally_independent(qr(1), s)
    assert rationally_independent(1 + s, s)
    assert not rationally_independent(qr(2), qr(3))
    assert not rationally_independent(s, 2 * s)
    assert not rationally_independent(qr(0), s)


def test_json_round_trip():
    v = QuadraticReal(Fraction(1, 2), Fraction(-1, 3), 2)
    assert QuadraticReal.from_json(v.to_json()) == v


# ---------------------------------------------------------------------------
# differential tests of the integer form (A + B*sqrt(d))/C against sympy

import sympy
from hypothesis import settings

RADICANDS = (2, 3, 5, 7)
coords = st.fractions(min_value=-1000, max_value=1000, max_denominator=60)


@st.composite
def field_pairs(draw):
    """Two values of one field Q[sqrt(d)], each rational or irrational."""
    d = draw(st.sampled_from(RADICANDS))
    a1, a2 = draw(coords), draw(coords)
    b1 = draw(st.one_of(st.just(Fraction(0)), coords))
    b2 = draw(st.one_of(st.just(Fraction(0)), coords))
    return d, (a1, b1), (a2, b2)


def sym(a, b, d):
    return sympy.Rational(a.numerator, a.denominator) \
        + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d)


def sym_of(x: QuadraticReal):
    return sympy.Rational(x.A, x.C) + sympy.Rational(x.B, x.C) * sympy.sqrt(x.d)


def assert_same(x: QuadraticReal, ref):
    assert x.C > 0 and math.gcd(x.A, x.B, x.C) == 1
    assert sympy.expand(sym_of(x) - ref) == 0


def assert_quotient(q: QuadraticReal, num, den):
    """q = num / den, checked as q * den = num (sympy's radsimp is slow)."""
    assert q.C > 0 and math.gcd(q.A, q.B, q.C) == 1
    assert sympy.expand(sym_of(q) * den - num) == 0


@settings(max_examples=150, deadline=None)
@given(field_pairs())
def test_ring_operations_match_sympy(case):
    d, (a1, b1), (a2, b2) = case
    x, y = QuadraticReal(a1, b1, d), QuadraticReal(a2, b2, d)
    rx, ry = sym(a1, b1, d), sym(a2, b2, d)
    assert_same(x + y, rx + ry)
    assert_same(x - y, rx - ry)
    assert_same(x * y, sympy.expand(rx * ry))
    assert_same(-x, -rx)
    if ry != 0:
        assert_quotient(x / y, rx, ry)
    else:
        with pytest.raises(ZeroDivisionError):
            _ = x / y
    # plain rationals on either side
    assert_same(x + a2, rx + sym(a2, Fraction(0), d))
    assert_same(a2 - x, sym(a2, Fraction(0), d) - rx)
    assert_same(3 * x, 3 * rx)
    if rx != 0:
        assert_quotient(a2 / x, sym(a2, Fraction(0), d), rx)


@settings(max_examples=150, deadline=None)
@given(field_pairs())
def test_order_sign_floor_match_sympy(case):
    d, (a1, b1), (a2, b2) = case
    x, y = QuadraticReal(a1, b1, d), QuadraticReal(a2, b2, d)
    rx, ry = sym(a1, b1, d), sym(a2, b2, d)
    assert x.sign() == int(sympy.sign(rx))
    assert x.floor() == int(sympy.floor(rx))
    assert_same(x - x.floor(), rx - sympy.floor(rx))
    s = int(sympy.sign(rx - ry))
    assert (x == y) == (s == 0)
    assert (x < y) == (s < 0) and (x <= y) == (s <= 0)
    assert (x > y) == (s > 0) and (x >= y) == (s >= 0)
    assert (x < a2) == (int(sympy.sign(rx - sym(a2, Fraction(0), d))) < 0)


@settings(max_examples=200, deadline=None)
@given(field_pairs())
def test_coordinates_hash_and_json(case):
    d, (a1, b1), _ = case
    x = QuadraticReal(a1, b1, d)
    assert (x.a, x.b, x.d) == (a1, b1, d)
    assert x.to_json() == {"a": str(a1), "b": str(b1), "d": d}
    back = QuadraticReal.from_json(x.to_json())
    assert back == x and back.d == x.d and back.to_json() == x.to_json()
    if b1 == 0:
        assert x.is_rational and hash(x) == hash(a1) and x == a1
        assert repr(x) == f"QR({a1})"
    else:
        assert hash(x) == hash((a1, b1, d))
        assert repr(x) == f"QR({a1} + {b1}*sqrt({d}))"
    # the integer form is unique, so equal values built two ways agree
    y = (x + 1) - 1
    assert (y.A, y.B, y.C) == (x.A, x.B, x.C) and hash(y) == hash(x)


@given(st.sampled_from([(2, 3), (2, 5), (3, 7), (5, 7)]), coords, coords)
def test_mixed_radicands_raise(ds, a, b):
    b = b or Fraction(1)
    x, y = QuadraticReal(a, b, ds[0]), QuadraticReal(a, b, ds[1])
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
               lambda: x < y, lambda: y >= x):
        with pytest.raises(ValueError):
            op()
    assert x != y
    # a rational value of another field is compatible
    r = QuadraticReal(a, 0, ds[1])
    assert (x + r).d == ds[0] and (r + x).d == ds[0] and (x * r).d == ds[0]


def test_radicand_checked_by_constructor():
    for bad in (0, 1, 4, 9, -3, 2.0):
        with pytest.raises(ValueError):
            QuadraticReal(1, 1, bad)
