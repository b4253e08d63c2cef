"""Exact arithmetic in a real quadratic field Q[sqrt(d)].

A value a + b*sqrt(d), with rational a, b and a fixed non-square integer
d >= 2, is stored in integer form (A + B*sqrt(d))/C: integers A, B, C with
C > 0 and gcd(A, B, C) = 1, so every value has exactly one form.  A ring
operation is a few integer products and one gcd; a sign or a comparison
compares two integer squares (`sign_surd`), and a floor is one isqrt
(`floor_surd`).
The rational coordinates a = A/C and b = B/C are read back as Fractions.
Floats appear only through an explicit float() call at output time.
Purely rational values (B == 0) are compatible with every d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (str, Rational)):
        return Fraction(x)
    raise TypeError(f"not a rational value: {x!r}")


def _check_radicand(d: int) -> int:
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"radicand must be an integer >= 2, got {d!r}")
    r = math.isqrt(d)
    if r * r == d:
        raise ValueError(f"radicand must not be a perfect square, got {d}")
    return d


def floor_surd(a: int, b: int, d: int, c: int) -> int:
    """Exact floor((a + b*sqrt(d)) / c) for integers a, b, c, d with c > 0, d >= 0.

    With s = floor(b*sqrt(d)) the value is (a + s)/c plus less than 1/c, so
    its floor is (a + s) // c.  s is one isqrt of b*b*d, taken as a ceiling
    and negated when b < 0."""
    t = b * b * d
    s = math.isqrt(t)
    if b < 0:
        s = -s - (s * s != t)
    return (a + s) // c


def sign_surd(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers a, b and a non-square d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0 or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    # opposite signs: the larger square wins (never equal, d is no square)
    if a * a > b * b * d:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


class QuadraticReal:
    """Element a + b*sqrt(d) of the real quadratic field Q[sqrt(d)].

    Stored as the integers A, B, C of (A + B*sqrt(d))/C in lowest terms
    (C > 0, gcd(A, B, C) = 1); `a` and `b` are the Fractions A/C and B/C.
    `QuadraticReal(a, b, d)` checks its rational inputs and the radicand;
    ring operations build their results through `_make`, which only
    reduces."""

    __slots__ = ("A", "B", "C", "d")

    def __init__(self, a=0, b=0, d: int = 2):
        a, b = _as_fraction(a), _as_fraction(b)
        _check_radicand(d)
        # over C = lcm of the two denominators, gcd(A, B, C) is already 1
        ca, cb = a.denominator, b.denominator
        c = math.lcm(ca, cb)
        _set_A(self, a.numerator * (c // ca))
        _set_B(self, b.numerator * (c // cb))
        _set_C(self, c)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticReal is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.C)

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.C)

    # -- coercion ------------------------------------------------------

    def _parts(self, other):
        """(A, B, C) of `other` and the radicand of a result combining it
        with self: other's if it is irrational, else self's."""
        if isinstance(other, QuadraticReal):
            if other.B == 0:
                return other.A, 0, other.C, self.d
            if self.B != 0 and other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other.A, other.B, other.C, other.d
        if type(other) is int:
            return other, 0, 1, self.d
        f = _as_fraction(other)
        return f.numerator, 0, f.denominator, self.d

    @property
    def is_rational(self) -> bool:
        return self.B == 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        a2, b2, c2, d = self._parts(other)
        a1, b1, c1 = self.A, self.B, self.C
        if c1 == c2:
            return _make(a1 + a2, b1 + b2, c1, d)
        return _make(a1 * c2 + a2 * c1, b1 * c2 + b2 * c1, c1 * c2, d)

    __radd__ = __add__

    def __neg__(self):
        return _make(-self.A, -self.B, self.C, self.d)

    def __sub__(self, other):
        a2, b2, c2, d = self._parts(other)
        a1, b1, c1 = self.A, self.B, self.C
        if c1 == c2:
            return _make(a1 - a2, b1 - b2, c1, d)
        return _make(a1 * c2 - a2 * c1, b1 * c2 - b2 * c1, c1 * c2, d)

    def __rsub__(self, other):
        return _make(*self._parts(other)) - self

    def __mul__(self, other):
        a2, b2, c2, d = self._parts(other)
        a1, b1 = self.A, self.B
        return _make(a1 * a2 + b1 * b2 * d, a1 * b2 + b1 * a2, self.C * c2, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # multiply by the conjugate a2 - b2*sqrt(d); the norm a2^2 - d*b2^2
        # is nonzero unless the divisor is, since d is not a square
        a2, b2, c2, d = self._parts(other)
        norm = a2 * a2 - b2 * b2 * d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        if norm < 0:
            norm, c2 = -norm, -c2
        a1, b1 = self.A, self.B
        return _make((a1 * a2 - b1 * b2 * d) * c2, (b1 * a2 - a1 * b2) * c2,
                     self.C * norm, d)

    def __rtruediv__(self, other):
        return _make(*self._parts(other)) / self

    # -- exact sign and order ------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): -1, 0 or +1."""
        return sign_surd(self.A, self.B, self.d)

    def _cmp(self, other) -> int:
        a2, b2, c2, d = self._parts(other)
        c1 = self.C
        if c1 == c2:
            return sign_surd(self.A - a2, self.B - b2, d)
        return sign_surd(self.A * c2 - a2 * c1, self.B * c2 - b2 * c1, d)

    def __eq__(self, other):
        if isinstance(other, QuadraticReal):
            if self.B != 0 and other.B != 0 and self.d != other.d:
                return NotImplemented
            # the integer form is unique
            return self.A == other.A and self.B == other.B and self.C == other.C
        try:
            return self._cmp(other) == 0
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        if self.B == 0:
            return hash(self.A) if self.C == 1 else hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.A != 0 or self.B != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- floor ----------------------------------------------------------

    def floor(self) -> int:
        """Exact floor: A // C, or one isqrt through `floor_surd`."""
        if self.B == 0:
            return self.A // self.C
        return floor_surd(self.A, self.B, self.d, self.C)

    def __float__(self) -> float:
        # A / C and B / C are correctly rounded, as float(Fraction) is
        return self.A / self.C + (self.B / self.C) * math.sqrt(self.d)

    def __repr__(self) -> str:
        if self.B == 0:
            return f"QR({self.a})"
        return f"QR({self.a} + {self.b}*sqrt({self.d}))"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "d": self.d}

    @classmethod
    def from_json(cls, obj) -> "QuadraticReal":
        if isinstance(obj, (int, str)):
            return cls(Fraction(obj))
        return cls(Fraction(obj["a"]), Fraction(obj.get("b", 0)), int(obj.get("d", 2)))


_set_A = QuadraticReal.A.__set__
_set_B = QuadraticReal.B.__set__
_set_C = QuadraticReal.C.__set__
_set_d = QuadraticReal.d.__set__
_new = object.__new__


def _make(a: int, b: int, c: int, d: int) -> QuadraticReal:
    """(a + b*sqrt(d))/c for integers with c > 0 and a checked radicand d,
    reduced to lowest terms."""
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    x = _new(QuadraticReal)
    _set_A(x, a)
    _set_B(x, b)
    _set_C(x, c)
    _set_d(x, d)
    return x


def common_radicand(values, d=None):
    """The one radicand of the irrational values among `values` and `d`
    (None when there are none); ValueError when they have two."""
    for v in values:
        if v.B and v.d != d:
            if d is not None:
                raise ValueError(f"mixed radicands {d} and {v.d}")
            d = v.d
    return d


def pair_over(v: QuadraticReal, denominator: int):
    """v as the integers (x, y) of (x + y*sqrt(d))/denominator, for a
    multiple `denominator` of v.C."""
    f = denominator // v.C
    return v.A * f, v.B * f


def qr(a, b=0, d: int = 2) -> QuadraticReal:
    """Shorthand constructor."""
    return QuadraticReal(a, b, d)


def sqrt_d(d: int = 2) -> QuadraticReal:
    return QuadraticReal(0, 1, d)


def as_qr(x, d: int = 2) -> QuadraticReal:
    if isinstance(x, QuadraticReal):
        return x
    return QuadraticReal(_as_fraction(x), 0, d)


def rationally_independent(p, q) -> bool:
    """Exact test that positive reals p, q span a 2-dim Q-vector space.

    For p = a1 + b1*sqrt(d) and q = a2 + b2*sqrt(d) this holds iff the
    coefficient vectors are not proportional over Q, i.e. a1*b2 != a2*b1.
    """
    p, q = as_qr(p), as_qr(q)
    if p.B != 0 and q.B != 0 and p.d != q.d:
        raise ValueError("rational independence test needs a common field")
    if p.sign() == 0 or q.sign() == 0:
        return False
    return p.A * q.B != q.A * p.B
