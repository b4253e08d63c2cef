"""Exact arithmetic in a real quadratic field Q[sqrt(d)].

A value is a + b*sqrt(d) with rational a, b and a fixed non-square integer
d >= 2.  Signs, comparisons, floors and fractional parts are computed
exactly; floats appear only through an explicit float() call at output time.
Purely rational values (b == 0) are compatible with every d.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational

RationalLike = (int, Fraction)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Rational):
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


class QuadraticReal:
    """Element a + b*sqrt(d) of the real quadratic field Q[sqrt(d)]."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 2):
        object.__setattr__(self, "a", _as_fraction(a))
        object.__setattr__(self, "b", _as_fraction(b))
        object.__setattr__(self, "d", _check_radicand(d))

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticReal is immutable")

    # -- coercion ------------------------------------------------------

    def _coerce(self, other) -> "QuadraticReal":
        if isinstance(other, QuadraticReal):
            if other.b == 0:
                return QuadraticReal(other.a, 0, self.d)
            if self.b == 0:
                return other
            if other.d != self.d:
                raise ValueError(f"mixed radicands {self.d} and {other.d}")
            return other
        return QuadraticReal(_as_fraction(other), 0, self.d)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        d = self.d if self.b != 0 else o.d
        return QuadraticReal(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadraticReal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d if self.b != 0 else o.d
        return QuadraticReal(
            self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        # multiply by the conjugate; the norm a^2 - d b^2 is nonzero since
        # d is not a square
        norm = o.a * o.a - o.b * o.b * o.d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        inv = QuadraticReal(o.a / norm, -o.b / norm, o.d)
        return self * inv

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # -- exact sign and order ------------------------------------------

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): -1, 0 or +1."""
        a, b, d = self.a, self.b, self.d
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with d b^2, won by the larger square
        lhs, rhs = a * a, b * b * d
        if lhs == rhs:
            return 0
        bigger_is_rational = lhs > rhs
        return (1 if a > 0 else -1) if bigger_is_rational else (1 if b > 0 else -1)

    def _cmp(self, other) -> int:
        return (self - self._coerce(other)).sign()

    def __eq__(self, other):
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
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return self.sign() != 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- floor / frac ----------------------------------------------------

    def floor(self) -> int:
        """Exact floor, via isqrt on the integer form (A + B*sqrt(d))/C."""
        if self.b == 0:
            return math.floor(self.a)
        c = math.lcm(self.a.denominator, self.b.denominator)
        big_a = self.a.numerator * (c // self.a.denominator)
        big_b = self.b.numerator * (c // self.b.denominator)
        return floor_surd(big_a, big_b, self.d, c)

    def frac(self) -> "QuadraticReal":
        return self - self.floor()

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        if self.b == 0:
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
    if p.b != 0 and q.b != 0 and p.d != q.d:
        raise ValueError("rational independence test needs a common field")
    if p.sign() == 0 or q.sign() == 0:
        return False
    return p.a * q.b != q.a * p.b
