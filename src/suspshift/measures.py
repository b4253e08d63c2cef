"""Shift-invariant measures with exact cylinder masses.

Markov measures keep transitions and the stationary vector in exact
arithmetic (rationals, or a quadratic field for Perron data such as the
Parry measure); logarithms enter only at output time.  The measure of a
periodic orbit counts each word's occurrences over one period, as an exact
rational, when the word is first read.  All measure kinds expose one
evaluation interface, mass(word) = mass of the anchored
cylinder, so the metric D and the periodic-structure counts can treat them
uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from suspshift.quadratic import QuadraticReal, as_qr
from suspshift.subshifts import PeriodicPoint, SFT, Subshift, Word


def _xlogx(p) -> float:
    fp = float(p)
    if fp <= 0.0:
        return 0.0
    return fp * math.log(fp)


class Measure:
    """Interface: exact anchored-cylinder masses on a fixed subshift."""

    subshift: Subshift

    def mass(self, word: Word):
        raise NotImplementedError


class MarkovMeasure(Measure):
    """Memory-1 Markov measure: row-stochastic P supported on the allowed
    transitions, with its exact stationary row vector `pi`."""

    def __init__(self, p_rows, pi, subshift: Subshift):
        self.P = [list(row) for row in p_rows]
        k = len(self.P)
        for row in self.P:
            if len(row) != k:
                raise ValueError("P must be square")
            total = row[0]
            for x in row[1:]:
                total = total + x
            if total != 1:
                raise ValueError("rows of P must sum to 1 exactly")
            for x in row:
                if _sign(x) < 0:
                    raise ValueError("negative transition probability")
        self.pi = list(pi)
        check = [sum_exact(self.pi[i] * self.P[i][j] for i in range(k)) for j in range(k)]
        if any(check[j] != self.pi[j] for j in range(k)):
            raise ValueError("pi is not stationary for P")
        if sum_exact(self.pi) != 1:
            raise ValueError("pi must sum to 1")
        self.subshift = subshift
        if isinstance(self.subshift, SFT) and self.subshift.memory == 1:
            for i in range(k):
                if self.pi[i] == 0:
                    continue
                for j in range(k):
                    if self.P[i][j] != 0 and not self.subshift.admissible((i, j)):
                        raise ValueError(f"P charges forbidden transition {i}->{j}")

    @property
    def states(self) -> int:
        return len(self.P)

    def mass(self, word: Word):
        if len(word) == 0:
            return Fraction(1)
        m = self.pi[word[0]]
        for a, b in zip(word, word[1:]):
            m = m * self.P[a][b]
        return m

    def entropy_rate(self) -> float:
        """Exact formula -sum_i pi_i sum_j P_ij log P_ij, in nats/symbol."""
        h = 0.0
        for i in range(self.states):
            for j in range(self.states):
                p = self.P[i][j]
                if p != 0:
                    h -= float(self.pi[i]) * _xlogx(p)
        return h

    def block_entropy_total(self, n: int) -> float:
        """H of the length-n block distribution (stationary Markov closed
        form H_n = H(pi) + (n-1) h)."""
        h1 = -sum(_xlogx(p) for p in self.pi)
        return h1 + (n - 1) * self.entropy_rate()

    def block_entropy(self, n: int) -> float:
        return self.block_entropy_total(n) / n

def sum_exact(xs):
    xs = list(xs)
    total = xs[0]
    for x in xs[1:]:
        total = total + x
    return total


def _sign(x) -> int:
    if isinstance(x, QuadraticReal):
        return x.sign()
    return (x > 0) - (x < 0)


def bernoulli(probs, subshift: Subshift) -> MarkovMeasure:
    probs = [Fraction(p) if not isinstance(p, (Fraction, QuadraticReal)) else p for p in probs]
    rows = [list(probs) for _ in probs]
    return MarkovMeasure(rows, pi=list(probs), subshift=subshift)


def parry_measure(sft: SFT) -> MarkovMeasure:
    """Measure of maximal entropy from Perron eigendata, exact when the
    vertex graph has at most two vertices (Perron root is then rational or a
    quadratic irrational)."""
    if sft.memory != 1:
        raise ValueError("parry_measure needs a memory-1 vertex shift")
    a = sft._adjacency_matrix()
    k = len(a)
    if k not in (1, 2):
        raise ValueError("exact Parry construction implemented for <= 2 vertices")
    if k == 2 and not (a[0][1] and a[1][0]):
        raise ValueError("exact Parry construction needs an irreducible vertex graph")
    if k == 1:
        p_rows, pi, zero = [[Fraction(1)]], [Fraction(1)], Fraction(0)
    else:
        tr = a[0][0] + a[1][1]
        det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
        disc = tr * tr - 4 * det
        root = math.isqrt(disc)
        if root * root == disc:
            lam = as_qr(Fraction(tr + root, 2))
        else:
            d, sq = _squarefree(disc)
            lam = QuadraticReal(Fraction(tr, 2), Fraction(sq, 2), d)
        # right vector r with A r = lam r; left vector l with l A = lam l
        r = [as_qr(a[0][1], lam.d if not lam.is_rational else 2), lam - a[0][0]]
        l = [as_qr(a[1][0], r[0].d), lam - a[0][0]]
        p_rows = [
            [
                (a[i][j] * r[j] / (lam * r[i])) if a[i][j] else as_qr(0, r[0].d)
                for j in range(2)
            ]
            for i in range(2)
        ]
        norm = l[0] * r[0] + l[1] * r[1]
        pi = [l[i] * r[i] / norm for i in range(2)]
        zero = as_qr(0, r[0].d)
    # map vertex indices to alphabet symbols (memory-1: vertex = (symbol,))
    order = [v[0] for v in sft.vertices]
    size = sft.alphabet_size
    full_p = [[zero for _ in range(size)] for _ in range(size)]
    full_pi = [zero for _ in range(size)]
    for i, si in enumerate(order):
        full_pi[si] = pi[i]
        for j, sj in enumerate(order):
            full_p[si][sj] = p_rows[i][j]
    for s in range(size):
        if s not in order:
            full_p[s][order[0]] = zero + 1  # dead symbols: arbitrary row
    return MarkovMeasure(full_p, pi=full_pi, subshift=sft)


def _squarefree(n: int):
    """n = sq^2 * d with d squarefree; returns (d, sq)."""
    sq = 1
    d = n
    f = 2
    while f * f <= d:
        while d % (f * f) == 0:
            d //= f * f
            sq *= f
        f += 1
    return d, sq


class EmpiricalMeasure(Measure):
    """The invariant measure of one periodic orbit: a word's mass is the
    number of its occurrences starting in one period of `point`, over the
    period, exact.  Each word is counted on its first read and kept."""

    def __init__(self, point: PeriodicPoint, subshift: Subshift):
        self.point = point
        self.subshift = subshift
        self._masses = {}

    def mass(self, word: Word):
        word = tuple(word)
        m = self._masses.get(word)
        if m is None:
            n, period = len(word), self.point.period
            text = self.point.block(0, period + n - 1)
            m = self._masses[word] = Fraction(
                sum(text[i : i + n] == word for i in range(period)), period)
        return m


def integrate_locally_constant(table: dict, measure: Measure):
    """Integral of the locally constant function with anchored window table
    {word: value}; exact when value and mass types are field-compatible."""
    words = sorted(table)
    total = None
    for w in words:
        term = table[w] * measure.mass(w)
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# the convex metric D on measures


@dataclass(frozen=True)
class DMetricConfig:
    """Truncated defining sum of D: indicator functions of the subshift's
    anchored cylinders in length-lexicographic order, weights 2^-i."""

    subshift: Subshift
    depth: int = 8  # number of cylinder indicators used

    def cylinders(self):
        """The first `depth` cylinders, listed once per config."""
        if "_cylinders" not in self.__dict__:
            out = []
            n = 1
            while len(out) < self.depth:
                for w in sorted(self.subshift.language(n)):
                    out.append(w)
                    if len(out) == self.depth:
                        break
                n += 1
            object.__setattr__(self, "_cylinders", tuple(out))
        return list(self._cylinders)


@dataclass(frozen=True)
class DistanceResult:
    value: float
    bound: float  # truncation error bound 2^(1-N)

    def __float__(self):
        return self.value


def d_distance(mu: Measure, nu: Measure, config: DMetricConfig) -> DistanceResult:
    total = 0.0
    for i, w in enumerate(config.cylinders(), start=1):
        diff = mu.mass(w) - nu.mass(w)
        total += abs(float(diff)) / 2.0**i
    return DistanceResult(total, 2.0 ** (1 - config.depth))
