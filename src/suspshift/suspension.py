"""Suspension flows over subshifts with locally constant roofs.

A flow point is (base point, height) with 0 <= height < roof(base); all
heights and times live in one quadratic field per flow, so the flow map,
return times and section membership are decided exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from suspshift.quadratic import (
    QuadraticReal,
    _make,
    as_qr,
    common_radicand,
    pair_over,
    sign_surd,
)
from suspshift.measures import Measure, _xlogx, integrate_locally_constant, sum_exact
from suspshift.subshifts import Cylinder, PointOracle, Subshift, Word


class HorizonExceeded(Exception):
    pass


class NotHit(Exception):
    """No return to the section within the shift budget."""


class IncommensurableRoof(Exception):
    pass


class Roof:
    """Locally constant roof: value depends on the window [-m, m] around the
    current coordinate; all values positive elements of one quadratic field."""

    def __init__(self, window_radius: int, table: dict):
        self.m = window_radius
        self.table = {tuple(w): as_qr(v) for w, v in table.items()}
        if not self.table:
            raise ValueError("empty roof table")
        for w, v in self.table.items():
            if len(w) != 2 * self.m + 1:
                raise ValueError("table keys must have length 2m+1")
            if v.sign() <= 0:
                raise ValueError("roof values must be positive")
        self.min_value = min(self.table.values())
        self.max_value = max(self.table.values())

    @classmethod
    def constant(cls, value, alphabet_size: int = 2) -> "Roof":
        return cls.by_symbol([value] * alphabet_size)

    @classmethod
    def by_symbol(cls, values) -> "Roof":
        return cls(0, {(c,): as_qr(v) for c, v in enumerate(values)})

    def value_at(self, oracle: PointOracle, i: int) -> QuadraticReal:
        w = tuple(oracle.block(i - self.m, i + self.m + 1))
        try:
            return self.table[w]
        except KeyError:
            raise KeyError(f"roof undefined on window {w}")

    def value_of_word(self, word: Word) -> QuadraticReal:
        return self.table[tuple(word)]

    def integral(self, measure: Measure):
        """Exact integral of the roof against a shift-invariant measure."""
        return integrate_locally_constant(self.table, measure)

@dataclass(frozen=True)
class SuspensionFlow:
    base: Subshift
    roof: Roof

    def roof_at(self, oracle: PointOracle, i: int) -> QuadraticReal:
        return self.roof.value_at(oracle, i)


class FlowPoint(NamedTuple):
    """(sigma^index of the base point, height), 0 <= height < roof there."""

    oracle: PointOracle
    index: int
    height: QuadraticReal

    def base_block(self, i: int, j: int) -> Word:
        return self.oracle.block(self.index + i, self.index + j)


def make_flow_point(flow: SuspensionFlow, oracle: PointOracle, height=0,
                    index: int = 0) -> FlowPoint:
    h = as_qr(height)
    r = flow.roof_at(oracle, index)
    if h.sign() < 0 or h >= r:
        raise ValueError("height outside [0, roof)")
    return FlowPoint(oracle, index, h)


def flow(flow_sys: SuspensionFlow, p: FlowPoint, s, max_shifts: int = 100000) -> FlowPoint:
    """Exact time-s flow map; s may be negative.  Normalizes to the unique
    representative with 0 <= height < roof."""
    h = p.height + as_qr(s)
    idx = p.index
    shifts = 0
    while True:
        r = flow_sys.roof_at(p.oracle, idx)
        if h.sign() >= 0 and h < r:
            return FlowPoint(p.oracle, idx, h)
        if h.sign() < 0:
            idx -= 1
            h = h + flow_sys.roof_at(p.oracle, idx)
        else:
            h = h - r
            idx += 1
        shifts += 1
        if shifts > max_shifts:
            raise HorizonExceeded(f"normalization needed more than {max_shifts} shifts")


# ---------------------------------------------------------------------------
# cross-sections


@dataclass(frozen=True)
class SectionPiece:
    cylinder: Cylinder
    offset: QuadraticReal  # height above the base coordinate of the anchor


class CrossSection:
    """Finite union of (anchored cylinder, time offset) pieces.

    `return_to_section` runs on the section's `ReturnPlan`, which is built
    on the first return under a roof and kept with the roof it was built for.
    """

    def __init__(self, pieces):
        self.pieces = [
            SectionPiece(c if isinstance(c, Cylinder) else Cylinder(*c), as_qr(o))
            for (c, o) in pieces
        ]
        self._plan = None

    def __len__(self):
        return len(self.pieces)

    def plan(self, roof: Roof) -> "ReturnPlan":
        """The return plan of this section under `roof`: the one kept, if
        it was built for this roof, else a new one that replaces it."""
        if self._plan is None or self._plan.roof is not roof:
            self._plan = ReturnPlan(roof, self)
        return self._plan


class ReturnPlan:
    """First returns to one cross-section under one roof, on integers.

    Every roof value and piece offset is held as the integer pair (x, y) of
    (x + y*sqrt(d))/L0 over one common denominator L0; `d` is None when
    all of them are rational.  The pieces are ranked by (offset, piece
    index), so the first landing in a column is the lowest rank hit there.
    A column is decided by its base window [lo, hi), the union of the roof
    window [-m, m] and every piece's cylinder.  `outcomes` maps each window
    met to (rx, ry, hits): the pair of its roof and, by ascending rank, the
    (piece index, offset, ox, oy) of the pieces whose cylinder it matches
    and whose offset lies below that roof.  It holds one entry per distinct
    window met, so it is bounded by the number of words of length hi - lo in
    the orbits returned along (n + 1 for windows of length n on a Sturmian
    orbit), and it is dropped with the plan.
    """

    def __init__(self, roof: Roof, section: CrossSection):
        self.roof = roof
        offsets = [piece.offset for piece in section.pieces]
        values = [*roof.table.values(), *offsets]
        self.d = common_radicand(values)
        self.L0 = math.lcm(*(v.C for v in values))
        cylinders = [piece.cylinder for piece in section.pieces]
        m = roof.m
        self.lo = min([-m, *(c.anchor for c in cylinders)])
        self.hi = max([m + 1, *(c.anchor + len(c.word) for c in cylinders)])
        # by rank: (piece index, offset, its pair over L0, where its word
        # sits in the window, the word)
        self.ranked = []
        for k in sorted(range(len(offsets)), key=lambda k: (offsets[k], k)):
            c = cylinders[k]
            at = c.anchor - self.lo
            self.ranked.append((k, offsets[k], *pair_over(offsets[k], self.L0),
                                slice(at, at + len(c.word)), tuple(c.word)))
        self._roof_word = slice(-m - self.lo, m + 1 - self.lo)
        self._roof_pairs = {w: pair_over(r, self.L0) for w, r in roof.table.items()}
        self.outcomes = {}

    def outcome(self, window: tuple):
        """(rx, ry, hits) of the column whose base window is `window`, kept
        in `outcomes`: hits are the (piece index, offset, ox, oy) of the
        pieces it matches below its roof, by rank; a KeyError if the roof is
        undefined on its roof word."""
        rx, ry = self._roof_pairs[window[self._roof_word]]
        hits = tuple((k, off, ox, oy) for k, off, ox, oy, where, word in self.ranked
                     if window[where] == word and sign_surd(rx - ox, ry - oy, self.d) > 0)
        out = self.outcomes[window] = (rx, ry, hits)
        return out


def return_to_section(
    flow_sys: SuspensionFlow, p: FlowPoint, section: CrossSection, max_shifts: int = 10000
):
    """Smallest t > 0 with flow(p, t) in the section; exact arithmetic.

    Returns (return_time, landing FlowPoint, piece index); of the pieces
    landed on at once, the lowest index.  A point already on the section
    returns at the next hit, never at time 0.

    Runs on the section's `ReturnPlan` for the flow's roof.  The first column
    reads its whole base window [lo, hi) as one block, and it alone compares
    offsets with the start height, one `sign_surd` per hit, before the shift
    loop starts.  Each later shift drops the window's first symbol and reads
    one more, so every base symbol is read once.  A window is resolved once
    per plan (`ReturnPlan.outcome`) and then looked up in the plan's memo, so
    a shift is one one-symbol read, one lookup and two integer adds to the
    roof sum; its hit, if any, is the first one listed.  The time, roof sum
    plus landing offset minus start height over lcm(L0, height denominator),
    is built once, and the landing height is the piece's own offset.
    """
    roof = flow_sys.roof
    plan = section.plan(roof)
    h = p.height
    d = common_radicand((h,), plan.d)
    L0, outcomes, outcome = plan.L0, plan.outcomes, plan.outcome
    lo, hi = plan.lo, plan.hi
    oracle = p.oracle
    block = oracle.block
    hx, hy, hC = h.A * L0, h.B * L0, h.C
    idx = p.index
    sx = sy = 0  # the roofs passed, over L0
    irrational = False  # whether one of them is
    try:
        window = block(idx + lo, idx + hi)
        rx, ry, hits = outcomes.get(window) or outcome(window)
        for hit in hits:  # offsets above the start height only
            if sign_surd(hit[2] * hC - hx, hit[3] * hC - hy, d) > 0:
                break
        else:
            hit = None
        for _ in range(max_shifts - 1):
            if hit:
                break
            sx += rx
            sy += ry
            if ry:
                irrational = True
            idx += 1
            window = window[1:] + (block(idx + hi - 1, idx + hi)[0],)
            rx, ry, hits = outcomes.get(window) or outcome(window)
            if hits:
                hit = hits[0]
    except (HorizonExceeded, KeyError):
        roof.value_at(oracle, idx)  # the roof's own read and lookup fail first
        raise
    if not hit:
        raise NotHit(f"no return within {max_shifts} base shifts")
    k, off, ox, oy = hit
    L = math.lcm(L0, hC)
    f, g = L // L0, L // hC
    # a rational time keeps the radicand of its last irrational summand, or
    # the start height's when no summand is irrational
    td = d if irrational or oy else h.d
    t = _make((sx + ox) * f - h.A * g, (sy + oy) * f - h.B * g, L, td)
    return t, FlowPoint(oracle, idx, off), k


def abramov_entropy(h_base: float, roof_integral) -> float:
    """Suspension-flow entropy h_base / integral(roof)."""
    ri = float(roof_integral)
    if ri <= 0:
        raise ValueError("roof integral must be positive")
    return h_base / ri


# ---------------------------------------------------------------------------
# time-delta tower entropy (exact, discrete tower model)


def time_delta_tower_entropy(measure: Measure, roof: Roof, delta, labels, n: int):
    """H of the length-n itinerary distribution of the time-delta map for
    the tower partition {rest} + {[label]x[0,delta)}, in nats (divide by n
    for the rate).

    Exact for roofs with window radius 0 and all values in delta*N; `labels`
    maps each base symbol to its partition atom (the level-0 label).
    """
    delta = as_qr(delta)
    if roof.m != 0:
        raise IncommensurableRoof("discrete tower model needs window-0 roofs")
    levels = {}
    for w, v in roof.table.items():
        q = v / delta
        if not q.is_rational or q.a.denominator != 1 or q.a <= 0:
            raise IncommensurableRoof(f"roof value {v!r} not in delta*N")
        levels[w[0]] = int(q.a)
    dist = {}
    subshift = measure.subshift
    for w in sorted(subshift.language(n)):
        mass = measure.mass(w)
        if mass == 0:
            continue
        for start_level in range(levels[w[0]]):
            itin = []
            sym_i, lev = 0, start_level
            for _ in range(n):
                itin.append(labels[w[sym_i]] if lev == 0 else "rest")
                lev += 1
                if lev == levels[w[sym_i]]:
                    sym_i += 1
                    lev = 0
                    if sym_i >= n:
                        break
            if len(itin) < n:
                continue  # cannot happen: levels >= 1 per column
            itin = tuple(itin)
            dist[itin] = dist[itin] + mass if itin in dist else mass
    total_mass = sum_exact(list(dist.values()))
    return -sum(_xlogx(p / total_mass) for p in dist.values())


# ---------------------------------------------------------------------------
# induced-system entropy identity (Kac / Abramov mechanism)


class _ReturnLaw(NamedTuple):
    """The return-time law to A in integer form.  With L = `den`, mu(A)
    read as (m1 + m2*sqrt(d))/L_pi and T = tau_max:
    P(tau_A = tau) = (x + y*sqrt(d)) / (L**tau * (m1 + m2*sqrt(d))) for the
    pair (x, y) = hits[tau - 1], which is None when no allowed transition
    reaches A at tau; `mass` and `mean` are the pairs of the sums of
    P(tau_A = tau) and of tau * P(tau_A = tau) over tau <= T, on the common
    denominator L**T * (m1 + m2*sqrt(d)).  d is None when the law is
    rational."""

    hits: list
    den: int
    mu: tuple
    d: int | None
    mass: tuple
    mean: tuple

    def value(self, x: int, y: int, den: int):
        """(x + y*sqrt(d)) / (den * mu(A) * L_pi) as a Fraction, or as a
        QuadraticReal when the law is quadratic."""
        m1, m2 = self.mu
        d = self.d
        if d is None:
            return Fraction(x, den * m1)
        # times the conjugate m1 - m2*sqrt(d), over den times the norm
        c = den * (m1 * m1 - d * m2 * m2)
        a, b = x * m1 - d * y * m2, y * m1 - x * m2
        return _make(a, b, c, d) if c > 0 else _make(-a, -b, -c, d)

    def truncated(self):
        """The exact mass of the returns later than tau_max."""
        scale = self.den ** len(self.hits)
        (m1, m2), (x, y) = self.mu, self.mass
        return self.value(scale * m1 - x, scale * m2 - y, scale)


def _over_one_denominator(values):
    """Integer pairs (x, y) of `values`, Fractions, ints or QuadraticReals,
    as (x + y*sqrt(d))/L over one common denominator L; returns (pairs, L)."""
    forms = [(v.A, v.B, v.C) if isinstance(v, QuadraticReal)
             else (v.numerator, 0, v.denominator) for v in values]
    den = math.lcm(*(c for _, _, c in forms))
    return [(a * (den // c), b * (den // c)) for a, b, c in forms], den


def _return_law(measure, a_symbols, tau_max: int) -> _ReturnLaw:
    """Exact return-time law to A = union of the cylinders [a], a in
    `a_symbols`, of a memory-1 Markov measure, truncated at tau_max.

    P is read once over one common denominator L and pi(A) over another,
    L_pi.  The unreturned mass at each complement symbol is the integer
    pair (x, y) of (x + y*sqrt(d))/(L_pi * L**tau), started from the
    unnormalised pi(a); a product is (x1*x2 + d*y1*y2, x1*y2 + x2*y1), and
    y stays 0 on a rational chain.  mu(A) divides only at output
    (`_ReturnLaw.value`).  The law is quadratic when P or pi(A) holds a
    QuadraticReal and some tau <= tau_max is reachable; else rational."""
    from suspshift.measures import MarkovMeasure

    if not isinstance(measure, MarkovMeasure):
        raise ValueError("exact return-time law needs a Markov measure")
    if tau_max < 1:
        raise ValueError(f"tau_max must be at least 1, not {tau_max}")
    k = measure.states
    a_list = sorted(set(a_symbols))
    a_set = set(a_list)
    rows = [measure.P[i][j] for i in range(k) for j in range(k)]
    pi_a = [measure.pi[s] for s in a_list]
    quads = [v for v in rows + pi_a if isinstance(v, QuadraticReal)]
    d = common_radicand(quads) or (quads[0].d if quads else None)
    f = d or 0
    flat, den = _over_one_denominator(rows)
    start, _ = _over_one_denominator(pi_a)
    m1, m2 = sum(x for x, _ in start), sum(y for _, y in start)
    if m1 == m2 == 0:
        raise ValueError("mu(A) must be positive")
    # per symbol: its summed step into A (None when it has none) and its
    # steps to the complement
    into_a, steps = [], []
    for i in range(k):
        row = flat[i * k:(i + 1) * k]
        to_a = [row[t] for t in a_list if row[t] != (0, 0)]
        into_a.append((sum(x for x, _ in to_a), sum(y for _, y in to_a)) if to_a else None)
        steps.append([(j, x, y) for j, (x, y) in enumerate(row)
                      if j not in a_set and (x, y) != (0, 0)])
    hits = []
    mass_x = mass_y = mean_x = mean_y = 0
    v = dict(zip(a_list, start))
    for tau in range(1, tau_max + 1):
        hx = hy = 0
        hit = False
        nxt = {}
        for c, (x, y) in v.items():
            step = into_a[c]
            if step is not None:
                px, py = step
                hx += x * px + f * y * py
                hy += x * py + y * px
                hit = True
            for j, px, py in steps[c]:
                nx, ny = nxt.get(j, (0, 0))
                nxt[j] = (nx + x * px + f * y * py, ny + x * py + y * px)
        hits.append((hx, hy) if hit else None)
        # Horner on L: the sums stay over L**tau
        mass_x, mass_y = mass_x * den + hx, mass_y * den + hy
        mean_x, mean_y = mean_x * den + tau * hx, mean_y * den + tau * hy
        v = nxt
    if all(h is None for h in hits):
        # no return in reach: the law is all zero and mu(A) plays no part
        d, m1, m2 = None, 1, 0
    return _ReturnLaw(hits, den, (m1, m2), d, (mass_x, mass_y), (mean_x, mean_y))


def return_time_distribution(measure, a_symbols, tau_max: int = 30):
    """Exact induced return-time law on A = union of single-symbol cylinders
    of a memory-1 Markov measure, truncated at tau_max >= 1.

    Returns (dict tau -> exact probability, truncated tail mass).  The law
    runs on integer pairs (`_return_law`); each tau's value is built once,
    a Fraction, or a QuadraticReal when P or pi(A) holds one, and
    Fraction(0) at a tau that no allowed transition reaches.
    """
    law = _return_law(measure, a_symbols, tau_max)
    dist = {}
    scale = 1
    for tau, hit in enumerate(law.hits, 1):
        scale *= law.den
        dist[tau] = Fraction(0) if hit is None else law.value(*hit, scale)
    return dist, law.truncated()


def kac_expected_return(measure, a_symbols, tau_max: int = 30):
    """Exact truncated mean return time to A; Kac predicts 1/mu(A).

    Returns (partial expectation as an exact value, truncated tail mass),
    both read off the integer sums of `_return_law`: no per-tau value is
    built.
    """
    law = _return_law(measure, a_symbols, tau_max)
    return law.value(*law.mean, law.den ** tau_max), law.truncated()


def induced_entropy_identity(measure, a_symbols, n: int, tau_max: int = 30):
    """Exact check of mu(A) * h(induced, P v R_A) = h(ambient, P-bar) at
    finite block length n, for A a union of single-symbol cylinders of a
    memory-1 Markov measure whose landings concentrate on one symbol.
    The return-time law is `return_time_distribution`'s: integer pairs
    through tau_max >= 1, each tau's exact value built once.

    Returns (lhs, rhs, gap, truncated_mass).
    """
    a_set = set(a_symbols)
    mu_a = sum_exact([measure.pi[s] for s in a_set])
    tau_dist, truncated = return_time_distribution(measure, a_symbols, tau_max)
    # the label of one induced step is the return time; with a single landing
    # symbol the steps are i.i.d., so H_n = n * H_1 exactly
    h1 = -sum(_xlogx(p) for p in tau_dist.values() if p != 0)
    lhs = float(mu_a) * h1
    # ambient side: blocks labelled by membership in A
    rhs_total = _projected_block_entropy(measure, a_set, n)
    rhs = rhs_total / n
    return lhs, rhs, abs(lhs - rhs), float(truncated)


def _projected_block_entropy(measure, a_set, n: int) -> float:
    """H of the length-n distribution of the A-vs-rest label process."""
    dist = {}
    for w in measure.subshift.language(n):
        mass = measure.mass(w)
        if mass == 0:
            continue
        lab = tuple(1 if c in a_set else 0 for c in w)
        dist[lab] = dist.get(lab, Fraction(0)) + mass
    return -sum(_xlogx(p) for p in dist.values())


# ---------------------------------------------------------------------------
# orbit capacity


def orbit_capacity_discrete(subshift, cylinders, horizon: int, orbits,
                            period_max: int = 0):
    """Occupation-frequency estimate of E = union of anchored cylinders.

    upper: max over the supplied orbit oracles of the occupation frequency
    along [0, horizon); lower: best invariant mass among periodic measures up
    to period_max (exact for SFTs).
    """
    cylinders = [c if isinstance(c, Cylinder) else Cylinder(*c) for c in cylinders]

    def occupies(oracle, i):
        for c in cylinders:
            if tuple(oracle.block(i + c.anchor, i + c.anchor + len(c.word))) == tuple(c.word):
                return True
        return False

    upper = 0.0
    for oracle in orbits:
        count = sum(1 for i in range(horizon) if occupies(oracle, i))
        upper = max(upper, count / horizon)

    lower = Fraction(0)
    witness = None
    for m in range(1, period_max + 1):
        for p in subshift.periodic_points(m):
            count = sum(1 for i in range(m) if occupies(p, i))
            val = Fraction(count, m)
            if val > lower:
                lower, witness = val, p
    return upper, lower, witness


class FiniteWordOracle(PointOracle):
    """Oracle backed by a finite sampled word over [0, len)."""

    def __init__(self, word: Word):
        self.word = tuple(word)

    def block(self, i, j):
        if i < 0 or j > len(self.word):
            raise HorizonExceeded("query outside the sampled window")
        return self.word[i:j]


class SFTWalk(PointOracle):
    """Seeded random walk on an SFT's essential vertex graph over [0, inf),
    drawn lazily to the right as blocks are read, so a chain of returns
    can never run off its end."""

    def __init__(self, sft, rng):
        self.sft, self.rng = sft, rng
        self.vertex = rng.choice(sft.vertices)
        self.word = list(self.vertex)

    def block(self, i, j):
        if i < 0:
            raise HorizonExceeded("query left of the walk's start")
        word, edges, choice, v = self.word, self.sft.edges, self.rng.choice, self.vertex
        while len(word) < j:
            v = choice(edges[v])
            word.append(v[-1])
        self.vertex = v
        return tuple(word[i:j])


def sample_sft_orbit(sft, length: int, rng) -> FiniteWordOracle:
    """Seeded random walk on the essential vertex graph, as a finite oracle
    over [0, length): the first `length` symbols of an `SFTWalk` drawn
    `sft.memory` symbols further."""
    walk = SFTWalk(sft, rng)
    return FiniteWordOracle(walk.block(0, length + sft.memory)[:length])
