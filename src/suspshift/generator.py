"""The alpha-uniform generator for the time-p map of a marked binary model.

The three towers over the cross-section S' = (Z x {0}) union phi_alpha(Q)
label every point of the recoded suspension: P over the roof-p columns, Q
over the roof-q columns below height alpha = q - p, A above.  Names under
the time-p map decode back to the base word by locating the marking
subwords, replacing each by 1 0^K 1 and translating the remaining letters.

Convention note: the towers are attached so that each P-letter consumes one
roof-p column per time step and each q-column emits exactly one A-letter
(plus at most one deleted Q-letter), which is what makes the letterwise
decoding exact.  With the roof classes {r'=p} = [1] and {r' in [q,q+d]} = [0]
this forces the base of the P-tower onto [1] x {0} and the Q-tower onto
[0] x {0}, and the letter translation P -> 1, A -> 0.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from suspshift.quadratic import QuadraticReal, as_qr, pair_over, sign_surd
from suspshift.recode import ChainPoint, PreconditionFailed, RecodedFlow
from suspshift.subshifts import word_str
from suspshift.suspension import FlowPoint


class NoMarkersFound(Exception):
    pass


LETTER_P, LETTER_Q, LETTER_A = "P", "Q", "A"

# the largest sweep constant tried: a model needing more is refused rather
# than swept without end (the shipped sqrt(2) model needs 4)
M_CAP = 64


class GeneratorModel:
    """Time-t map data for t = p and alpha = q - p over a marked-binary recoded flow.

    The time-p walk of `name_of` runs on integers, in one pass.  `den` is
    the lcm of the denominators C of p, alpha and every atom duration; a
    walk from a height h takes L = lcm(den, C of h), so that each height on
    it is (x + y*sqrt(d))/L for integers x, y.  Adding a duration (or p) is
    two integer adds, and each test (h < 0, h >= roof, h < alpha) is the
    exact sign of x' + y'*sqrt(d) (`sign_surd`, comparing integer squares).
    The walk jumps once to time -2np and goes down the chain while h < 0;
    from there it only goes up: each forward step adds p, then walks up
    while h >= roof.  Nothing is rounded and no float is involved."""

    def __init__(self, marked_flow: RecodedFlow):
        if marked_flow.kind != "marked-binary":
            raise PreconditionFailed("generator model needs a marked-binary recoded flow")
        self.rf = marked_flow
        c = marked_flow.constants
        self.p, self.q = c["p"], c["q"]
        self.delta = c["delta"]
        self.M, self.K = c["M"], c["K"]
        self.alpha = self.q - self.p
        if self.alpha != self.delta:
            raise PreconditionFailed("generator model needs delta = q - p exactly")
        if not (as_qr(0) < self.alpha < self.p):
            raise PreconditionFailed("need 0 < alpha < p")
        if not (2 * self.alpha < self.p):
            # keeps every q-column at <= 2 letters per crossing, which the
            # marking-count discrimination relies on
            raise PreconditionFailed("need 2(q - p) < p for the letter budget")
        self.m_condition = self._m_condition_constant()
        self.max_emission = max(len(a.emission) for a in marked_flow.atoms)
        # the +-reach cover around each roof read fixes the order in which
        # a chain draws its atoms, and with it every sampled point
        self.reach = 2 * self.max_emission
        values = [self.p, self.alpha, *(r for a in marked_flow.atoms for r in a.durations)]
        self.den = math.lcm(*(v.C for v in values))
        # the radicand of the model, or None when it is all rational
        self.d = next((v.d for v in values if v.B), None)

    # -- the sweep constant: every phase reaches the low Q-tower ----------

    def _m_condition_constant(self) -> int:
        """Smallest M' such that for every s in [0, q) some 0 <= u < M',
        0 <= v <= u+1 give s + u p = v q + beta with beta in [0, alpha);
        exact interval-cover sweep over the breakpoints."""
        zero = as_qr(0)
        for m_try in range(1, M_CAP + 1):
            intervals = []
            for u in range(m_try):
                for v in range(u + 2):
                    lo = self.q * v - self.p * u
                    hi = lo + self.alpha
                    lo = lo if lo > zero else zero
                    hi = hi if hi < self.q else self.q
                    if lo < hi:
                        intervals.append((lo, hi))
            intervals.sort(key=lambda ab: ab[0])
            reach = zero
            for lo, hi in intervals:
                if lo > reach:
                    break
                if hi > reach:
                    reach = hi
            if reach >= self.q:
                return m_try
        raise PreconditionFailed("no sweep constant up to the cap")

    # -- flow points over the recoded base ---------------------------------

    def sample_point(self, seed: int) -> FlowPoint:
        rng = random.Random(seed)
        chain = ChainPoint(self.rf.automaton, rng)
        coord = rng.randrange(0, len(self.rf.atoms[chain.chain[0]].emission))
        chain.cover(coord - self.reach, coord + self.reach)
        roof = chain.roofs[coord - chain.offset]
        height = roof * Fraction(rng.randrange(0, 1000), 1001)
        return FlowPoint(chain, coord, height)

    # -- the integer walk ----------------------------------------------------

    def _integer_form(self, h: QuadraticReal):
        """(x, y, L, d) with h = (x + y*sqrt(d))/L and den | L."""
        d = h.d if self.d is None else self.d
        if h.B and h.d != d:
            raise ValueError(f"mixed radicands {d} and {h.d}")
        L = math.lcm(self.den, h.C)
        return (*pair_over(h, L), L, d)

    def _walk(self, pt: FlowPoint, n: int):
        """The name of `name_of` and the chain coordinate of its first P
        letter (None if it has none).  Each roof read first covers +-reach
        around its coordinate, as `sample_point` does, unless the coordinate
        lies in [lo, hi], where that cover would extend nothing.  The letter
        at k = 0 takes the walk up too: it reads, and so covers, the start
        coordinate when the jump needs no walk down."""
        if n < 1:
            raise ValueError("n must be positive")
        chain, reach = pt.oracle, self.reach
        symbols, roofs = chain.symbols, chain.roofs
        x, y, L, d = self._integer_form(pt.height)
        px, py = pair_over(self.p, L)
        ax, ay = pair_over(self.alpha, L)
        off = chain.offset
        lo, hi = off + reach, off + len(roofs) - reach
        coord, x, y = pt.index, x - 2 * n * px, y - 2 * n * py
        while sign_surd(x, y, d) < 0:
            coord -= 1
            if not lo <= coord <= hi:
                chain.cover(coord - reach, coord + reach)
                off = chain.offset
                lo, hi = off + reach, off + len(roofs) - reach
            r = roofs[coord - off]
            s = L // r.C
            x += r.A * s
            y += r.B * s
        letters, first = [], None
        for k in range(4 * n + 1):
            if k:
                x += px
                y += py
            while True:
                if not lo <= coord <= hi:
                    chain.cover(coord - reach, coord + reach)
                    off = chain.offset
                    lo, hi = off + reach, off + len(roofs) - reach
                r = roofs[coord - off]
                s = L // r.C
                rx, ry = r.A * s, r.B * s
                if sign_surd(x - rx, y - ry, d) < 0:
                    break
                x -= rx
                y -= ry
                coord += 1
            if symbols[coord - off] == 1:
                letters.append(LETTER_P)
                if first is None:
                    first = coord
            else:
                letters.append(LETTER_Q if sign_surd(x - ax, y - ay, d) < 0 else LETTER_A)
        return "".join(letters), first

    def name_of(self, pt: FlowPoint, n: int) -> str:
        """Tower letters of phi_{k p}(pt) for k in [-2n, 2n], exact.

        One pass: a single jump to time -2np, then 4n forward time-p steps,
        each letter read from the chain's symbols and the test h < alpha.
        The chain is read, and so materialized, exactly as by 2n single
        steps back of the time-p map followed by 4n single steps forward."""
        return self._walk(pt, n)[0]


def _marking_a_count(inner: str, k_param: int):
    """The A-count of the letters between two P letters if they form a
    marking (nonempty, Q and A only, K or K+1 A-letters), else None."""
    a_count = inner.count(LETTER_A)
    if a_count in (k_param, k_param + 1) and inner \
            and a_count + inner.count(LETTER_Q) == len(inner):
        return a_count
    return None


def decode_name(name: str, k_param: int) -> str:
    """Translate a tower name back to the base word it certifies.

    Marking subwords become 1 0^K 1; elsewhere each P becomes 1, each A
    becomes 0 and each Q is deleted (it shares its column with the following
    A).  Letters before the first P and after the last P are dropped, since
    their column groups may be cut by the window.  One pass over the letters
    between consecutive P letters.
    """
    out, markings = [], 0
    for inner in name.split(LETTER_P)[1:-1]:
        if _marking_a_count(inner, k_param) is None:
            out.append("1" + "0" * inner.count(LETTER_A))
        else:
            markings += 1
            out.append("1" + "0" * k_param)
    if markings < 2:
        raise NoMarkersFound("window too short: fewer than two marking subwords")
    out.append("1")
    return "".join(out)


def aligned_match(recovered: str, first: int, truth: str, start: int) -> bool:
    """True iff `recovered`, read as the base word from chain coordinate
    `first` on, holds `truth` at coordinate `start`."""
    offset = start - first
    return offset >= 0 and recovered.startswith(truth, offset)


def round_trip(model: GeneratorModel, pt: FlowPoint, n: int):
    """Exact end-to-end check: the decoded name, aligned at the chain
    coordinate of the name's first P letter, holds the true central base
    block at the point's own coordinate.

    `match` is this aligned test, not a substring test: a truth that occurs
    in the recovered word only at another position does not match.
    Returns (recovered, truth, match)."""
    name, first = model._walk(pt, n)
    recovered = decode_name(name, model.K)
    truth = word_str(pt.base_block(-n, n + 1))
    return recovered, truth, aligned_match(recovered, first, truth, pt.index - n)


def verify_succession(name: str) -> bool:
    """Every Q is immediately followed by an A (same column, one step up);
    a trailing Q is unconstrained since its follower is outside the window."""
    for a, b in zip(name, name[1:]):
        if a == LETTER_Q and b != LETTER_A:
            return False
    return True
