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

import random
from dataclasses import dataclass
from fractions import Fraction

from suspshift.quadratic import QuadraticReal, as_qr
from suspshift.recode import ChainPoint, PreconditionFailed, RecodedFlow
from suspshift.subshifts import Word, word_str


class NoMarkersFound(Exception):
    pass


LETTER_P, LETTER_Q, LETTER_A = "P", "Q", "A"


@dataclass(frozen=True)
class MarkingSpan:
    start: int  # index of the opening P letter
    end: int    # index of the closing P letter (inclusive)
    a_count: int


class GeneratorModel:
    """Time-t map data for t = p and alpha = q - p over a marked-binary recoded flow."""

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

    # -- the sweep constant: every phase reaches the low Q-tower ----------

    def _m_condition_constant(self, m_cap: int = 64) -> int:
        """Smallest M' such that for every s in [0, q) some 0 <= u < M',
        0 <= v <= u+1 give s + u p = v q + beta with beta in [0, alpha);
        exact interval-cover sweep over the breakpoints."""
        zero = as_qr(0)
        for m_try in range(1, m_cap + 1):
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

    def sample_point(self, seed: int) -> "ZFlowPoint":
        rng = random.Random(seed)
        chain = ChainPoint(self.rf.automaton, rng)
        coord = rng.randrange(0, len(self.rf.atoms[chain.chain[0]].emission))
        roof = self.roof_at(chain, coord)
        height = roof * Fraction(rng.randrange(0, 1000), 1001)
        return ZFlowPoint(chain, coord, height)

    def roof_at(self, chain: ChainPoint, coord: int) -> QuadraticReal:
        # the +-2*max_emission cover fixes the order in which the chain
        # draws its atoms, and with it every sampled point
        reach = 2 * self.max_emission
        chain.cover(coord - reach, coord + reach)
        return chain.roofs[coord - chain.offset]

    def _settle(self, chain: ChainPoint, coord: int, h: QuadraticReal):
        """Normalize height h over coord to the unique (coord', h') with
        0 <= h' < roof(coord'): walk the chain down while h < 0, else up
        while h >= roof.  A negative h must lie below roof(coord), as it
        does after a time shift back, since the walk down stops at h >= 0."""
        if h.sign() < 0:
            while h.sign() < 0:
                coord -= 1
                h = h + self.roof_at(chain, coord)
            return coord, h
        while h >= (r := self.roof_at(chain, coord)):
            h = h - r
            coord += 1
        return coord, h

    def step(self, pt: "ZFlowPoint") -> "ZFlowPoint":
        """Exact time-p map on the recoded suspension."""
        return ZFlowPoint(pt.chain, *self._settle(pt.chain, pt.coord, pt.height + self.p))

    def step_back(self, pt: "ZFlowPoint") -> "ZFlowPoint":
        return ZFlowPoint(pt.chain, *self._settle(pt.chain, pt.coord, pt.height - self.p))

    def _letter(self, chain: ChainPoint, coord: int, h: QuadraticReal) -> str:
        chain.cover(coord, coord + 1)
        if chain.symbols[coord - chain.offset] == 1:
            return LETTER_P
        return LETTER_Q if h < self.alpha else LETTER_A

    def letter(self, pt: "ZFlowPoint") -> str:
        return self._letter(pt.chain, pt.coord, pt.height)

    def name_of(self, pt: "ZFlowPoint", n: int) -> str:
        """Tower letters of phi_{k p}(pt) for k in [-2n, 2n], exact.

        One pass: a single jump to time -2np, then 4n forward time-p steps,
        each letter read from the chain's symbols and the test h < alpha.
        The chain is read, and so materialized, exactly as by 2n `step_back`
        calls followed by 4n `step` calls."""
        if n < 1:
            raise ValueError("n must be positive")
        chain, p, settle, letter = pt.chain, self.p, self._settle, self._letter
        coord, h = settle(chain, pt.coord, pt.height - 2 * n * p)
        letters = [letter(chain, coord, h)]
        for _ in range(4 * n):
            coord, h = settle(chain, coord, h + p)
            letters.append(letter(chain, coord, h))
        return "".join(letters)


@dataclass(frozen=True)
class ZFlowPoint:
    chain: ChainPoint
    coord: int
    height: QuadraticReal

    def base_block(self, i: int, j: int) -> Word:
        return self.chain.block(self.coord + i, self.coord + j)


def find_marking_subwords(name: str, k_param: int):
    """Maximal P..P blocks of tower letters whose A-count is K or K+1.

    These locate the marker returns: interior zero runs of the scheduling
    words give counts < K and the pre-marking run gives M + K > K + 1.
    """
    spans = []
    p_positions = [i for i, c in enumerate(name) if c == LETTER_P]
    for i, j in zip(p_positions, p_positions[1:]):
        inner = name[i + 1 : j]
        if inner and all(c in (LETTER_Q, LETTER_A) for c in inner):
            a_count = inner.count(LETTER_A)
            if a_count in (k_param, k_param + 1):
                spans.append(MarkingSpan(i, j, a_count))
    return spans


def decode_name(name: str, k_param: int) -> str:
    """Translate a tower name back to the base word it certifies.

    Marking subwords become 1 0^K 1; elsewhere each P becomes 1, each A
    becomes 0 and each Q is deleted (it shares its column with the following
    A).  Letters before the first P and after the last P are dropped, since
    their column groups may be cut by the window.
    """
    spans = find_marking_subwords(name, k_param)
    if len(spans) < 2:
        raise NoMarkersFound("window too short: fewer than two marking subwords")
    p_positions = [i for i, c in enumerate(name) if c == LETTER_P]
    marking_open = {s.start for s in spans}
    out = []
    for i, j in zip(p_positions, p_positions[1:]):
        out.append("1")
        inner = name[i + 1 : j]
        if i in marking_open and inner.count(LETTER_A) in (k_param, k_param + 1) \
                and all(c in (LETTER_Q, LETTER_A) for c in inner):
            out.append("0" * k_param)
        else:
            out.append("0" * inner.count(LETTER_A))
    out.append("1")
    return "".join(out)


def round_trip(model: GeneratorModel, pt: ZFlowPoint, n: int):
    """Exact end-to-end check: the true central base block is a factor of
    the decoded name.

    Returns (recovered, truth, match)."""
    name = model.name_of(pt, n)
    recovered = decode_name(name, model.K)
    truth = word_str(pt.base_block(-n, n + 1))
    return recovered, truth, truth in recovered


def verify_succession(name: str) -> bool:
    """Every Q is immediately followed by an A (same column, one step up);
    a trailing Q is unconstrained since its follower is outside the window."""
    for a, b in zip(name, name[1:]):
        if a == LETTER_Q and b != LETTER_A:
            return False
    return True
