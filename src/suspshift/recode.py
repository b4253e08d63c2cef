"""Cross-section recoding of suspension flows over aperiodic subshifts.

Three constructions, all driven by a certified marker word and exact
scheduling arithmetic in one quadratic field:

* near-constant roof: all return times within 2*eps of a target, steps drawn
  from the numerical semigroup of two consecutive integers over a common
  denominator;
* two-valued roof with remainder: return times exactly p, exactly q, or in
  (0, delta), the scheduling word of each marker atom carrying a balanced
  binary code of its base window;
* marked binary model: return times exactly p or in [q, q+delta], with a
  fixed low-density marking pattern locating the marker returns inside every
  sufficiently long window.

Every emitted schedule is checked, not trusted: step sums, remainder ranges
and code capacities are verified with exact comparisons at build time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from suspshift.markers import MarkerSet, occurrence_starts
from suspshift.quadratic import QuadraticReal, as_qr, rationally_independent
from suspshift.subshifts import (
    Cylinder,
    GeneratedSubshift,
    PointOracle,
    Subshift,
    Word,
    word_str,
)
from suspshift.suspension import SuspensionFlow


class PreconditionFailed(Exception):
    pass


class CapacityExceeded(Exception):
    pass


class InfeasibleSchedule(Exception):
    pass


class IndexOutOfRange(Exception):
    pass


class ConstraintViolated(Exception):
    pass


# ---------------------------------------------------------------------------
# remainder-gap arithmetic


@dataclass(frozen=True)
class GapResult:
    value: QuadraticReal | None  # None encodes an empty candidate set (D = infinity)
    k: int | None
    l: int | None


def d_gap(x, p, q, epsilon) -> GapResult:
    """Minimal x - (k p + l q) >= 0 over integers k >= 0, l >= 1 with
    1/(1+eps) <= k/l <= 1; exhaustive over the finite candidate set.

    Returns GapResult(None, None, None) when no pair qualifies.
    """
    x, p, q = as_qr(x), as_qr(p), as_qr(q)
    eps = Fraction(epsilon) if not isinstance(epsilon, Fraction) else epsilon
    if p.sign() <= 0 or q.sign() <= 0:
        raise ValueError("p, q must be positive")
    if not rationally_independent(p, q):
        raise ValueError("p, q must be rationally independent")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    best = None
    l = 1
    while (q * l) <= x:
        # ratio window: l/(1+eps) <= k <= l
        k_lo = max(0, _ceil_frac(Fraction(l), 1 + eps))
        for k in range(k_lo, l + 1):
            rem = x - (p * k + q * l)
            if rem.sign() < 0:
                continue
            if best is None or rem < best[0]:
                best = (rem, k, l)
        l += 1
    if best is None:
        return GapResult(None, None, None)
    return GapResult(*best)


def _ceil_frac(a: Fraction, b: Fraction) -> int:
    v = a / b
    return -((-v.numerator) // v.denominator)


def candidate_pairs(t_return, p, q, delta):
    """All (k, l, remainder) with k >= 0, l >= 1 and 0 < remainder < delta.

    For each l only k near floor((t - lq)/p) can land in (0, delta).
    """
    t, p, q, delta = as_qr(t_return), as_qr(p), as_qr(q), as_qr(delta)
    out = []
    l = 1
    while (q * l) <= t:
        budget = t - q * l
        k_top = (budget / p).floor()
        k = k_top
        while k >= 0:
            rem = budget - p * k
            if rem >= delta:
                break
            if rem.sign() > 0:
                out.append((k, l, rem))
            k -= 1
        l += 1
    return out


# ---------------------------------------------------------------------------
# balanced binary codes with rank/unrank


class BalancedCode:
    """Lexicographic rank/unrank over binary words of fixed length and
    weight, optionally with first=last=1 and a cap on interior zero runs.

    The run cap is only meaningful together with first=last=1 (every zero
    run is then interior, i.e. bracketed by ones).
    """

    def __init__(self, length: int, ones: int, first_last_one: bool = False,
                 max_interior_zero_run: int | None = None):
        if ones < 0 or ones > length:
            raise ValueError("bad weight")
        if max_interior_zero_run is not None and not first_last_one:
            raise ValueError("run cap requires first=last=1")
        if first_last_one and (ones < 2 or length < 2):
            raise ValueError("first=last=1 needs length >= 2 and at least two ones")
        self.length = length
        self.ones = ones
        self.first_last_one = first_last_one
        self.max_run = max_interior_zero_run
        self._counts = {}

    def satisfies(self, word: Word) -> bool:
        word = tuple(word)
        if len(word) != self.length or any(c not in (0, 1) for c in word):
            return False
        if sum(word) != self.ones:
            return False
        if self.first_last_one and (word[0] != 1 or word[-1] != 1):
            return False
        if self.max_run is not None:
            run = 0
            for c in word:
                run = run + 1 if c == 0 else 0
                if run > self.max_run:
                    return False
        return True

    def _allowed(self, pos: int, c: int, ones_left: int, run: int):
        """Whether symbol c may be placed at pos; returns the new run or None."""
        if c == 1:
            if ones_left == 0:
                return None
            return 0
        if self.first_last_one and pos in (0, self.length - 1):
            return None
        new_run = run + 1
        if self.max_run is not None and new_run > self.max_run:
            return None
        return new_run

    def _suffix_count(self, pos: int, ones_left: int, run: int) -> int:
        """Number of valid completions from `pos` with `ones_left` ones to
        place and current trailing zero run `run`."""
        remaining = self.length - pos
        if ones_left < 0 or ones_left > remaining:
            return 0
        if remaining == 0:
            return 1
        key = (pos, ones_left, run)
        if key not in self._counts:
            total = 0
            for c in (0, 1):
                new_run = self._allowed(pos, c, ones_left, run)
                if new_run is not None:
                    total += self._suffix_count(pos + 1, ones_left - c, new_run)
            self._counts[key] = total
        return self._counts[key]

    def count(self) -> int:
        return self._suffix_count(0, self.ones, 0)

    def unrank(self, index: int) -> Word:
        if not 0 <= index < self.count():
            raise IndexOutOfRange(f"index {index} not in [0, {self.count()})")
        word = []
        ones_left, run = self.ones, 0
        for pos in range(self.length):
            for c in (0, 1):
                new_run = self._allowed(pos, c, ones_left, run)
                if new_run is None:
                    continue
                cnt = self._suffix_count(pos + 1, ones_left - c, new_run)
                if index < cnt:
                    word.append(c)
                    ones_left -= c
                    run = new_run
                    break
                index -= cnt
            else:
                raise IndexOutOfRange("unrank walked off the code")
        return tuple(word)

    def rank(self, word: Word) -> int:
        word = tuple(word)
        if not self.satisfies(word):
            raise ConstraintViolated(f"word {word_str(word)} violates the code")
        index = 0
        ones_left, run = self.ones, 0
        for pos, sym in enumerate(word):
            for c in (0, 1):
                if c == sym:
                    break
                new_run = self._allowed(pos, c, ones_left, run)
                if new_run is not None:
                    index += self._suffix_count(pos + 1, ones_left - c, new_run)
            run = self._allowed(pos, sym, ones_left, run)
            ones_left -= sym
        return index


# ---------------------------------------------------------------------------
# marker atoms: one per admissible window between consecutive marker hits


@dataclass
class MarkerAtom:
    index: int
    key: Word            # admissible word over [-m, n+m) with the marker at 0
    n_word: Word         # key restricted to [0, n): the code input
    gap: int             # distance to the next marker occurrence
    t_return: QuadraticReal  # exact roof sum over [0, gap)
    k: int = 0           # scheduled p-steps
    l: int = 0           # scheduled q-steps (counting the remainder slot)
    remainder: QuadraticReal | None = None
    code_word: Word = ()
    emission: Word = ()  # Z-symbols, one per section piece
    offsets: list = field(default_factory=list)   # piece heights above the marker hit
    columns: list = field(default_factory=list)   # base column of each piece
    durations: list = field(default_factory=list) # exact return time of each piece


def build_atoms(flow: SuspensionFlow, marker: MarkerSet, n: int):
    """Enumerate the marker atoms: cylinders refining the n-window partition
    on the marker base, each with its exact first-return time."""
    base, roof = flow.base, flow.roof
    m = roof.m
    lw = len(marker.word)
    if n < marker.spectrum.max_gap + lw:
        raise PreconditionFailed(
            f"coding window n={n} must reach past the largest marker gap "
            f"({marker.spectrum.max_gap}+{lw})"
        )
    if marker.scan_depth < n + 2 * m:
        raise PreconditionFailed(
            "marker certificate depth is below the coding window; rescan deeper"
        )
    marker_s = word_str(marker.word)
    atoms = []
    for w in sorted(base.language(n + 2 * m)):
        # coordinates: key[i] is base coordinate i - m
        if w[m : m + lw] != marker.word:
            continue
        rest = word_str(w[m + 1 :])
        pos = rest.find(marker_s)
        if pos == -1:
            continue  # next occurrence out of window: excluded by n choice
        gap = pos + 1
        if gap + lw > n:
            raise PreconditionFailed("marker gap escapes the coding window")
        t = as_qr(0)
        for i in range(gap):
            t = t + roof.value_of_word(w[i : i + 2 * m + 1])
        atoms.append(
            MarkerAtom(
                index=len(atoms),
                key=w,
                n_word=w[m : m + n],
                gap=gap,
                t_return=t,
            )
        )
    if not atoms:
        raise PreconditionFailed("no marker atoms found")
    return atoms


def atom_transitions(flow: SuspensionFlow, atoms):
    """successors[i] = indices j such that atom j can follow atom i, certified
    by exact admissibility of the merged base word."""
    base = flow.base
    m = flow.roof.m
    succ = {a.index: [] for a in atoms}
    for a in atoms:
        for b in atoms:
            # b's window starts at base coordinate a.gap
            lo_b = a.gap - m
            merged = list(a.key)
            ok = True
            for i, c in enumerate(b.key):
                coord = lo_b + i + m  # index into merged (anchored at -m)
                if coord < len(merged):
                    if merged[coord] != c:
                        ok = False
                        break
                else:
                    merged.append(c)
            if ok and base.admissible(tuple(merged)):
                succ[a.index].append(b.index)
    for a in atoms:
        if not succ[a.index]:
            raise PreconditionFailed(f"atom {a.index} has no successor")
    return succ


class AtomAutomaton:
    """Concatenation system of per-atom emissions along admissible atom
    chains; the recoded subshift's language and orbits both come from here."""

    def __init__(self, atoms, successors, alphabet_size: int):
        self.atoms = atoms
        self.successors = successors
        self.predecessors = {a.index: [] for a in atoms}
        for i, outs in successors.items():
            for j in outs:
                self.predecessors[j].append(i)
        self.alphabet_size = alphabet_size

    def language_source(self, n: int):
        """All length-n windows readable along atom chains."""
        # states: (atom index, position inside its emission)
        out = set()
        seen = {}

        def walk(state, budget):
            key = (state, budget)
            if key in seen:
                return seen[key]
            ai, pos = state
            emission = self.atoms[ai].emission
            if budget == 0:
                return {()}
            sym = emission[pos]
            nxt = []
            if pos + 1 < len(emission):
                nxt = [(ai, pos + 1)]
            else:
                nxt = [(j, 0) for j in self.successors[ai]]
            words = set()
            for s2 in nxt:
                for tail in walk(s2, budget - 1):
                    words.add((sym,) + tail)
            seen[key] = words
            return words

        for a in self.atoms:
            for pos in range(len(a.emission)):
                out |= walk((a.index, pos), n)
        return out

    def subshift(self, window: int, label: str) -> GeneratedSubshift:
        return GeneratedSubshift(self.alphabet_size, self.language_source, window, label)

    def longest_stretch_avoiding(self, pattern: Word) -> int | None:
        """Exact longest run of emitted symbols containing no occurrence of
        `pattern`, via the product with the pattern's KMP automaton.

        None means unbounded (an avoiding cycle exists).
        """
        fail = _kmp_failure(pattern)
        plen = len(pattern)

        def kmp_step(state, sym):
            while state and (state == plen or pattern[state] != sym):
                state = fail[state - 1]
            if pattern[state] == sym:
                state += 1
            return state

        # graph nodes: (atom, pos, kmp state), edges emit one symbol; drop
        # edges that complete the pattern
        nodes = {}
        for a in self.atoms:
            for pos in range(len(a.emission)):
                for st in range(plen):
                    nodes[(a.index, pos, st)] = []
        for (ai, pos, st) in nodes:
            emission = self.atoms[ai].emission
            sym = emission[pos]
            st2 = kmp_step(st, sym)
            if st2 == plen:
                continue  # pattern completed: this edge leaves the avoid-graph
            if pos + 1 < len(emission):
                nodes[(ai, pos, st)].append((ai, pos + 1, st2))
            else:
                for j in self.successors[ai]:
                    nodes[(ai, pos, st)].append((j, 0, st2))
        # longest path in the avoid-graph (iterative three-color DFS; a cycle
        # means unbounded avoiding stretches)
        color = {}
        depth = {}
        for root in list(nodes):
            if root in depth:
                continue
            stack = [(root, iter(nodes[root]))]
            color[root] = 1
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    if color.get(v) == 1:
                        return None
                    if v not in depth:
                        color[v] = 1
                        stack.append((v, iter(nodes[v])))
                        advanced = True
                        break
                if not advanced:
                    depth[u] = max((1 + depth[v] for v in nodes[u]), default=0)
                    color[u] = 2
                    stack.pop()
        return max(depth.values(), default=0)


def _kmp_failure(pattern: Word):
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[k] != pattern[i]:
            k = fail[k - 1]
        if pattern[k] == pattern[i]:
            k += 1
        fail[i] = k
    return fail


class ChainPoint(PointOracle):
    """Bi-infinite recoded point built lazily from a seeded atom chain.

    Coordinate 0 sits at the start of the seed atom's emission.  `symbols`
    holds the Z-symbols of the materialized chain from coordinate `offset`
    on, and `roofs` holds, in step with it, each symbol's exact return time
    (its atom's `durations`), so a roof read is one index.  `cover(lo, hi)`
    draws atoms from the shared rng, on the left first and then on the
    right, until [lo, hi) is materialized.
    """

    def __init__(self, automaton: AtomAutomaton, rng: random.Random,
                 seed_atom: int | None = None):
        self.aut = automaton
        self.rng = rng
        a0 = seed_atom if seed_atom is not None else rng.randrange(len(automaton.atoms))
        self.chain = [a0]            # atom indices, chain[0] starts at coordinate 0
        self.symbols = list(automaton.atoms[a0].emission)
        self.roofs = list(automaton.atoms[a0].durations)
        self.offset = 0              # coordinate of symbols[0]

    def _extend_right(self):
        last = self.chain[-1]
        nxt = self.rng.choice(self.aut.successors[last])
        self.chain.append(nxt)
        atom = self.aut.atoms[nxt]
        self.symbols.extend(atom.emission)
        self.roofs.extend(atom.durations)

    def _extend_left(self):
        first = self.chain[0]
        prev = self.rng.choice(self.aut.predecessors[first])
        self.chain.insert(0, prev)
        atom = self.aut.atoms[prev]
        self.symbols[0:0] = atom.emission
        self.roofs[0:0] = atom.durations
        self.offset -= len(atom.emission)

    def cover(self, lo: int, hi: int):
        """Materialize coordinates [lo, hi)."""
        while lo < self.offset:
            self._extend_left()
        while hi > self.offset + len(self.symbols):
            self._extend_right()

    def block(self, i, j):
        self.cover(i, j)
        return tuple(self.symbols[i - self.offset : j - self.offset])


# ---------------------------------------------------------------------------
# schedules and the recoded flow


def _schedule_atom(atom: MarkerAtom, roof, m: int, symbol_durations):
    """Fill offsets/columns/durations from atom.emission; verify the step sum
    and height bounds exactly."""
    w = atom.key
    col_bounds = [as_qr(0)]
    for c in range(atom.gap):
        col_bounds.append(col_bounds[-1] + roof.value_of_word(w[c : c + 2 * m + 1]))
    offsets, columns, durations = [], [], []
    t = as_qr(0)
    col = 0
    for j, sym in enumerate(atom.emission):
        while col + 1 < len(col_bounds) and col_bounds[col + 1] <= t:
            col += 1
        if t < col_bounds[col] or (col + 1 < len(col_bounds) and t >= col_bounds[col + 1]):
            raise InfeasibleSchedule("offset escaped its column")
        offsets.append(t)
        columns.append(col)
        d = symbol_durations(atom, j, sym)
        durations.append(d)
        t = t + d
    if t != atom.t_return:
        raise InfeasibleSchedule("schedule does not sum to the return time")
    atom.offsets, atom.columns, atom.durations = offsets, columns, durations


@dataclass
class RecodedFlow:
    """Output of a recoding construction: the generated subshift Z with its
    roof classes, the cross-section realizing the conjugacy, and
    finite-window encode/decode maps."""

    kind: str
    flow: SuspensionFlow
    marker: MarkerSet
    n: int
    constants: dict
    atoms: list
    automaton: AtomAutomaton
    Z: GeneratedSubshift
    n_words: list            # sorted language(n) of the base; code index space
    codes: dict              # parameter tuple -> BalancedCode
    ratio_relaxed: bool = False

    # -- structural data ------------------------------------------------

    def atom_by_key(self, key: Word) -> MarkerAtom:
        return self._atom_table[tuple(key)]

    def finish(self):
        self._atom_table = {tuple(a.key): a for a in self.atoms}
        self._n_word_rank = {w: i for i, w in enumerate(self.n_words)}
        return self

    def section(self):
        """The cross-section as explicit (cylinder, offset) pieces."""
        return _atoms_section(self.flow, self.atoms, self.n, self.kind)

    def tower_partition(self):
        """The section pieces labeled by their return-time class: the
        generating partition of the recoded system."""
        from suspshift.suspension import TowerPartition

        q = self.constants["q"]
        labels = []
        for a in self.atoms:
            for sym, d in zip(a.emission, a.durations):
                if self.kind == "two-valued":
                    labels.append({1: "p", 0: "q", 2: "remainder"}[sym])
                else:
                    labels.append("p" if sym == 1 else ("marker" if d > q else "q"))
        return TowerPartition(self.section(), tuple(labels))

    # -- orbit machinery --------------------------------------------------

    def marker_starts(self, oracle: PointOracle, lo: int, hi: int):
        text = word_str(oracle.block(lo, hi))
        return [lo + i for i in occurrence_starts(text, word_str(self.marker.word))]

    def atom_at(self, oracle: PointOracle, start: int) -> MarkerAtom:
        m = self.flow.roof.m
        key = tuple(oracle.block(start - m, start + self.n + m))
        return self.atom_by_key(key)

    def return_census(self, oracle: PointOracle, start: int, count: int):
        """Exact (class, time) pairs for `count` consecutive section returns
        along the orbit over `oracle`, beginning at the first marker hit at
        or after base coordinate `start`."""
        reach = self.marker.spectrum.max_gap + len(self.marker.word) + 1
        starts = self.marker_starts(oracle, start, start + reach)
        if not starts:
            raise PreconditionFailed("marker not found within its certified gap")
        pos = starts[0]
        out = []
        while len(out) < count:
            atom = self.atom_at(oracle, pos)
            for sym, d in zip(atom.emission, atom.durations):
                out.append((sym, d))
                if len(out) == count:
                    break
            pos += atom.gap
        return out

    def sample_point(self, seed: int) -> ChainPoint:
        return ChainPoint(self.automaton, random.Random(seed))

    def return_census_positions(self, chain_point: ChainPoint, lo: int, hi: int):
        """(Z-coordinate, symbol, exact return time) for each section piece
        of a sampled recoded point with coordinate in [lo, hi)."""
        chain_point.cover(lo - max(len(a.emission) for a in self.atoms), hi)
        off, syms, roofs = chain_point.offset, chain_point.symbols, chain_point.roofs
        return [(pos, syms[pos - off], roofs[pos - off]) for pos in range(lo, hi)]

    # -- encode / decode ---------------------------------------------------

    def encode(self, flow_point, radius: int):
        """Map a flow point of the source suspension to (Z-window of the
        given radius, height above the current piece); exact."""
        oracle, i0, h = flow_point.oracle, flow_point.index, flow_point.height
        m = self.flow.roof.m
        reach = self.marker.spectrum.max_gap + len(self.marker.word) + 1
        starts = self.marker_starts(oracle, i0 - reach, i0 + 1)
        starts = [s for s in starts if s <= i0]
        if not starts:
            raise PreconditionFailed("no marker hit before the point")
        j0 = starts[-1]
        elapsed = h
        for c in range(j0, i0):
            elapsed = elapsed + self.flow.roof.value_at(oracle, c)
        atom0 = self.atom_at(oracle, j0)
        piece = max(
            idx for idx, t in enumerate(atom0.offsets) if t <= elapsed
        )
        z_height = elapsed - atom0.offsets[piece]
        # walk atoms left and right of j0 to cover the window
        syms = list(atom0.emission)
        center = piece
        left = j0
        while center < radius:
            prev = self.marker_starts(oracle, left - reach, left)
            prev = [s for s in prev if s < left]
            if not prev:
                raise PreconditionFailed("marker chain broke on the left")
            left = prev[-1]
            em = self.atom_at(oracle, left).emission
            syms[0:0] = em
            center += len(em)
        right = j0 + atom0.gap
        while len(syms) - center - 1 < radius:
            atom_r = self.atom_at(oracle, right)
            syms.extend(atom_r.emission)
            right += atom_r.gap
        window = tuple(syms[center - radius : center + radius + 1])
        center_base = j0 + atom0.columns[piece]
        return window, z_height, center_base

    def globality_bound(self) -> QuadraticReal:
        """Flow duration within which every orbit must hit the section: the
        marker coverage constant times the largest roof value."""
        horizon = self.marker.coverage_k + len(self.marker.word) + 1
        return self.flow.roof.max_value * horizon

    def to_json(self) -> dict:
        """Constants, schedule tables and code parameters; enough to audit
        the construction (the subshift itself regenerates from the flow and
        marker data)."""
        consts = {}
        for key, val in self.constants.items():
            if isinstance(val, QuadraticReal):
                consts[key] = val.to_json()
            elif isinstance(val, Fraction):
                consts[key] = str(val)
            elif isinstance(val, tuple):
                consts[key] = word_str(val)
            else:
                consts[key] = val
        return {
            "kind": self.kind,
            "marker": self.marker.certificate(),
            "constants": consts,
            "codes": [
                {"length": c.length, "ones": c.ones, "count": c.count(),
                 "first_last_one": c.first_last_one, "max_run": c.max_run}
                for c in self.codes.values()
            ],
            "atoms": [
                {
                    "key": word_str(a.key),
                    "gap": a.gap,
                    "return_time": a.t_return.to_json(),
                    "k": a.k,
                    "l": a.l,
                    "remainder": a.remainder.to_json(),
                    "code_word": word_str(a.code_word),
                    "emission": word_str(a.emission),
                }
                for a in self.atoms
            ],
        }

    def certified_encode_radius(self, block_radius: int) -> int:
        """Z-window radius guaranteeing that decode(encode(.)) covers the
        central base block of the given radius: enough complete atoms to span
        the block plus one possibly-partial atom on each side."""
        max_em = max(len(a.emission) for a in self.atoms)
        min_gap = min(a.gap for a in self.atoms)
        atoms_needed = 2 + (block_radius + min_gap - 1) // min_gap
        return max_em * (atoms_needed + 1)

    # decoding -----------------------------------------------------------

    def _segment_window(self, window: Word):
        """Complete atom emissions inside the window, as (start, body) pairs."""
        if self.kind == "two-valued":
            marks = [i for i, c in enumerate(window) if c == 2]
            return [
                (a + 1, tuple(window[a + 1 : b + 1]))
                for a, b in zip(marks, marks[1:])
            ]
        pat = self.constants["pattern"]
        occ = occurrence_starts(word_str(window), word_str(pat))
        atom_starts = [o + len(pat) - 1 for o in occ]
        return [
            (a, tuple(window[a:b])) for a, b in zip(atom_starts, atom_starts[1:])
        ]

    def _decode_body(self, body: Word) -> MarkerAtom:
        if self.kind == "two-valued":
            k = sum(1 for c in body if c == 1)
            w = body[:2 * k]
            code = self.codes.get((2 * k, k))
            if code is None:
                raise ConstraintViolated(f"no code with parameters (2k={2*k})")
            n_word = self.n_words[code.rank(w)]
        else:
            tail = self.constants["M"] + 2 * self.constants["K"] + 1
            w = body[: len(body) - tail]
            code = self.codes.get((len(w), sum(w)))
            if code is None:
                raise ConstraintViolated("no code with these parameters")
            n_word = self.n_words[code.rank(w)]
        atom = self.atom_by_key(n_word)
        if atom.emission != tuple(body):
            raise ConstraintViolated("decoded atom does not reproduce its body")
        return atom

    def decode(self, window: Word):
        """Invert a Z-window to the base block it certifies.

        Returns (base_word, center_index): base_word[center_index] is the
        base symbol under the window's central piece.  Needs a window-0 roof
        (the atom key is then its n-word).
        """
        if self.flow.roof.m != 0:
            raise PreconditionFailed("finite-window decoding needs a window-0 roof")
        center = len(window) // 2
        segments = self._segment_window(window)
        if not segments:
            raise PreconditionFailed("no complete atom inside the window")
        decoded = []
        for s, body in segments:
            decoded.append((s, self._decode_body(body)))
        # adjacency of complete segments
        for (s1, a1), (s2, _) in zip(decoded, decoded[1:]):
            if s1 + len(a1.emission) != s2:
                raise ConstraintViolated("atom segments are not contiguous")
        base = {}
        marker_pos = 0
        center_rel = None
        for s, atom in decoded:
            for j, c in enumerate(atom.n_word):
                if base.get(marker_pos + j, c) != c:
                    raise ConstraintViolated("overlapping atom words disagree")
                base[marker_pos + j] = c
            if s <= center < s + len(atom.emission):
                center_rel = marker_pos + atom.columns[center - s]
            marker_pos += atom.gap
        if center_rel is None:
            raise PreconditionFailed(
                "window radius too small: center not inside a complete atom"
            )
        lo, hi = min(base), max(base)
        base_word = tuple(base[i] for i in range(lo, hi + 1))
        return base_word, center_rel - lo


def _roof_prefix(atom: MarkerAtom, roof, m: int, col: int):
    t = as_qr(0)
    for c in range(col):
        t = t + roof.value_of_word(atom.key[c : c + 2 * m + 1])
    return t


def _atoms_section(flow: SuspensionFlow, atoms, validity_depth: int, kind: str):
    """Scheduled offsets of every atom as explicit (cylinder, height) pieces."""
    from suspshift.suspension import CrossSection

    m = flow.roof.m
    pieces = []
    for a in atoms:
        for t, col in zip(a.offsets, a.columns):
            height = t - _roof_prefix(a, flow.roof, m, col)
            pieces.append((Cylinder(a.key, -m - col), height))
    return CrossSection(pieces, validity_depth=validity_depth, meta={"kind": kind})


# ---------------------------------------------------------------------------
# entropy guard shared by the recoders


def _base_entropy_bound(base: Subshift, horizon: int = 48) -> float:
    from suspshift.subshifts import topological_entropy

    exact = base.entropy_exact() if hasattr(base, "entropy_exact") else None
    if exact is not None:
        return exact
    return topological_entropy(base, horizon=horizon)


def _check_flow_entropy(flow: SuspensionFlow, p, q):
    """h_top of the suspension is at most h_top(base)/min(roof); require that
    this is below 2 log 2 / (p + q)."""
    h_base = _base_entropy_bound(flow.base)
    bound = h_base / float(flow.roof.min_value)
    limit = 2 * math.log(2) / float(as_qr(p) + as_qr(q))
    if bound >= limit:
        raise PreconditionFailed(
            f"flow entropy bound {bound:.4f} >= 2 log2/(p+q) = {limit:.4f}"
        )


def _recode_start(flow: SuspensionFlow, marker: MarkerSet, p, q, n: int | None):
    """Entropy guard, then the coding window n (default: past the largest
    marker gap), its atoms and the sorted base language(n)."""
    _check_flow_entropy(flow, p, q)
    if n is None:
        n = marker.spectrum.max_gap + len(marker.word)
    return n, build_atoms(flow, marker, n), sorted(flow.base.language(n))


# ---------------------------------------------------------------------------
# the two-valued recoding (return times exactly p, exactly q, or in (0, delta))


def recode_two_valued(flow: SuspensionFlow, marker: MarkerSet, p, q, epsilon, delta,
               n: int | None = None, z_window: int = 64) -> RecodedFlow:
    p, q, delta = as_qr(p), as_qr(q), as_qr(delta)
    eps = Fraction(epsilon)
    if not rationally_independent(p, q):
        raise PreconditionFailed("rational independence violated: p/q is rational")
    if not (0 < eps):
        raise PreconditionFailed("epsilon must be positive")
    if not (as_qr(0) < delta < min(p, q)):
        raise PreconditionFailed("need 0 < delta < min(p, q)")
    n, atoms, n_words = _recode_start(flow, marker, p, q, n)
    lang_count = len(n_words)

    relaxed_any = False
    for atom in atoms:
        pair = _choose_two_valued_pair(atom.t_return, p, q, delta, eps)
        if pair is None:
            raise PreconditionFailed(
                f"no (k,l) with 0 < T - kp - lq < delta for atom gap {atom.gap} "
                f"(T = {float(atom.t_return):.6f})"
            )
        atom.k, atom.l, atom.remainder, relaxed = pair
        relaxed_any = relaxed_any or relaxed
        if math.comb(2 * atom.k, atom.k) < lang_count:
            raise CapacityExceeded(
                f"|language({n})| = {lang_count} > C({2*atom.k},{atom.k}); raise n"
            )

    codes = {}
    for atom in atoms:
        params = (2 * atom.k, atom.k)
        if params not in codes:
            codes[params] = BalancedCode(2 * atom.k, atom.k)
        code = codes[params]
        w = code.unrank(n_words.index(atom.n_word))
        atom.code_word = w
        atom.emission = w + (0,) * (atom.l - atom.k) + (2,)

        def durations(a, j, sym, _p=p, _q=q):
            return _p if sym == 1 else (_q if sym == 0 else a.remainder)

        _schedule_atom(atom, flow.roof, flow.roof.m, durations)
        if not (as_qr(0) < atom.remainder < delta):
            raise InfeasibleSchedule("remainder escaped (0, delta)")

    automaton = AtomAutomaton(atoms, atom_transitions(flow, atoms), alphabet_size=3)
    return RecodedFlow(
        kind="two-valued", flow=flow, marker=marker, n=n,
        constants={"p": p, "q": q, "delta": delta, "epsilon": eps, "n": n},
        atoms=atoms, automaton=automaton,
        Z=automaton.subshift(z_window, "two-valued"),
        n_words=n_words, codes=codes, ratio_relaxed=relaxed_any,
    ).finish()


def _choose_two_valued_pair(t_return, p, q, delta, eps):
    """Smallest-remainder (k, l) with 0 < T - kp - lq < delta, k <= l, and the
    q-class frequency guard l/(k+l+1) <= 1/2 + eps.

    Pairs meeting the stricter ratio 1/(1+eps) <= k/l are preferred; when
    only the frequency guard can be met the relaxation is flagged.
    """
    pairs = candidate_pairs(t_return, p, q, delta)
    strict, relaxed = [], []
    for k, l, rem in pairs:
        if k < 1 or k > l:
            continue
        # frequency guard: l (1/2 - eps) <= (k + 1)(1/2 + eps)
        if Fraction(l) * (Fraction(1, 2) - eps) > (k + 1) * (Fraction(1, 2) + eps):
            continue
        if Fraction(l) <= Fraction(k) * (1 + eps):
            strict.append((rem, l, k))
        else:
            relaxed.append((rem, l, k))
    if strict:
        rem, l, k = min(strict)
        return k, l, rem, False
    if relaxed:
        rem, l, k = min(relaxed)
        return k, l, rem, True
    return None


# ---------------------------------------------------------------------------
# the marked binary recoding (return times exactly p or in [q, q + delta])


def recode_marked_binary(flow: SuspensionFlow, marker: MarkerSet, p, q, M: int, delta,
               n: int | None = None, K: int | None = None, k_max: int = 8,
               z_window: int = 64) -> RecodedFlow:
    p, q, delta = as_qr(p), as_qr(q), as_qr(delta)
    if not rationally_independent(p, q):
        raise PreconditionFailed("rational independence violated: p/q is rational")
    if not p < q:
        raise PreconditionFailed("need p < q")
    if M < 2:
        raise PreconditionFailed("need M >= 2")
    if delta.sign() <= 0:
        raise PreconditionFailed("need delta > 0")
    n, atoms, n_words = _recode_start(flow, marker, p, q, n)
    lang_count = len(n_words)

    k_candidates = [K] if K is not None else list(range(2, k_max + 1))
    chosen = None
    for kk in k_candidates:
        plan = _plan_marked(atoms, p, q, delta, M, kk, lang_count)
        if plan is not None:
            chosen = (kk, plan)
            break
    if chosen is None:
        raise CapacityExceeded(
            f"no K in {k_candidates} schedules all atoms; raise n or adjust (p,q,delta)"
        )
    kk, plan = chosen
    pattern = (0,) * (M + kk) + (1,) + (0,) * kk + (1,)

    codes = {}
    for atom in atoms:
        k, l, rem = plan[atom.index]
        atom.k, atom.l, atom.remainder = k, l, rem
        ones = k - 1
        length = (k - 1) + (l - M - 2 * kk)
        params = (length, ones)
        if params not in codes:
            codes[params] = BalancedCode(
                length, ones, first_last_one=True, max_interior_zero_run=kk - 1
            )
        w = codes[params].unrank(n_words.index(atom.n_word))
        atom.code_word = w
        atom.emission = w + (0,) * (M + kk) + (1,) + (0,) * kk

        def durations(a, j, sym, _p=p, _q=q):
            if sym == 1:
                return _p
            if j == len(a.emission) - 1:
                return a.remainder + _q  # the marker return, in (q, q+delta)
            return _q

        _schedule_atom(atom, flow.roof, flow.roof.m, durations)
        last = atom.durations[-1]
        if not (q < last < q + delta):
            raise InfeasibleSchedule("marker return escaped (q, q+delta)")

    automaton = AtomAutomaton(atoms, atom_transitions(flow, atoms), alphabet_size=2)
    return RecodedFlow(
        kind="marked-binary", flow=flow, marker=marker, n=n,
        constants={"p": p, "q": q, "delta": delta, "M": M, "K": kk, "n": n,
                   "pattern": pattern},
        atoms=atoms, automaton=automaton,
        Z=automaton.subshift(z_window, "marked-binary"),
        n_words=n_words, codes=codes,
    ).finish()


def marked_pair(t_return, p, q, delta, M, K, lang_count):
    """The marked-binary (k, l, remainder) for one return time at this K,
    or None: the first candidate pair whose code word has room for the
    markings and at least lang_count words."""
    for k, l, rem in sorted(candidate_pairs(t_return, p, q, delta),
                            key=lambda t: (t[2], t[1], t[0])):
        if k < 3 or l < M + 2 * K:
            continue
        zeros = l - M - 2 * K
        ones = k - 1
        if zeros > (ones - 1) * (K - 1):
            continue  # interior runs cannot absorb the zeros
        code = BalancedCode(ones + zeros, ones, first_last_one=True,
                            max_interior_zero_run=K - 1)
        if code.count() >= lang_count:
            return k, l, rem
    return None


def _plan_marked(atoms, p, q, delta, M, K, lang_count):
    """Per-atom (k, l, remainder) for the marked-binary layout at this K, or None."""
    plan = {}
    for atom in atoms:
        got = marked_pair(atom.t_return, p, q, delta, M, K, lang_count)
        if got is None:
            return None
        plan[atom.index] = got
    return plan


# ---------------------------------------------------------------------------
# the near-constant-roof recoding


def recode_near_constant(flow: SuspensionFlow, marker: MarkerSet, epsilon,
               h_top: float | None = None, target_a=None, n: int | None = None,
               z_window: int = 40):
    """Cross-section with all return times within 2*epsilon of the target
    a = log 2 / h_top + epsilon (or the supplied target for zero-entropy
    bases), stepped through the numerical semigroup of [Na], [Na]+1 over the
    denominator N > 3/epsilon.  The final symbol embedding is out of scope;
    the itinerary system is returned with an entropy certificate.
    """
    eps = Fraction(epsilon)
    if eps <= 0:
        raise PreconditionFailed("epsilon must be positive")
    if (h_top is None) == (target_a is None):
        raise PreconditionFailed("give exactly one of h_top, target_a")
    if h_top is not None:
        if h_top <= 0:
            raise PreconditionFailed(
                "h_top must be positive; zero-entropy callers supply target_a"
            )
        a = Fraction(math.log(2) / h_top).limit_denominator(10**6) + eps
    else:
        a = Fraction(target_a) if not isinstance(target_a, Fraction) else target_a
        a = a + eps
    big_n = int(3 / eps) + 1
    m_int = int(big_n * a)  # [N a]
    if m_int < 2:
        raise PreconditionFailed("target too small for the step grid")
    step_a = Fraction(m_int, big_n)
    step_b = Fraction(m_int + 1, big_n)

    if n is None:
        n = marker.spectrum.max_gap + len(marker.word)
    atoms = build_atoms(flow, marker, n)
    threshold = m_int * (m_int - 1)  # Frobenius bound for {m, m+1}
    for atom in atoms:
        scaled = atom.t_return * big_n
        r_int = (scaled + Fraction(1, 2)).floor()
        if r_int <= threshold:
            raise InfeasibleSchedule(
                f"marker return {float(atom.t_return):.3f} below the "
                f"semigroup threshold {threshold}/{big_n}"
            )
        s, rem = divmod(r_int, m_int)
        k, l = s - rem, rem
        if k < 0:
            raise InfeasibleSchedule("no representation k[Na] + l([Na]+1)")
        atom.k, atom.l = k, l
        atom.emission = (0,) * k + (1,) * l if l else (0,) * k
        atom.remainder = atom.t_return - (step_a * k + step_b * (l - 1) if l else
                                          step_a * (k - 1))

        def durations(at, j, sym, _a=step_a, _b=step_b):
            if j == len(at.emission) - 1:
                return at.remainder
            return _a if sym == 0 else _b

        _schedule_atom(atom, flow.roof, flow.roof.m, durations)
        # every return time within 2 eps of the target
        for d in atom.durations:
            if abs(float(d) - float(a - eps)) >= 2 * float(eps):
                raise InfeasibleSchedule("a return time strayed beyond 2*epsilon")

    succ = atom_transitions(flow, atoms)
    automaton = AtomAutomaton(atoms, succ, alphabet_size=2)
    itinerary = automaton.subshift(z_window, "itinerary")
    section = _atoms_section(flow, atoms, n, "near-constant")
    report = {
        "target": float(a - eps),
        "epsilon": float(eps),
        "grid_n": big_n,
        "steps": (step_a, step_b),
        "pieces": len(section),
    }
    return section, itinerary, report, automaton


# ---------------------------------------------------------------------------
# marker search driven by gap feasibility


def find_marker_with_feasible_gaps(flow: SuspensionFlow, gap_ok, max_word_len: int,
                                   depth: int, sample_len: int | None = None) -> MarkerSet:
    """Search marker words (increasing length, lexicographic) whose entire
    certified gap spectrum satisfies gap_ok(gap, exact_return_time).

    Candidates are screened against one long sampled text, then the winner is
    certified by the exhaustive scans.  Needs a window-0 roof so the return
    time of a gap-g atom is the exact g-step roof sum along the text.
    """
    from suspshift.markers import return_spectrum, verify_coverage

    base, roof = flow.base, flow.roof
    if roof.m != 0:
        raise PreconditionFailed("gap-driven marker search needs a window-0 roof")
    if sample_len is None:
        sample_len = 6 * depth
    sample = _long_sample_word(base, sample_len)
    text = word_str(sample)

    def screen(word):
        starts = occurrence_starts(text, word_str(word))
        if len(starts) < 3:
            return None
        gaps = sorted({b - a for a, b in zip(starts, starts[1:])})
        return gaps

    for length in range(1, max_word_len + 1):
        for w in sorted(base.language(length)):
            gaps = screen(w)
            if gaps is None:
                continue
            if not all(gap_ok(g, _gap_return_time(roof, sample, text, word_str(w), g))
                       for g in gaps):
                continue
            spec = return_spectrum(base, w, depth)
            if spec.max_gap is None or not spec.min_is_exact:
                continue
            cert_gaps = sorted(spec.gap_counts)
            ok = all(
                gap_ok(g, _gap_return_time(roof, sample, text, word_str(w), g))
                for g in cert_gaps
            )
            if not ok:
                continue
            k = spec.first_start_max
            if not verify_coverage(base, w, k):
                continue
            return MarkerSet(
                word=w,
                n=spec.min_return,
                min_return=spec.min_return,
                coverage_k=k,
                scan_depth=depth,
                spectrum=spec,
            )
    raise PreconditionFailed(
        f"no marker with a feasible gap spectrum up to length {max_word_len}"
    )


def _gap_return_time(roof, sample, text, pattern, gap):
    """Exact roof sum over one gap-g occurrence window found in the sample."""
    starts = occurrence_starts(text, pattern)
    for i, j in zip(starts, starts[1:]):
        if j - i == gap:
            t = as_qr(0)
            for c in range(i, j):
                t = t + roof.table[(sample[c],)]
            return t
    raise PreconditionFailed(f"gap {gap} not located in the sample")


def _long_sample_word(base: Subshift, length: int):
    from suspshift.subshifts import Sturmian

    if isinstance(base, Sturmian):
        return base.point(as_qr(0, base.alpha.d)).block(0, length)
    # fall back to stitching admissible words via right extendability
    word = list(sorted(base.language(min(length, 24)))[0])
    while len(word) < length:
        for c in range(base.alphabet_size):
            if base.admissible(tuple(word[-24:]) + (c,)):
                word.append(c)
                break
        else:
            raise PreconditionFailed("could not extend a sample word")
    return tuple(word[:length])
