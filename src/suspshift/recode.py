"""Cross-section recoding of suspension flows over aperiodic subshifts.

One routine, `_recode`, builds every construction from a certified marker
word: the marker atoms with their exact return times, a code word per atom
ranked in the sorted base language, an exactly checked schedule per atom,
and the atom automaton.  Each construction's rules (steps, per-atom plan,
emission, separator, range of the last return) live in one layout class:

* `TwoValuedLayout`: return times exactly p, exactly q, or in (0, delta);
* `MarkedBinaryLayout`: return times exactly p or in (q, q+delta), with a
  marking pattern locating the marker returns in every long window;
* `NearConstantLayout`: all return times within 2*eps of a target, stepped
  through the numerical semigroup of two consecutive integers over N.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction

from suspshift.markers import (
    MarkerSet,
    NoMarkerFound,
    find_marker,
    kmp_failure,
    kmp_step,
    occurrence_starts,
)
from suspshift.quadratic import QuadraticReal, as_qr, rationally_independent
from suspshift.subshifts import (
    Cylinder,
    PointOracle,
    Subshift,
    Word,
    topological_entropy,
    word_str,
)
from suspshift.suspension import CrossSection, SuspensionFlow, TowerPartition


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
        k = (budget / p).floor()
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

    Counts come from one table, filled iteratively from the last position
    back (so any length works), with one flat row per position over the
    states (ones left, zero run); the run is tracked only under a cap.
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
        self._runs = 1 if max_interior_zero_run is None else max_interior_zero_run + 1
        self._rows = self._table()

    def satisfies(self, word: Word) -> bool:
        word = tuple(word)
        if len(word) != self.length or any(c not in (0, 1) for c in word):
            return False
        if sum(word) != self.ones:
            return False
        if self.first_last_one and (word[0] != 1 or word[-1] != 1):
            return False
        return self.max_run is None or "0" * (self.max_run + 1) not in word_str(word)

    def _allowed(self, pos: int, c: int, ones_left: int, run: int):
        """Whether symbol c may be placed at pos; returns the new run (always
        0 without a cap) or None."""
        if c == 1:
            return 0 if ones_left else None
        if self.first_last_one and pos in (0, self.length - 1):
            return None
        if self.max_run is None:
            return 0
        return run + 1 if run < self.max_run else None

    def _suffix_count(self, pos: int, ones_left: int, run: int) -> int:
        """Number of valid completions from `pos` with `ones_left` ones to
        place and current trailing zero run `run`."""
        return self._rows[pos][ones_left * self._runs + run]

    def _table(self):
        runs = self._runs
        rows = [None] * self.length + [[1] * runs + [0] * (runs * self.ones)]
        for pos in range(self.length - 1, -1, -1):
            # the run after a 0 at pos, per current run (None: no 0 here)
            zs = [self._allowed(pos, 0, 0, r) for r in range(runs)]
            nxt = rows[pos + 1]
            rows[pos] = [(nxt[(o - 1) * runs] if o else 0)
                         + (nxt[o * runs + z] if z is not None else 0)
                         for o in range(self.ones + 1) for z in zs]
        return rows

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
            # a 1 here ranks after every word with a 0 here
            z = self._allowed(pos, 0, ones_left, run) if sym == 1 else None
            if z is not None:
                index += self._suffix_count(pos + 1, ones_left, z)
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
    col_bounds: list     # exact roof sums over [0, c) for c = 0..gap
    k: int = 0           # scheduled p-steps
    l: int = 0           # scheduled q-steps (counting the remainder slot)
    remainder: QuadraticReal | None = None
    code_word: Word = ()
    emission: Word = ()  # Z-symbols, one per section piece
    offsets: list = field(default_factory=list)   # piece heights above the marker hit
    columns: list = field(default_factory=list)   # base column of each piece
    durations: list = field(default_factory=list) # exact return time of each piece

    @property
    def t_return(self) -> QuadraticReal:
        """Exact roof sum over [0, gap): the atom's first-return time."""
        return self.col_bounds[-1]


def build_atoms(flow: SuspensionFlow, marker: MarkerSet, n: int):
    """Enumerate the marker atoms: cylinders refining the n-window partition
    on the marker base, each with its exact first-return time."""
    base, roof = flow.base, flow.roof
    m = roof.m
    lw = len(marker.word)
    if n < marker.max_gap + lw:
        raise PreconditionFailed(
            f"coding window n={n} must reach past the largest marker gap "
            f"({marker.max_gap}+{lw})"
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
        gap = word_str(w[m + 1 :]).find(marker_s) + 1
        if not 0 < gap <= n - lw:
            raise PreconditionFailed("marker gap escapes the coding window")
        col_bounds = [as_qr(0)]
        for i in range(gap):
            col_bounds.append(col_bounds[-1] + roof.value_of_word(w[i : i + 2 * m + 1]))
        atoms.append(
            MarkerAtom(
                index=len(atoms),
                key=w,
                n_word=w[m : m + n],
                gap=gap,
                col_bounds=col_bounds,
            )
        )
    if not atoms:
        raise PreconditionFailed("no marker atoms found")
    return atoms


def atom_transitions(flow: SuspensionFlow, atoms):
    """successors[i] = indices j such that atom j can follow atom i, certified
    by exact admissibility of the merged base word."""
    succ = {a.index: [] for a in atoms}
    for a in atoms:
        # b's key starts a.gap coordinates after a's and overlaps its tail
        overlap = len(a.key) - a.gap
        for b in atoms:
            if (a.key[a.gap:] == b.key[:overlap]
                    and flow.base.admissible(a.key + b.key[overlap:])):
                succ[a.index].append(b.index)
    for a in atoms:
        if not succ[a.index]:
            raise PreconditionFailed(f"atom {a.index} has no successor")
    return succ


class AtomAutomaton(Subshift):
    """The recoded subshift Z: the concatenations of per-atom emissions along
    admissible atom chains.  A walk state is the frozenset of (atom index,
    position in its emission) pairs whose symbol comes next, so the walk is
    exact at every length."""

    def __init__(self, atoms, successors, alphabet_size: int):
        self.atoms = atoms
        self.successors = successors
        self.predecessors = {a.index: [] for a in atoms}
        for i, outs in successors.items():
            for j in outs:
                self.predecessors[j].append(i)
        self.alphabet_size = alphabet_size
        self.walk_root = frozenset((a.index, pos) for a in atoms
                                   for pos in range(len(a.emission)))

    def walk_step(self, state):
        nxt = {}
        for ai, pos in state:
            emission = self.atoms[ai].emission
            follow = nxt.setdefault(emission[pos], set())
            if pos + 1 < len(emission):
                follow.add((ai, pos + 1))
            else:
                follow.update((j, 0) for j in self.successors[ai])
        return [(c, frozenset(nxt[c])) for c in sorted(nxt)]

    def longest_stretch_avoiding(self, pattern: Word) -> int | None:
        """Exact longest run of emitted symbols containing no occurrence of
        `pattern`: the longest path from the root in the product of the walk
        with the pattern's KMP automaton, edges completing the pattern
        dropped.  None means unbounded (an avoiding cycle exists)."""
        fail, plen = kmp_failure(pattern), len(pattern)

        def edges(node):
            state, match = node
            for c, nxt in self.walk_step(state):
                m = kmp_step(pattern, fail, match, c)
                if m < plen:
                    yield nxt, m

        # iterative depth-first search; a node met again on the path is a cycle
        root = (self.walk_root, 0)
        depth, on_path, stack = {}, {root}, [(root, edges(root))]
        while stack:
            u, out = stack[-1]
            for v in out:
                if v in on_path:
                    return None
                if v not in depth:
                    on_path.add(v)
                    stack.append((v, edges(v)))
                    break
            else:
                depth[u] = max((1 + depth[v] for v in edges(u)), default=0)
                on_path.discard(u)
                stack.pop()
        return depth[root]


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
# the recoded flow


@dataclass
class RecodedFlow:
    """Output of a recoding construction: the recoded subshift Z (the atom
    automaton) with its roof classes, the cross-section realizing the conjugacy, and
    finite-window encode/decode maps."""

    layout: object           # the construction's rules: one of the layouts below
    flow: SuspensionFlow
    marker: MarkerSet
    n: int
    constants: dict
    atoms: list
    automaton: AtomAutomaton
    n_words: list            # sorted language(n) of the base; code index space
    codes: dict              # BalancedCode arguments -> BalancedCode, in atom order

    def __post_init__(self):
        self._atom_table = {tuple(a.key): a for a in self.atoms}
        self._atom_by_emission = {a.emission: a for a in self.atoms}

    @property
    def kind(self) -> str:
        return self.layout.kind

    @property
    def ratio_relaxed(self) -> bool:
        return self.layout.relaxed

    # -- structural data ------------------------------------------------

    def section(self):
        """The cross-section as explicit (cylinder, offset) pieces."""
        m = self.flow.roof.m
        pieces = [
            (Cylinder(a.key, -m - col), t - a.col_bounds[col])
            for a in self.atoms for t, col in zip(a.offsets, a.columns)
        ]
        return CrossSection(pieces, validity_depth=self.n, meta={"kind": self.kind})

    def return_class(self, duration) -> str:
        """A piece's class from its exact return time: "p", "q" or "remainder"."""
        if duration == self.layout.p:
            return "p"
        return "q" if duration == self.layout.q else "remainder"

    def tower_partition(self):
        """The section pieces labeled by their return-time class: the
        generating partition of the recoded system."""
        labels = tuple(self.return_class(d) for a in self.atoms for d in a.durations)
        return TowerPartition(self.section(), labels)

    # -- orbit machinery --------------------------------------------------

    def marker_starts(self, oracle: PointOracle, lo: int, hi: int):
        text = word_str(oracle.block(lo, hi))
        return [lo + i for i in occurrence_starts(text, word_str(self.marker.word))]

    def atom_at(self, oracle: PointOracle, start: int) -> MarkerAtom:
        m = self.flow.roof.m
        return self._atom_table[tuple(oracle.block(start - m, start + self.n + m))]

    def return_census(self, oracle: PointOracle, start: int, count: int):
        """Exact (class, time) pairs for `count` consecutive section returns
        along the orbit over `oracle`, beginning at the first marker hit at
        or after base coordinate `start`."""
        reach = self.marker.max_gap + len(self.marker.word) + 1
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
        lw = len(self.marker.word)
        reach = self.marker.max_gap + lw + 1
        starts = self.marker_starts(oracle, i0 - reach, i0 + lw)
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
            prev = self.marker_starts(oracle, left - reach, left + lw - 1)
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

    def decode(self, window: Word):
        """Invert a Z-window to the base block it certifies.

        The window is cut at every occurrence of the layout's separator and
        each complete segment between two cuts is looked up as an atom's
        emission.  Returns (base_word, center_index): base_word[center_index]
        is the base symbol under the window's central piece.  Needs a
        window-0 roof (the atom key is then its n-word).
        """
        if self.flow.roof.m != 0:
            raise PreconditionFailed("finite-window decoding needs a window-0 roof")
        if self.layout.separator is None:
            raise PreconditionFailed(f"the {self.kind} layout has no separator")
        window = tuple(window)
        center = len(window) // 2
        cuts = [o + self.layout.cut for o in
                occurrence_starts(word_str(window), word_str(self.layout.separator))]
        if len(cuts) < 2:
            raise PreconditionFailed("no complete atom inside the window")
        base = {}
        marker_pos = 0
        center_rel = None
        for s, e in zip(cuts, cuts[1:]):
            atom = self._atom_by_emission.get(window[s:e])
            if atom is None:
                raise ConstraintViolated(f"segment {word_str(window[s:e])} is no atom's emission")
            for j, c in enumerate(atom.n_word):
                if base.setdefault(marker_pos + j, c) != c:
                    raise ConstraintViolated("overlapping atom words disagree")
            if s <= center < e:
                center_rel = marker_pos + atom.columns[center - s]
            marker_pos += atom.gap
        if center_rel is None:
            raise PreconditionFailed(
                "window radius too small: center not inside a complete atom"
            )
        lo, hi = min(base), max(base)
        base_word = tuple(base[i] for i in range(lo, hi + 1))
        return base_word, center_rel - lo


# ---------------------------------------------------------------------------
# the recoding core


def _recode(flow: SuspensionFlow, marker: MarkerSet, layout, n: int | None) -> RecodedFlow:
    """Build the recoded flow of `layout` over the marker atoms at coding
    window n (default: just past the largest marker gap)."""
    layout.check_flow(flow)
    if n is None:
        n = marker.max_gap + len(marker.word)
    atoms = build_atoms(flow, marker, n)
    n_words = sorted(flow.base.language(n))
    layout.plan(atoms, len(n_words))
    rank = {w: i for i, w in enumerate(n_words)}
    codes = {}
    for atom in atoms:
        args = layout.code_args(atom)
        if args is not None:
            if args not in codes:
                codes[args] = BalancedCode(*args)
            atom.code_word = codes[args].unrank(rank[atom.n_word])
        atom.emission = layout.emission(atom)
        _schedule_atom(atom, layout)
    automaton = AtomAutomaton(atoms, atom_transitions(flow, atoms), layout.alphabet_size)
    return RecodedFlow(
        layout=layout, flow=flow, marker=marker, n=n, constants=layout.constants(n),
        atoms=atoms, automaton=automaton, n_words=n_words, codes=codes,
    )


def _schedule_atom(atom: MarkerAtom, layout):
    """Offsets, columns and durations of atom.emission.  Every symbol takes
    its layout step except the last, which takes what is left of the return
    time and must lie in the layout's open `last_range`; all exact."""
    steps = [layout.steps[sym] for sym in atom.emission[:-1]]
    atom.offsets = [as_qr(0)]
    for d in steps:
        atom.offsets.append(atom.offsets[-1] + d)
    atom.columns = [bisect_right(atom.col_bounds, t) - 1 for t in atom.offsets]
    if atom.columns[-1] >= atom.gap:
        raise InfeasibleSchedule("offset escaped its atom")
    atom.durations = steps + [atom.t_return - atom.offsets[-1]]
    lo, hi = layout.last_range
    if not lo < atom.durations[-1] < hi:
        raise InfeasibleSchedule(
            f"{layout.kind}: last return of atom {atom.index} escaped its range"
        )


# ---------------------------------------------------------------------------
# the layouts: each construction's steps, plan, emission and separator


class _CodedLayout:
    """Symbol 1 steps p and symbol 0 steps q, with p, q rationally
    independent; each atom's emission carries a code word of its n-word."""

    relaxed = False

    def __init__(self, p, q):
        self.p, self.q = as_qr(p), as_qr(q)
        if not rationally_independent(self.p, self.q):
            raise PreconditionFailed("rational independence violated: p/q is rational")
        self.steps = {1: self.p, 0: self.q}

    def check_flow(self, flow: SuspensionFlow):
        """h_top of the suspension is at most h_top(base)/min(roof); require
        that this is below 2 log 2 / (p + q)."""
        bound = topological_entropy(flow.base, horizon=48) / float(flow.roof.min_value)
        limit = 2 * math.log(2) / float(self.p + self.q)
        if bound >= limit:
            raise PreconditionFailed(
                f"flow entropy bound {bound:.4f} >= 2 log2/(p+q) = {limit:.4f}"
            )


class TwoValuedLayout(_CodedLayout):
    """Return times exactly p, exactly q, or in (0, delta): a balanced code
    word with k ones and k zeros, l - k more q-steps, then the remainder
    symbol 2, which separates consecutive atoms in a Z-window."""

    kind = "two-valued"
    alphabet_size = 3
    separator = (2,)
    cut = 1  # an atom starts right after its predecessor's 2

    def __init__(self, p, q, epsilon, delta):
        super().__init__(p, q)
        self.eps, self.delta = Fraction(epsilon), as_qr(delta)
        if not 0 < self.eps:
            raise PreconditionFailed("epsilon must be positive")
        if not as_qr(0) < self.delta < min(self.p, self.q):
            raise PreconditionFailed("need 0 < delta < min(p, q)")
        self.last_range = (as_qr(0), self.delta)

    def pair(self, t_return):
        """Smallest-remainder (k, l, remainder, relaxed) with
        0 < T - kp - lq < delta, k <= l, and the q-class frequency guard
        l/(k+l+1) <= 1/2 + eps, or None.

        Pairs meeting the stricter ratio 1/(1+eps) <= k/l are preferred; when
        only the frequency guard can be met the relaxation is flagged.
        """
        eps = self.eps
        strict, relaxed = [], []
        for k, l, rem in candidate_pairs(t_return, self.p, self.q, self.delta):
            if k < 1 or k > l:
                continue
            # frequency guard: l (1/2 - eps) <= (k + 1)(1/2 + eps)
            if Fraction(l) * (Fraction(1, 2) - eps) > (k + 1) * (Fraction(1, 2) + eps):
                continue
            if Fraction(l) <= Fraction(k) * (1 + eps):
                strict.append((rem, l, k))
            else:
                relaxed.append((rem, l, k))
        if not strict and not relaxed:
            return None
        rem, l, k = min(strict or relaxed)
        return k, l, rem, not strict

    def plan(self, atoms, lang_count: int):
        for atom in atoms:
            pair = self.pair(atom.t_return)
            if pair is None:
                raise PreconditionFailed(
                    f"no (k,l) with 0 < T - kp - lq < delta for atom gap {atom.gap} "
                    f"(T = {float(atom.t_return):.6f})"
                )
            atom.k, atom.l, atom.remainder, relaxed = pair
            self.relaxed = self.relaxed or relaxed
            if math.comb(2 * atom.k, atom.k) < lang_count:
                raise CapacityExceeded(
                    f"|language({len(atom.n_word)})| = {lang_count} > "
                    f"C({2 * atom.k},{atom.k}); raise n"
                )

    def code_args(self, atom):
        return (2 * atom.k, atom.k)

    def emission(self, atom):
        return atom.code_word + (0,) * (atom.l - atom.k) + (2,)

    def constants(self, n: int) -> dict:
        return {"p": self.p, "q": self.q, "delta": self.delta, "epsilon": self.eps, "n": n}


class MarkedBinaryLayout(_CodedLayout):
    """Return times exactly p or in (q, q+delta): a code word that starts
    and ends with 1 and has zero runs below K, then 0^(M+K) 1 0^K, whose
    last q-step absorbs the remainder.  The marking pattern 0^(M+K) 1 0^K 1
    then occurs exactly across atom boundaries and separates the atoms of a
    Z-window.  K is the first of `ks` that schedules every atom."""

    kind = "marked-binary"
    alphabet_size = 2

    def __init__(self, p, q, M: int, delta, ks):
        super().__init__(p, q)
        self.M, self.delta, self.ks = M, as_qr(delta), list(ks)
        if not self.p < self.q:
            raise PreconditionFailed("need p < q")
        if M < 2:
            raise PreconditionFailed("need M >= 2")
        if self.delta.sign() <= 0:
            raise PreconditionFailed("need delta > 0")
        self.last_range = (self.q, self.q + self.delta)
        self._candidates = {}  # exact return time -> its sorted candidate pairs

    def pair(self, t_return, K: int, lang_count: int):
        """The (k, l, remainder) for one return time at this K, or None: the
        first candidate pair, by (remainder, l, k), whose code word has room
        for the markings and at least lang_count words.  The candidates of
        a return time are found once on this layout, whatever K asks."""
        t = as_qr(t_return)
        key = (t.A, t.B, t.C)
        if key not in self._candidates:
            self._candidates[key] = sorted(candidate_pairs(t, self.p, self.q, self.delta),
                                           key=lambda c: (c[2], c[1], c[0]))
        for k, l, rem in self._candidates[key]:
            if k < 3 or l < self.M + 2 * K:
                continue
            zeros = l - self.M - 2 * K
            ones = k - 1
            if zeros > (ones - 1) * (K - 1):
                continue  # interior runs cannot absorb the zeros
            code = BalancedCode(ones + zeros, ones, first_last_one=True,
                                max_interior_zero_run=K - 1)
            if code.count() >= lang_count:
                return k, l, rem
        return None

    def feasible(self, t_return, lang_count: int) -> bool:
        """Whether some K in ks schedules t_return with room for lang_count
        code words (its candidate pairs are found once for every K)."""
        return any(self.pair(t_return, K, lang_count) is not None for K in self.ks)

    def plan(self, atoms, lang_count: int):
        for K in self.ks:
            pairs = [self.pair(atom.t_return, K, lang_count) for atom in atoms]
            if None in pairs:
                continue
            for atom, (k, l, rem) in zip(atoms, pairs):
                atom.k, atom.l, atom.remainder = k, l, rem
            self.K = K
            self.separator = (0,) * (self.M + K) + (1,) + (0,) * K + (1,)
            self.cut = len(self.separator) - 1  # the closing 1 opens the next code word
            return
        raise CapacityExceeded(
            f"no K in {self.ks} schedules all atoms; raise n or adjust (p,q,delta)"
        )

    def code_args(self, atom):
        ones = atom.k - 1
        return (ones + atom.l - self.M - 2 * self.K, ones, True, self.K - 1)

    def emission(self, atom):
        return atom.code_word + self.separator[:-1]

    def constants(self, n: int) -> dict:
        return {"p": self.p, "q": self.q, "delta": self.delta, "M": self.M,
                "K": self.K, "n": n, "pattern": self.separator}


class NearConstantLayout:
    """All return times within 2*eps of the target a - eps, where
    a = log 2 / h_top + eps (or the supplied target plus eps): k steps
    p = [Na]/N, then l steps q = ([Na]+1)/N over the denominator N > 3/eps.
    Both steps lie within 4*eps/3 of the target, so only each atom's last
    return needs its range checked.  There is no code word and no
    separator: the itinerary system is the output, and the final symbol
    embedding is out of scope."""

    kind = "near-constant"
    alphabet_size = 2
    separator = None
    relaxed = False

    def __init__(self, epsilon, h_top, target_a):
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
            a = Fraction(target_a) + eps
        self.eps, self.big_n = eps, int(3 / eps) + 1
        self.m_int = int(self.big_n * a)  # [N a]
        if self.m_int < 2:
            raise PreconditionFailed("target too small for the step grid")
        self.p, self.q = Fraction(self.m_int, self.big_n), Fraction(self.m_int + 1, self.big_n)
        self.steps = {0: self.p, 1: self.q}
        self.target = a - eps
        self.last_range = (self.target - 2 * eps, self.target + 2 * eps)

    def check_flow(self, flow: SuspensionFlow):
        pass  # no entropy condition: the target already comes from h_top

    def plan(self, atoms, lang_count: int):
        threshold = self.m_int * (self.m_int - 1)  # Frobenius bound for {m, m+1}
        for atom in atoms:
            r_int = (atom.t_return * self.big_n + Fraction(1, 2)).floor()
            if r_int <= threshold:
                raise InfeasibleSchedule(
                    f"marker return {float(atom.t_return):.3f} below the "
                    f"semigroup threshold {threshold}/{self.big_n}"
                )
            # above the threshold s >= rem, so k = s - rem >= 0
            s, rem = divmod(r_int, self.m_int)
            atom.k, atom.l = s - rem, rem
            last_step = self.q if atom.l else self.p
            atom.remainder = atom.t_return - (self.p * atom.k + self.q * atom.l) + last_step

    def code_args(self, atom):
        return None

    def emission(self, atom):
        return (0,) * atom.k + (1,) * atom.l

    def constants(self, n: int) -> dict:
        return {"target": self.target, "epsilon": self.eps, "grid_n": self.big_n,
                "step_p": self.p, "step_q": self.q, "n": n}


# ---------------------------------------------------------------------------
# the three constructions


def recode_two_valued(flow: SuspensionFlow, marker: MarkerSet, p, q, epsilon, delta,
               n: int | None = None) -> RecodedFlow:
    """Return times exactly p, exactly q, or in (0, delta)."""
    return _recode(flow, marker, TwoValuedLayout(p, q, epsilon, delta), n)


def recode_marked_binary(flow: SuspensionFlow, marker: MarkerSet, p, q, M: int, delta,
               n: int | None = None, K: int | None = None, k_max: int = 8) -> RecodedFlow:
    """Return times exactly p or in (q, q + delta), at the given K or the
    first K in 2..k_max that schedules every atom."""
    ks = [K] if K is not None else range(2, k_max + 1)
    return _recode(flow, marker, MarkedBinaryLayout(p, q, M, delta, ks), n)


def recode_near_constant(flow: SuspensionFlow, marker: MarkerSet, epsilon,
               h_top: float | None = None, target_a=None, n: int | None = None) -> RecodedFlow:
    """Cross-section with all return times within 2*epsilon of the target
    a = log 2 / h_top + epsilon (or the supplied target for zero-entropy
    bases), stepped through the numerical semigroup of [Na], [Na]+1 over the
    denominator N > 3/epsilon; Z is the itinerary system."""
    return _recode(flow, marker, NearConstantLayout(epsilon, h_top, target_a), n)


# ---------------------------------------------------------------------------
# marker search driven by gap feasibility


def find_marker_with_feasible_gaps(flow: SuspensionFlow, gap_ok, max_word_len: int,
                                   depth: int) -> MarkerSet:
    """Search marker words (increasing length, lexicographic) whose every
    marker atom satisfies gap_ok(gap, exact_return_time).  Needs a window-0
    roof: an atom's return time is then the roof sum of its return word, so a
    candidate's exact return words give every atom's (gap, time), asked
    shortest first until one fails.  gap_ok is asked once per distinct
    (gap, time) in a call, memoised on the time's unique integer form."""
    if flow.roof.m != 0:
        raise PreconditionFailed("gap-driven marker search needs a window-0 roof")
    table = {w[0]: v for w, v in flow.roof.table.items()}
    verdicts = {}

    def feasible(r):
        t = sum((v * r.count(c) for c, v in table.items()), as_qr(0))
        key = (len(r), t.A, t.B, t.C)
        if key not in verdicts:
            verdicts[key] = gap_ok(len(r), t)
        return verdicts[key]

    marker = find_marker(flow.base, lambda returns: all(map(feasible, returns)),
                         max_word_len, depth)
    if marker is None:
        raise NoMarkerFound(f"no marker with a feasible gap spectrum up to length {max_word_len}")
    return marker
