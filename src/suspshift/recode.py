"""Cross-section recoding of suspension flows over aperiodic subshifts.

One routine, `_recode`, builds both constructions from a certified marker
word: the marker atoms with their exact return times, a code word per atom
ranked in the sorted base language, an exactly checked schedule per atom,
and the atom automaton.  Each construction's rules (steps, per-atom plan,
emission, separator, range of the last return) live in one of two layouts:

* `TwoValuedLayout`: return times exactly p, exactly q, or in (0, delta);
* `MarkedBinaryLayout`: return times exactly p or in (q, q+delta), with a
  marking pattern locating the marker returns in every long window.

The set-up's arithmetic is on integers.  `candidate_pairs` holds t, p, q
and delta as pairs (x, y) of (x + y*sqrt(d))/L over one denominator and
decides each pair with `floor_surd` and `sign_surd`; `_schedule_atom` walks
offsets and column bounds on such pairs; the marker search keys its
verdicts on integer roof sums.  A code's size, rank and unrank read closed
form completion counts (`code_size`); no table is built.  Remainders,
offsets and durations are stored as QuadraticReals.

A point of Z lies on one atom chain, whose `cover` takes atoms from `_prev`
and `_next`: rng draws (`ChainPoint`) or a base orbit's marker hits
(`OrbitChain`, the image chain that `image`, `encode` and `return_census` read).
"""

from __future__ import annotations

import math
import random
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
from suspshift.quadratic import (
    QuadraticReal,
    _make,
    as_qr,
    common_radicand,
    floor_surd,
    pair_over,
    rationally_independent,
    sign_surd,
)
from suspshift.subshifts import (
    Cylinder,
    PointOracle,
    Subshift,
    Word,
    topological_entropy,
    word_str,
)
from suspshift.suspension import CrossSection, FlowPoint, SuspensionFlow


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


def candidate_pairs(t_return, p, q, delta):
    """All (k, l, remainder) with k >= 0, l >= 1 and 0 < remainder < delta,
    by increasing l and, for one l, decreasing k.

    On integers: t, p, q and delta are the pairs (x, y) of (x + y*sqrt(d))/L
    over one denominator L.  For each l only k at or below
    floor((t - lq)/p) can land in (0, delta); that k is one `floor_surd`
    of the budget t - lq times p's conjugate over p's norm, and each test
    of a remainder is one `sign_surd`.  A kept remainder becomes a
    QuadraticReal with the radicand that QuadraticReal arithmetic gives
    t - lq - kp: p's after an irrational p-step, else q's or t's.
    """
    vals = t, p, q, delta = [as_qr(v) for v in (t_return, p, q, delta)]
    d = common_radicand(vals) or 0
    L = math.lcm(*(v.C for v in vals))
    (tx, ty), (px, py), (qx, qy), (dx, dy) = (pair_over(v, L) for v in vals)
    # budget/p = budget * (px - py*sqrt(d)) / norm, with the norm made positive
    norm = px * px - py * py * d
    cx, cy = (px, -py) if norm > 0 else (-px, py)
    norm = abs(norm)
    p_d = p.d if py else None
    rest_d = q.d if qy else t.d
    out = []
    l = 1
    bx, by = tx - qx, ty - qy  # the budget t - lq
    while sign_surd(bx, by, d) >= 0:
        k = floor_surd(bx * cx + by * cy * d, by * cx + bx * cy, d, norm)
        rx, ry = bx - k * px, by - k * py
        while k >= 0:
            if sign_surd(rx - dx, ry - dy, d) >= 0:
                break
            if sign_surd(rx, ry, d) > 0:
                out.append((k, l, _make(rx, ry, L, p_d if p_d and k else rest_d)))
            k -= 1
            rx, ry = rx + px, ry + py
        bx, by = bx - qx, by - qy
        l += 1
    return out


# ---------------------------------------------------------------------------
# balanced binary codes with rank/unrank


def _spreads(zeros: int, gaps: int, first_cap: int | None, cap: int | None) -> int:
    """Ways to put `zeros` zeros into `gaps` >= 1 ordered gaps with at most
    first_cap in the first gap and at most cap in each other one (None: no
    cap), by inclusion-exclusion over the gaps that overflow."""
    total = 0
    for sign, lead in ((1, 0),) if first_cap is None else ((1, 0), (-1, first_cap + 1)):
        for j in range(1 if cap is None else gaps):
            z = zeros - lead - j * (0 if cap is None else cap + 1)
            if z < 0:
                break
            total += (-1) ** j * sign * math.comb(gaps - 1, j) * math.comb(z + gaps - 1, gaps - 1)
    return total


def code_size(length: int, ones: int, first_last_one: bool = False,
              max_run: int | None = None) -> int:
    """Number of words of the BalancedCode with these arguments, in closed
    form: C(length, ones); with first=last=1, the ways to spread the zeros
    over the ones-1 interior gaps, C(length-2, ones-2) without a run cap and
    at most max_run in each gap under one."""
    if not first_last_one:
        return math.comb(length, ones)
    return _spreads(length - ones, ones - 1, max_run, max_run)


class BalancedCode:
    """Lexicographic rank/unrank over binary words of fixed length and
    weight, optionally with first=last=1 and a cap on interior zero runs.

    The run cap is only meaningful together with first=last=1 (every zero
    run is then interior, i.e. bracketed by ones).

    Nothing is tabulated.  `count()` is the closed form `code_size`, and
    rank and unrank walk the word once, reading each completion count in
    closed form as well: with first=last=1 the zeros left go into the gaps
    before each 1 left, the first gap continuing the current zero run.
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
        rest = self.length - pos
        if not self.first_last_one:
            return math.comb(rest, ones_left)
        if not ones_left:  # the last symbol is a 1
            return int(rest == 0)
        if pos == 0:
            first_cap = 0  # the first symbol is a 1
        else:  # the first gap continues the current zero run
            first_cap = None if self.max_run is None else self.max_run - run
        return _spreads(rest - ones_left, ones_left, first_cap, self.max_run)

    def count(self) -> int:
        return code_size(self.length, self.ones, self.first_last_one, self.max_run)

    def unrank(self, index: int) -> Word:
        if not 0 <= index < self.count():
            raise IndexOutOfRange(f"index {index} not in [0, {self.count()})")
        word = []
        ones_left, run = self.ones, 0
        for pos in range(self.length):
            # the words with a 0 here rank first; index < count leaves a 1
            # room whenever it passes them
            z = self._allowed(pos, 0, ones_left, run)
            below = 0 if z is None else self._suffix_count(pos + 1, ones_left, z)
            if index < below:
                word.append(0)
                run = z
            else:
                index -= below
                word.append(1)
                ones_left -= 1
                run = 0
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
    by exact admissibility of the merged base word: a's key is walked once,
    and each candidate b only over the tail it adds."""
    base = flow.base
    succ = {a.index: [] for a in atoms}
    for a in atoms:
        # b's key starts a.gap coordinates after a's and overlaps its tail
        overlap = len(a.key) - a.gap
        state = base.walk(a.key, base.walk_root)
        for b in atoms:
            if (a.key[a.gap:] == b.key[:overlap]
                    and base.walk(b.key[overlap:], state) is not None):
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
    adds atoms from `_prev`, then `_next` (rng draws here) until it holds [lo, hi).
    """

    def __init__(self, automaton: AtomAutomaton, rng: random.Random):
        self.aut, self.rng = automaton, rng
        self._start(rng.randrange(len(automaton.atoms)))

    def _start(self, a0: int):
        self.chain = [a0]            # atom indices, chain[0] starts at coordinate 0
        self.symbols = list(self.aut.atoms[a0].emission)
        self.roofs = list(self.aut.atoms[a0].durations)
        self.offset = 0              # coordinate of symbols[0]

    def _prev(self) -> int:
        return self.rng.choice(self.aut.predecessors[self.chain[0]])

    def _next(self) -> int:
        return self.rng.choice(self.aut.successors[self.chain[-1]])

    def cover(self, lo: int, hi: int):
        """Materialize coordinates [lo, hi)."""
        atoms = self.aut.atoms
        while lo < self.offset:
            atom = atoms[self._prev()]
            self.chain.insert(0, atom.index)
            self.symbols[0:0], self.roofs[0:0] = atom.emission, atom.durations
            self.offset -= len(atom.emission)
        while hi > self.offset + len(self.symbols):
            atom = atoms[self._next()]
            self.chain.append(atom.index)
            self.symbols.extend(atom.emission)
            self.roofs.extend(atom.durations)

    def block(self, i, j):
        self.cover(i, j)
        return tuple(self.symbols[i - self.offset : j - self.offset])


class OrbitChain(ChainPoint):
    """The atoms at the marker hits of a base orbit from coordinate 0 at `hit`;
    `hits[k]`, the base coordinate of `chain[k]`, is hits[k-1] + chain[k-1]'s gap."""

    def __init__(self, rf: "RecodedFlow", oracle: PointOracle, hit: int):
        self.aut, self.rf, self.base, self.hits = rf.automaton, rf, oracle, [hit]
        self._start(rf.atom_at(oracle, hit).index)

    def _prev(self) -> int:
        self.hits.insert(0, self.rf.last_hit(self.base, self.hits[0] - 1))
        return self.rf.atom_at(self.base, self.hits[0]).index

    def _next(self) -> int:
        self.hits.append(self.hits[-1] + self.aut.atoms[self.chain[-1]].gap)
        return self.rf.atom_at(self.base, self.hits[-1]).index

    def base_index(self, coord: int) -> int:
        """The base coordinate of the column under chain coordinate `coord`."""
        self.cover(coord, coord + 1)
        pos = coord - self.offset
        for hit, ai in zip(self.hits, self.chain):
            atom = self.aut.atoms[ai]
            if pos < len(atom.emission):
                return hit + atom.columns[pos]
            pos -= len(atom.emission)


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
        return CrossSection(pieces)

    def return_class(self, duration) -> str:
        """A piece's class from its exact return time: "p", "q" or "remainder"."""
        if duration == self.layout.p:
            return "p"
        return "q" if duration == self.layout.q else "remainder"

    # -- orbit machinery --------------------------------------------------

    def last_hit(self, oracle: PointOracle, i: int) -> int:
        """The last marker hit at or before base coordinate i: one scan of
        the text from max_gap + len(marker) before i to len(marker) past it."""
        marker = word_str(self.marker.word)
        lo = i - self.marker.max_gap - len(marker)
        s = word_str(oracle.block(lo, i + len(marker))).rfind(marker)
        if s < 0:
            raise PreconditionFailed("marker not found within its certified gap")
        return lo + s

    def atom_at(self, oracle: PointOracle, start: int) -> MarkerAtom:
        m = self.flow.roof.m
        return self._atom_table[tuple(oracle.block(start - m, start + self.n + m))]

    def image(self, flow_point) -> FlowPoint:
        """The exact image of a source flow point over its orbit's OrbitChain,
        on the last piece at or below its height above the last hit j0."""
        oracle, i0 = flow_point.oracle, flow_point.index
        chain = OrbitChain(self, oracle, self.last_hit(oracle, i0))
        height = sum((self.flow.roof.value_at(oracle, c) for c in range(chain.hits[0], i0)),
                     flow_point.height)
        offsets = self.atoms[chain.chain[0]].offsets
        piece = max(idx for idx, t in enumerate(offsets) if t <= height)
        return FlowPoint(chain, piece, height - offsets[piece])

    def return_census(self, oracle: PointOracle, count: int):
        """Exact (class, time) pairs of `count` consecutive section returns along
        the orbit over `oracle`, from its first marker hit at or after 0."""
        before = self.last_hit(oracle, -1)
        chain = OrbitChain(self, oracle, before + self.atom_at(oracle, before).gap)
        return list(zip(chain.block(0, count), chain.roofs))

    def sample_point(self, seed: int) -> ChainPoint:
        return ChainPoint(self.automaton, random.Random(seed))

    def return_census_positions(self, chain_point: ChainPoint, horizon: int):
        """(Z-coordinate, symbol, exact return time) for each section piece
        of a sampled recoded point with coordinate in [0, horizon)."""
        chain_point.cover(-max(len(a.emission) for a in self.atoms), horizon)
        off, syms, roofs = chain_point.offset, chain_point.symbols, chain_point.roofs
        return [(pos, syms[pos - off], roofs[pos - off]) for pos in range(horizon)]

    # -- encode / decode ---------------------------------------------------

    def encode(self, flow_point, radius: int):
        """(Z-window of the given radius, height above the current piece,
        base coordinate of its column) of a source flow point's `image`."""
        pt = self.image(flow_point)
        center_base = pt.oracle.base_index(pt.index)
        return pt.base_block(-radius, radius + 1), pt.height, center_base

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


def _recode(flow: SuspensionFlow, marker: MarkerSet, layout) -> RecodedFlow:
    """Build the recoded flow of `layout` over the marker atoms at coding
    window n, just past the largest marker gap."""
    layout.check_flow(flow)
    n = marker.max_gap + len(marker.word)
    atoms = build_atoms(flow, marker, n)
    n_words = sorted(flow.base.language(n))  # the code index space
    layout.plan(atoms, len(n_words))
    rank = {w: i for i, w in enumerate(n_words)}
    codes = {}
    for atom in atoms:
        args = layout.code_args(atom)
        if args not in codes:
            codes[args] = BalancedCode(*args)
        atom.code_word = codes[args].unrank(rank[atom.n_word])
        atom.emission = layout.emission(atom)
        _schedule_atom(atom, layout)
    automaton = AtomAutomaton(atoms, atom_transitions(flow, atoms), layout.alphabet_size)
    return RecodedFlow(
        layout=layout, flow=flow, marker=marker, n=n, constants=layout.constants(n),
        atoms=atoms, automaton=automaton, codes=codes,
    )


def _schedule_atom(atom: MarkerAtom, layout):
    """Offsets, columns and durations of atom.emission.  Every symbol takes
    its layout step except the last, which takes what is left of the return
    time and must lie in the layout's open `last_range`; all exact.

    The walk is on integers: the steps, the column bounds and the range are
    pairs (x, y) of (x + y*sqrt(d))/L over one denominator L.  The steps are
    positive, so one pointer climbs the column bounds as the offset grows,
    one `sign_surd` per move.  Offsets and the last duration are stored as
    the QuadraticReals that adding the steps from as_qr(0) gives, radicand
    included."""
    emission, gap, bounds = atom.emission, atom.gap, atom.col_bounds
    steps, (lo, hi) = layout.steps, layout.last_range
    values = [*steps.values(), lo, hi, *bounds]
    d = common_radicand(values) or 0
    L = math.lcm(*(v.C for v in values))
    step_pairs = {sym: pair_over(v, L) for sym, v in steps.items()}
    bound_pairs = [pair_over(v, L) for v in bounds]
    ox = oy = col = 0
    od = 2  # the radicand of as_qr(0), then of the last irrational step
    atom.offsets, atom.columns = [], []
    for i, sym in enumerate(emission):
        while col < gap and sign_surd(bound_pairs[col + 1][0] - ox,
                                      bound_pairs[col + 1][1] - oy, d) <= 0:
            col += 1
        if col == gap:
            raise InfeasibleSchedule("offset escaped its atom")
        atom.offsets.append(_make(ox, oy, L, od))
        atom.columns.append(col)
        if i < len(emission) - 1:
            sx, sy = step_pairs[sym]
            ox, oy = ox + sx, oy + sy
            if sy:
                od = steps[sym].d
    tx, ty = bound_pairs[-1]
    last_x, last_y = tx - ox, ty - oy
    atom.durations = [steps[sym] for sym in emission[:-1]]
    atom.durations.append(_make(last_x, last_y, L, od if oy else atom.t_return.d))
    (lx, ly), (hx, hy) = pair_over(lo, L), pair_over(hi, L)
    if not (sign_surd(last_x - lx, last_y - ly, d) > 0
            and sign_surd(hx - last_x, hy - last_y, d) > 0):
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
        self._pairs = {}  # exact return time -> its pair, or None

    def pair(self, t_return):
        """Smallest-remainder (k, l, remainder, relaxed) with
        0 < T - kp - lq < delta, k <= l, and the q-class frequency guard
        l/(k+l+1) <= 1/2 + eps, or None.

        Pairs meeting the stricter ratio 1/(1+eps) <= k/l are preferred; when
        only the frequency guard can be met the relaxation is flagged.  Each
        exact return time is decided once on this layout, so the marker
        search and the plan share the verdicts.
        """
        t = as_qr(t_return)
        key = (t.A, t.B, t.C)
        if key not in self._pairs:
            self._pairs[key] = self._pair(t)
        return self._pairs[key]

    def _pair(self, t_return):
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
    Z-window.  K is the first of `ks` that schedules every atom.  Each exact
    return time gets its candidate pairs once on this layout, for the marker
    search and the plan alike."""

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
        for the markings and at least lang_count words (read from
        `code_size`, no code is built).  The candidates of a return time are
        found once on this layout, whatever K asks."""
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
            if code_size(ones + zeros, ones, True, K - 1) >= lang_count:
                return k, l, rem
        return None

    def feasible(self, t_return, lang_count: int, ks) -> bool:
        """Whether some K in ks schedules t_return with room for lang_count
        code words (its candidate pairs are found once for every K)."""
        return any(self.pair(t_return, K, lang_count) is not None for K in ks)

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


# ---------------------------------------------------------------------------
# the two constructions


def recode_two_valued(flow: SuspensionFlow, marker: MarkerSet,
                      layout: TwoValuedLayout) -> RecodedFlow:
    """Return times exactly p, exactly q, or in (0, delta), by `layout`,
    whose pairs the marker search may already have found."""
    return _recode(flow, marker, layout)


def recode_marked_binary(flow: SuspensionFlow, marker: MarkerSet,
                         layout: MarkedBinaryLayout) -> RecodedFlow:
    """Return times exactly p or in (q, q + delta), at the first of the
    layout's ks that schedules every atom; the layout keeps the candidate
    pairs the marker search found."""
    return _recode(flow, marker, layout)


# ---------------------------------------------------------------------------
# marker search driven by return-time feasibility


def find_marker_with_feasible_gaps(flow: SuspensionFlow, time_ok, max_word_len: int,
                                   depth: int) -> MarkerSet:
    """Search marker words (increasing length, lexicographic) whose every
    marker atom satisfies time_ok(exact_return_time).  Needs a window-0
    roof: an atom's return time is then the roof sum of its return word, so a
    candidate's exact return words give every atom's time, asked shortest
    first until one fails.  time_ok is asked once per distinct time in a
    call, memoised on the roof sum's integer numerators (x, y) of
    (x + y*sqrt(d))/L over the roof's one denominator L, unique per exact
    time; its QuadraticReal is built only on a miss."""
    if flow.roof.m != 0:
        raise PreconditionFailed("gap-driven marker search needs a window-0 roof")
    values = flow.roof.table.values()
    d = common_radicand(values) or 2
    L = math.lcm(*(v.C for v in values))
    table = {w[0]: pair_over(v, L) for w, v in flow.roof.table.items()}
    verdicts = {}

    def feasible(r):
        x = y = 0
        for c, (vx, vy) in table.items():
            n = r.count(c)
            x, y = x + vx * n, y + vy * n
        if (x, y) not in verdicts:
            verdicts[x, y] = time_ok(_make(x, y, L, d))
        return verdicts[x, y]

    marker = find_marker(flow.base, lambda returns: all(map(feasible, returns)),
                         max_word_len, depth)
    if marker is None:
        raise NoMarkerFound(f"no marker with a feasible gap spectrum up to length {max_word_len}")
    return marker
