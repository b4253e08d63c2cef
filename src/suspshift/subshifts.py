"""Subshifts with exact word-admissibility oracles.

Words are tuples of small nonnegative ints.  Three kinds of subshift are
provided: SFTs (memory-1 adjacency matrix, or a forbidden-word list compiled
to a higher-block vertex shift), Sturmian rotation codings with exact
quadratic-irrational arithmetic, and products.  Each gives one exact
extension step, `walk_step`; admissibility, the language and its count are
walks over it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from suspshift.quadratic import QuadraticReal, _make, as_qr, floor_surd, sign_surd

Word = tuple  # tuple of ints


class EmptySubshift(Exception):
    pass


def parse_word(s: str) -> Word:
    return tuple(int(c) for c in s)


_DIGITS = bytes(range(48, 58)).ljust(256, b"?")  # byte -> digit, "?" above 9


def word_str(w: Word) -> str:
    """The symbols in decimal, concatenated: one C-level translate for
    words over 0..9, `str` per symbol otherwise."""
    try:
        s = bytes(w).translate(_DIGITS)
    except ValueError:  # a symbol outside 0..255
        s = b"?"
    return s.decode() if b"?" not in s else "".join(map(str, w))


@dataclass(frozen=True)
class Cylinder:
    """The set {x : x[anchor .. anchor+len(word)) = word}."""

    word: Word
    anchor: int = 0

    def __len__(self):
        return len(self.word)

    def end(self) -> int:
        return self.anchor + len(self.word)


def cylinders_disjoint(c1: Cylinder, c2: Cylinder) -> bool:
    """Exact disjointness: the two anchored words disagree somewhere on the
    overlap of their windows, or one cannot hold with the other (never, if
    windows are disjoint)."""
    lo = max(c1.anchor, c2.anchor)
    hi = min(c1.end(), c2.end())
    for i in range(lo, hi):
        if c1.word[i - c1.anchor] != c2.word[i - c2.anchor]:
            return True
    return False


# ---------------------------------------------------------------------------
# point oracles


class PointOracle:
    """Total rule producing x[i..j) for any finite window."""

    def block(self, i: int, j: int) -> Word:
        raise NotImplementedError

    def symbol(self, i: int) -> int:
        return self.block(i, i + 1)[0]


class PeriodicPoint(PointOracle):
    """Bi-infinite periodic extension of a finite word (period anchored at 0)."""

    def __init__(self, word: Word):
        if not word:
            raise ValueError("empty period")
        self.word = tuple(word)
        self.period = len(word)

    def block(self, i, j):
        return tuple(self.word[k % self.period] for k in range(i, j))

    def __repr__(self):
        return f"PeriodicPoint({word_str(self.word)})"


class SturmianPoint(PointOracle):
    """Rotation coding of the orbit of `phase` under x -> x + alpha mod 1.

    Symbols are memoized by index in a plain dict.  The phase and the angle
    never change, so a symbol computed once by `Sturmian.symbol_at` is final;
    `block` computes only the indices it has not seen.  FlowPoints along one
    orbit share their oracle, and with it the memo.
    """

    def __init__(self, sturmian: "Sturmian", phase):
        self.st = sturmian
        self.phase = as_qr(phase, sturmian.alpha.d)
        self._symbols = {}

    def block(self, i, j):
        memo = self._symbols
        symbol_at, phase = self.st.symbol_at, self.phase
        out = []
        for k in range(i, j):
            c = memo.get(k)
            if c is None:
                c = memo[k] = symbol_at(phase, k)
            out.append(c)
        return tuple(out)


# ---------------------------------------------------------------------------
# base class


class Subshift:
    """A subshift given by its exact extension step `walk_step`: a walk
    state fixes which one-symbol right extensions follow, so admissibility,
    the language and its size are walks from `walk_root`."""

    alphabet_size: int
    walk_root = ()  # the `walk_step` state of the empty word

    def walk_step(self, state):
        """(symbol, state) for each admissible one-symbol right extension of
        the word in `state`, by increasing symbol."""
        raise NotImplementedError

    def walk(self, word: Word, state):
        """The state after reading `word` from `state`, or None if some
        extension is not admissible."""
        for c in word:
            state = dict(self.walk_step(state)).get(c)
            if state is None:
                return None
        return state

    def admissible(self, word: Word) -> bool:
        self._check_symbols(word)
        if not word:
            return bool(self.walk_step(self.walk_root))
        return self.walk(word, self.walk_root) is not None

    def levels(self, n: int):
        """The sorted (word, state) pairs of lengths 1, ..., n, one list per
        length."""
        level = [((), self.walk_root)]
        for _ in range(n):
            level = sorted(((w + (c,), nxt) for w, state in level
                            for c, nxt in self.walk_step(state)), key=lambda e: e[0])
            yield level

    def language(self, n: int) -> frozenset:
        cache = self.__dict__.setdefault("_lang_cache", {})
        if n not in cache:
            cache[n] = self._language(n)
        return cache[n]

    def _language(self, n: int) -> frozenset:
        if n < 1:
            raise ValueError("n >= 1")
        for level in self.levels(n):
            pass
        return frozenset(w for w, _ in level)

    def count(self, n: int) -> int:
        """|language(n)|, by the walk with equal states merged and their
        multiplicities summed."""
        counts = {self.walk_root: 1}
        for _ in range(n):
            nxt = {}
            for state, k in counts.items():
                for _, s in self.walk_step(state):
                    nxt[s] = nxt.get(s, 0) + k
            counts = nxt
        return sum(counts.values())

    def periodic_points(self, n: int) -> list:
        """Fixed points of sigma^n, as PointOracles."""
        raise NotImplementedError

    def entropy_exact(self):
        return None

    def _check_symbols(self, word: Word):
        for c in word:
            if not 0 <= c < self.alphabet_size:
                raise ValueError(f"symbol {c} outside alphabet of size {self.alphabet_size}")

    def to_json(self) -> dict:
        raise NotImplementedError


def topological_entropy(subshift: Subshift, horizon: int | None = None) -> float:
    """Entropy in nats: exact (log Perron root) for SFTs, otherwise the
    subadditive upper estimate (1/n) log |language(n)| at n = horizon."""
    exact = subshift.entropy_exact()
    if exact is not None:
        return exact
    if horizon is None:
        raise ValueError("non-SFT subshift needs an explicit horizon")
    count = len(subshift.language(horizon))
    if count == 0:
        raise EmptySubshift()
    return math.log(count) / horizon


# ---------------------------------------------------------------------------
# subshifts of finite type


class SFT(Subshift):
    """Subshift of finite type.

    Construct from a memory-1 adjacency matrix (rows of 0/1) or from a list
    of forbidden words; forbidden lists are compiled to a memory-m vertex
    shift so entropy and periodic counting go through one exact path.
    """

    def __init__(self, alphabet_size: int, adjacency=None, forbidden=None):
        self.alphabet_size = alphabet_size
        if (adjacency is None) == (forbidden is None):
            raise ValueError("give exactly one of adjacency, forbidden")
        if adjacency is not None:
            self.memory = 1
            self.forbidden = tuple(
                (i, j)
                for i in range(alphabet_size)
                for j in range(alphabet_size)
                if not adjacency[i][j]
            )
        else:
            self.forbidden = tuple(tuple(f) for f in forbidden)
            for f in self.forbidden:
                self._check_symbols(f)
                if len(f) < 1:
                    raise ValueError("empty forbidden word")
            self.memory = max((len(f) for f in self.forbidden), default=2) - 1
            self.memory = max(self.memory, 1)
        self._compile()

    def _forbidden_free(self, word: Word) -> bool:
        for f in self.forbidden:
            lf = len(f)
            for i in range(len(word) - lf + 1):
                if word[i : i + lf] == f:
                    return False
        return True

    def _compile(self):
        m = self.memory
        vertices = [
            w
            for w in itertools.product(range(self.alphabet_size), repeat=m)
            if self._forbidden_free(w)
        ]
        edges = {}
        for u in vertices:
            outs = []
            for c in range(self.alphabet_size):
                w = u + (c,)
                if self._forbidden_free(w):
                    outs.append(w[1:])
                edges[u] = outs
        # trim to the essential part: every vertex must have in- and out-edges
        alive = set(vertices)
        changed = True
        while changed:
            changed = False
            indeg = {v: 0 for v in alive}
            for u in list(alive):
                outs = [v for v in edges.get(u, ()) if v in alive]
                if not outs:
                    alive.discard(u)
                    changed = True
                    continue
                for v in outs:
                    indeg[v] += 1
            for v in list(alive):
                if indeg.get(v, 0) == 0:
                    alive.discard(v)
                    changed = True
        self.vertices = sorted(alive)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        self.edges = {
            u: [v for v in edges.get(u, ()) if v in alive] for u in self.vertices
        }
        self._vertex_factors = set()
        for v in self.vertices:
            for i in range(len(v)):
                for j in range(i + 1, len(v) + 1):
                    self._vertex_factors.add(v[i:j])

    def is_empty(self) -> bool:
        return not self.vertices

    def walk_step(self, state):
        """The state is the word's last `memory` symbols: a vertex of the
        essential graph once the word is that long."""
        if len(state) == self.memory:
            return [(v[-1], v) for v in self.edges[state]]
        return [(c, state + (c,)) for c in range(self.alphabet_size)
                if state + (c,) in self._vertex_factors]

    def _language(self, n: int) -> frozenset:
        """Walk the essential vertex graph: a word of length n >= memory is
        admissible iff its memory-blocks form a path, so each level extends
        the last by the out-edges of each word's final block.  Words come out
        in lexicographic order, as a symbol-by-symbol filter would give."""
        if n < 1:
            raise ValueError("n >= 1")
        m = self.memory
        if n < m:
            return frozenset(sorted(w for w in self._vertex_factors if len(w) == n))
        edges = self.edges
        words = list(self.vertices)
        for _ in range(n - m):
            words = [w + v[-1:] for w in words for v in edges[w[-m:]]]
        return frozenset(words)

    def _adjacency_matrix(self):
        k = len(self.vertices)
        a = [[0] * k for _ in range(k)]
        for u in self.vertices:
            for v in self.edges[u]:
                a[self.vindex[u]][self.vindex[v]] = 1
        return a

    def entropy_exact(self) -> float:
        if self.is_empty():
            raise EmptySubshift()
        import numpy as np  # imported here: no other path needs its ~14 MB

        a = np.array(self._adjacency_matrix(), dtype=float)
        eig = np.linalg.eigvals(a)
        lam = max(abs(z) for z in eig)
        return float(math.log(lam))

    def fixed_point_count(self, n: int) -> int:
        """Exact #Fix(sigma^n) = trace of the vertex adjacency to the n-th
        power, computed in integer arithmetic."""
        a = self._adjacency_matrix()
        k = len(a)
        if k == 0:
            return 0
        p = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        base = a
        e = n
        while e:
            if e & 1:
                p = _intmat_mul(p, base)
            base = _intmat_mul(base, base)
            e >>= 1
        return sum(p[i][i] for i in range(k))

    def periodic_points(self, n: int) -> list:
        """All fixed points of sigma^n, as periodic oracles with period word
        x[0..n)."""
        if n < 1:
            raise ValueError("n >= 1")
        out = []
        # closed n-paths in the vertex graph <-> points with sigma^n x = x
        for start in self.vertices:
            stack = [(start, ())]
            while stack:
                v, path = stack.pop()
                if len(path) == n:
                    if v == start:
                        out.append(PeriodicPoint(tuple(p[0] for p in path)))
                    continue
                for w in self.edges[v]:
                    stack.append((w, path + (v,)))
        out.sort(key=lambda p: p.word)
        return out

    def to_json(self):
        if self.memory == 1 and not any(len(f) != 2 for f in self.forbidden):
            adj = [
                [1 if (i, j) not in set(self.forbidden) else 0 for j in range(self.alphabet_size)]
                for i in range(self.alphabet_size)
            ]
            return {"kind": "sft", "alphabet_size": self.alphabet_size, "adjacency": adj}
        return {
            "kind": "sft",
            "alphabet_size": self.alphabet_size,
            "forbidden": [word_str(f) for f in self.forbidden],
        }


def _intmat_mul(x, y):
    k, mid, n2 = len(x), len(y), len(y[0])
    out = [[0] * n2 for _ in range(k)]
    for i in range(k):
        xi = x[i]
        oi = out[i]
        for t in range(mid):
            xt = xi[t]
            if xt:
                yt = y[t]
                for j in range(n2):
                    oi[j] += xt * yt[j]
    return out


def full_shift(k: int) -> SFT:
    return SFT(k, adjacency=[[1] * k for _ in range(k)])


def golden_mean_sft() -> SFT:
    """Binary shift forbidding the word 11."""
    return SFT(2, forbidden=[(1, 1)])


# ---------------------------------------------------------------------------
# Sturmian subshifts


class Sturmian(Subshift):
    """Rotation coding by angle alpha (exact quadratic irrational in (0,1)).

    Convention "low": symbol 1 iff {phase + i*alpha} lies in [0, alpha).
    Convention "high": symbol 1 iff it lies in [1 - alpha, 1).

    Symbols are generated as a mechanical word (Lothaire, Algebraic
    Combinatorics on Words, ch. 2): with x = phase + i*alpha, the low symbol
    is floor(x) - floor(x - alpha) and the high symbol floor(x + alpha) -
    floor(x).  Phase and angle are read in their integer forms
    (A + B*sqrt(d))/C and put over one denominator, so each symbol costs two
    exact integer floors.
    """

    alphabet_size = 2
    walk_root = (0, None)

    def __init__(self, alpha: QuadraticReal, convention: str = "low"):
        alpha = as_qr(alpha)
        if alpha.is_rational:
            raise ValueError("rotation number must be irrational")
        if not (as_qr(0, alpha.d) < alpha < as_qr(1, alpha.d)):
            raise ValueError("rotation number must lie in (0,1)")
        if convention not in ("low", "high"):
            raise ValueError("convention must be 'low' or 'high'")
        self.alpha = alpha
        self.convention = convention
        # the symbol at i is floor(x_{j+1}) - floor(x_j), x_j = phase + j*alpha,
        # with j = i - 1 (low) or j = i (high)
        self._lag = 1 if convention == "low" else 0
        # the phases coded 1 at coordinate 0 are [s, s + alpha) mod 1, with
        # s = 0 (low) or 1 - alpha (high) as the integer pair (a, b) of
        # (a + b*sqrt(d))/C over alpha's denominator C
        self._start = (0, 0) if convention == "low" else (alpha.C - alpha.A, -alpha.B)
        self._cuts = {}  # j -> frac(s - j*alpha) as an integer pair, once per j

    def symbol_at(self, phase: QuadraticReal, i: int) -> int:
        alpha = self.alpha
        d = alpha.d
        if phase.B and phase.d != d:
            raise ValueError(f"mixed radicands {phase.d} and {d}")
        # x_j = phase + j*alpha over the common denominator c
        pc, ac = phase.C, alpha.C
        if pc == ac:
            pa, pb, step_a, step_b, c = phase.A, phase.B, alpha.A, alpha.B, pc
        else:
            pa, pb, c = phase.A * ac, phase.B * ac, pc * ac
            step_a, step_b = alpha.A * pc, alpha.B * pc
        j = i - self._lag
        a = pa + j * step_a
        b = pb + j * step_b
        return floor_surd(a + step_a, b + step_b, d, c) - floor_surd(a, b, d, c)

    def point(self, phase) -> SturmianPoint:
        return SturmianPoint(self, phase)

    def _language(self, n: int) -> frozenset:
        """Walk the circle once: each breakpoint flips the symbols whose
        coding interval boundary it carries, so consecutive arcs differ in
        O(1) positions and the n+1 words come out in linear exact work.

        A breakpoint frac(lo - j*alpha) or frac(hi - j*alpha) is the integer
        pair (a, b) of (a + b*sqrt(d))/C, C alpha's denominator.  The order
        key floor(S*(a + b*sqrt(d))) is exact: distinct points differ by
        1/(|da| + |db|*sqrt(d)) > 1/S or more, as |da^2 - d*db^2| >= 1.
        """
        if n < 1:
            raise ValueError("n >= 1")
        d, c, step_a, step_b = self.alpha.d, self.alpha.C, self.alpha.A, self.alpha.B
        tags = {}
        sa, sb = self._start
        for val, a, b in ((1, sa, sb), (0, sa + step_a, sb + step_b)):
            # just right of frac(s - j a) the j-th symbol becomes 1; just
            # right of frac(s + a - j a) it becomes 0
            for j in range(n):
                fa = a - c * floor_surd(a, b, d, c)
                tags.setdefault((fa, b), []).append((j, val))
                a, b = a - step_a, b - step_b
        scale = 2 * c + 4 * max(abs(b) for _, b in tags) * (math.isqrt(d) + 1)
        pts = sorted(tags, key=lambda ab: floor_surd(scale * ab[0], scale * ab[1], d, 1))
        word = list(self.point(as_qr(0, d)).block(0, n))  # phase 0 = pts[0]
        words = set()
        for x in pts:
            for j, val in tags[x]:
                word[j] = val
            words.add(tuple(word))
        return frozenset(words)

    def walk_step(self, state):
        """The state is (next coordinate j, cylinder arc): None for the whole
        circle, else (la, lb, ha, hb) for [lo, hi) = [(la + lb*sqrt(d))/C,
        (ha + hb*sqrt(d))/C), lo in [0, 1), hi - lo < 1.  The phases coded 1
        at j are [p, p + alpha) mod 1, p = frac(s - j*alpha), and p + alpha is
        where those coded 1 at j - 1 start, never inside a later arc; so p
        splits an arc into a 0 and a 1 part or leaves it in one of them."""
        j, arc = state
        d, C, A, B = self.alpha.d, self.alpha.C, self.alpha.A, self.alpha.B
        if j not in self._cuts:
            pa, pb = self._start[0] - j * A, self._start[1] - j * B
            self._cuts[j] = (pa - C * floor_surd(pa, pb, d, C), pb)
        pa, pb = self._cuts[j]
        if arc is None:  # [p + alpha, p + 1) codes 0 and [p, p + alpha) codes 1
            za, zb = pa + A, pb + B
            zero = (za - C, zb, pa, pb) if sign_surd(za - C, zb, d) >= 0 else (za, zb, pa + C, pb)
            return [(0, (j + 1, zero)), (1, (j + 1, (pa, pb, za, zb)))]
        la, lb, ha, hb = arc
        lifted = sign_surd(pa - la, pb - lb, d) <= 0
        if lifted:  # the lift of p in (lo, lo + 1]
            pa += C
        if sign_surd(ha - pa, hb - pb, d) > 0:
            one = (pa - C, pb, ha - C, hb) if lifted else (pa, pb, ha, hb)
            return [(0, (j + 1, (la, lb, pa, pb))), (1, (j + 1, one))]
        # lo is coded 1 iff (lo - p) mod 1 = lo - lift + 1 < alpha
        return [(int(sign_surd(pa - C + A - la, pb + B - lb, d) > 0), (j + 1, arc))]

    def _cylinder(self, word: Word, anchor: int):
        """The arc (la, lb, ha, hb) of `word` read from coordinate `anchor`,
        as in `walk_step` ([0, 1) for the empty word), or None."""
        self._check_symbols(word)
        state = self.walk(word, (anchor, None))
        return None if state is None else state[1] or (0, 0, self.alpha.C, 0)

    def cylinder_arcs(self, word: Word, anchor: int = 0):
        """Arcs of phases whose coding matches `word` at `anchor`; exact,
        returned as a list of non-wrapping [lo, hi) pairs in [0, 1)."""
        arc = self._cylinder(word, anchor)
        if arc is None:
            return []
        (la, lb, ha, hb), d, C = arc, self.alpha.d, self.alpha.C
        lo = _make(la, lb, C, d)
        if sign_surd(ha - C, hb, d) <= 0:
            return [(lo, _make(ha, hb, C, d))]
        return [(lo, as_qr(1, d)), (as_qr(0, d), _make(ha - C, hb, C, d))]

    def cylinder_measure(self, word: Word, anchor: int = 0) -> QuadraticReal:
        """Mass of the cylinder under the unique invariant measure = total
        arc length (Lebesgue on the circle), exact."""
        arc = self._cylinder(word, anchor)
        if arc is None:
            return as_qr(0, self.alpha.d)
        la, lb, ha, hb = arc
        return _make(ha - la, hb - lb, self.alpha.C, self.alpha.d)

    def periodic_points(self, n: int) -> list:
        return []  # irrational rotation codings are aperiodic

    def to_json(self):
        return {
            "kind": "sturmian",
            "alpha": self.alpha.to_json(),
            "convention": self.convention,
        }


# ---------------------------------------------------------------------------
# products


class ProductSubshift(Subshift):
    """Product of two subshifts; symbol s = s1 * n2 + s2."""

    def __init__(self, first: Subshift, second: Subshift):
        self.first = first
        self.second = second
        self.alphabet_size = first.alphabet_size * second.alphabet_size
        self.walk_root = (first.walk_root, second.walk_root)

    def join(self, w1: Word, w2: Word) -> Word:
        n2 = self.second.alphabet_size
        return tuple(a * n2 + b for a, b in zip(w1, w2))

    def walk_step(self, state):
        """The state is the pair of component states."""
        n2 = self.second.alphabet_size
        return [(a * n2 + b, (s1, s2)) for a, s1 in self.first.walk_step(state[0])
                for b, s2 in self.second.walk_step(state[1])]

    def periodic_points(self, n: int) -> list:
        pts = []
        for p1 in self.first.periodic_points(n):
            for p2 in self.second.periodic_points(n):
                pts.append(PeriodicPoint(self.join(p1.block(0, n), p2.block(0, n))))
        return pts

    def to_json(self):
        return {
            "kind": "product",
            "first": self.first.to_json(),
            "second": self.second.to_json(),
        }


# ---------------------------------------------------------------------------
# verification helpers (used by the test suite and the CLI)


def verify_factor_closure(subshift: Subshift, n: int) -> bool:
    """Every factor of every word in language(n) is again admissible."""
    lang = {m: subshift.language(m) for m in range(1, n + 1)}
    for w in lang[n]:
        for i in range(n):
            for j in range(i + 1, n + 1):
                if w[i:j] not in lang[j - i]:
                    return False
    return True


def verify_right_extendability(subshift: Subshift, n: int) -> bool:
    lang_n = subshift.language(n)
    lang_next = subshift.language(n + 1)
    heads = {w[:-1] for w in lang_next}
    return lang_n <= heads


def subshift_from_json(obj: dict) -> Subshift:
    kind = obj["kind"]
    if kind == "sft":
        size = int(obj["alphabet_size"])
        if "adjacency" in obj:
            return SFT(size, adjacency=obj["adjacency"])
        return SFT(size, forbidden=[parse_word(f) for f in obj["forbidden"]])
    if kind == "sturmian":
        return Sturmian(
            QuadraticReal.from_json(obj["alpha"]), obj.get("convention", "low")
        )
    if kind == "product":
        return ProductSubshift(
            subshift_from_json(obj["first"]), subshift_from_json(obj["second"])
        )
    raise ValueError(f"unknown subshift kind {kind!r}")
