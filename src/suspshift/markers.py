"""Topological Rokhlin towers from marker words.

A marker is a single-cylinder set U = [w].  When every return word of w (u
with uw admissible and w in uw only at its two ends) is at least n long, the
shifts U, sigma U, ..., sigma^{n-1} U are pairwise disjoint; when w occurs in
every admissible word of length K + len(w), the first K shifts of U cover the
subshift.  `return_words` lists the return words exactly, walking the right
extensions of w by each subshift's exact `walk_step`; coverage is an
exhaustive scan of language(K + len(w)).  `return_spectrum` counts gaps
across language(depth): a statistic, computed when a certificate is written.

The marker search walks only some candidates.  When `walk_step` gives the
word w exactly one right extension c, every occurrence of w is followed by
c, so w + (c,) occurs exactly where w does and has the same return words
(Durand, 1998); the depth bound then costs one more symbol, so the child's
return words are w's while len(w) + 1 + max_gap <= depth, else None, and
None when w's are None.  On a Sturmian base only one word of each length
has two right extensions (Vuillon, 2001), so almost every candidate
inherits its parent's return words, and with them its verdict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from suspshift.subshifts import Subshift, Word, word_str


class NoMarkerFound(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ReturnSpectrum:
    min_return: int          # exact if a gap was observed, else a lower bound
    max_gap: int | None      # None = unbounded at this depth (some word omits w)
    first_start_max: int | None  # max first-occurrence start; None if omitted
    gap_counts: dict


def occurrence_starts(text: str, pattern: str):
    """Start of every occurrence of `pattern` in `text`, overlaps included."""
    out = []
    i = text.find(pattern)
    while i != -1:
        out.append(i)
        i = text.find(pattern, i + 1)
    return out


def _scan_texts(subshift: Subshift, depth: int):
    return [word_str(w) for w in subshift.language(depth)]


def return_spectrum(subshift: Subshift, word: Word, depth: int) -> ReturnSpectrum:
    """Occurrence-gap statistics of `word` across all admissible words of
    length `depth`.

    Gaps up to depth - len(word) are all visible at this depth, so the
    observed minimum is the true minimum whenever any gap is observed.
    """
    word = tuple(word)
    if not subshift.admissible(word):
        raise ValueError("marker word must be admissible")
    pattern = word_str(word)
    gap_counts: dict[int, int] = {}
    omitted = False
    first_max = 0
    for text in _scan_texts(subshift, depth):
        starts = occurrence_starts(text, pattern)
        if not starts:
            omitted = True
            continue
        first_max = max(first_max, starts[0])
        for a, b in zip(starts, starts[1:]):
            g = b - a
            gap_counts[g] = gap_counts.get(g, 0) + 1
    return ReturnSpectrum(
        min_return=min(gap_counts, default=depth - len(word) + 1),
        max_gap=None if omitted else max(gap_counts, default=None),
        first_start_max=None if omitted else first_max,
        gap_counts=gap_counts,
    )


def kmp_failure(pattern: Word):
    """fail[i]: length of the longest proper border of pattern[:i + 1]."""
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[k] != pattern[i]:
            k = fail[k - 1]
        if pattern[k] == pattern[i]:
            k += 1
        fail[i] = k
    return fail


def kmp_step(pattern: Word, fail, state: int, sym: int) -> int:
    """The matched prefix length after reading sym; len(pattern) means an
    occurrence just ended, and the next step continues from its border."""
    while state and (state == len(pattern) or pattern[state] != sym):
        state = fail[state - 1]
    return state + 1 if pattern[state] == sym else state


def return_words(subshift: Subshift, word: Word, depth: int, state=None):
    """The return words of `word`, shortest first and then lexicographic, or
    None when a right extension of `word` runs to `depth` symbols without a
    second occurrence, or comes back to a (walk state, matched prefix) pair
    (a cycle free of `word`).  A gap g closes on a branch of g + len(word)
    symbols, the window in which a scan of language(depth) sees it too.
    `state` is the walk state of `word`, if the caller has it."""
    word, lw = tuple(word), len(word)
    fail = kmp_failure(word)
    if state is None:
        state = subshift.walk(word, subshift.walk_root)
        if state is None:
            raise ValueError("marker word must be admissible")
    # depth-first, path[:n] spelling a node's branch; a cycle shows as in
    # Brent's algorithm, against the pair the branch had at length lw + 2^k
    returns, path = [], list(word)
    stack = [(lw, word[-1], state, lw, None)]
    while stack:
        n, c, state, match, saved = stack.pop()
        del path[n - 1:]
        path.append(c)
        if (state, match) == saved:
            return None
        if not (n - lw) & (n - lw - 1):
            saved = (state, match)
        for c, nxt in subshift.walk_step(state):
            m = kmp_step(word, fail, match, c)
            if m == lw:
                returns.append(tuple(path[:n + 1 - lw]))
            elif n + 1 >= depth:
                return None
            else:
                stack.append((n + 1, c, nxt, m, saved))
    returns.sort(key=lambda r: (len(r), r))
    return tuple(returns)


@dataclass(frozen=True)
class MarkerSet:
    """Certified marker: U = [word] with exact return words `returns`
    (shortest first), each at least n long, and coverage constant K (the
    union of the first K+1 shifts of U covers the subshift)."""

    word: Word
    n: int
    min_return: int
    coverage_k: int
    scan_depth: int          # the depth the return walk was bounded by
    returns: tuple
    base: Subshift = field(repr=False, compare=False)

    @property
    def max_gap(self) -> int:
        return len(self.returns[-1])

    def gap_counts(self) -> dict:
        """Occurrence gaps counted across language(scan_depth)."""
        return return_spectrum(self.base, self.word, self.scan_depth).gap_counts

    def certificate(self) -> dict:
        return {
            "word": word_str(self.word),
            "separation_n": self.n,
            "min_return": self.min_return,
            "coverage_k": self.coverage_k,
            "scan_depth": self.scan_depth,
            "gap_counts": {str(g): c for g, c in sorted(self.gap_counts().items())},
        }


def verify_coverage(subshift: Subshift, word: Word, k: int) -> bool:
    """Every admissible word of length k + len(word) contains the marker."""
    pattern = word_str(tuple(word))
    return all(pattern in text for text in _scan_texts(subshift, k + len(word)))


def _periodic_witness(subshift: Subshift, n: int):
    for m in range(1, n):
        try:
            pts = subshift.periodic_points(m)
        except NotImplementedError:
            continue
        if pts:
            return pts[0]
    return None


def candidate_returns(subshift: Subshift, max_word_len: int, depth: int):
    """(word, return words) for every word of lengths 1..max_word_len, by
    increasing length and then lexicographically; the return words are those
    of `return_words(subshift, word, depth)`.  Only the children of a word
    with two or more right extensions are walked: the one child of any other
    word inherits that word's return words (or None), by the rule in the
    module docstring."""
    parents = {}  # the last level's words -> their return words
    for level in subshift.levels(max_word_len):
        extensions = Counter(w[:-1] for w, _ in level)
        current = {}
        for w, state in level:
            if extensions[w[:-1]] == 1 and w[:-1] in parents:
                returns = parents[w[:-1]]
                if returns is not None and len(w) + len(returns[-1]) > depth:
                    returns = None
            else:
                returns = return_words(subshift, w, depth, state)
            current[w] = returns
            yield w, returns
        parents = current


def find_marker(subshift: Subshift, accept, max_word_len: int, depth: int,
                n: int | None = None) -> MarkerSet | None:
    """The first word, by increasing length and then lexicographically, whose
    return words are bounded within `depth`, pass accept(returns), and cover
    at K = max_gap - 1, as a MarkerSet of separation n (default: the shortest
    return), or None.  No smaller K covers (the max_gap - 2 + len(word)
    symbols after an occurrence that opens a longest gap hold none), and with
    bounded returns a longer marker-free word would extend to a point with a
    marker-free half-line, so no larger K covers either.

    The return words come from `candidate_returns`, which walks only the
    children of right-special words (two or more right extensions); a word
    with one right extension hands its return words to its child.  `accept`
    reads the return words alone, so it is asked once per distinct list: a
    child whose parent failed fails too.  Coverage is checked for every word
    that passes."""
    verdicts = {}
    for w, returns in candidate_returns(subshift, max_word_len, depth):
        if not returns:
            continue
        if returns not in verdicts:
            verdicts[returns] = accept(returns)
        if not verdicts[returns]:
            continue
        k = len(returns[-1]) - 1
        if verify_coverage(subshift, w, k):
            shortest = len(returns[0])
            return MarkerSet(w, shortest if n is None else n, shortest, k, depth,
                             returns, subshift)
    return None


def build_marker(subshift: Subshift, n: int, max_word_len: int, depth: int) -> MarkerSet:
    """Search for an n-separated syndetic marker word: increasing length,
    lexicographic order; a word qualifies when every return word is at least
    n long (the n-separation) and the return walk is bounded at `depth`.

    Raises NoMarkerFound with a periodic witness when a point of period < n
    exists (coverage and n-separation are then incompatible)."""
    witness = _periodic_witness(subshift, n)
    if witness is not None:
        raise NoMarkerFound(
            f"periodic point of period {witness.period} < n={n}", witness=witness
        )
    marker = find_marker(subshift, lambda returns: len(returns[0]) >= n,
                         min(max_word_len, depth - n), depth, n)
    if marker is None:
        raise NoMarkerFound(f"no marker up to length {max_word_len} at depth {depth}")
    return marker
