"""Topological Rokhlin towers from marker words.

A marker is a single-cylinder set U = [w]: when every occurrence gap of w is
at least n, the shifts U, sigma U, ..., sigma^{n-1} U are pairwise disjoint,
and when w occurs in every admissible word of length K + len(w) the first K
shifts of U cover the subshift.  Both facts are certified by exhaustive scans
of the language at a stated depth, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

from suspshift.subshifts import DepthExceeded, Subshift, Word, word_str


class NoMarkerFound(Exception):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class ReturnSpectrum:
    word: Word
    scan_depth: int
    min_return: int          # exact if a gap was observed, else a lower bound
    min_is_exact: bool
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
    cache = subshift.__dict__.setdefault("_scan_text_cache", {})
    if depth not in cache:
        cache[depth] = [word_str(w) for w in subshift.language(depth)]
    return cache[depth]


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
    if gap_counts:
        min_return, min_exact = min(gap_counts), True
    else:
        min_return, min_exact = depth - len(word) + 1, False
    return ReturnSpectrum(
        word=word,
        scan_depth=depth,
        min_return=min_return,
        min_is_exact=min_exact,
        max_gap=None if omitted else max(gap_counts, default=None),
        first_start_max=None if omitted else first_max,
        gap_counts=gap_counts,
    )


@dataclass(frozen=True)
class MarkerSet:
    """Certified marker: U = [word] with n-separated occurrences and bounded
    coverage constant K (union of the first K+1 shifts covers everything seen
    at the scan depth)."""

    word: Word
    n: int
    min_return: int
    coverage_k: int
    scan_depth: int
    spectrum: ReturnSpectrum

    def certificate(self) -> dict:
        return {
            "word": word_str(self.word),
            "separation_n": self.n,
            "min_return": self.min_return,
            "coverage_k": self.coverage_k,
            "scan_depth": self.scan_depth,
            "gap_counts": {str(g): c for g, c in sorted(self.spectrum.gap_counts.items())},
        }


def verify_disjointness(subshift: Subshift, word: Word, n: int, depth: int) -> bool:
    """Direct language scan: no admissible word of length `depth` places the
    marker at two starts closer than n."""
    pattern = word_str(tuple(word))
    for text in _scan_texts(subshift, depth):
        starts = occurrence_starts(text, pattern)
        for a, b in zip(starts, starts[1:]):
            if b - a < n:
                return False
    return True


def verify_coverage(subshift: Subshift, word: Word, k: int) -> bool:
    """Every admissible word of length k + len(word) contains the marker."""
    pattern = word_str(tuple(word))
    for text in _scan_texts(subshift, k + len(word)):
        if text.find(pattern) == -1:
            return False
    return True


def _periodic_witness(subshift: Subshift, n: int):
    for m in range(1, n):
        try:
            pts = subshift.periodic_points(m)
        except (NotImplementedError, DepthExceeded):
            continue
        if pts:
            return pts[0]
    return None


def build_marker(subshift: Subshift, n: int, max_word_len: int, depth: int) -> MarkerSet:
    """Search for an n-separated syndetic marker word: increasing length,
    lexicographic order; certificates are exact scans at `depth`.

    Raises NoMarkerFound with a periodic witness when a point of period < n
    exists (coverage and n-separation are then incompatible)."""
    witness = _periodic_witness(subshift, n)
    if witness is not None:
        raise NoMarkerFound(
            f"periodic point of period {witness.period} < n={n}", witness=witness
        )
    for length in range(1, max_word_len + 1):
        if length + n > depth:
            break
        for w in sorted(subshift.language(length)):
            spec = return_spectrum(subshift, w, depth)
            if spec.min_return < n or spec.max_gap is None:
                continue
            k = spec.first_start_max
            if not verify_coverage(subshift, w, k):
                continue
            if not verify_disjointness(subshift, w, n, depth):
                continue
            return MarkerSet(
                word=w,
                n=n,
                min_return=spec.min_return,
                coverage_k=k,
                scan_depth=depth,
                spectrum=spec,
            )
    raise NoMarkerFound(f"no marker up to length {max_word_len} at depth {depth}")
