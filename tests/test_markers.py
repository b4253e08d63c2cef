
import itertools
from collections import Counter

import pytest

from suspshift import markers
from suspshift.instances import build_marked_binary_instance, build_two_valued_instance
from suspshift.quadratic import sqrt_d
from suspshift.markers import (
    MarkerSet,
    NoMarkerFound,
    build_marker,
    candidate_returns,
    occurrence_starts,
    return_spectrum,
    return_words,
    verify_coverage,
)
from suspshift.subshifts import SFT, Sturmian, full_shift, golden_mean_sft, parse_word, word_str
from test_measures import SturmianArcMeasure

ANGLES = [sqrt_d(2) - 1, sqrt_d(3) - 1, (sqrt_d(5) - 1) / 2, sqrt_d(7) - 2]


@pytest.fixture(scope="module")
def sturmian():
    return Sturmian(sqrt_d(2) - 1)


def closest_occurrences(subshift, word, depth):
    """Smallest distance between two occurrences of `word` inside one word
    of language(depth), or None if no word holds two."""
    pattern = word_str(word)
    gaps = [b - a for w in subshift.language(depth)
            for s in [occurrence_starts(word_str(w), pattern)]
            for a, b in zip(s, s[1:])]
    return min(gaps, default=None)


class TestReturnSpectrum:
    def test_full_shift_symbol(self):
        spec = return_spectrum(full_shift(2), (0,), depth=10)
        assert spec.min_return == 1
        assert spec.max_gap is None  # 1^10 omits "0"

    def test_golden_mean_one(self):
        spec = return_spectrum(golden_mean_sft(), (1,), depth=10)
        assert spec.min_return == 2  # "11" forbidden
        assert spec.max_gap is None  # 0^10 admissible

    def test_sturmian_length3(self, sturmian):
        spec = return_spectrum(sturmian, parse_word("010"), depth=50)
        assert spec.min_return >= 2
        assert spec.max_gap is not None  # syndetic occurrences

    def test_sturmian_gap_values_are_sparse(self, sturmian):
        # return lengths of a Sturmian factor take exactly two values
        spec = return_spectrum(sturmian, parse_word("00"), depth=60)
        assert set(spec.gap_counts) == {5, 7}


class TestBuildMarker:
    def test_full_shift_has_fixed_point_witness(self):
        with pytest.raises(NoMarkerFound) as err:
            build_marker(full_shift(2), n=3, max_word_len=6, depth=30)
        assert err.value.witness is not None
        assert err.value.witness.period == 1

    def test_golden_mean_periodic_witness(self):
        with pytest.raises(NoMarkerFound) as err:
            build_marker(golden_mean_sft(), n=4, max_word_len=8, depth=30)
        assert err.value.witness.word == (0,)

    def test_sturmian_n5_certified(self, sturmian):
        marker = build_marker(sturmian, n=5, max_word_len=20, depth=100)
        assert marker.min_return >= 5
        assert marker.coverage_k <= marker.max_gap
        # the disjointness of the n shifts: min return >= n exactly when no
        # word of language(depth) holds two occurrences closer than n
        closest = closest_occurrences(sturmian, marker.word, 100)
        for n in (5, marker.min_return, marker.min_return + 1):
            assert (len(marker.returns[0]) >= n) == (closest >= n)
        assert verify_coverage(sturmian, marker.word, marker.coverage_k)
        cert = marker.certificate()
        assert cert["separation_n"] == 5

    def test_sturmian_n1_any_factor(self, sturmian):
        marker = build_marker(sturmian, n=1, max_word_len=4, depth=60)
        assert len(marker.word) in (1, 2)

    def test_kac_height_bound(self, sturmian):
        # invariant mass of the marker cylinder is at most 1/min_return
        marker = build_marker(sturmian, n=5, max_word_len=20, depth=100)
        mu = SturmianArcMeasure(sturmian)
        mass = mu.mass(marker.word)
        assert mass * marker.min_return <= 1

    def test_deeper_scan_refines_certificate(self, sturmian):
        m100 = build_marker(sturmian, n=5, max_word_len=20, depth=100)
        m160 = build_marker(sturmian, n=5, max_word_len=20, depth=160)
        assert m100.word == m160.word
        assert m160.min_return >= m100.min_return or m100.min_return == m160.min_return


class TestReturnWords:
    @pytest.mark.parametrize("convention", ["low", "high"])
    @pytest.mark.parametrize("angle", ANGLES, ids=["sqrt2-1", "sqrt3-1", "golden", "sqrt7-2"])
    def test_sturmian_factors_have_two_return_words(self, angle, convention):
        # Vuillon: every factor of a Sturmian word has exactly two return
        # words; their lengths are the gaps of the depth-420 scan
        st = Sturmian(angle, convention)
        for n in range(1, 13):
            for w in st.language(n):
                returns = return_words(st, w, 420)
                assert returns is not None and len(returns) == 2
                gaps = [len(r) for r in returns]
                spec = return_spectrum(st, w, 420)
                assert set(gaps) == set(spec.gap_counts)
                assert (gaps[0], gaps[-1]) == (spec.min_return, spec.max_gap)
                assert gaps[-1] - 1 == spec.first_start_max
                for r in returns:
                    assert st.admissible(r + w)
                    assert occurrence_starts(word_str(r + w), word_str(w)) == [0, len(r)]

    @pytest.mark.parametrize("sft,word", [
        (golden_mean_sft(), (0,)),
        (golden_mean_sft(), (0, 1)),
        (full_shift(2), (0, 1)),
        (SFT(3, adjacency=[[0, 0, 1], [0, 0, 1], [1, 1, 0]]), (2,)),
        (SFT(3, adjacency=[[0, 0, 1], [0, 0, 1], [1, 1, 0]]), (2, 0, 2)),
        (SFT(2, forbidden=[(0, 0, 0), (1, 1)]), (1,)),
        (SFT(2, forbidden=[(0, 0, 0), (1, 1)]), (0, 1)),
    ], ids=["golden-0", "golden-01", "full-01", "three-2", "three-202",
            "memory2-1", "memory2-01"])
    def test_sft_returns_match_language_scan(self, sft, word):
        depth = 12
        returns = return_words(sft, word, depth)
        scanned = {w[a:b] for w in sft.language(depth)
                   for s in [occurrence_starts(word_str(w), word_str(word))]
                   for a, b in zip(s, s[1:])}
        # a word of the scan that starts with the marker and never sees it
        # again has a return beyond the depth
        escapes = any(w[:len(word)] == word
                      and occurrence_starts(word_str(w), word_str(word)) == [0]
                      for w in sft.language(depth))
        if returns is None:
            assert escapes
        else:
            assert not escapes
            assert set(returns) == scanned
            assert list(returns) == sorted(scanned, key=lambda r: (len(r), r))

    def test_three_symbol_sft_marker_returns(self):
        sft = SFT(3, adjacency=[[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        assert return_words(sft, (2,), 12) == ((2, 0), (2, 1))
        assert return_words(sft, (2, 0, 2), 12) is None  # 2 1 2 1 ... avoids 202

    def test_unbounded_word_gives_none(self):
        # golden mean: 1 0 0 0 ... never returns to 1; full shift: 1 1 1 ...
        # never returns to 0.  The walks end on a marker-free cycle, not at
        # the depth, which is out of reach here.
        depth = 10**9
        assert return_words(golden_mean_sft(), (1,), depth) is None
        assert return_words(full_shift(2), (0, 0, 0), depth) is None
        assert return_words(full_shift(2), (0,), depth) is None
        assert return_words(golden_mean_sft(), (0,), depth) == ((0,), (0, 1))

    def test_depth_boundary(self, sturmian):
        # the gaps of 00 are 5 and 7: the gap 7 shows on a branch of
        # 7 + len(00) = 9 symbols, as it first does in the scan of language(9)
        word = parse_word("00")
        assert [len(r) for r in return_words(sturmian, word, 9)] == [5, 7]
        assert return_words(sturmian, word, 8) is None
        assert set(return_spectrum(sturmian, word, 9).gap_counts) == {5, 7}
        assert set(return_spectrum(sturmian, word, 8).gap_counts) == {5}

    def test_inadmissible_word_rejected(self, sturmian):
        with pytest.raises(ValueError):
            return_words(sturmian, parse_word("11"), 50)


# every angle in both conventions, the golden-mean SFT, and a memory-2 SFT on
# three symbols: 0 and 1 alternate with 2, and 0 2 0 is forbidden
INHERITANCE_BASES = {
    **{f"{name}-{convention}": (lambda a=angle, c=convention: Sturmian(a, c))
       for angle, name in zip(ANGLES, ["sqrt2-1", "sqrt3-1", "golden", "sqrt7-2"])
       for convention in ("low", "high")},
    "golden-mean-sft": golden_mean_sft,
    "memory2-sft": lambda: SFT(3, forbidden=[(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (0, 2, 0)]),
}


def inherited_words(subshift, max_len):
    """The words of lengths 2..max_len whose prefix has one right extension."""
    out = []
    for level in subshift.levels(max_len):
        extensions = Counter(w[:-1] for w, _ in level)
        out += [w for w, _ in level if len(w) > 1 and extensions[w[:-1]] == 1]
    return out


class TestInheritedReturnWords:
    """The marker search walks only the children of right-special words; a
    child of any other word takes its parent's return words, or None when
    len(parent) + 1 + max_gap > depth.  Every word the search sees must get
    what a fresh walk gives."""

    @pytest.mark.parametrize("name", sorted(INHERITANCE_BASES))
    def test_search_returns_equal_fresh_walks(self, name):
        base = INHERITANCE_BASES[name]()
        inherited = inherited_words(base, 14)
        assert inherited
        for depth in (40, 60, 120):
            seen = dict(candidate_returns(base, 14, depth))
            assert len(seen) == sum(base.count(n) for n in range(1, 15))
            for w, returns in seen.items():
                assert returns == return_words(base, w, depth), (w, depth)

    @pytest.mark.parametrize("name", [n for n in sorted(INHERITANCE_BASES) if n != "golden-mean-sft"])
    def test_depth_boundary(self, name):
        # every depth up to 40: a child whose parent's return words fit
        # (len(parent) + max_gap <= depth) but its own do not must get None
        base = INHERITANCE_BASES[name]()
        inherited = inherited_words(base, 14)
        boundary = 0
        for depth in range(2, 41):
            seen = dict(candidate_returns(base, 14, depth))
            for w in inherited:
                assert seen[w] == return_words(base, w, depth), (w, depth)
                boundary += seen[w[:-1]] is not None and seen[w] is None
        assert boundary > 0

    @pytest.mark.parametrize("build,walks", [(build_marked_binary_instance, 23),
                                             (build_two_valued_instance, 10)])
    def test_search_walks_only_right_special_children(self, build, walks, monkeypatch):
        # the shipped searches walked 78 and 20 candidates when every
        # candidate was walked; the marker is the same either way
        calls = []
        real = markers.return_words

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        monkeypatch.setattr(markers, "return_words", counting)
        rf = build()
        assert len(calls) == len(set(calls)) == walks
        assert rf.marker.returns == real(rf.flow.base, rf.marker.word, rf.marker.scan_depth)
