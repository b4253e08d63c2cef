import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from suspshift.cli import subshift_from_json
from suspshift.quadratic import _make, as_qr, qr, sign_surd, sqrt_d
from suspshift.subshifts import (
    Cylinder,
    SFT,
    Sturmian,
    Subshift,
    Word,
    full_shift,
    golden_mean_sft,
    parse_word,
    topological_entropy,
    word_str,
)

PHI = (1 + math.sqrt(5)) / 2


@pytest.fixture(scope="module")
def golden():
    return golden_mean_sft()


@pytest.fixture(scope="module")
def sturmian():
    return Sturmian(sqrt_d(2) - 1)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class TestSFT:
    def test_forbidden_word(self, golden):
        assert not golden.admissible(parse_word("11"))
        assert golden.admissible(parse_word("0101"))
        assert golden.admissible(parse_word("1010010"))

    def test_language_counts_are_fibonacci(self, golden):
        # |L_n| = F_{n+2}
        for n in range(1, 9):
            assert len(golden.language(n)) == fib(n + 2)
        assert golden.language(2) == {(0, 0), (0, 1), (1, 0)}

    def test_language_count_equals_matrix_sum(self, golden):
        a = golden._adjacency_matrix()
        for n in range(1, 21):
            p = [[1 if i == j else 0 for j in range(len(a))] for i in range(len(a))]
            for _ in range(n - 1):
                p = [
                    [sum(p[i][t] * a[t][j] for t in range(len(a))) for j in range(len(a))]
                    for i in range(len(a))
                ]
            assert len(golden.language(n)) == sum(map(sum, p))

    def test_entropy_is_log_phi(self, golden):
        assert abs(golden.entropy_exact() - math.log(PHI)) < 1e-9
        assert abs(topological_entropy(golden) - math.log(PHI)) < 1e-9

    def test_full_shift(self):
        fs = full_shift(2)
        assert topological_entropy(fs) == pytest.approx(math.log(2), abs=1e-12)
        assert len(fs.language(1)) == 2
        assert len(fs.periodic_points(3)) == 8

    def test_periodic_counts_are_lucas(self, golden):
        for n in range(1, 9):
            pts = golden.periodic_points(n)
            assert len(pts) == lucas(n)
        # every returned point really is sigma^n-fixed and admissible
        for p in golden.periodic_points(4):
            w = p.block(0, 8)
            assert w[:4] == w[4:]
            assert golden.admissible(w)

    def test_trim_removes_transient_symbols(self):
        # symbol 1 can only be left, so the essential shift is the fixed
        # point on symbol 0 alone plus nothing else
        s = SFT(2, adjacency=[[1, 0], [1, 0]])
        assert s.admissible((0, 0))
        assert not s.admissible((0, 1))
        assert len(s.language(3)) == 1


class TestSturmian:
    def test_short_factors(self, sturmian):
        # alpha = sqrt(2)-1 < 1/2, so 1 is the minority symbol: no "11",
        # while 0-runs reach length 2 but not 3
        assert not sturmian.admissible(parse_word("11"))
        assert not sturmian.admissible(parse_word("111"))
        assert sturmian.admissible(parse_word("00"))
        assert not sturmian.admissible(parse_word("000"))

    def test_complexity_is_n_plus_1(self, sturmian):
        for n in range(1, 14):
            assert len(sturmian.language(n)) == n + 1

    def test_language_matches_admissibility(self, sturmian):
        lang4 = sturmian.language(4)
        import itertools

        for w in itertools.product(range(2), repeat=4):
            assert (w in lang4) == sturmian.admissible(w)

    def test_point_blocks_are_admissible(self, sturmian):
        p = sturmian.point(qr(0))
        for i in range(-10, 10):
            assert sturmian.admissible(p.block(i, i + 8))

    def test_known_prefix(self, sturmian):
        # {i*alpha} in [0, alpha) for alpha = sqrt(2)-1, phase 0
        assert sturmian.point(qr(0)).block(0, 9) == parse_word("100101001")

    def test_high_convention_differs(self):
        low = Sturmian(sqrt_d(2) - 1, "low")
        high = Sturmian(sqrt_d(2) - 1, "high")
        assert low.point(qr(0)).block(0, 6) != high.point(qr(0)).block(0, 6)
        for n in range(1, 8):
            assert len(high.language(n)) == n + 1

    def test_cylinder_measures_sum_to_one(self, sturmian):
        total = sum(
            (arc_length(sturmian, w) for w in sturmian.language(5)),
            qr(0),
        )
        assert total == qr(1)

    def test_no_periodic_points(self, sturmian):
        assert sturmian.periodic_points(6) == []

    def test_entropy_estimate_decays(self, sturmian):
        assert topological_entropy(sturmian, horizon=4) == pytest.approx(
            math.log(5) / 4
        )
        assert topological_entropy(sturmian, horizon=32) < 0.12


def cylinder_arc(st: Sturmian, word: Word, anchor: int = 0):
    """The integer arc (la, lb, ha, hb) of the phases whose coding matches
    `word` at `anchor`, as `Sturmian.walk` leaves it ([0, 1) for the empty
    word), or None."""
    state = st.walk(word, (anchor, None))
    return None if state is None else state[1] or (0, 0, st.alpha.C, 0)


def arc_length(st: Sturmian, word: Word):
    """The mass of the cylinder of `word` under the unique invariant measure
    of `st`: the length of its arc, exact.  The rotation keeps Lebesgue
    measure, so the arc read from coordinate 0 serves any anchor."""
    arc = cylinder_arc(st, word)
    if arc is None:
        return as_qr(0, st.alpha.d)
    la, lb, ha, hb = arc
    return _make(ha - la, hb - lb, st.alpha.C, st.alpha.d)


def cylinder_arcs(st: Sturmian, word: Word, anchor: int = 0):
    """Arcs of phases whose coding matches `word` at `anchor`: the integer
    arc of `cylinder_arc` as non-wrapping [lo, hi) pairs in [0, 1)."""
    arc = cylinder_arc(st, word, anchor)
    if arc is None:
        return []
    (la, lb, ha, hb), d, C = arc, st.alpha.d, st.alpha.C
    lo = _make(la, lb, C, d)
    if sign_surd(ha - C, hb, d) <= 0:
        return [(lo, _make(ha, hb, C, d))]
    return [(lo, as_qr(1, d)), (as_qr(0, d), _make(ha - C, hb, C, d))]


def qr_cylinder_arcs(st, word, anchor=0):
    """Cylinder arcs by QuadraticReal arc intersection, symbol by symbol:
    the reference the integer walk of `cylinder_arcs` must equal."""
    zero, one = as_qr(0, st.alpha.d), as_qr(1, st.alpha.d)
    lo1, hi1 = (zero, st.alpha) if st.convention == "low" else (one - st.alpha, one)

    def normalized(lo, hi):
        s = lo - lo.floor()
        e = s + (hi - lo)
        return [(s, e)] if e <= one else [(s, one), (zero, e - one)]

    arcs = [(zero, one)]
    for j, c in enumerate(word):
        sh = (anchor + j) * st.alpha
        pieces = normalized(lo1 - sh, hi1 - sh) if c == 1 else normalized(hi1 - sh, lo1 - sh + 1)
        arcs = [(max(a0, b0), min(a1, b1)) for a0, a1 in arcs for b0, b1 in pieces
                if max(a0, b0) < min(a1, b1)]
    return arcs


class TestIntegerArcs:
    @pytest.mark.parametrize("convention", ["low", "high"])
    @pytest.mark.parametrize("angle", [sqrt_d(2) - 1, sqrt_d(3) - 1, (sqrt_d(5) - 1) / 2,
                                       sqrt_d(7) - 2],
                             ids=["sqrt2-1", "sqrt3-1", "golden", "sqrt7-2"])
    def test_arcs_and_masses_match_quadratic_arcs(self, angle, convention):
        st = Sturmian(angle, convention)
        rng = random.Random(7)
        for n in range(1, 31):
            words = sorted(st.language(n))
            draws = {tuple(rng.randrange(2) for _ in range(n)) for _ in range(10)}
            strays = sorted(draws - st.language(n))[:3]
            for w in words + strays:
                anchors = (0, rng.randrange(-40, 40)) if n % 10 == 0 else (0,)
                for anchor in anchors:
                    ref = qr_cylinder_arcs(st, w, anchor)
                    assert cylinder_arcs(st, w, anchor) == ref
                    assert arc_length(st, w) == sum((hi - lo for lo, hi in ref), qr(0))
                assert st.admissible(w) == (w in words)


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
    heads = {w[:-1] for w in subshift.language(n + 1)}
    return subshift.language(n) <= heads


def test_factor_closure_and_extendability(golden, sturmian):
    for system in (golden, sturmian, full_shift(2)):
        assert verify_factor_closure(system, 12)
        assert verify_right_extendability(system, 12)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 9), st.integers(2, 9))
def test_submultiplicative_counts(n, m):
    g = golden_mean_sft()
    assert len(g.language(n + m)) <= len(g.language(n)) * len(g.language(m))


def test_empty_subshift_entropy_errors():
    from suspshift.subshifts import EmptySubshift

    dead = SFT(2, adjacency=[[0, 0], [0, 0]])
    assert dead.is_empty()
    with pytest.raises(EmptySubshift):
        dead.entropy_exact()


def cylinders_disjoint(c1: Cylinder, c2: Cylinder) -> bool:
    """The two anchored words disagree somewhere on the overlap of their
    windows (never, if the windows are disjoint)."""
    lo = max(c1.anchor, c2.anchor)
    hi = min(c1.anchor + len(c1.word), c2.anchor + len(c2.word))
    return any(c1.word[i - c1.anchor] != c2.word[i - c2.anchor] for i in range(lo, hi))


def test_cylinder_disjointness():
    c1 = Cylinder(parse_word("01"), 0)
    c2 = Cylinder(parse_word("11"), 0)
    c3 = Cylinder(parse_word("1"), 1)
    assert cylinders_disjoint(c1, c2)
    assert not cylinders_disjoint(c1, c3)
    assert not cylinders_disjoint(c2, c3)


def subshift_to_json(system: Subshift) -> dict:
    """The config JSON of an SFT or a Sturmian shift, as `subshift_from_json`
    reads it: an adjacency matrix for an SFT that forbids only words of
    length 2, else its forbidden words."""
    if isinstance(system, Sturmian):
        return {"kind": "sturmian", "alpha": system.alpha.to_json(),
                "convention": system.convention}
    size = system.alphabet_size
    if system.memory == 1 and all(len(f) == 2 for f in system.forbidden):
        adjacency = [[int((i, j) not in system.forbidden) for j in range(size)]
                     for i in range(size)]
        return {"kind": "sft", "alphabet_size": size, "adjacency": adjacency}
    return {"kind": "sft", "alphabet_size": size,
            "forbidden": [word_str(f) for f in system.forbidden]}


def test_json_round_trip(golden, sturmian):
    for system in (golden, sturmian):
        clone = subshift_from_json(subshift_to_json(system), "system")
        assert clone.language(4) == system.language(4)


# ---------------------------------------------------------------------------
# the generic walk against the per-class oracles it replaced


def reference_sft_admissible(sft, word):
    """SFT admissibility by a forbidden-word scan and a path through the
    essential vertex graph, as SFT.admissible decided it before every
    subshift walked its `walk_step`."""
    sft._check_symbols(word)
    word, m = tuple(word), sft.memory
    if not word:
        return not sft.is_empty()
    if len(word) < m:
        return word in sft._vertex_factors
    if not sft._forbidden_free(word):
        return False
    blocks = [word[i : i + m] for i in range(len(word) - m + 1)]
    if any(b not in sft.vindex for b in blocks):
        return False
    return all(blocks[i + 1] in sft.edges[blocks[i]] for i in range(len(blocks) - 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_walk_admissible_matches_sft_reference(data):
    k = data.draw(st.integers(2, 3), label="alphabet")
    letters = st.integers(0, k - 1)
    forbidden = data.draw(st.lists(st.lists(letters, min_size=1, max_size=4).map(tuple),
                                   min_size=1, max_size=4), label="forbidden")
    sft = SFT(k, forbidden=forbidden)
    assert 1 <= sft.memory <= 3
    for _ in range(20):
        w = tuple(data.draw(st.lists(letters, max_size=12), label="word"))
        assert sft.admissible(w) == reference_sft_admissible(sft, w)


def test_walk_admissible_edge_cases(golden, sturmian):
    dead = SFT(2, forbidden=[(0,), (1,)])
    assert dead.is_empty() and not dead.admissible(())
    for system in (golden, sturmian):
        assert system.admissible(())
        with pytest.raises(ValueError, match="outside alphabet"):
            system.admissible((0, system.alphabet_size))


@pytest.mark.parametrize("convention", ["low", "high"])
@pytest.mark.parametrize("angle", [sqrt_d(2) - 1, sqrt_d(3) - 1, (sqrt_d(5) - 1) / 2,
                                   sqrt_d(7) - 2],
                         ids=["sqrt2-1", "sqrt3-1", "golden", "sqrt7-2"])
def test_levels_match_sturmian_language(angle, convention):
    system = Sturmian(angle, convention)
    for n, level in enumerate(system.levels(30), 1):
        words = [w for w, _ in level]
        assert words == sorted(system._language(n))


@pytest.mark.parametrize("forbidden", [[(1, 1)], [(0, 1, 1), (1, 0, 1, 0)], [(0, 0, 0, 1)]])
def test_levels_match_sft_language(forbidden):
    sft = SFT(2, forbidden=forbidden)
    for n, level in enumerate(sft.levels(14), 1):
        words = [w for w, _ in level]
        assert words == sorted(sft._language(n))


def test_count_matches_language_size(golden, sturmian):
    systems = (golden, full_shift(3), SFT(2, forbidden=[(0, 1, 1), (1, 0, 1, 0)]),
               sturmian, Sturmian(sqrt_d(7) - 2, "high"))
    for system in systems:
        for n in range(1, 11):
            assert system.count(n) == len(system.language(n))
