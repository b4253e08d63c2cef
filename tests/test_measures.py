import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suspshift.quadratic import QuadraticReal, qr, sqrt_d
from suspshift.measures import (
    DMetricConfig,
    EmpiricalMeasure,
    MarkovMeasure,
    Measure,
    bernoulli,
    d_distance,
    integrate_locally_constant,
    parry_measure,
    _xlogx,
)
from suspshift.subshifts import SFT, PeriodicPoint, Sturmian, full_shift, golden_mean_sft
from test_subshifts import arc_length

PHI = (1 + math.sqrt(5)) / 2
LOG_PHI = math.log(PHI)


def stationary_vector(p_rows):
    """Exact left fixed vector: pi P = pi, sum(pi) = 1, by Gaussian
    elimination over the entries' field (Fractions or QuadraticReals)."""
    k = len(p_rows)
    # unknowns pi_0 .. pi_{k-1}; equations: sum_i pi_i (P[i][j] - delta_ij) = 0
    # for j < k-1, plus normalization sum_i pi_i = 1
    rows = []
    for j in range(k - 1):
        row = [p_rows[i][j] - (1 if i == j else 0) for i in range(k)]
        rows.append(row + [Fraction(0)])
    rows.append([Fraction(1)] * k + [Fraction(1)])
    for col in range(k):
        piv = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular stationary system")
        rows[col], rows[piv] = rows[piv], rows[col]
        pivval = rows[col][col]
        rows[col] = [x / pivval for x in rows[col]]
        for r in range(len(rows)):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][k] for i in range(k)]


def block_distribution(measure: Measure, n: int) -> dict:
    """Word -> exact mass over the length-n words of the measure's subshift
    that carry mass."""
    return {w: m for w in sorted(measure.subshift.language(n))
            if (m := measure.mass(w)) != 0}


def block_entropy(measure: Measure, n: int) -> float:
    """(1/n) H of the length-n block distribution."""
    return -sum(_xlogx(p) for p in block_distribution(measure, n).values()) / n


class SturmianArcMeasure(Measure):
    """The unique invariant measure of a Sturmian shift: a cylinder's mass
    is the length of its arc of phases, exact."""

    def __init__(self, sturmian: Sturmian):
        self.subshift = sturmian

    def mass(self, word):
        return arc_length(self.subshift, tuple(word))


@pytest.fixture(scope="module")
def fair():
    return bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))


@pytest.fixture(scope="module")
def parry():
    return parry_measure(golden_mean_sft())


class TestMarkov:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError):
            MarkovMeasure([[Fraction(1, 2), Fraction(1, 3)]] * 2, [Fraction(1, 2)] * 2,
                          full_shift(2))

    def test_stationarity_is_exact(self):
        p = [
            [Fraction(1, 3), Fraction(2, 3)],
            [Fraction(3, 4), Fraction(1, 4)],
        ]
        mu = MarkovMeasure(p, stationary_vector(p), full_shift(2))
        for j in range(2):
            assert sum(mu.pi[i] * p[i][j] for i in range(2)) == mu.pi[j]
        assert sum(mu.pi) == 1
        with pytest.raises(ValueError, match="not stationary"):
            MarkovMeasure(p, [Fraction(1, 2)] * 2, full_shift(2))

    def test_entropy_rates(self, fair):
        assert fair.entropy_rate() == pytest.approx(math.log(2), abs=1e-12)
        skew = bernoulli([Fraction(1, 4), Fraction(3, 4)], full_shift(2))
        expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
        assert skew.entropy_rate() == pytest.approx(expected, abs=1e-12)
        assert skew.entropy_rate() == pytest.approx(0.562335, abs=1e-6)

    def test_parry_is_exact_and_maximal(self, parry):
        # stationarity holds as an identity in Q[sqrt(5)]
        for j in range(2):
            lhs = sum(
                (parry.pi[i] * parry.P[i][j] for i in range(2)),
                QuadraticReal(0, 0, 5),
            )
            assert lhs == parry.pi[j]
        assert parry.entropy_rate() == pytest.approx(LOG_PHI, abs=1e-12)
        assert parry.mass((1, 1)) == 0

    @pytest.mark.parametrize("adjacency", [[[1, 0], [0, 1]], [[1, 1], [0, 1]]])
    def test_parry_refuses_a_reducible_graph(self, adjacency):
        with pytest.raises(ValueError, match="irreducible"):
            parry_measure(SFT(2, adjacency=adjacency))

    def test_parry_of_one_vertex_sits_on_its_symbol(self):
        mu = parry_measure(SFT(2, adjacency=[[0, 0], [0, 1]]))
        assert (mu.mass((0,)), mu.mass((1,)), mu.mass((1, 1))) == (0, 1, 1)

    def test_block_entropy_decreases_to_rate(self, parry):
        vals = [parry.block_entropy(n) for n in range(1, 16)]
        gains = [
            (n + 1) * vals[n] - n * vals[n - 1] for n in range(1, 15)
        ]  # H_{n+1} - H_n
        for g1, g2 in zip(gains, gains[1:]):
            assert g2 <= g1 + 1e-12
        assert abs(parry.block_entropy(10) - LOG_PHI) < 0.02
        # the closed form is the entropy of the block distribution
        for n in range(1, 9):
            assert vals[n - 1] == pytest.approx(block_entropy(parry, n), abs=1e-12)

    def test_iid_block_entropy(self, fair):
        for n in (1, 5, 12):
            assert fair.block_entropy(n) == pytest.approx(math.log(2), abs=1e-12)


def periodic_occurrences(period, word) -> int:
    """#{i < P : x[i:i + len(word)] = word} for x the periodic extension of
    the period word, P its length."""
    x = tuple(period) * (len(word) // len(period) + 2)
    return sum(x[i : i + len(word)] == tuple(word) for i in range(len(period)))


def periodic_block_entropy(period, n: int) -> float:
    """(1/n) H of the length-n block frequencies over one period."""
    x = tuple(period) * (n // len(period) + 2)
    blocks = {x[i : i + n] for i in range(len(period))}
    return -sum(_xlogx(Fraction(periodic_occurrences(period, w), len(period)))
                for w in sorted(blocks)) / n


class TestEmpirical:
    def test_period_two_point(self):
        mu = EmpiricalMeasure(PeriodicPoint((0, 1)), full_shift(2))
        assert mu.mass((0, 1)) == Fraction(1, 2)
        assert mu.mass((1, 0)) == Fraction(1, 2)
        assert mu.mass((0, 0)) == 0
        # two equally frequent 3-blocks
        assert periodic_block_entropy((0, 1), 3) == pytest.approx(math.log(2) / 3, abs=1e-12)
        assert block_entropy(mu, 3) == periodic_block_entropy((0, 1), 3)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mass_counts_occurrences_over_one_period(self, data):
        k = data.draw(st.integers(2, 3))
        period = data.draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=12))
        size = len(period)
        x = tuple(period) * 3
        # a word of up to 2P symbols: any word, or one read off the orbit
        word = data.draw(st.one_of(
            st.lists(st.integers(0, k - 1), max_size=2 * size).map(tuple),
            st.tuples(st.integers(0, size - 1), st.integers(0, 2 * size)).map(
                lambda s: x[s[0] : s[0] + s[1]])))
        mu = EmpiricalMeasure(PeriodicPoint(period), full_shift(k))
        expected = Fraction(periodic_occurrences(period, word), size)
        assert mu.mass(word) == expected
        assert mu.mass(list(word)) == expected  # the kept count, read again

    def test_exact_shift_invariance(self):
        pt = PeriodicPoint((0, 0, 1, 0, 1))
        mu = EmpiricalMeasure(pt, full_shift(2))
        for n in range(1, 5):
            dist = block_distribution(mu, n)
            assert sum(dist.values()) == 1
            # invariance: sum over left-extensions equals the word mass
            if n < 4:
                for w, m in dist.items():
                    ext = sum(
                        (mu.mass((c,) + w) for c in range(2)), Fraction(0)
                    )
                    assert ext == m


class TestIntegration:
    def test_constant(self, fair):
        table = {(0,): Fraction(5), (1,): Fraction(5)}
        assert integrate_locally_constant(table, fair) == 5

    def test_rational_values(self, fair):
        table = {(0,): Fraction(1), (1,): Fraction(2)}
        assert integrate_locally_constant(table, fair) == Fraction(3, 2)

    def test_quadratic_values(self, fair):
        table = {(0,): qr(1), (1,): sqrt_d(2)}
        assert integrate_locally_constant(table, fair) == (1 + sqrt_d(2)) / 2


class ConvexCombination(Measure):
    """t mu + (1 - t) nu."""

    def __init__(self, t, mu: Measure, nu: Measure):
        self.t = Fraction(t) if not isinstance(t, (Fraction, QuadraticReal)) else t
        self.mu = mu
        self.nu = nu
        self.subshift = mu.subshift

    def mass(self, word):
        return self.t * self.mu.mass(word) + (1 - self.t) * self.nu.mass(word)


class TestDistance:
    def test_zero_on_equal(self, fair):
        cfg = DMetricConfig(full_shift(2), depth=8)
        assert d_distance(fair, fair, cfg).value == 0.0

    def test_fixed_points_positive_and_symmetric(self):
        zero = EmpiricalMeasure(PeriodicPoint((0,)), full_shift(2))
        one = EmpiricalMeasure(PeriodicPoint((1,)), full_shift(2))
        cfg = DMetricConfig(full_shift(2), depth=8)
        d01 = d_distance(zero, one, cfg)
        assert d01.value > 0
        assert d01.value == d_distance(one, zero, cfg).value
        assert d01.bound == 2.0 ** (-7)

    def test_truncation_bound(self, fair):
        one = EmpiricalMeasure(PeriodicPoint((1,)), full_shift(2))
        d8 = d_distance(fair, one, DMetricConfig(full_shift(2), depth=8)).value
        d16 = d_distance(fair, one, DMetricConfig(full_shift(2), depth=16)).value
        assert abs(d16 - d8) <= 2.0 ** (-7) + 1e-15

    @settings(max_examples=20, deadline=None)
    @given(st.fractions(min_value=0, max_value=1, max_denominator=16))
    def test_convexity(self, t):
        fs = full_shift(2)
        cfg = DMetricConfig(fs, depth=8)
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        mu2 = bernoulli([Fraction(1, 4), Fraction(3, 4)], subshift=fs)
        nu = EmpiricalMeasure(PeriodicPoint((0,)), fs)
        nu2 = EmpiricalMeasure(PeriodicPoint((0, 1)), fs)
        lhs = d_distance(
            ConvexCombination(t, mu, nu), ConvexCombination(t, mu2, nu2), cfg
        ).value
        rhs = float(t) * d_distance(mu, mu2, cfg).value + (1 - float(t)) * d_distance(
            nu, nu2, cfg
        ).value
        assert lhs <= rhs + 1e-12

    def test_triangle_on_truncated_sum(self):
        fs = full_shift(2)
        cfg = DMetricConfig(fs, depth=10)
        a = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        b = bernoulli([Fraction(1, 3), Fraction(2, 3)], subshift=fs)
        c = EmpiricalMeasure(PeriodicPoint((0, 1, 1)), fs)
        dab = d_distance(a, b, cfg).value
        dbc = d_distance(b, c, cfg).value
        dac = d_distance(a, c, cfg).value
        assert dac <= dab + dbc + 1e-12


def test_sturmian_measure_masses():
    st_shift = Sturmian(sqrt_d(2) - 1)
    mu = SturmianArcMeasure(st_shift)
    assert mu.mass((1,)) == sqrt_d(2) - 1
    assert mu.mass((0,)) == 2 - sqrt_d(2)
    total = sum((mu.mass(w) for w in st_shift.language(6)), qr(0))
    assert total == 1


def test_cylinders_listed_once_per_config():
    # length-lexicographic order; the listing is kept on the config and
    # callers receive copies, so mutating one cannot reach the next d_distance
    cfg = DMetricConfig(golden_mean_sft(), depth=8)
    want = [(0,), (1,), (0, 0), (0, 1), (1, 0), (0, 0, 0), (0, 0, 1), (0, 1, 0)]
    got = cfg.cylinders()
    assert got == want
    got.clear()
    assert cfg.cylinders() == want
    assert repr(cfg) == repr(DMetricConfig(cfg.subshift, depth=8))

