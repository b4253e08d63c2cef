import math

import pytest

from suspshift.quadratic import sqrt_d
from suspshift.measures import DMetricConfig, d_distance
from suspshift.periodic import PeriodicCensus, _census_distance, global_periodic_growth, p_k
from suspshift.subshifts import Sturmian, full_shift, golden_mean_sft
from test_measures import block_distribution

PHI = (1 + math.sqrt(5)) / 2


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@pytest.fixture(scope="module")
def golden_census():
    return PeriodicCensus(golden_mean_sft(), n_max=12)


@pytest.fixture(scope="module")
def full_census():
    return PeriodicCensus(full_shift(2), n_max=8)


class TestCensus:
    def test_golden_fixed_counts_are_lucas(self, golden_census):
        for n in range(1, 13):
            assert golden_census.fixed_counts[n] == lucas(n)

    def test_minimal_periods_divide(self, golden_census):
        for e in golden_census.entries:
            w = e.point.word
            assert len(w) == e.period
            # representative truly has this minimal period
            for d in range(1, e.period):
                if e.period % d == 0:
                    assert w != w[:d] * (e.period // d)

    def test_sturmian_census_empty(self):
        census = PeriodicCensus(Sturmian(sqrt_d(2) - 1), n_max=8)
        assert len(census) == 0

    def test_orbit_count_full_shift(self, full_census):
        # necklace counts: 2, 1, 2, 3, 6, 9, 18, 30 for periods 1..8
        per = {}
        for e in full_census.entries:
            per[e.period] = per.get(e.period, 0) + 1
        assert [per.get(n, 0) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]


class TestGrowth:
    def test_full_shift_growth_is_log2(self, full_census):
        rep = global_periodic_growth(full_census)
        assert rep.value == pytest.approx(math.log(2), abs=1e-12)
        for n, v in rep.per_n.items():
            assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_growth_near_log_phi(self, golden_census):
        rep = global_periodic_growth(golden_census)
        assert abs(rep.value - math.log(PHI)) < 0.05

    def test_sturmian_growth_zero(self):
        census = PeriodicCensus(Sturmian(sqrt_d(2) - 1), n_max=6)
        assert global_periodic_growth(census).value == 0.0


class TestPk:
    def test_isolated_orbit_counts_itself(self, golden_census):
        cfg = DMetricConfig(golden_mean_sft(), depth=8)
        orbit01 = next(e for e in golden_census.entries if e.period == 2)
        assert p_k(golden_census, orbit01, 1e-6, cfg) == 0.0

    def test_huge_scale_counts_fixed_points(self, full_census):
        cfg = DMetricConfig(full_shift(2), depth=8)
        zero = next(
            e for e in full_census.entries if e.period == 1 and e.point.word == (0,)
        )
        assert p_k(full_census, zero, 10.0, cfg) == pytest.approx(math.log(2))

    def test_pk_nonincreasing_in_k(self, golden_census):
        cfg = DMetricConfig(golden_mean_sft(), depth=8)
        growth = global_periodic_growth(golden_census).value
        for e in golden_census.entries[:8]:
            eps = [2.0**-k for k in range(1, 8)]
            vals = [p_k(golden_census, e, x, cfg) for x in eps]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            # bounded by the global growth at the same horizon
            assert vals[0] <= growth + 1e-9

    def test_fixed_point_separation_scale(self, full_census):
        # the two fixed-point measures separate at small eps
        cfg = DMetricConfig(full_shift(2), depth=8)
        zero = next(
            e for e in full_census.entries if e.period == 1 and e.point.word == (0,)
        )
        vals = [p_k(full_census, zero, 2.0**-k, cfg) for k in range(1, 10)]
        assert vals[-1] == 0.0

    def test_orbit_vs_measure_convention(self, full_census):
        cfg = DMetricConfig(full_shift(2), depth=8)
        entry = next(e for e in full_census.entries if e.period == 4)
        orbit_count = p_k(full_census, entry, 10.0, cfg)
        # the discrete convention may identify measures: distinct orbits
        # with one 1-block measure and one period count once
        close = [o for o in full_census.orbits_up_to(entry.period)
                 if d_distance(o.measure, entry.measure, cfg).value < 10.0]
        measures = {tuple(sorted(block_distribution(o.measure, 1).items())) + (o.period,)
                    for o in close}
        measure_count = math.log(max(len(measures), 1)) / entry.period
        assert orbit_count >= measure_count


def u1_table(census: PeriodicCensus, eps_sequence, config: DMetricConfig):
    """For each census orbit the nonincreasing sequence p_k along the given
    decreasing eps_k, plus a census-restricted upper-envelope step (a lower
    bound for the true envelope: only census measures are inspected)."""
    rows = []
    for entry in census.entries:
        pks = [p_k(census, entry, eps, config) for eps in eps_sequence]
        rows.append({"orbit": entry.orbit_id, "period": entry.period, "p_k": pks})
    # envelope step: for each orbit and scale, the max p_k over census
    # measures within eps_k
    for row, entry in zip(rows, census.entries):
        env = []
        for eps, _ in zip(eps_sequence, row["p_k"]):
            best = 0.0
            for other in census.entries:
                if _census_distance(census, config, other.orbit_id, entry.orbit_id) < eps:
                    best = max(best, p_k(census, other, eps, config))
            env.append(best)
        row["envelope"] = env
    return rows


def test_u1_estimate_decays(full_census):
    cfg = DMetricConfig(full_shift(2), depth=8)
    eps = [2.0**-k for k in range(1, 9)]
    rows = u1_table(full_census, eps, cfg)
    fixed_rows = [r for r in rows if r["period"] == 1]
    for row in fixed_rows:
        assert row["p_k"][-1] == 0.0  # isolated at fine scales
        assert all(a >= b - 1e-12 for a, b in zip(row["p_k"], row["p_k"][1:]))
        assert all(e >= p - 1e-12 for e, p in zip(row["envelope"], row["p_k"]))


def test_u1_empty_for_sturmian():
    census = PeriodicCensus(Sturmian(sqrt_d(2) - 1), n_max=6)
    cfg = DMetricConfig(Sturmian(sqrt_d(2) - 1), depth=6)
    assert u1_table(census, [0.5, 0.25], cfg) == []
