"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance and runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

import pytest

from suspshift.quadratic import qr, sqrt_d
from suspshift.subshifts import (
    Cylinder,
    PeriodicPoint,
    Sturmian,
    full_shift,
    golden_mean_sft,
    topological_entropy,
)
from suspshift.measures import (
    DMetricConfig,
    EmpiricalMeasure,
    MarkovMeasure,
    bernoulli,
    d_distance,
    parry_measure,
)
from suspshift.suspension import (
    Roof,
    SuspensionFlow,
    CrossSection,
    abramov_entropy,
    flow,
    induced_entropy_identity,
    kac_expected_return,
    make_flow_point,
    return_to_section,
    sample_sft_orbit,
    time_delta_tower_entropy,
)
from suspshift.markers import NoMarkerFound, build_marker, return_spectrum, verify_coverage
from suspshift.recode import BalancedCode
from suspshift.generator import decode_name, round_trip
from suspshift.periodic import PeriodicCensus, global_periodic_growth

PHI = (1 + math.sqrt(5)) / 2
LOG2 = math.log(2)
LOG3 = math.log(3)


@contextlib.contextmanager
def criterion(num, text, budget_s=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {text}")
        raise
    elapsed = time.monotonic() - t0
    if budget_s is not None and elapsed >= budget_s:
        print(f"[FAIL] criterion {num}: {text} (runtime {elapsed:.1f}s over budget)")
        raise AssertionError(f"criterion {num} exceeded {budget_s}s: {elapsed:.1f}s")
    print(f"[PASS] criterion {num}: {text} ({elapsed:.2f}s)")


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_criterion_01_exact_entropy():
    with criterion(1, "GoldenMean entropy: Perron within 1e-9, counts within 0.02",
                   budget_s=1.0):
        g = golden_mean_sft()
        assert abs(topological_entropy(g) - math.log(PHI)) < 1e-9
        count_rate = math.log(len(g.language(20))) / 20
        assert abs(count_rate - math.log(PHI)) < 0.02


def test_criterion_02_abramov():
    with criterion(2, "Abramov: Bernoulli(1/2), r=2 gives (log 2)/2, tower cross-check "
                      "within 0.03", budget_s=10.0):
        fs = full_shift(2)
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        roof = Roof.constant(2)
        formula = abramov_entropy(mu.entropy_rate(), roof.integral(mu))
        assert abs(formula - LOG2 / 2) < 1e-12
        labels = {0: "a", 1: "b"}
        h14 = time_delta_tower_entropy(mu, roof, 1, labels, 14)
        h12 = time_delta_tower_entropy(mu, roof, 1, labels, 12)
        cross = (h14 - h12) / 2
        assert abs(cross - formula) < 0.03
        # the raw n=14 average also sits inside the Abramov sandwich
        avg = h14 / 14
        assert formula - 1e-9 <= avg <= (mu.entropy_rate() + LOG3) / 2 + 1e-9


def test_criterion_03_ab_sandwich():
    with criterion(3, "tower-entropy sandwich on 5 Markov/roof fixtures",
                   budget_s=30.0):
        gold = golden_mean_sft()
        fs = full_shift(2)
        fixtures = [
            (bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs),
             Roof.constant(2), Fraction(1)),
            (bernoulli([Fraction(1, 4), Fraction(3, 4)], subshift=fs),
             Roof.constant(2), Fraction(1)),
            (parry_measure(gold), Roof.constant(1), Fraction(1, 2)),
            (bernoulli([Fraction(1, 3), Fraction(2, 3)], subshift=fs),
             Roof.by_symbol([qr(1), qr(2)]), Fraction(1)),
            (MarkovMeasure([[Fraction(1, 2), Fraction(1, 2)],
                            [Fraction(1, 4), Fraction(3, 4)]],
                           pi=[Fraction(1, 3), Fraction(2, 3)], subshift=fs),
             Roof.by_symbol([qr(2), qr(1)]), Fraction(1)),
        ]
        n = 10
        labels = {0: "a", 1: "b"}
        margins = []
        for mu, roof, delta in fixtures:
            value = time_delta_tower_entropy(mu, roof, delta, labels, n) / n / float(delta)
            integral = float(roof.integral(mu))
            lower = mu.entropy_rate() / integral
            upper = (mu.entropy_rate() + LOG3) / integral
            assert lower - 1e-9 <= value <= upper + 1e-9
            margins.append((value - lower, upper - value))
        assert all(m[0] > -1e-9 and m[1] > 0 for m in margins)
        print(f"       sandwich margins: {[(round(a,3), round(b,3)) for a, b in margins]}")


def test_criterion_04_kac():
    with criterion(4, "Kac: mean return to [0] = 2 within 0.05 over 1e5 returns; "
                      "exact oracle with tail < 2^-30", budget_s=120.0):
        fs = full_shift(2)
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        partial, truncated = kac_expected_return(mu, [0], tau_max=32)
        assert float(truncated) < 2.0**-30
        assert abs(float(partial) - 2.0) < 1e-6
        flow_sys = SuspensionFlow(fs, Roof.constant(1))
        section = CrossSection([(Cylinder((0,), 0), qr(0))])
        rng = random.Random(2024)
        total = qr(0)
        count = 0
        target = 100000
        while count < target:
            orbit = sample_sft_orbit(fs, 4200, rng)
            fp = make_flow_point(flow_sys, orbit)
            t, landing, _ = return_to_section(flow_sys, fp, section, max_shifts=4000)
            for _ in range(min(2000, target - count)):
                t, landing, _ = return_to_section(flow_sys, landing, section,
                                                  max_shifts=4000)
                total = total + t
                count += 1
        mean = float(total) / count
        assert abs(mean - 2.0) < 0.05
        print(f"       simulated mean over {count} returns: {mean:.4f}")


def test_criterion_05_induced_identity():
    with criterion(5, "induced-entropy identity: gap < 0.05 at n=10, shrinking to n=14"):
        fs = full_shift(2)
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        lhs10, rhs10, gap10, trunc = induced_entropy_identity(mu, [0], 10, tau_max=32)
        assert gap10 < 0.05
        assert trunc < 2.0**-30
        _, _, gap14, _ = induced_entropy_identity(mu, [0], 14, tau_max=32)
        assert gap14 <= gap10 + 1e-12
        # same oracle on the golden-mean Parry fixture
        _, _, gap_parry, _ = induced_entropy_identity(
            parry_measure(golden_mean_sft()), [0], 10, tau_max=32
        )
        assert gap_parry < 0.05


def test_criterion_06_recode_two_valued(request):
    with criterion(6, "two-valued recode: 1e4 returns exactly in {1, sqrt2, (0,0.1)}; "
                      "occupation bounds", budget_s=120.0):
        two_valued_model = request.getfixturevalue("two_valued_model")  # build on our clock
        p, q, delta = (two_valued_model.constants[c] for c in ("p", "q", "delta"))
        assert p == qr(1) and q == sqrt_d(2) and delta == qr(Fraction(1, 10))
        pt = two_valued_model.flow.base.point(qr(Fraction(2, 11)))
        census = two_valued_model.return_census(pt, 10000)
        assert len(census) == 10000
        for sym, t in census:
            if sym == 1:
                assert t == p
            elif sym == 0:
                assert t == q
            else:
                assert qr(0) < t < delta
        horizon = 10000
        window = two_valued_model.sample_point(99).block(0, horizon)
        freq = {s: window.count(s) / horizon for s in (0, 1, 2)}
        assert freq[2] < 0.1
        assert freq[1] <= 0.5 + 0.02
        assert freq[0] <= 0.6 + 0.02
        print(f"       ocap estimates at 1e4: [0]={freq[0]:.3f} [1]={freq[1]:.3f} "
              f"[2]={freq[2]:.3f}")


def test_criterion_07_recode_marked_binary_structure(request):
    with criterion(7, "marked binary recode: every 400-window contains the marking "
                      "pattern; scheduling words constrained"):
        marked_model = request.getfixturevalue("marked_model")  # build on our clock
        pattern = marked_model.constants["pattern"]
        K = marked_model.constants["K"]
        M = marked_model.constants["M"]
        assert pattern == (0,) * (M + K) + (1,) + (0,) * K + (1,)
        stretch = marked_model.automaton.longest_stretch_avoiding(pattern)
        assert stretch is not None and stretch + len(pattern) <= 400
        from suspshift.subshifts import word_str

        pat = word_str(pattern)
        for seed in range(10):
            window = word_str(marked_model.sample_point(seed).block(0, 400))
            assert pat in window
        for atom in marked_model.atoms:
            w = atom.code_word
            assert w[0] == 1 and w[-1] == 1
            run = 0
            for c in w:
                run = run + 1 if c == 0 else 0
                assert run <= K - 1
        print(f"       pattern {pat}: certified window bound "
              f"{stretch + len(pattern)} <= 400; {len(marked_model.atoms)} atoms checked")


def test_criterion_08_generator_round_trip(request):
    with criterion(8, "alpha-uniform generator: 100/100 exact round trips at n=50",
                   budget_s=60.0):
        gen_model = request.getfixturevalue("gen_model")
        n = 50
        matches = 0
        for seed in range(100):
            pt = gen_model.sample_point(seed)
            rec, truth, match = round_trip(gen_model, pt, n)
            matches += int(match)
        assert matches == 100
        print(f"       {matches}/100 windows recovered the central base block")


def test_criterion_12_generator_on_the_original_flow(request):
    with criterion(12, "generator on the original flow: 50/50 images of Sturmian flow "
                       "points round trip at n=50 and decode to their own base block",
                   budget_s=30.0):
        gen_model = request.getfixturevalue("gen_model")
        rf, n = gen_model.rf, 50
        flow = rf.flow
        names = decodes = 0
        lengths = []
        for seed in range(50):
            rng = random.Random(seed)
            x = flow.base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
            h = flow.roof_at(x, 0) * Fraction(rng.randrange(0, 100), 101)
            pt = rf.image(make_flow_point(flow, x, h))
            _, _, match = round_trip(gen_model, pt, n)
            names += int(match)
            # the decoded name is the Z-block from the chain coordinate of its
            # first P letter; its base word must be the orbit's own block at
            # the base coordinate of the window's central piece
            name, first = gen_model._walk(pt, n)
            recovered = decode_name(name, gen_model.K)
            word, center_idx = rf.decode(tuple(map(int, recovered)))
            start = pt.oracle.base_index(first + len(recovered) // 2) - center_idx
            decodes += int(word == tuple(x.block(start, start + len(word))))
            lengths.append(len(word))
        assert names == 50
        assert decodes == 50
        print(f"       {names}/50 time-p names and {decodes}/50 base words recovered; "
              f"base words of length {min(lengths)}-{max(lengths)}")


def test_criterion_09_periodic_growth():
    with criterion(9, "periodic growth: Lucas counts exact to n=12, rate near log phi, "
                      "Sturmian census empty"):
        census = PeriodicCensus(golden_mean_sft(), n_max=12)
        for n in range(1, 13):
            assert census.fixed_counts[n] == lucas(n)
        growth = global_periodic_growth(census)
        assert abs(growth.value - math.log(PHI)) < 0.05
        sturmian_census = PeriodicCensus(Sturmian(sqrt_d(2) - 1), n_max=8)
        assert len(sturmian_census) == 0


def test_criterion_10_marker_certificates():
    with criterion(10, "markers: Sturmian n=5 certified at depth 100; full shift "
                       "fails with a fixed-point witness"):
        st = Sturmian(sqrt_d(2) - 1)
        marker = build_marker(st, n=5, max_word_len=20, depth=100)
        assert marker.min_return >= 5
        # n-separation: no word of language(100) holds two occurrences of
        # the marker closer than n = 5
        assert min(return_spectrum(st, marker.word, 100).gap_counts) >= 5
        assert verify_coverage(st, marker.word, marker.coverage_k)
        with pytest.raises(NoMarkerFound) as err:
            build_marker(full_shift(2), n=3, max_word_len=6, depth=30)
        assert err.value.witness is not None and err.value.witness.period == 1


def test_criterion_11_invariant_suites():
    with criterion(11, "invariants: exact flow group law (1e3 triples), exact "
                       "stationarity, D truncation, rank/unrank bijection k <= 8"):
        # flow group law
        fs = full_shift(2)
        fl = SuspensionFlow(fs, Roof.by_symbol([qr(1), sqrt_d(2)]))
        rng = random.Random(5)
        x = PeriodicPoint((0, 1, 1, 0, 1, 0, 0, 1))
        violations = 0
        for _ in range(1000):
            p0 = flow(fl, make_flow_point(fl, x), qr(rng.randrange(-20, 20)))
            s = qr(Fraction(rng.randrange(-80, 80), 8)) + qr(0, Fraction(rng.randrange(-8, 8), 4))
            u = qr(Fraction(rng.randrange(-80, 80), 8)) + qr(0, Fraction(rng.randrange(-8, 8), 4))
            if flow(fl, flow(fl, p0, s), u) != flow(fl, p0, s + u):
                violations += 1
        assert violations == 0
        # exact stationarity in the Perron field
        mu = parry_measure(golden_mean_sft())
        zero = mu.pi[0] - mu.pi[0]
        for j in range(2):
            assert sum((mu.pi[i] * mu.P[i][j] for i in range(2)), zero) == mu.pi[j]
        # D truncation bound
        one = EmpiricalMeasure(PeriodicPoint((1,)), fs)
        fair = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=fs)
        d8 = d_distance(fair, one, DMetricConfig(fs, depth=8)).value
        d16 = d_distance(fair, one, DMetricConfig(fs, depth=16)).value
        assert abs(d16 - d8) <= 2.0**-7 + 1e-15
        # rank/unrank bijection for all indices, k <= 8
        for k in range(1, 9):
            code = BalancedCode(2 * k, k)
            for i in range(code.count()):
                assert code.rank(code.unrank(i)) == i
