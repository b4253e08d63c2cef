import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import suspshift.quadratic as quadratic
import suspshift.suspension as suspension
from suspshift.cli import flow_from_json
from suspshift.quadratic import QuadraticReal, as_qr, qr, sqrt_d
from suspshift.measures import MarkovMeasure, bernoulli, parry_measure, sum_exact
from suspshift.recode import ChainPoint
from suspshift.subshifts import (
    Cylinder, PeriodicPoint, PointOracle, Sturmian, full_shift, golden_mean_sft, word_str,
)
from suspshift.suspension import (
    CrossSection,
    HorizonExceeded,
    FiniteWordOracle,
    FlowPoint,
    NotHit,
    Roof,
    SuspensionFlow,
    abramov_entropy,
    flow,
    induced_entropy_identity,
    kac_expected_return,
    make_flow_point,
    orbit_capacity_discrete,
    return_time_distribution,
    return_to_section,
    sample_sft_orbit,
    SFTWalk,
    time_delta_tower_entropy,
)
from test_exact_oracles import (
    _assert_same_chain,
    _qr_key,
    _reference_return,
    _return_key,
    scan_match,
)
from test_measures import SturmianArcMeasure, stationary_vector
from test_subshifts import cylinders_disjoint, subshift_to_json

PHI = (1 + math.sqrt(5)) / 2

# roof values: rational, in Q[sqrt2], and one that makes the irrational
# parts of a roof sum cancel
ROOF_VALUES = [qr(1), qr(Fraction(2, 3)), sqrt_d(2), 2 - sqrt_d(2),
               qr(Fraction(3, 2), Fraction(1, 4))]


def _flow_with_roof(m, picks):
    words = itertools.product((0, 1), repeat=2 * m + 1)
    table = {w: ROOF_VALUES[k] for w, k in zip(words, picks)}
    return SuspensionFlow(full_shift(2), Roof(m, table))


@pytest.fixture(scope="module")
def unit_flow():
    return SuspensionFlow(full_shift(2), Roof.constant(1))


@pytest.fixture(scope="module")
def mixed_flow():
    # roof 1 over [0], sqrt(2) over [1]
    return SuspensionFlow(full_shift(2), Roof.by_symbol([qr(1), sqrt_d(2)]))


# ---------------------------------------------------------------------------
# references that only the tests use


def check_disjoint(section: CrossSection) -> bool:
    """Equal offsets force disjoint cylinders; distinct offsets are
    disjoint as subsets of the flow space."""
    for i, p1 in enumerate(section.pieces):
        for p2 in section.pieces[i + 1:]:
            if p1.offset == p2.offset and not cylinders_disjoint(p1.cylinder, p2.cylinder):
                return False
    return True


def base_section(flow_sys: SuspensionFlow) -> CrossSection:
    """The canonical section base x {0}."""
    zero = as_qr(0)
    return CrossSection([(Cylinder((c,), 0), zero) for c in range(flow_sys.base.alphabet_size)
                         if flow_sys.base.admissible((c,))])


def theta_slab_mass(flow_sys, measure, cylinder: Cylinder, lo, hi):
    """Exact mass under the normalized product measure of the tower slab
    {(x, t): x in cylinder, lo <= t < hi}; requires hi <= roof on the slab."""
    lo, hi = as_qr(lo), as_qr(hi)
    roof = flow_sys.roof
    total = None
    for w in sorted(roof.table):
        # refine the cylinder by the roof window at coordinate 0
        joint = _join_cylinder(cylinder, w, roof.m, flow_sys.base)
        if joint is None:
            continue
        mass = measure.mass(joint.word)
        if mass == 0:
            continue
        r = roof.table[w]
        lo_c = lo if lo > 0 else as_qr(0)
        hi_c = hi if hi < r else r
        if lo_c >= hi_c:
            continue
        term = mass * (hi_c - lo_c)
        total = term if total is None else total + term
    if total is None:
        return as_qr(0)
    return total / roof.integral(measure)


def _join_cylinder(c: Cylinder, roof_word, m: int, base):
    """Intersect `c` with the roof-window cylinder [-m, m] -> roof_word;
    returns an anchored cylinder or None if empty.  The result is re-anchored
    to its own leftmost coordinate."""
    end = c.anchor + len(c.word)
    lo = min(c.anchor, -m)
    hi = max(end, m + 1)
    word = []
    for i in range(lo, hi):
        a = c.word[i - c.anchor] if c.anchor <= i < end else None
        b = roof_word[i + m] if -m <= i <= m else None
        if a is not None and b is not None and a != b:
            return None
        v = a if a is not None else b
        if v is None:
            raise ValueError(
                "slab cylinder must form a contiguous window with the roof window"
            )
        word.append(v)
    joint = Cylinder(tuple(word), lo)
    return joint if base.admissible(joint.word) else None


def occupation_fraction_flow(flow_sys, point: FlowPoint, slabs, duration,
                             max_shifts: int = 200000):
    """Exact fraction of [0, duration) the orbit of `point` spends in the
    union of tower slabs (cylinder, lo, hi)."""
    duration = as_qr(duration)
    slabs = [
        (cyl if isinstance(cyl, Cylinder) else Cylinder(*cyl), as_qr(lo), as_qr(hi))
        for (cyl, lo, hi) in slabs
    ]
    idx, h = point.index, point.height
    spent = as_qr(0)
    elapsed = as_qr(0)
    for _ in range(max_shifts):
        r = flow_sys.roof_at(point.oracle, idx)
        seg_end = r if elapsed + (r - h) <= duration else h + (duration - elapsed)
        for (c, lo, hi) in slabs:
            blk = tuple(point.oracle.block(idx + c.anchor, idx + c.anchor + len(c.word)))
            if blk != tuple(c.word):
                continue
            lo_c = lo if lo > h else h
            hi_c = hi if hi < seg_end else seg_end
            if lo_c < hi_c:
                spent = spent + (hi_c - lo_c)
        elapsed = elapsed + (seg_end - h)
        if elapsed >= duration:
            return spent / duration
        idx += 1
        h = as_qr(0)
    raise HorizonExceeded("occupation scan exceeded the shift budget")


def flow_to_json(flow_sys: SuspensionFlow) -> dict:
    """The config JSON of a flow, as `flow_from_json` reads it."""
    roof = flow_sys.roof
    return {"base": subshift_to_json(flow_sys.base),
            "roof": {"window": roof.m,
                     "table": {word_str(w): v.to_json() for w, v in roof.table.items()}}}


class TestFlowMap:
    def test_unit_roof_flow(self, unit_flow):
        x = PeriodicPoint((0, 1))
        p = make_flow_point(unit_flow, x)
        q = flow(unit_flow, p, Fraction(3, 2))
        assert q.index == 1 and q.height == Fraction(1, 2)

    def test_identity_at_zero(self, unit_flow):
        p = make_flow_point(unit_flow, PeriodicPoint((0, 1)), Fraction(1, 3))
        assert flow(unit_flow, p, 0) == p

    def test_quadratic_roof_sum(self, mixed_flow):
        x = PeriodicPoint((0, 1))
        p = make_flow_point(mixed_flow, x)
        q = flow(mixed_flow, p, 1 + sqrt_d(2))
        assert q.index == 2 and q.height == qr(0)

    def test_negative_time_inverts(self, mixed_flow):
        p = make_flow_point(mixed_flow, PeriodicPoint((0, 1)), Fraction(1, 2))
        s = sqrt_d(2) * 3 - qr(Fraction(5, 7))
        assert flow(mixed_flow, flow(mixed_flow, p, s), -s) == p

    def test_horizon_exceeded(self, unit_flow):
        from suspshift.suspension import HorizonExceeded

        p = make_flow_point(unit_flow, PeriodicPoint((0, 1)))
        with pytest.raises(HorizonExceeded):
            flow(unit_flow, p, 10**6, max_shifts=100)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(-40, 40),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
        st.fractions(min_value=-8, max_value=8, max_denominator=12),
    )
    def test_group_law(self, shift, s_rat, s_irr, u_rat, u_irr):
        fl = SuspensionFlow(full_shift(2), Roof.by_symbol([qr(1), sqrt_d(2)]))
        x = PeriodicPoint((0, 1, 1, 0, 1))
        p = flow(fl, make_flow_point(fl, x), qr(shift))
        s = qr(s_rat) + qr(0, s_irr)
        u = qr(u_rat) + qr(0, u_irr)
        assert flow(fl, flow(fl, p, s), u) == flow(fl, p, s + u)


class TestSection:
    def test_base_section_return_is_roof(self, mixed_flow):
        sec = base_section(mixed_flow)
        x = PeriodicPoint((0, 1))
        p = make_flow_point(mixed_flow, x)
        t, landing, _ = return_to_section(mixed_flow, p, sec)
        assert t == qr(1)  # roof over symbol 0
        assert landing.index == 1 and landing.height == qr(0)
        t2, _, _ = return_to_section(mixed_flow, landing, sec)
        assert t2 == sqrt_d(2)

    def test_return_strictly_positive(self, unit_flow):
        sec = base_section(unit_flow)
        p = make_flow_point(unit_flow, PeriodicPoint((0,)))
        t, _, _ = return_to_section(unit_flow, p, sec)
        assert t == qr(1)

    def test_offset_piece(self, unit_flow):
        sec = CrossSection([(Cylinder((0,), 0), Fraction(1, 2))])
        p = make_flow_point(unit_flow, PeriodicPoint((0,)), Fraction(1, 4))
        t, landing, k = return_to_section(unit_flow, p, sec)
        assert t == Fraction(1, 4) and k == 0
        assert landing.height == Fraction(1, 2)
        # the landing really lies on the matched piece
        assert any(
            off == landing.height and idx == k
            for off, idx in scan_match(sec, landing.oracle, landing.index)
        )

    def test_disjointness_check(self):
        good = CrossSection(
            [(Cylinder((0,), 0), qr(0)), (Cylinder((1,), 0), qr(0))]
        )
        bad = CrossSection(
            [(Cylinder((0,), 0), qr(0)), (Cylinder((0, 1), 0), qr(0))]
        )
        assert check_disjoint(good)
        assert not check_disjoint(bad)

    def test_kac_mean_return_simulated(self, unit_flow):
        # mean return time to [0] x {0} under Bernoulli(1/2) is 1/mu([0]) = 2
        sec = CrossSection([(Cylinder((0,), 0), qr(0))])
        rng = random.Random(11)
        total = qr(0)
        count = 0
        for _ in range(200):
            orbit = sample_sft_orbit(unit_flow.base, 400, rng)
            p = make_flow_point(unit_flow, orbit)
            for _ in range(50):
                t, p, _ = return_to_section(unit_flow, p, sec, max_shifts=380)
                total = total + t
                count += 1
        mean = float(total) / count
        assert abs(mean - 2.0) < 0.05

    def test_sft_walk_extends_lazily(self):
        g = golden_mean_sft()
        for seed in range(5):
            # reference: the eager walk, drawn sft.memory symbols past the window
            rng = random.Random(seed)
            v = rng.choice(g.vertices)
            ref = list(v)
            while len(ref) < 300 + g.memory:
                v = rng.choice(g.edges[v])
                ref.append(v[-1])
            fixed_rng = random.Random(seed)
            fixed = sample_sft_orbit(g, 300, fixed_rng)
            assert fixed.block(0, 300) == tuple(ref[:300])
            assert fixed_rng.random() == rng.random()  # the same number of draws
            walk = SFTWalk(g, random.Random(seed))
            assert walk.block(0, 10) + walk.block(10, 300) == tuple(ref[:300])
            long = walk.block(250, 5000)
            assert len(long) == 4750 and g.admissible(walk.block(0, 5000))
        with pytest.raises(HorizonExceeded):
            walk.block(-1, 3)

    def test_kac_returns_outrun_a_fixed_window(self, unit_flow):
        # 1000 returns need ~2000 symbols plus a few standard deviations:
        # the lazy walk never runs out, where a 2000-symbol window would
        sec = CrossSection([(Cylinder((0,), 0), qr(0))])
        p = make_flow_point(unit_flow, SFTWalk(unit_flow.base, random.Random(11)))
        for _ in range(1200):
            _, p, _ = return_to_section(unit_flow, p, sec, max_shifts=2000)
        assert p.index > 2000

    def test_kac_exact_oracle(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        partial, truncated = kac_expected_return(mu, [0], tau_max=32)
        assert truncated < Fraction(1, 2**30)
        assert abs(float(partial) - 2.0) < 1e-6
        dist, _ = return_time_distribution(mu, [0], tau_max=10)
        assert dist[1] == Fraction(1, 2) and dist[3] == Fraction(1, 8)


class TestReturnPlan:
    """`return_to_section` on its integer plan against the QuadraticReal
    loop it replaced, `_reference_return`: the same time down to (A, B, C,
    d), the same landing and piece, the same errors."""

    def test_unit_and_mixed_flows(self, unit_flow, mixed_flow):
        sections = [
            [(Cylinder((0,), 0), qr(0))],
            [(Cylinder((0,), 0), qr(0)), (Cylinder((1,), 0), qr(0))],
            [(Cylinder((1, 0), 0), Fraction(1, 3)), (Cylinder((0,), -1), qr(0)),
             (Cylinder((1,), 1), Fraction(1, 3)), (Cylinder((0, 0, 1), -2), Fraction(1, 2))],
            [(Cylinder((1,), 0), sqrt_d(2) - 1), (Cylinder((1,), 0), Fraction(1, 5)),
             (Cylinder((1, 1), -1), Fraction(1, 5))],
        ]
        rng = random.Random(3)
        for fl in (unit_flow, mixed_flow):
            for pieces in sections:
                sec = CrossSection(pieces)
                for _ in range(20):
                    x = PeriodicPoint(tuple(rng.randrange(2) for _ in range(rng.randrange(3, 9))))
                    idx = rng.randrange(-5, 5)
                    h = fl.roof_at(x, idx) * Fraction(rng.randrange(10), 10)
                    _assert_same_chain(fl, FlowPoint(x, idx, h), sec, 6)

    def test_roof_with_window_one(self):
        fl = _flow_with_roof(1, [0, 2, 3, 1, 4, 0, 2, 3])
        sec = CrossSection([
            (Cylinder((1, 1), -1), qr(0)), (Cylinder((0,), 2), Fraction(1, 2)),
            (Cylinder((0, 1), 0), Fraction(1, 2)), (Cylinder((1,), 0), sqrt_d(2) / 2),
        ])
        # inside the roof window, so a sliding read is the roof word's last symbol
        inner = CrossSection([(Cylinder((0, 1), -1), Fraction(1, 3)),
                              (Cylinder((1,), 1), qr(0))])
        rng = random.Random(5)
        for section in (sec, inner):
            for _ in range(40):
                x = PeriodicPoint(tuple(rng.randrange(2) for _ in range(rng.randrange(2, 11))))
                idx = rng.randrange(-6, 6)
                h = fl.roof_at(x, idx) * Fraction(rng.randrange(7), 7)
                _assert_same_chain(fl, FlowPoint(x, idx, h), section, 5)
        assert inner.plan(fl.roof).hi == 2

    def test_two_pieces_in_one_column_either_side_of_the_start(self, unit_flow):
        # over [0] at 1/4 and, on the word 01, at 3/4: a start between them
        # lands on the upper one, a start at or above both in a later column
        sec = CrossSection([(Cylinder((0, 1), 0), Fraction(3, 4)),
                            (Cylinder((0,), 0), Fraction(1, 4)),
                            (Cylinder((1,), -1), Fraction(1, 2))])
        x = PeriodicPoint((0, 1, 1, 0, 0))
        for h, want in [(Fraction(1, 2), (Fraction(1, 4), 0, 0)),
                        (Fraction(1, 4), (Fraction(1, 2), 0, 0)),
                        (Fraction(0), (Fraction(1, 4), 0, 1)),
                        (Fraction(3, 4), (Fraction(7, 4), 2, 2))]:
            p = FlowPoint(x, 0, qr(h))
            t, landing, k = return_to_section(unit_flow, p, sec)
            assert (t, landing.index, k) == want
            _assert_same_chain(unit_flow, p, sec, 6)

    def test_chain_point_draws_the_same_atoms(self, two_valued_model):
        # a window-1 roof over the recoded symbols; every piece lies right of
        # the roof window's left end, so each return draws left atoms only in
        # its first read, in the order the per-piece reference draws them
        aut = two_valued_model.automaton
        size = 1 + max(c for a in aut.atoms for c in a.emission)
        words = itertools.product(range(size), repeat=3)
        fl = SuspensionFlow(full_shift(size), Roof(1, {
            w: ROOF_VALUES[(w[0] + 2 * w[1] + w[2]) % len(ROOF_VALUES)] for w in words}))
        sec = CrossSection([(Cylinder((2,), 0), qr(0)), (Cylinder((0, 1), 3), Fraction(1, 3)),
                            (Cylinder((1, 1, 0), -1), sqrt_d(2) / 4)])
        for seed in range(12):
            new, ref = (ChainPoint(aut, random.Random(seed)) for _ in range(2))
            start = seed - 30
            p, q = FlowPoint(new, start, qr(0)), FlowPoint(ref, start, qr(0))
            for _ in range(8):
                got = return_to_section(fl, p, sec)
                want = _reference_return(fl, q, sec)
                assert _return_key(got) == _return_key(want)
                p, q = got[1], want[1]
            assert new.chain == ref.chain and new.offset == ref.offset
            assert new.rng.getstate() == ref.rng.getstate()

    def test_each_base_symbol_is_read_once(self, two_valued_model, unit_flow):
        # the first column reads its window [lo, hi), each later shift one symbol
        kac = CrossSection([(Cylinder((0,), 0), qr(0))])
        rng = random.Random(4)
        cases = [(unit_flow, kac, make_flow_point(unit_flow, SFTWalk(unit_flow.base, rng)))]
        flow2 = two_valued_model.flow
        for _ in range(20):
            x = flow2.base.point(qr(Fraction(rng.randrange(10**6), 10**6)))
            cases.append((flow2, two_valued_model.section(), make_flow_point(flow2, x)))
        for fl, sec, p in cases:
            plan = sec.plan(fl.roof)
            for _ in range(4):
                reads = []
                oracle = _CountingOracle(p.oracle, reads)
                _, landing, _ = return_to_section(fl, FlowPoint(oracle, p.index, p.height), sec)
                shifts = landing.index - p.index + 1
                assert reads == [plan.hi - plan.lo] + [1] * (shifts - 1)
                p = FlowPoint(p.oracle, landing.index, landing.height)

    def test_memo_holds_one_outcome_per_window(self, two_valued_model, unit_flow):
        # a Sturmian orbit shows n + 1 windows of length n; the full shift's
        # one-symbol windows are 2
        flow2, sec = two_valued_model.flow, two_valued_model.section()
        rng = random.Random(6)
        for _ in range(3000):
            x = flow2.base.point(qr(Fraction(rng.randrange(10**6), 10**6)))
            return_to_section(flow2, make_flow_point(flow2, x), sec)
        plan = sec.plan(flow2.roof)
        assert plan.hi - plan.lo == 38 and len(plan.outcomes) == 39
        kac = CrossSection([(Cylinder((0,), 0), qr(0))])
        p = make_flow_point(unit_flow, SFTWalk(unit_flow.base, rng))
        for _ in range(500):
            _, p, _ = return_to_section(unit_flow, p, kac, max_shifts=2000)
        assert len(kac.plan(unit_flow.roof).outcomes) <= 2

    def test_two_valued_section(self, two_valued_model):
        rf = two_valued_model
        sec = rf.section()
        assert len(sec) == 35
        rng = random.Random(8)
        for _ in range(200):
            x = rf.flow.base.point(qr(Fraction(rng.randrange(10**6), 10**6)))
            h = rf.flow.roof_at(x, 0) * Fraction(rng.randrange(100), 101)
            _assert_same_chain(rf.flow, make_flow_point(rf.flow, x, h), sec, 4, 200)

    def test_kac_section_draws_the_same_walk(self, unit_flow):
        sec = CrossSection([(Cylinder((0,), 0), qr(0))])
        new, ref = (SFTWalk(unit_flow.base, random.Random(17)) for _ in range(2))
        p, q = make_flow_point(unit_flow, new), make_flow_point(unit_flow, ref)
        for _ in range(2000):
            got = return_to_section(unit_flow, p, sec, max_shifts=2000)
            want = _reference_return(unit_flow, q, sec, max_shifts=2000)
            assert _return_key(got) == _return_key(want)
            p, q = got[1], want[1]
        assert new.rng.getstate() == ref.rng.getstate() and new.word == ref.word

    def test_point_on_the_section_returns_later(self, mixed_flow):
        sec = CrossSection([(Cylinder((0,), 0), Fraction(1, 2)),
                            (Cylinder((1,), 0), Fraction(1, 2))])
        p = FlowPoint(PeriodicPoint((0, 1, 1)), 0, qr(Fraction(1, 2)))
        t, landing, k = return_to_section(mixed_flow, p, sec)
        assert t == 1 and landing.index == 1 and k == 1
        _assert_same_chain(mixed_flow, p, sec, 4)

    def test_piece_above_every_roof_is_never_hit(self, mixed_flow):
        # offsets at or above the roof of their column: 3, sqrt2 over [0]
        # (roof 1), and each symbol's roof itself
        sec = CrossSection([(Cylinder((1,), 0), qr(3)), (Cylinder((0,), 0), sqrt_d(2)),
                            (Cylinder((1,), 0), sqrt_d(2)), (Cylinder((0,), 0), qr(1)),
                            (Cylinder((1,), 0), Fraction(1, 3))])
        p = make_flow_point(mixed_flow, PeriodicPoint((0, 1, 0, 0, 1)))
        for _ in range(10):
            t, p, k = return_to_section(mixed_flow, p, sec)
            assert k == 4
        _assert_same_chain(mixed_flow, p, sec, 8)

    def test_rational_roof_with_sqrt3_height(self):
        fl = SuspensionFlow(full_shift(2), Roof.by_symbol([qr(1), qr(Fraction(3, 2))]))
        sec = CrossSection([(Cylinder((1,), 0), Fraction(1, 4)), (Cylinder((0, 0), 0), qr(0))])
        x = PeriodicPoint((0, 1, 1, 0, 0, 1))
        h = QuadraticReal(Fraction(-1, 2), Fraction(1, 2), 3)  # (sqrt3 - 1)/2
        for idx in range(6):
            p = FlowPoint(x, idx, h)
            assert return_to_section(fl, p, sec)[0].d == 3
            _assert_same_chain(fl, p, sec, 3)

    def test_radicand_of_a_rational_time(self, mixed_flow):
        # a rational height written in Q[sqrt3] keeps d = 3 until a sqrt2
        # roof or offset is added, as the QuadraticReal sum did; over roofs
        # sqrt2 and 2 - sqrt2 a time can be rational again, with d = 2
        cancelling = _flow_with_roof(0, [2, 3])
        sec = CrossSection([(Cylinder((0,), 0), qr(0)), (Cylinder((1, 1), 0), sqrt_d(2) / 3)])
        x = PeriodicPoint((0, 0, 1, 1, 1, 0))
        h = QuadraticReal(Fraction(1, 3), 0, 3)
        for fl in (mixed_flow, cancelling):
            for idx in range(6):
                if h < fl.roof_at(x, idx):
                    _assert_same_chain(fl, FlowPoint(x, idx, h), sec, 4)
        zero = CrossSection([(Cylinder((0,), 0), qr(0))])
        p = FlowPoint(PeriodicPoint((0, 1, 0)), 0, h)
        t, _, _ = return_to_section(cancelling, p, zero)
        assert t == Fraction(5, 3) and t.d == 2
        assert _qr_key(t) == _qr_key(_reference_return(cancelling, p, zero)[0])

    def test_errors(self, unit_flow, mixed_flow):
        sec = CrossSection([(Cylinder((0,), 0), qr(0))])
        ones = make_flow_point(unit_flow, PeriodicPoint((1,)))
        for fn in (return_to_section, _reference_return):
            with pytest.raises(NotHit):
                fn(unit_flow, ones, sec, max_shifts=50)
        # a sampled word runs out: at its end, and at its start for a
        # section anchored left of the roof window
        finite = make_flow_point(unit_flow, FiniteWordOracle((1,) * 30), index=3)
        left = CrossSection([(Cylinder((0, 1), -4), qr(0))])
        for s in (sec, left):
            for fn in (return_to_section, _reference_return):
                with pytest.raises(HorizonExceeded, match="outside the sampled window"):
                    fn(unit_flow, finite, s)
        # a roof undefined on the window read
        partial = SuspensionFlow(full_shift(2), Roof(0, {(0,): qr(1)}))
        p = FlowPoint(PeriodicPoint((0, 0, 1)), 0, qr(0))
        messages = set()
        for fn in (return_to_section, _reference_return):
            with pytest.raises(KeyError) as err:
                fn(partial, p, CrossSection([(Cylinder((0, 1), -1), qr(0))]))
            messages.add(str(err.value))
        assert messages == {"'roof undefined on window (1,)'"}
        # heights and offsets from two quadratic fields
        sqrt3 = QuadraticReal(0, Fraction(1, 4), 3)
        cases = [
            (FlowPoint(PeriodicPoint((1,)), 0, sqrt3), base_section(mixed_flow)),
            (make_flow_point(mixed_flow, PeriodicPoint((1, 0))),
             CrossSection([(Cylinder((1,), 0), sqrt3)])),
        ]
        for p, s in cases:
            for fn in (return_to_section, _reference_return):
                with pytest.raises(ValueError, match="mixed radicands"):
                    fn(mixed_flow, p, s)

    def test_plan_is_kept_per_roof(self, unit_flow, mixed_flow):
        sec = CrossSection([(Cylinder((0,), 0), qr(0))])
        plan = sec.plan(unit_flow.roof)
        assert sec.plan(unit_flow.roof) is plan
        other = sec.plan(mixed_flow.roof)
        assert other is not plan and other.roof is mixed_flow.roof
        p = make_flow_point(unit_flow, PeriodicPoint((0, 1, 1)))
        assert _return_key(return_to_section(unit_flow, p, sec)) == \
            _return_key(_reference_return(unit_flow, p, sec))

    def test_no_quadratic_operation_per_shift(self, monkeypatch, mixed_flow):
        sec = CrossSection([(Cylinder((0, 0), 0), Fraction(1, 2)), (Cylinder((1,), 0), qr(2))])
        x = PeriodicPoint((1,) * 40 + (0, 0))
        p = make_flow_point(mixed_flow, x, sqrt_d(2) - 1)
        return_to_section(mixed_flow, p, sec)  # builds the plan
        counts = Counter()
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__",
                     "__ge__", "__eq__", "_cmp", "sign", "floor", "__bool__"):
            monkeypatch.setattr(QuadraticReal, name, _counting(counts, name,
                                                              getattr(QuadraticReal, name)))
        monkeypatch.setattr(suspension, "_make", _counting(counts, "_make", suspension._make))
        t, landing, k = return_to_section(mixed_flow, p, sec)
        assert landing.index == 40 and k == 0
        assert counts == Counter({"_make": 1})


class TestAbramov:
    def test_formula(self):
        assert abramov_entropy(math.log(2), 2) == pytest.approx(math.log(2) / 2)
        assert abramov_entropy(0.0, sqrt_d(2)) == 0.0
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        roof = Roof.by_symbol([qr(1), qr(2)])
        integral = roof.integral(mu)
        assert integral == Fraction(3, 2)
        assert abramov_entropy(math.log(2), integral) == pytest.approx(
            2 * math.log(2) / 3
        )


class TestThetaMass:
    def test_slab_mass_matches_product_formula(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        fl = SuspensionFlow(full_shift(2), Roof.by_symbol([qr(1), qr(2)]))
        # slab [0] x [0, 1/2): mass = mu([0]) * (1/2) / (3/2) = 1/6
        got = theta_slab_mass(fl, mu, Cylinder((0,), 0), 0, Fraction(1, 2))
        assert got == Fraction(1, 6)
        # slab over both symbols at heights [1, 2) only exists over [1]
        got2 = theta_slab_mass(fl, mu, Cylinder((1,), 0), 1, 2)
        assert got2 == Fraction(1, 3)

    def test_full_space_has_mass_one(self):
        mu = bernoulli([Fraction(1, 3), Fraction(2, 3)], subshift=full_shift(2))
        fl = SuspensionFlow(full_shift(2), Roof.by_symbol([qr(2), qr(1)]))
        total = sum(
            (
                theta_slab_mass(fl, mu, Cylinder((c,), 0), 0, fl.roof.table[(c,)])
                for c in range(2)
            ),
            qr(0),
        )
        assert total == 1


class TestTowerEntropy:
    def test_single_level_tower_is_base_entropy(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        roof = Roof.constant(1)
        v = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 8) / 8
        assert v == pytest.approx(math.log(2), abs=1e-12)

    def test_sandwich_bernoulli_r2(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        roof = Roof.constant(2)
        n = 12
        v = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, n) / n
        lower = math.log(2) / 2
        upper = (math.log(2) + math.log(3)) / 2
        assert lower - 1e-9 <= v <= upper + 1e-9
        # the two-step entropy gain recovers the Abramov value exactly
        h14 = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 14)
        h12 = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 12)
        assert (h14 - h12) / 2 == pytest.approx(math.log(2) / 2, abs=1e-9)

    def test_sturmian_tower_is_low_entropy(self):
        # zero-entropy base: only finite-n overhead remains, decreasing in n
        st_shift = Sturmian(sqrt_d(2) - 1)
        mu = SturmianArcMeasure(st_shift)
        roof = Roof.by_symbol([qr(1), qr(2)])
        v12 = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 12) / 12
        v8 = time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 8) / 8
        assert v12 <= 0.25  # ~ log(n+1)/n block overhead at n=12
        assert v12 <= v8 + 1e-12
        # coarse one-atom partition + constant roof: phase-only overhead
        c12 = time_delta_tower_entropy(mu, Roof.constant(2), 1, {0: "a", 1: "a"}, 12) / 12
        assert c12 <= 0.15

    def test_incommensurable_roof_rejected(self):
        from suspshift.suspension import IncommensurableRoof

        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        roof = Roof.by_symbol([qr(1), sqrt_d(2)])
        with pytest.raises(IncommensurableRoof):
            time_delta_tower_entropy(mu, roof, 1, {0: "a", 1: "b"}, 6)


class TestInducedIdentity:
    def test_whole_space_is_trivial(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        lhs, rhs, gap, _ = induced_entropy_identity(mu, [0, 1], n=6, tau_max=5)
        # A = whole space: tau == 1 always, both sides vanish for P = {A}
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert gap < 1e-12

    def test_bernoulli_half_identity(self):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        lhs, rhs, gap, trunc = induced_entropy_identity(mu, [0], n=10, tau_max=32)
        assert trunc < 2.0**-30
        assert lhs == pytest.approx(math.log(2), abs=1e-6)
        assert rhs == pytest.approx(math.log(2), abs=1e-9)
        assert gap < 0.03

    def test_parry_identity_gap_shrinks(self):
        mu = parry_measure(golden_mean_sft())
        lhs10, rhs10, gap10, _ = induced_entropy_identity(mu, [0], n=10)
        lhs14, rhs14, gap14, _ = induced_entropy_identity(mu, [0], n=14)
        assert gap10 < 0.05
        assert gap14 <= gap10 + 1e-12


def reference_return_time_distribution(measure, a_symbols, tau_max):
    """The return-time law to A as a loop on exact values, one tau at a
    time: the unreturned mass at each complement symbol, normalised by
    mu(A) at the start.  Fraction(0) where no allowed transition reaches A."""
    k = measure.states
    a_set = set(a_symbols)
    mu_a = sum_exact([measure.pi[s] for s in a_set])
    if mu_a == 0:
        raise ValueError("mu(A) must be positive")
    start = {s: measure.pi[s] / mu_a for s in a_set}
    # v[c] = prob of sitting at complement symbol c without having returned
    v = {}
    for s, w in start.items():
        for c in range(k):
            if c not in a_set and measure.P[s][c] != 0:
                v[c] = v.get(c, Fraction(0)) + w * measure.P[s][c]
    tau_dist = {
        1: sum_exact(
            [w * measure.P[s][t] for s, w in start.items() for t in a_set
             if measure.P[s][t] != 0] or [Fraction(0)]
        )
    }
    for tau in range(2, tau_max + 1):
        hit = None
        for c, wc in v.items():
            for t in a_set:
                if measure.P[c][t] != 0:
                    term = wc * measure.P[c][t]
                    hit = term if hit is None else hit + term
        tau_dist[tau] = hit if hit is not None else Fraction(0)
        nxt = {}
        for c, wc in v.items():
            for c2 in range(k):
                if c2 not in a_set and measure.P[c][c2] != 0:
                    nxt[c2] = nxt.get(c2, Fraction(0)) + wc * measure.P[c][c2]
        v = nxt
    truncated = 1 - sum_exact(list(tau_dist.values()))
    return tau_dist, truncated


PARRY_GOLDEN = parry_measure(golden_mean_sft())


@st.composite
def law_cases(draw):
    """(measure, A, tau_max): a rational chain on the full 2- or 3-shift or
    the golden mean, zero transitions included, or the Parry measure of the
    golden mean over Q[sqrt5]; A one or more symbols; tau_max in 1..40."""
    kind = draw(st.sampled_from(["full2", "full3", "golden", "parry"]))
    if kind == "parry":
        measure = PARRY_GOLDEN
    else:
        k = 3 if kind == "full3" else 2
        rows = []
        for i in range(k):
            weights = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
            if kind == "golden" and i == 1:
                weights[1] = 0  # the forbidden word 11
            assume(sum(weights) > 0)
            rows.append([Fraction(w, sum(weights)) for w in weights])
        try:
            measure = MarkovMeasure(
                rows, stationary_vector(rows),
                golden_mean_sft() if kind == "golden" else full_shift(k))
        except ValueError:  # no unique stationary vector
            assume(False)
    symbols = draw(st.lists(st.integers(0, measure.states - 1), min_size=1,
                            max_size=measure.states, unique=True))
    return measure, symbols, draw(st.integers(1, 40))


def _same(x, y) -> bool:
    return type(x) is type(y) and x == y


def _constructions(fn):
    """Number of Fractions and QuadraticReals built while fn() runs."""
    codes = {Fraction.__new__.__code__, QuadraticReal.__init__.__code__,
             quadratic._make.__code__}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in codes:
            count += 1

    outer = sys.getprofile()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(outer)
    return count


class TestReturnLaw:
    @settings(max_examples=200, deadline=None)
    @given(law_cases())
    def test_integer_law_equals_the_exact_value_loop(self, case):
        measure, symbols, tau_max = case
        try:
            ref_dist, ref_tail = reference_return_time_distribution(measure, symbols, tau_max)
        except ValueError:  # mu(A) = 0
            with pytest.raises(ValueError):
                return_time_distribution(measure, symbols, tau_max)
            with pytest.raises(ValueError):
                kac_expected_return(measure, symbols, tau_max)
            return
        ref_mean = sum_exact([Fraction(t) * p for t, p in ref_dist.items()])
        dist, tail = return_time_distribution(measure, symbols, tau_max)
        mean, kac_tail = kac_expected_return(measure, symbols, tau_max)
        assert list(dist) == list(ref_dist)
        for tau, p in ref_dist.items():
            assert _same(dist[tau], p), (tau, dist[tau], p)
        assert _same(tail, ref_tail) and _same(kac_tail, ref_tail)
        assert _same(mean, ref_mean)

    def test_bernoulli_half_closed_forms(self):
        # P(tau = t) = 2^-t: the partial mean is 2 - (T + 2)/2^T, the tail 2^-T
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        partial, truncated = kac_expected_return(mu, [0], tau_max=32)
        assert _same(partial, 2 - Fraction(34, 2**32))
        assert _same(truncated, Fraction(1, 2**32))
        dist, tail = return_time_distribution(mu, [0], tau_max=32)
        assert dist == {t: Fraction(1, 2**t) for t in range(1, 33)}
        assert _same(tail, truncated)

    @pytest.mark.parametrize("tau_max", [0, -3])
    def test_tau_max_below_one_is_refused(self, tau_max):
        mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2))
        for law in (return_time_distribution, kac_expected_return):
            with pytest.raises(ValueError, match="tau_max"):
                law(mu, [0], tau_max)

    @pytest.mark.parametrize("measure", [
        bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full_shift(2)), PARRY_GOLDEN,
    ], ids=["bernoulli", "parry"])
    def test_kac_builds_no_exact_value_per_tau(self, measure):
        # the tau loop runs on integers: the exact values built do not
        # grow with tau_max
        short = _constructions(lambda: kac_expected_return(measure, [0], 8))
        long = _constructions(lambda: kac_expected_return(measure, [0], 32))
        assert 0 < short == long


class TestOrbitCapacity:
    def test_empty_set(self):
        fs = full_shift(2)
        up, lo, _ = orbit_capacity_discrete(fs, [], 100, [PeriodicPoint((0, 1))], 4)
        assert up == 0 and lo == 0

    def test_full_shift_fixed_point_witness(self):
        fs = full_shift(2)
        rng = random.Random(3)
        orbits = [sample_sft_orbit(fs, 220, rng) for _ in range(20)]
        up, lo, wit = orbit_capacity_discrete(
            fs, [Cylinder((0,), 0)], 200, orbits, period_max=3
        )
        assert lo == 1  # witnessed by the fixed point 0^infty
        assert wit.word == (0,)
        assert up <= 1

    def test_golden_mean_ones_density(self):
        g = golden_mean_sft()
        rng = random.Random(5)
        orbits = [sample_sft_orbit(g, 520, rng) for _ in range(20)]
        up, lo, wit = orbit_capacity_discrete(
            g, [Cylinder((1,), 0)], 500, orbits, period_max=12
        )
        assert lo == Fraction(1, 2)  # (01)^infty
        assert up <= Fraction(1, 2) + Fraction(1, 100)

    def test_flow_occupation_exact(self):
        fl = SuspensionFlow(full_shift(2), Roof.by_symbol([qr(1), qr(2)]))
        p = make_flow_point(fl, PeriodicPoint((0, 1)))
        frac = occupation_fraction_flow(
            fl, p, [(Cylinder((1,), 0), 0, 2)], duration=30
        )
        assert frac == Fraction(2, 3)

    def test_upper_estimate_nonincreasing_under_doubling(self):
        g = golden_mean_sft()
        rng = random.Random(9)
        orbits = [sample_sft_orbit(g, 2100, rng) for _ in range(10)]
        ups = []
        for horizon in (250, 500, 1000, 2000):
            up, _, _ = orbit_capacity_discrete(
                g, [Cylinder((1,), 0)], horizon, orbits, period_max=0
            )
            ups.append(up)
        for a, b in zip(ups, ups[1:]):
            assert b <= a + 0.02  # within the sampling-noise bound


def test_flow_json_round_trip(mixed_flow):
    clone = flow_from_json(flow_to_json(mixed_flow))
    assert clone.roof.table == mixed_flow.roof.table
    assert clone.base.language(3) == mixed_flow.base.language(3)


class _CountingOracle(PointOracle):
    """Reads `oracle`, appending the length of each block read to `reads`."""

    def __init__(self, oracle, reads):
        self.oracle, self.reads = oracle, reads

    def block(self, i, j):
        self.reads.append(j - i)
        return self.oracle.block(i, j)


def _counting(counts, name, fn):
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return counted
