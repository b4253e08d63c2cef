import random
from fractions import Fraction

import pytest

from suspshift.quadratic import qr
from suspshift.generator import (
    GeneratorModel,
    MarkingSpan,
    NoMarkersFound,
    ZFlowPoint,
    decode_name,
    find_marking_subwords,
    round_trip,
    verify_succession,
)
from suspshift.recode import ChainPoint, PreconditionFailed
from suspshift.subshifts import word_str


class TestModel:
    def test_constants(self, gen_model):
        assert gen_model.alpha == gen_model.q - gen_model.p
        assert qr(0) < gen_model.alpha < gen_model.p
        assert gen_model.K == gen_model.rf.constants["K"]

    def test_m_condition_constant(self, gen_model):
        # for p=1, q=sqrt(2): sweeping [0, q) by the intervals
        # [vq - up, vq - up + alpha) needs u up to 3
        assert gen_model.m_condition == 4

    def test_needs_dep_kind(self, two_valued_model):
        with pytest.raises(PreconditionFailed):
            GeneratorModel(two_valued_model)

    def test_flow_step_round_trip(self, gen_model):
        pt = gen_model.sample_point(5)
        there = gen_model.step(gen_model.step(pt))
        back = gen_model.step_back(gen_model.step_back(there))
        assert back.coord == pt.coord and back.height == pt.height


class TestNames:
    def test_point_on_p_tower(self, gen_model):
        # a point at height 0 over a p-column is named P
        pt = gen_model.sample_point(1)
        chain = pt.chain
        coord = next(
            c for c in range(0, 60) if chain.block(c, c + 1)[0] == 1
        )
        p_pt = ZFlowPoint(chain, coord, qr(0))
        assert gen_model.letter(p_pt) == "P"
        name = gen_model.name_of(p_pt, 15)
        assert name[len(name) // 2] == "P"

    def test_succession_invariant(self, gen_model):
        for seed in range(40):
            name = gen_model.name_of(gen_model.sample_point(seed), 25)
            assert verify_succession(name)

    def test_shift_compatibility(self, gen_model):
        pt = gen_model.sample_point(8)
        n = 20
        name_big = gen_model.name_of(pt, n)
        shifted = gen_model.step(pt)
        name_next = gen_model.name_of(shifted, n - 1)
        # name_next[k] labels phi_{(k-2n+3)t}(pt), so it matches name_big
        # shifted by three letters
        assert name_next == name_big[3 : 4 * n]

    def test_letters_partition_heights(self, gen_model):
        pt = gen_model.sample_point(12)
        chain = pt.chain
        alpha = gen_model.alpha
        for c in range(0, 40):
            sym = chain.block(c, c + 1)[0]
            roof = gen_model.roof_at(chain, c)
            low = ZFlowPoint(chain, c, roof * Fraction(1, 100))
            high = ZFlowPoint(chain, c, roof * Fraction(99, 100))
            if sym == 1:
                assert gen_model.letter(low) == gen_model.letter(high) == "P"
            else:
                assert gen_model.letter(low) == "Q"
                assert gen_model.letter(high) == "A"


class TestMarkingSubwords:
    def test_no_marking_in_plain_name(self):
        assert find_marking_subwords("PAPAPAP", 2) == []

    def test_synthetic_two_span_fixture(self):
        # the worked example shape: two marked spans (A-counts K and K+1
        # between P-brackets), long A-runs before each marking, ordinary
        # letters in between
        k_param = 2
        name = "AAAA" + "PQAAP" + "APQA" + "AAAA" + "PAQAAP" + "AA"
        spans = find_marking_subwords(name, k_param)
        assert len(spans) == 2
        first, second = spans
        assert (first.start, first.end, first.a_count) == (4, 8, 2)
        assert name[second.start : second.end + 1] == "PAQAAP"
        assert second.a_count == 3

    def test_marking_count_on_real_names(self, gen_model):
        K = gen_model.K
        seen = set()
        for seed in range(30):
            name = gen_model.name_of(gen_model.sample_point(seed), 40)
            for span in find_marking_subwords(name, K):
                seen.add(span.a_count)
                inner = name[span.start + 1 : span.end]
                assert set(inner) <= {"Q", "A"}
        assert seen <= {K, K + 1} and seen

    def test_markings_are_spaced(self, gen_model):
        # consecutive marking subwords sit at least M+K letters apart
        K, M = gen_model.K, gen_model.M
        for seed in range(20):
            name = gen_model.name_of(gen_model.sample_point(seed), 40)
            spans = find_marking_subwords(name, K)
            for s1, s2 in zip(spans, spans[1:]):
                assert s2.start - s1.end >= M + K


class TestDecode:
    def test_marking_alone_decodes_to_pattern_word(self):
        # each marking span contributes exactly 1 0^K 1; between them the
        # letterwise rules apply (P->1, A->0, Q dropped)
        k_param = 2
        name = "PQAAP" + "AAAA" + "PAQAP"
        out = decode_name(name, k_param)
        assert out == "1" + "00" + "1" + "0000" + "1" + "00" + "1"

    def test_letterwise_rules_outside_markings(self):
        k_param = 3
        # no marking present is an error (needs two)
        with pytest.raises(NoMarkersFound):
            decode_name("PQAP", k_param)

    def test_round_trip_100_seeds(self, gen_model):
        n = 50
        for seed in range(100):
            rec, truth, match = round_trip(gen_model, gen_model.sample_point(seed), n)
            assert match, f"seed {seed}"

    def test_truth_is_central_base_block(self, gen_model):
        pt = gen_model.sample_point(123)
        rec, truth, match = round_trip(gen_model, pt, 50)
        assert truth == word_str(pt.chain.block(pt.coord - 50, pt.coord + 51))
        assert match

    def test_below_horizon_raises(self, gen_model):
        with pytest.raises(NoMarkersFound):
            round_trip(gen_model, gen_model.sample_point(0), 10)

    def test_deterministic_replay(self, gen_model):
        a = round_trip(gen_model, gen_model.sample_point(77), 50)
        b = round_trip(gen_model, gen_model.sample_point(77), 50)
        assert a == b

    def test_deletion_bound(self, gen_model):
        # at most every second letter is deleted, minus boundary trimming
        K = gen_model.K
        for seed in range(10):
            name = gen_model.name_of(gen_model.sample_point(seed), 50)
            rec = decode_name(name, K)
            assert len(rec) >= len(name) // 2 - 2 * (K + 2) - gen_model.M - K

    def test_monotone_recovery(self, gen_model):
        pt = gen_model.sample_point(31)
        r1, _, _ = round_trip(gen_model, pt, 45)
        r2, _, _ = round_trip(gen_model, pt, 50)
        assert r1 in r2


# ---------------------------------------------------------------------------
# the one-pass name against the per-step definition


class ReferenceWalk:
    """The time-p map as first written: 2n single `step_back`s, then 4n
    single `step`s, each roof found by scanning the atom starts of the
    chain around the coordinate (+-2 max_emission, which also fixes the
    order in which the chain draws atoms)."""

    def __init__(self, model):
        self.model = model
        self.reach = 2 * model.max_emission

    def roof_at(self, chain, coord):
        lo, hi = coord - self.reach, coord + self.reach
        chain.block(lo, hi)
        pos = chain.offset
        for ai in chain.chain:
            atom = self.model.rf.atoms[ai]
            if lo <= pos <= coord < pos + len(atom.emission):
                return atom.durations[coord - pos]
            pos += len(atom.emission)
        raise AssertionError("coordinate outside the materialized chain")

    def sample_point(self, seed):
        rng = random.Random(seed)
        chain = ChainPoint(self.model.rf.automaton, rng)
        coord = rng.randrange(0, len(self.model.rf.atoms[chain.chain[0]].emission))
        height = self.roof_at(chain, coord) * Fraction(rng.randrange(0, 1000), 1001)
        return ZFlowPoint(chain, coord, height)

    def step(self, pt):
        h, coord = pt.height + self.model.p, pt.coord
        while True:
            r = self.roof_at(pt.chain, coord)
            if h < r:
                return ZFlowPoint(pt.chain, coord, h)
            h, coord = h - r, coord + 1

    def step_back(self, pt):
        h, coord = pt.height - self.model.p, pt.coord
        while h.sign() < 0:
            coord -= 1
            h = h + self.roof_at(pt.chain, coord)
        return ZFlowPoint(pt.chain, coord, h)

    def letter(self, pt):
        if pt.chain.block(pt.coord, pt.coord + 1)[0] == 1:
            return "P"
        return "Q" if pt.height < self.model.alpha else "A"

    def name_of(self, pt, n):
        for _ in range(2 * n):
            pt = self.step_back(pt)
        letters = [self.letter(pt)]
        for _ in range(4 * n):
            pt = self.step(pt)
            letters.append(self.letter(pt))
        return "".join(letters)


def chain_state(chain):
    return list(chain.chain), chain.offset, list(chain.symbols)


@pytest.mark.parametrize("n", [1, 5, 25, 50])
def test_name_of_matches_per_step_definition(gen_model, n):
    ref = ReferenceWalk(gen_model)
    atoms = gen_model.rf.atoms
    for seed in range(100):
        want_pt = ref.sample_point(seed)
        pt = gen_model.sample_point(seed)
        assert (pt.coord, pt.height) == (want_pt.coord, want_pt.height)
        assert chain_state(pt.chain) == chain_state(want_pt.chain)
        want = ref.name_of(want_pt, n)
        assert gen_model.name_of(pt, n) == want, f"seed {seed}"
        assert chain_state(pt.chain) == chain_state(want_pt.chain), f"seed {seed}"
        assert pt.chain.roofs == [d for ai in pt.chain.chain for d in atoms[ai].durations]
        # the chain then grows on in the same way, as round_trip reads it
        assert pt.base_block(-n, n + 1) == want_pt.base_block(-n, n + 1)
        assert chain_state(pt.chain) == chain_state(want_pt.chain)


def test_steps_match_per_step_definition(gen_model):
    ref = ReferenceWalk(gen_model)
    for seed in range(20):
        pt, want = gen_model.sample_point(seed), ref.sample_point(seed)
        for k in range(30):
            move, ref_move = ((gen_model.step, ref.step) if k % 3 else
                              (gen_model.step_back, ref.step_back))
            pt, want = move(pt), ref_move(want)
            assert (pt.coord, pt.height) == (want.coord, want.height)
            assert gen_model.roof_at(pt.chain, pt.coord) == ref.roof_at(want.chain, want.coord)
            assert gen_model.letter(pt) == ref.letter(want)
        assert chain_state(pt.chain) == chain_state(want.chain)
        # a letter read far outside the materialized chain extends it first
        for jump in (-400, 400):
            far, far_ref = (ZFlowPoint(p.chain, p.coord + jump, qr(0)) for p in (pt, want))
            assert gen_model.letter(far) == ref.letter(far_ref)
            assert chain_state(pt.chain) == chain_state(want.chain)


def test_name_of_needs_positive_n(gen_model):
    with pytest.raises(ValueError):
        gen_model.name_of(gen_model.sample_point(0), 0)
