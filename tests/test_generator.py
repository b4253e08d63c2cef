import dataclasses
import random
from fractions import Fraction

import pytest

from suspshift import generator
from suspshift.quadratic import QuadraticReal, qr, sqrt_d
from suspshift.generator import (
    LETTER_A,
    LETTER_P,
    GeneratorModel,
    NoMarkersFound,
    aligned_match,
    _marking_a_count,
    decode_name,
    round_trip,
    verify_succession,
)
from suspshift.instances import build_marked_binary_instance
from suspshift.recode import AtomAutomaton, ChainPoint, PreconditionFailed
from suspshift.subshifts import Sturmian, word_str
from suspshift.suspension import FlowPoint, Roof, SuspensionFlow


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

    def test_letter_budget_is_refused(self):
        # the marked-binary build succeeds, but alpha = q - p = (sqrt5-1)/2
        # exceeds p/2, so a q-column could carry more than two letters
        flow = SuspensionFlow(Sturmian((sqrt_d(5) - 1) / 2), Roof.constant(sqrt_d(5)))
        q = (1 + sqrt_d(5)) / 2
        rf = build_marked_binary_instance(flow=flow, p=qr(1), q=q, delta=q - 1)
        with pytest.raises(PreconditionFailed, match=r"need 2\(q - p\) < p"):
            GeneratorModel(rf)

    def test_flow_step_round_trip(self, gen_model):
        ref = ReferenceWalk(gen_model)
        pt = gen_model.sample_point(5)
        there = ref.step(ref.step(pt))
        back = ref.step_back(ref.step_back(there))
        assert back.index == pt.index and back.height == pt.height


class TestNames:
    def test_point_on_p_tower(self, gen_model):
        # a point at height 0 over a p-column is named P
        pt = gen_model.sample_point(1)
        chain = pt.oracle
        coord = next(
            c for c in range(0, 60) if chain.block(c, c + 1)[0] == 1
        )
        p_pt = FlowPoint(chain, coord, qr(0))
        assert ReferenceWalk(gen_model).letter(p_pt) == "P"
        name = gen_model.name_of(p_pt, 15)
        assert name[len(name) // 2] == "P"

    def test_height_alpha_over_a_q_column_is_named_a(self, gen_model):
        # a 0-column is Q on [0, alpha) and A from alpha up, so a time-p step
        # landing exactly at height alpha is named A
        pt = gen_model.sample_point(1)
        chain = pt.oracle
        coord = next(c for c in range(0, 60) if chain.block(c, c + 1)[0] == 0)
        a_pt = FlowPoint(chain, coord, gen_model.alpha)
        assert ReferenceWalk(gen_model).letter(a_pt) == LETTER_A
        name = gen_model.name_of(a_pt, 15)
        assert name[len(name) // 2] == LETTER_A

    def test_succession_invariant(self, gen_model):
        for seed in range(40):
            name = gen_model.name_of(gen_model.sample_point(seed), 25)
            assert verify_succession(name)

    def test_shift_compatibility(self, gen_model):
        pt = gen_model.sample_point(8)
        n = 20
        name_big = gen_model.name_of(pt, n)
        shifted = ReferenceWalk(gen_model).step(pt)
        name_next = gen_model.name_of(shifted, n - 1)
        # name_next[k] labels phi_{(k-2n+3)t}(pt), so it matches name_big
        # shifted by three letters
        assert name_next == name_big[3 : 4 * n]

    def test_letters_partition_heights(self, gen_model):
        ref = ReferenceWalk(gen_model)
        pt = gen_model.sample_point(12)
        chain = pt.oracle
        for c in range(0, 40):
            sym = chain.block(c, c + 1)[0]
            roof = ref.roof_at(chain, c)
            low = FlowPoint(chain, c, roof * Fraction(1, 100))
            high = FlowPoint(chain, c, roof * Fraction(99, 100))
            if sym == 1:
                assert ref.letter(low) == ref.letter(high) == "P"
            else:
                assert ref.letter(low) == "Q"
                assert ref.letter(high) == "A"


@dataclasses.dataclass(frozen=True)
class MarkingSpan:
    start: int  # index of the opening P letter
    end: int    # index of the closing P letter (inclusive)
    a_count: int


def find_marking_subwords(name: str, k_param: int):
    """Maximal P..P blocks of tower letters whose A-count is K or K+1.

    These locate the marker returns: interior zero runs of the scheduling
    words give counts < K and the pre-marking run gives M + K > K + 1.
    """
    spans = []
    parts = name.split(LETTER_P)
    start = len(parts[0])
    for inner in parts[1:-1]:
        end = start + len(inner) + 1
        a_count = _marking_a_count(inner, k_param)
        if a_count is not None:
            spans.append(MarkingSpan(start, end, a_count))
        start = end
    return spans


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
        assert truth == word_str(pt.oracle.block(pt.index - 50, pt.index + 51))
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
        return FlowPoint(chain, coord, height)

    def step(self, pt):
        h, coord = pt.height + self.model.p, pt.index
        while True:
            r = self.roof_at(pt.oracle, coord)
            if h < r:
                return FlowPoint(pt.oracle, coord, h)
            h, coord = h - r, coord + 1

    def step_back(self, pt):
        h, coord = pt.height - self.model.p, pt.index
        while h.sign() < 0:
            coord -= 1
            h = h + self.roof_at(pt.oracle, coord)
        return FlowPoint(pt.oracle, coord, h)

    def letter(self, pt):
        if pt.oracle.block(pt.index, pt.index + 1)[0] == 1:
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


def check_names(model, n, seeds):
    ref = ReferenceWalk(model)
    atoms = model.rf.atoms
    for seed in seeds:
        want_pt = ref.sample_point(seed)
        pt = model.sample_point(seed)
        assert (pt.index, pt.height) == (want_pt.index, want_pt.height)
        assert chain_state(pt.oracle) == chain_state(want_pt.oracle)
        want = ref.name_of(want_pt, n)
        assert model.name_of(pt, n) == want, f"seed {seed}"
        assert chain_state(pt.oracle) == chain_state(want_pt.oracle), f"seed {seed}"
        assert pt.oracle.roofs == [d for ai in pt.oracle.chain for d in atoms[ai].durations]
        # the chain then grows on in the same way, as round_trip reads it
        assert pt.base_block(-n, n + 1) == want_pt.base_block(-n, n + 1)
        assert chain_state(pt.oracle) == chain_state(want_pt.oracle)


@pytest.mark.parametrize("n", [1, 5, 25, 50])
def test_name_of_matches_per_step_definition(gen_model, n):
    check_names(gen_model, n, range(100))


def test_name_of_needs_positive_n(gen_model):
    with pytest.raises(ValueError):
        gen_model.name_of(gen_model.sample_point(0), 0)


def landing_point(model, ref, seed, n, case):
    """A point of `ref.sample_point(seed)`'s chain whose walk lands exactly
    on a column boundary.  Its coordinate c starts at the chain's offset +
    reach, the lowest one whose cover extends nothing, so a walk that read
    the roof of c - 1 would extend the chain to the left."""
    chain = ref.sample_point(seed).oracle
    c = chain.offset + ref.reach
    if case == "column-start":  # the walk down ends at h = 0 over c
        pt = FlowPoint(chain, c, qr(0))
        for _ in range(2 * n):
            pt = ref.step(pt)
        return pt
    if case == "no-walk-down":  # a height past the roof: the jump lands at h = 0
        return FlowPoint(chain, c, model.p * (2 * n))
    # the step after the point lands at h = roof(c), so the walk moves up
    # to (c + 1, 0): a P-column followed by a 0-column, or a 0-column
    want = (1, 0) if case == "p-roof" else (0,)
    while chain.block(c, c + len(want)) != want:
        c += 1
    return FlowPoint(chain, c, qr(0) if want[0] else ref.roof_at(chain, c) - model.p)


@pytest.mark.parametrize("case", ["column-start", "no-walk-down", "p-roof", "q-roof"])
def test_exact_landings_match_per_step_definition(gen_model, case):
    ref, n = ReferenceWalk(gen_model), 25
    for seed in range(10):
        pt, want_pt = (landing_point(gen_model, ref, seed, n, case) for _ in range(2))
        assert gen_model.name_of(pt, n) == ref.name_of(want_pt, n), f"seed {seed}"
        assert chain_state(pt.oracle) == chain_state(want_pt.oracle), f"seed {seed}"


def test_name_of_matches_per_step_definition_as_the_chain_grows(gen_model):
    # at n = 200 the walk down extends the chain to the left and the walks
    # up extend it to the right, so the walk must read the chain's offset
    # and cover bounds afresh after each extension
    for seed in range(3):
        pt = gen_model.sample_point(seed)
        chain = pt.oracle
        left, right = chain.offset, chain.offset + len(chain.symbols)
        gen_model.name_of(pt, 200)
        assert chain.offset < left and chain.offset + len(chain.symbols) > right
    check_names(gen_model, 200, range(3))


# ---------------------------------------------------------------------------
# the aligned round-trip gate


def test_recovered_word_is_the_chain_block_from_the_first_p(gen_model):
    n = 50
    for seed in range(100):
        pt = gen_model.sample_point(seed)
        name, first = gen_model._walk(pt, n)
        rec = decode_name(name, gen_model.K)
        assert rec == word_str(pt.oracle.block(first, first + len(rec))), f"seed {seed}"


@pytest.mark.parametrize("control", ["shifted", "foreign"])
def test_round_trip_negative_controls(gen_model, monkeypatch, control):
    # the truth read 7 coordinates to the right, or another seed's central
    # block: both must fail the aligned gate
    true_block, other = FlowPoint.base_block, gen_model.sample_point(1000)

    def wrong_block(pt, i, j):
        if control == "shifted":
            return true_block(FlowPoint(pt.oracle, pt.index + 7, pt.height), i, j)
        return true_block(other, i, j)

    monkeypatch.setattr(FlowPoint, "base_block", wrong_block)
    substring_hits = 0
    for seed in range(40):
        rec, truth, match = round_trip(gen_model, gen_model.sample_point(seed), 50)
        assert not match, f"seed {seed}"
        substring_hits += truth in rec
    if control == "shifted":
        # a factor of the recovered word: a substring test could not tell
        # it from the true block
        assert substring_hits > 0


def test_aligned_match_offsets():
    assert aligned_match("1001", 10, "00", 11)
    assert not aligned_match("1001", 10, "00", 12)
    assert not aligned_match("1001", 10, "10", 9)   # starts before the word
    assert not aligned_match("1001", 10, "011", 12)  # runs past its end


# ---------------------------------------------------------------------------
# two more instances: radicands 3 and 7, durations with denominator 2


@pytest.fixture(scope="module", params=["sqrt3", "sqrt7"])
def other_gen_model(request):
    if request.param == "sqrt3":
        flow = SuspensionFlow(Sturmian(sqrt_d(3) - 1), Roof.constant(sqrt_d(3)))
        q = (1 + sqrt_d(3)) / 2
    else:
        flow = SuspensionFlow(Sturmian(sqrt_d(7) - 2), Roof.constant(sqrt_d(7)))
        q = sqrt_d(7) - Fraction(3, 2)
    p = qr(1)
    model = GeneratorModel(build_marked_binary_instance(flow=flow, p=p, q=q, delta=q - p))
    assert len(model.rf.atoms) == 2 and model.K == 2
    assert model.den == 2 and model.d in (3, 7)
    return model


@pytest.mark.parametrize("n", [1, 7, 50])
def test_name_of_matches_per_step_definition_on_more_instances(other_gen_model, n):
    check_names(other_gen_model, n, range(100))


def test_round_trips_on_more_instances(other_gen_model):
    for seed in range(20):
        rec, truth, match = round_trip(other_gen_model, other_gen_model.sample_point(seed), 50)
        assert match, f"seed {seed}"


# ---------------------------------------------------------------------------
# radicands of the walk


def test_height_from_another_field_is_refused(gen_model):
    pt = gen_model.sample_point(3)
    odd = FlowPoint(pt.oracle, pt.index, qr(0, Fraction(1, 7), 3))
    with pytest.raises(ValueError, match="mixed radicands"):
        gen_model.name_of(odd, 5)


def test_rational_model_takes_the_radicand_of_the_height(marked_model):
    # p = 1, q = 6/5 and rational durations: the recode refuses such a
    # model (p/q rational), so it is assembled here from the sqrt(2) one
    atoms = [dataclasses.replace(a, durations=[qr(1) if s == 1 else qr(Fraction(13, 10))
                                               for s in a.emission])
             for a in marked_model.atoms]
    aut = marked_model.automaton
    constants = dict(marked_model.constants, p=qr(1), q=qr(Fraction(6, 5)),
                     delta=qr(Fraction(1, 5)))
    model = GeneratorModel(dataclasses.replace(
        marked_model, constants=constants, atoms=atoms,
        automaton=AtomAutomaton(atoms, aut.successors, aut.alphabet_size)))
    assert model.d is None
    ref = ReferenceWalk(model)
    for seed in range(10):
        pts = [FlowPoint(ChainPoint(model.rf.automaton, random.Random(seed)), 3,
                          qr(Fraction(1, 9), Fraction(seed, 11), 3)) for _ in range(2)]
        assert model.name_of(pts[0], 20) == ref.name_of(pts[1], 20)
        assert chain_state(pts[0].oracle) == chain_state(pts[1].oracle)


# ---------------------------------------------------------------------------
# a deterministic speed guard: the walk and the decoder build no values


QR_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__",
                "__ge__", "__eq__", "sign", "floor")


def test_name_and_decode_do_no_quadratic_arithmetic(gen_model, monkeypatch):
    pts = [gen_model.sample_point(seed) for seed in range(5)]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in QR_OPERATORS:
        monkeypatch.setattr(QuadraticReal, name, counting(name, getattr(QuadraticReal, name)))
    # the counters see operator use
    assert qr(1) + qr(2) < qr(4) and calls == ["__add__", "__lt__"]
    calls.clear()
    for pt in pts:
        name = gen_model.name_of(pt, 50)
        decode_name(name, gen_model.K)
    assert calls == []


def test_name_makes_one_sign_per_roof_read_and_letter(gen_model, monkeypatch):
    # the walk down tests h < 0 once per column and once to stop, each walk
    # up tests h >= roof once per column it reads, and each Q/A letter tests
    # h < alpha: 10,885 sign tests over these 20 names (544.25 a name) and
    # 85 covers, one per roof read outside the cover bounds
    pts = [gen_model.sample_point(seed) for seed in range(20)]
    calls = {"sign_surd": 0, "cover": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(generator, "sign_surd", counting("sign_surd", generator.sign_surd))
    monkeypatch.setattr(ChainPoint, "cover", counting("cover", ChainPoint.cover))
    for pt in pts:
        gen_model.name_of(pt, 50)
    assert calls == {"sign_surd": 10885, "cover": 85}
