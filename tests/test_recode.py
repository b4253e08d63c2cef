import bisect
import functools
import itertools
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suspshift import instances, markers, recode
from suspshift.instances import build_marked_binary_instance, build_two_valued_instance
from suspshift.quadratic import QuadraticReal, as_qr, qr, rationally_independent, sqrt_d
from suspshift.markers import NoMarkerFound, return_spectrum
from suspshift.recode import (
    BalancedCode,
    CapacityExceeded,
    ConstraintViolated,
    IndexOutOfRange,
    PreconditionFailed,
    TwoValuedLayout,
    candidate_pairs,
    find_marker_with_feasible_gaps,
    recode_two_valued,
)
from suspshift.subshifts import SFT, Cylinder, Sturmian, word_str
from suspshift.suspension import (
    CrossSection,
    Roof,
    SuspensionFlow,
    make_flow_point,
    return_to_section,
)
from test_suspension import check_disjoint


@dataclass(frozen=True)
class GapResult:
    value: QuadraticReal | None  # None encodes an empty candidate set (D = infinity)
    k: int | None
    l: int | None


def d_gap(x, p, q, epsilon) -> GapResult:
    """Minimal x - (k p + l q) >= 0 over integers k >= 0, l >= 1 with
    1/(1+eps) <= k/l <= 1; exhaustive over the finite candidate set.

    Returns GapResult(None, None, None) when no pair qualifies.
    """
    x, p, q = as_qr(x), as_qr(p), as_qr(q)
    eps = Fraction(epsilon)
    if p.sign() <= 0 or q.sign() <= 0:
        raise ValueError("p, q must be positive")
    if not rationally_independent(p, q):
        raise ValueError("p, q must be rationally independent")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    best = None
    l = 1
    while (q * l) <= x:
        # ratio window: l/(1+eps) <= k <= l
        k_lo = max(0, math.ceil(Fraction(l) / (1 + eps)))
        for k in range(k_lo, l + 1):
            rem = x - (p * k + q * l)
            if rem.sign() < 0:
                continue
            if best is None or rem < best[0]:
                best = (rem, k, l)
        l += 1
    if best is None:
        return GapResult(None, None, None)
    return GapResult(*best)


def certify_global_section(flow_sys: SuspensionFlow, section: CrossSection, depth: int):
    """Empirical globality certificate: every admissible base word of length
    `depth` supports at least one section piece strictly inside its window,
    so every orbit hits the section within depth * max(roof).

    Returns that exact flow-time bound, or None when some word escapes (the
    section is then not certified global at this depth)."""
    for w in flow_sys.base.language(depth):
        hit = False
        for i in range(depth):
            for piece in section.pieces:
                c = piece.cylinder
                lo = i + c.anchor
                hi = lo + len(c.word)
                if 0 <= lo and hi <= depth and tuple(w[lo:hi]) == tuple(c.word):
                    hit = True
                    break
            if hit:
                break
        if not hit:
            return None
    return flow_sys.roof.max_value * depth


def reference_candidate_pairs(t_return, p, q, delta):
    """The QuadraticReal loop that `candidate_pairs` replaced: for each l,
    k steps down from floor((t - lq)/p) while the remainder is below delta."""
    t, p, q, delta = as_qr(t_return), as_qr(p), as_qr(q), as_qr(delta)
    out = []
    l = 1
    while (q * l) <= t:
        budget = t - q * l
        k = (budget / p).floor()
        while k >= 0:
            rem = budget - p * k
            if rem >= delta:
                break
            if rem.sign() > 0:
                out.append((k, l, rem))
            k -= 1
        l += 1
    return out


def reference_table(code):
    """The rank table `BalancedCode` read its completion counts from before
    they became closed form: filled iteratively from the last position
    back, one flat row per position over the states (ones left, zero run).
    Returns (rows, runs); the count at (pos, ones_left, run) is
    rows[pos][ones_left * runs + run]."""
    runs = 1 if code.max_run is None else code.max_run + 1
    rows = [None] * code.length + [[1] * runs + [0] * (runs * code.ones)]
    for pos in range(code.length - 1, -1, -1):
        # the run after a 0 at pos, per current run (None: no 0 here)
        zs = [code._allowed(pos, 0, 0, r) for r in range(runs)]
        nxt = rows[pos + 1]
        rows[pos] = [(nxt[(o - 1) * runs] if o else 0)
                     + (nxt[o * runs + z] if z is not None else 0)
                     for o in range(code.ones + 1) for z in zs]
    return rows, runs


def table_code_size(length, ones, first_last_one=False, max_run=None):
    """A code's size read from its rank table, as `count()` read it before
    the closed form."""
    rows, runs = reference_table(BalancedCode(length, ones, first_last_one, max_run))
    return rows[0][ones * runs]


def table_unrank(code, table, index):
    """Unrank as `BalancedCode` did with its table (`reference_table(code)`):
    at each position try 0, then 1, against the completion counts."""
    rows, runs = table
    word, ones_left, run = [], code.ones, 0
    for pos in range(code.length):
        for c in (0, 1):
            new_run = code._allowed(pos, c, ones_left, run)
            if new_run is None:
                continue
            cnt = rows[pos + 1][(ones_left - c) * runs + new_run]
            if index < cnt:
                word.append(c)
                ones_left -= c
                run = new_run
                break
            index -= cnt
    return tuple(word)


def reference_schedule_atom(atom, layout):
    """The QuadraticReal schedule that `_schedule_atom` replaced: offsets
    summed from as_qr(0), columns by bisection in the column bounds."""
    steps = [layout.steps[sym] for sym in atom.emission[:-1]]
    atom.offsets = [as_qr(0)]
    for d in steps:
        atom.offsets.append(atom.offsets[-1] + d)
    atom.columns = [bisect.bisect_right(atom.col_bounds, t) - 1 for t in atom.offsets]
    if atom.columns[-1] >= atom.gap:
        raise recode.InfeasibleSchedule("offset escaped its atom")
    atom.durations = steps + [atom.t_return - atom.offsets[-1]]
    lo, hi = layout.last_range
    if not lo < atom.durations[-1] < hi:
        raise recode.InfeasibleSchedule(
            f"{layout.kind}: last return of atom {atom.index} escaped its range"
        )


def exact_form(x: QuadraticReal):
    """A value's exact integer form, radicand included."""
    return x.A, x.B, x.C, x.d


class TestDGap:
    def test_exact_hit(self):
        res = d_gap(1 + sqrt_d(2), qr(1), sqrt_d(2), 1)
        assert res.value == qr(0) and (res.k, res.l) == (1, 1)

    def test_spec_example_x5(self):
        res = d_gap(qr(5), qr(1), sqrt_d(2), 1)
        assert (res.k, res.l) == (2, 2)
        assert res.value == qr(5) - 2 - 2 * sqrt_d(2)
        assert abs(float(res.value) - 0.17157) < 1e-4

    def test_below_p_plus_q_is_empty(self):
        res = d_gap(qr(1), qr(1), sqrt_d(2), 1)
        assert res.value is None and res.k is None

    def test_rational_dependence_rejected(self):
        with pytest.raises(ValueError):
            d_gap(qr(5), qr(1), qr(2), 1)

    def test_gap_shrinks_for_large_x(self):
        vals = [
            float(d_gap(qr(x), qr(1), sqrt_d(2), Fraction(1, 2)).value)
            for x in (40, 400)
        ]
        assert vals[1] < vals[0]

    def test_candidate_pairs_window(self):
        pairs = candidate_pairs(12 * sqrt_d(2), qr(1), sqrt_d(2), qr(Fraction(1, 10)))
        assert (7, 7, 5 * sqrt_d(2) - 7) in pairs
        for k, l, rem in pairs:
            assert qr(0) < rem < qr(Fraction(1, 10))


def positive_values(d, top):
    """Positive a + b*(sqrt(d) - floor(sqrt(d))) with a in [1/2, top] and
    |b| <= 1 over small denominators, as QuadraticReals of Q[sqrt(d)], or a
    rational a alone as a Fraction."""
    frac = sqrt_d(d) - math.isqrt(d)
    a = st.fractions(Fraction(1, 2), top, max_denominator=6)
    b = st.one_of(st.just(0), st.fractions(-1, 1, max_denominator=6))
    surds = st.builds(lambda x, y: x + y * frac, a, b).filter(lambda v: v.sign() > 0)
    return st.one_of(surds, a)


def pair_forms(pairs):
    return [(k, l, exact_form(rem)) for k, l, rem in pairs]


class TestCandidatePairs:
    """`candidate_pairs` on integer pairs against the QuadraticReal loop it
    replaced: the same list, in the same order, each remainder in the same
    exact form (radicand included)."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equal_the_quadratic_loop(self, data):
        d = data.draw(st.sampled_from([2, 3, 7]), label="d")
        p = data.draw(positive_values(d, 4), label="p")
        q = data.draw(positive_values(d, 4), label="q")
        delta = data.draw(positive_values(d, 2), label="delta")
        k = data.draw(st.integers(0, 8), label="k")
        l = data.draw(st.integers(1, 8), label="l")
        # a free time, and the exact boundaries: remainder 0 at (k, l),
        # remainder exactly delta at (k, l), and no budget left at l
        t = data.draw(st.one_of(positive_values(d, 30),
                                st.sampled_from([p * k + q * l, p * k + q * l + delta, q * l])),
                      label="t")
        assert pair_forms(candidate_pairs(t, p, q, delta)) \
            == pair_forms(reference_candidate_pairs(t, p, q, delta))

    @pytest.mark.parametrize("case", ["remainder 0", "remainder delta", "t = lq"])
    def test_exact_boundaries_are_left_out(self, case):
        p, q, delta = qr(1), (1 + sqrt_d(3)) / 2, qr(Fraction(1, 10))
        t, boundary = {"remainder 0": (p * 5 + q * 3, (5, 3)),
                       "remainder delta": (p * 5 + q * 3 + delta, (5, 3)),
                       "t = lq": (q * 4, (0, 4))}[case]
        pairs = candidate_pairs(t, p, q, delta)
        assert pair_forms(pairs) == pair_forms(reference_candidate_pairs(t, p, q, delta))
        assert boundary not in [(k, l) for k, l, _ in pairs]
        assert all(qr(0) < rem < delta for _, _, rem in pairs)


class TestBalancedCode:
    def test_plain_counts(self):
        assert BalancedCode(2, 1).count() == 2
        assert BalancedCode(4, 2).count() == 6
        assert BalancedCode(2, 1).unrank(0) == (0, 1)
        assert BalancedCode(2, 1).unrank(1) == (1, 0)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_bijection_all_indices(self, k):
        code = BalancedCode(2 * k, k)
        assert code.count() == math.comb(2 * k, k)
        seen = set()
        for i in range(code.count()):
            w = code.unrank(i)
            assert code.satisfies(w)
            assert code.rank(w) == i
            seen.add(w)
        assert len(seen) == code.count()

    def test_lexicographic_order(self):
        code = BalancedCode(6, 3)
        words = [code.unrank(i) for i in range(code.count())]
        assert words == sorted(words)

    def test_errors(self):
        code = BalancedCode(4, 2)
        with pytest.raises(IndexOutOfRange):
            code.unrank(6)
        with pytest.raises(ConstraintViolated):
            code.rank((1, 1, 1, 0))

    def test_constrained_dep_code(self):
        # first=last=1, three ones, length 6, interior zero runs <= 2
        code = BalancedCode(6, 3, first_last_one=True, max_interior_zero_run=2)
        words = [code.unrank(i) for i in range(code.count())]
        by_hand = [
            w
            for w in itertools.product((0, 1), repeat=6)
            if sum(w) == 3
            and w[0] == w[-1] == 1
            and "000" not in word_str(w)
        ]
        assert words == sorted(by_hand)
        for i, w in enumerate(words):
            assert code.rank(w) == i

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 5), st.integers(2, 6), st.integers(1, 3))
    def test_constrained_bijection(self, ones, zeros, max_run):
        length = ones + zeros
        code = BalancedCode(length, ones, first_last_one=True,
                            max_interior_zero_run=max_run)
        n = code.count()
        expected = [
            w
            for w in itertools.product((0, 1), repeat=length)
            if code.satisfies(w)
        ]
        assert n == len(expected)
        assert [code.unrank(i) for i in range(n)] == expected

    @pytest.mark.parametrize("length", range(0, 16))
    def test_counts_are_binomials(self, length):
        for ones in range(length + 1):
            assert BalancedCode(length, ones).count() == math.comb(length, ones)
            if length >= 2 and ones >= 2:
                code = BalancedCode(length, ones, first_last_one=True)
                assert code.count() == math.comb(length - 2, ones - 2)

    @pytest.mark.parametrize("first_last_one,max_run",
                             [(False, None), (True, None), (True, 1), (True, 2), (True, 4)])
    def test_rank_unrank_against_enumeration(self, first_last_one, max_run):
        for length in range(2, 11):
            for ones in range(2 if first_last_one else 0, length + 1):
                code = BalancedCode(length, ones, first_last_one, max_run)
                words = [w for w in itertools.product((0, 1), repeat=length)
                         if sum(w) == ones
                         and (not first_last_one or w[0] == w[-1] == 1)
                         and (max_run is None or "0" * (max_run + 1) not in word_str(w))]
                assert code.count() == len(words)
                assert [code.unrank(i) for i in range(len(words))] == words
                assert [code.rank(w) for w in words] == list(range(len(words)))

    @pytest.mark.parametrize("length,ones,max_run",
                             [(30, 12, 2), (41, 15, 3), (60, 20, 5), (60, 31, 1), (45, 9, 7)])
    def test_table_counts_equal_recursive_reference(self, length, ones, max_run):
        code = BalancedCode(length, ones, True, max_run)

        @functools.lru_cache(maxsize=None)
        def completions(pos, ones_left, run):
            # the memoized recursion the table replaced, run cap always tracked
            if ones_left < 0 or ones_left > length - pos:
                return 0
            if pos == length:
                return 1
            total = completions(pos + 1, ones_left - 1, 0) if ones_left else 0
            if 0 < pos < length - 1 and run < max_run:
                total += completions(pos + 1, ones_left, run + 1)
            return total

        assert code.count() == completions(0, ones, 0) > 0
        rows, runs = reference_table(code)
        for pos in range(length + 1):
            for o in range(ones + 1):
                for r in range(max_run + 1):
                    assert code._suffix_count(pos, o, r) == completions(pos, o, r)
                    assert rows[pos][o * runs + r] == completions(pos, o, r)

    @pytest.mark.parametrize("max_run", [None, 1, 2, 3, 4])
    def test_closed_form_walk_equals_the_table_walk(self, max_run):
        # every index of every code shape up to length 12: the closed-form
        # unrank gives the word the table walk gave, and rank inverts it
        shapes = 0
        for length in range(13):
            for first_last_one in ([True] if max_run else [False, True]):
                for ones in range(2 if first_last_one else 0, length + 1):
                    code = BalancedCode(length, ones, first_last_one, max_run)
                    table = reference_table(code)
                    for i in range(code.count()):
                        word = code.unrank(i)
                        assert word == table_unrank(code, table, i)
                        assert code.rank(word) == i
                    shapes += 1
        assert shapes > 60

    @pytest.mark.parametrize("args", [(29, 23, True, 1), (46, 40, True, 1)])
    def test_shipped_codes_walk_as_the_table(self, args):
        code = BalancedCode(*args)
        table = reference_table(code)
        rng = random.Random(7)
        for i in [0, code.count() - 1] + [rng.randrange(code.count()) for _ in range(40)]:
            word = code.unrank(i)
            assert word == table_unrank(code, table, i)
            assert code.rank(word) == i

    @pytest.mark.parametrize("first_last_one,max_run",
                             [(False, None), (True, None), (True, 1), (True, 2), (True, 3), (True, 4)])
    def test_closed_form_size_equals_table_and_enumeration(self, first_last_one, max_run):
        empty = 0
        for length in range(13):
            sizes = {}
            for w in itertools.product((0, 1), repeat=length):
                if (not first_last_one or (length and w[0] == w[-1] == 1)) \
                        and (max_run is None or "0" * (max_run + 1) not in word_str(w)):
                    sizes[sum(w)] = sizes.get(sum(w), 0) + 1
            for ones in range(2 if first_last_one else 0, length + 1):
                size = recode.code_size(length, ones, first_last_one, max_run)
                assert size == BalancedCode(length, ones, first_last_one, max_run).count()
                assert size == table_code_size(length, ones, first_last_one, max_run)
                assert size == sizes.get(ones, 0), (length, ones)
                if max_run is not None and length - ones > (ones - 1) * max_run:
                    assert size == 0
                    empty += 1
        assert (empty > 0) == (max_run is not None)

    @pytest.mark.parametrize("args,size", [((29, 23, True, 1), math.comb(22, 6)),
                                           ((46, 40, True, 1), math.comb(39, 6))])
    def test_shipped_code_sizes(self, args, size, marked_model):
        # with runs of at most one zero, a word is a choice of the gaps
        # between its ones that hold a zero
        assert args in marked_model.codes
        assert recode.code_size(*args) == table_code_size(*args) == size
        assert marked_model.codes[args].count() == size

    @pytest.mark.parametrize("first_last_one", [False, True])
    def test_long_code_needs_no_recursion(self, first_last_one):
        length, ones = 2400, 12
        code = BalancedCode(length, ones, first_last_one)
        free = 2 if first_last_one else 0
        assert code.count() == math.comb(length - free, ones - free)
        first = code.unrank(0)
        last = code.unrank(code.count() - 1)
        if first_last_one:
            assert first == (1,) + (0,) * (length - ones) + (1,) * (ones - 1)
            assert last == (1,) * (ones - 1) + (0,) * (length - ones) + (1,)
        else:
            assert first == (0,) * (length - ones) + (1,) * ones
            assert last == (1,) * ones + (0,) * (length - ones)
        rng = random.Random(3)
        for _ in range(20):
            i = rng.randrange(code.count())
            assert code.rank(code.unrank(i)) == i


class TestRecodeDex:
    def test_rational_independence_precondition(self, root2_flow, two_valued_model):
        with pytest.raises(PreconditionFailed, match="rational independence"):
            recode_two_valued(root2_flow, two_valued_model.marker,
                              TwoValuedLayout(qr(1), qr(1), Fraction(1, 10), qr(Fraction(1, 20))))

    def test_return_classes_exact(self, two_valued_model):
        p, q, delta = (two_valued_model.constants[c] for c in ("p", "q", "delta"))
        pt = two_valued_model.flow.base.point(qr(Fraction(3, 10)))
        census = two_valued_model.return_census(pt, 3000)
        for sym, t in census:
            if sym == 1:
                assert t == p
            elif sym == 0:
                assert t == q
            else:
                assert qr(0) < t < delta

    def test_atom_invariants(self, two_valued_model):
        p, q, delta = (two_valued_model.constants[c] for c in ("p", "q", "delta"))
        for atom in two_valued_model.atoms:
            total = sum((d for d in atom.durations), qr(0))
            assert total == atom.t_return
            assert qr(0) < atom.remainder < delta
            assert 1 <= atom.k <= atom.l
            # q-class frequency stays within the lemma's 1/2 + eps bullet
            assert Fraction(atom.l, atom.k + atom.l + 1) <= Fraction(1, 2) + Fraction(1, 10)
            assert sum(atom.code_word) == atom.k
            assert len(atom.code_word) == 2 * atom.k

    def test_section_pieces_disjoint_and_returns_agree(self, two_valued_model):
        section = two_valued_model.section()
        assert check_disjoint(section)
        flow = two_valued_model.flow
        p, q, delta = (two_valued_model.constants[c] for c in ("p", "q", "delta"))
        pt = flow.base.point(qr(Fraction(1, 9)))
        fp = make_flow_point(flow, pt, 0)
        _, landing, _ = return_to_section(flow, fp, section, max_shifts=80)
        for _ in range(60):
            t, landing, _ = return_to_section(flow, landing, section, max_shifts=80)
            assert t == p or t == q or (qr(0) < t < delta)

    def test_capacity_invariant_holds(self, two_valued_model):
        lang_count = len(sorted(two_valued_model.flow.base.language(two_valued_model.n)))
        for atom in two_valued_model.atoms:
            assert lang_count <= math.comb(2 * atom.k, atom.k)

    def test_no_pair_precondition(self, root2_flow, two_valued_model):
        # delta far below every achievable remainder: scheduling must fail
        with pytest.raises(PreconditionFailed, match="no \\(k,l\\)"):
            recode_two_valued(root2_flow, two_valued_model.marker, TwoValuedLayout(
                two_valued_model.constants["p"], two_valued_model.constants["q"],
                Fraction(1, 10), qr(Fraction(1, 1000))))

    def test_ocap_frequencies(self, two_valued_model):
        pt = two_valued_model.sample_point(17)
        horizon = 10000
        window = pt.block(0, horizon)
        freq = {s: window.count(s) / horizon for s in (0, 1, 2)}
        assert freq[2] < 0.1
        assert freq[1] <= 0.5 + 0.02
        assert freq[0] <= 0.6 + 0.02

    def test_encode_decode_round_trip(self, two_valued_model):
        flow = two_valued_model.flow
        base = flow.base
        radius = two_valued_model.certified_encode_radius(25)
        rng = random.Random(42)
        for _ in range(100):
            x = base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
            h = flow.roof.table[(x.block(0, 1)[0],)] * Fraction(
                rng.randrange(0, 100), 101
            )
            fp = make_flow_point(flow, x, h)
            window, z_height, center_base = two_valued_model.encode(fp, radius=radius)
            assert qr(0) <= z_height
            word, center_idx = two_valued_model.decode(window)
            truth = tuple(x.block(center_base - 25, center_base + 26))
            got = tuple(word[center_idx - 25 : center_idx + 26])
            assert got == truth

    def test_decode_rejects_foreign_window(self, two_valued_model):
        # swap a 1 and a 0 inside one atom's code word: the segment is still a
        # balanced code word, but of an n-word that no atom carries
        rf = two_valued_model
        x = rf.flow.base.point(qr(Fraction(3, 10)))
        radius = rf.certified_encode_radius(25)
        window, _, _ = rf.encode(make_flow_point(rf.flow, x, 0), radius=radius)
        marks = [i for i, c in enumerate(window) if c == 2]
        s, e = marks[len(marks) // 2] + 1, marks[len(marks) // 2 + 1] + 1
        atom = next(a for a in rf.atoms if a.emission == window[s:e])
        emissions = {a.emission for a in rf.atoms}
        for i, j in itertools.combinations(range(len(atom.code_word)), 2):
            body = list(atom.emission)
            body[i], body[j] = body[j], body[i]
            if tuple(body) not in emissions:
                break
        else:
            pytest.fail("every swap gives another atom's emission")
        assert BalancedCode(2 * atom.k, atom.k).satisfies(body[: 2 * atom.k])
        foreign = window[:s] + tuple(body) + window[e:]
        with pytest.raises(ConstraintViolated):
            rf.decode(foreign)

    def test_z_language_factor_closed(self, two_valued_model):
        lang6 = two_valued_model.automaton.language(6)
        lang4 = two_valued_model.automaton.language(4)
        for w in lang6:
            for i in range(3):
                assert w[i : i + 4] in lang4

    def test_globality_bound(self, two_valued_model):
        # every orbit hits the section within the certified duration
        flow = two_valued_model.flow
        section = two_valued_model.section()
        bound = two_valued_model.globality_bound()
        rng = random.Random(13)
        for _ in range(20):
            x = flow.base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
            fp = make_flow_point(flow, x, 0)
            t, _, _ = return_to_section(flow, fp, section, max_shifts=200)
            assert t <= bound

    def test_globality_certificate(self, two_valued_model):
        from suspshift.subshifts import golden_mean_sft

        flow = two_valued_model.flow
        section = two_valued_model.section()
        depth = 2 * two_valued_model.n + two_valued_model.marker.max_gap
        cert = certify_global_section(flow, section, depth)
        assert cert is not None
        # a section over [1] on the golden-mean flow is escaped by 0^depth
        gflow = SuspensionFlow(golden_mean_sft(), Roof.constant(1))
        partial = CrossSection([(Cylinder((1,), 0), qr(0))])
        assert certify_global_section(gflow, partial, 12) is None

    def test_json_serialization(self, two_valued_model):
        import json

        blob = two_valued_model.to_json()
        text = json.dumps(blob, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["kind"] == "two-valued"
        assert len(parsed["atoms"]) == len(two_valued_model.atoms)
        for atom_obj, atom in zip(parsed["atoms"], two_valued_model.atoms):
            assert atom_obj["gap"] == atom.gap
            assert atom_obj["emission"] == word_str(atom.emission)

    def test_tower_partition_labels(self, two_valued_model):
        # the section pieces labeled by their return-time class: the
        # generating partition of the recoded system
        section = two_valued_model.section()
        labels = [two_valued_model.return_class(d)
                  for a in two_valued_model.atoms for d in a.durations]
        assert len(labels) == len(section.pieces)
        atoms = {}
        for piece, label in zip(section.pieces, labels):
            atoms.setdefault(label, []).append(piece)
        assert set(atoms) == {"p", "q", "remainder"}
        assert sum(len(v) for v in atoms.values()) == len(section.pieces)
        # each remainder piece is the last of its atom's schedule
        assert len(atoms["remainder"]) == len(two_valued_model.atoms)


class TestRecodeDep:
    def test_return_classes(self, marked_model):
        p, q, delta = (marked_model.constants[c] for c in ("p", "q", "delta"))
        pt = marked_model.flow.base.point(qr(Fraction(5, 13)))
        census = marked_model.return_census(pt, 2000)
        for sym, t in census:
            if sym == 1:
                assert t == p
            else:
                assert q <= t <= q + delta

    def test_marker_return_is_strictly_above_q(self, marked_model):
        q, delta = marked_model.constants["q"], marked_model.constants["delta"]
        for atom in marked_model.atoms:
            last = atom.durations[-1]
            assert q < last < q + delta
            for d in atom.durations[:-1]:
                assert d == marked_model.constants["p"] or d == q

    def test_scheduling_word_constraints(self, marked_model):
        K = marked_model.constants["K"]
        for atom in marked_model.atoms:
            w = atom.code_word
            assert w[0] == 1 and w[-1] == 1
            run = 0
            for c in w:
                run = run + 1 if c == 0 else 0
                assert run <= K - 1

    def test_every_window_contains_marking_pattern(self, marked_model):
        pattern = marked_model.constants["pattern"]
        stretch = marked_model.automaton.longest_stretch_avoiding(pattern)
        assert stretch is not None
        bound = stretch + len(pattern)
        assert bound <= 400
        # spot-check on sampled windows of length 400
        pat = word_str(pattern)
        for seed in range(5):
            window = word_str(marked_model.sample_point(seed).block(0, 400))
            assert pat in window

    def test_remainder_sits_before_pattern_end(self, marked_model):
        # {r' > q} is exactly one step before each occurrence end of the
        # marking pattern
        pattern = marked_model.constants["pattern"]
        pat = word_str(pattern)
        pt = marked_model.sample_point(9)
        window = word_str(pt.block(0, 600))
        census = marked_model.return_census_positions(pt, 600)
        rem_positions = {pos for pos, sym, t in census
                         if sym == 0 and t > marked_model.constants["q"]}
        pattern_pos = set()
        i = window.find(pat)
        while i != -1:
            end = i + len(pat) - 1
            pattern_pos.add(end - 1)
            i = window.find(pat, i + 1)
        lo = min(rem_positions | pattern_pos) + len(pat)
        hi = max(rem_positions | pattern_pos) - len(pat)
        trimmed = lambda s: {x for x in s if lo <= x <= hi}
        assert trimmed(rem_positions) == trimmed(pattern_pos)


    def test_encode_decode_round_trip(self, marked_model):
        flow = marked_model.flow
        radius = marked_model.certified_encode_radius(25)
        for seed in range(50):
            rng = random.Random(seed)
            x = flow.base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
            h = flow.roof.table[(x.block(0, 1)[0],)] * Fraction(rng.randrange(0, 100), 101)
            window, _, center_base = marked_model.encode(make_flow_point(flow, x, h),
                                                         radius=radius)
            word, center_idx = marked_model.decode(window)
            truth = tuple(x.block(center_base - 25, center_base + 26))
            assert tuple(word[center_idx - 25 : center_idx + 26]) == truth


class TestFeasibleGapMarker:
    def test_certificate_reads_every_atom(self):
        # the marker [2] has the return words 20 (return time 4) and 21
        # (return time 5), and 21 is infeasible; 2 is followed by 0 or 1
        # freely, so every other word has a 2-1-2 cycle free of it and
        # unbounded returns
        base = SFT(3, adjacency=[[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        flow = SuspensionFlow(base, Roof.by_symbol([1, 2, 3]))
        with pytest.raises(NoMarkerFound, match="feasible gap spectrum"):
            find_marker_with_feasible_gaps(flow, lambda t: t <= 4, 3, 12)


def exact_key(t):
    return (t.A, t.B, t.C)


class TestSetupWork:
    """Deterministic work counts of the certified set-up: each exact return
    time gets one verdict in the marker search and one candidate-pair list
    per build, shared by the search and the plan, whatever the machine's
    speed."""

    def test_marked_binary_candidate_pairs_once_per_return_time(self, monkeypatch):
        calls, feasible, phase = [], [], ["plan"]
        real_pairs = recode.candidate_pairs
        real_search = recode.find_marker_with_feasible_gaps
        real_feasible = recode.MarkedBinaryLayout.feasible

        def counting_pairs(t, *args):
            calls.append((phase[0], exact_key(t)))
            return real_pairs(t, *args)

        def search(*args, **kwargs):
            phase[0] = "search"
            try:
                return real_search(*args, **kwargs)
            finally:
                phase[0] = "plan"

        def counting_feasible(self, t, lang_count, ks):
            feasible.append(exact_key(t))
            return real_feasible(self, t, lang_count, ks)

        monkeypatch.setattr(recode, "candidate_pairs", counting_pairs)
        monkeypatch.setattr(instances, "find_marker_with_feasible_gaps", search)
        monkeypatch.setattr(recode.MarkedBinaryLayout, "feasible", counting_feasible)
        rf = build_marked_binary_instance()
        searched = [t for ph, t in calls if ph == "search"]
        planned = [t for ph, t in calls if ph == "plan"]
        # one verdict per distinct return time (79 feasible calls without the
        # memo), and one candidate list per time for the whole build: the
        # plan reads the lists the search made (8 lists before they were
        # shared)
        assert len(feasible) == len(set(feasible)) == 6
        assert sorted(searched) == sorted(set(feasible))
        assert len(planned) == len(set(planned))
        assert len(calls) == 6 and planned == []
        assert {exact_key(a.t_return) for a in rf.atoms} <= set(searched)
        assert set(planned) <= set(searched)

    def test_two_valued_pair_once_per_return_time(self, monkeypatch):
        asked, calls = [], []
        real_pair = recode.TwoValuedLayout.pair
        real_pairs = recode.candidate_pairs

        def counting_pair(self, t):
            asked.append(exact_key(t))
            return real_pair(self, t)

        def counting_pairs(t, *args):
            calls.append(exact_key(t))
            return real_pairs(t, *args)

        monkeypatch.setattr(recode.TwoValuedLayout, "pair", counting_pair)
        monkeypatch.setattr(recode, "candidate_pairs", counting_pairs)
        rf = build_two_valued_instance()
        atom_times = [exact_key(a.t_return) for a in rf.atoms]
        searched = asked[:len(asked) - len(atom_times)]
        assert asked[len(searched):] == atom_times  # the plan asks per atom
        assert len(searched) == len(set(searched)) == 5  # 21 without the memo
        # and reads the pairs the search found: 5 candidate lists in all,
        # where the plan made one more per atom before they were shared
        assert calls == searched

    def test_no_rank_table(self):
        # capacity checks, rank and unrank read closed-form counts: no code
        # of either shipped build holds a table, and the class has none
        assert not hasattr(BalancedCode, "_table") and not hasattr(BalancedCode, "_rows")
        marked, two_valued = build_marked_binary_instance(), build_two_valued_instance()
        assert len(marked.codes) == 2 and list(two_valued.codes) == [(14, 7)]
        for rf in (marked, two_valued):
            for code in rf.codes.values():
                assert set(vars(code)) == {"length", "ones", "first_last_one", "max_run"}

    def test_verdict_times_are_return_word_sums(self, monkeypatch):
        # every time the search hands to time_ok is the exact roof sum of
        # one of the candidate's return words, each asked once
        flow = SuspensionFlow(Sturmian(sqrt_d(3) - 1), Roof.by_symbol([sqrt_d(3), 1 + sqrt_d(3) / 2]))
        seen, candidates = [], []
        real_return_words = markers.return_words

        def recording_return_words(*args):
            candidates.append(real_return_words(*args))
            return candidates[-1]

        def time_ok(t):
            seen.append(t)
            return t < 6  # the return words of at most 3 symbols

        monkeypatch.setattr(markers, "return_words", recording_return_words)
        find_marker_with_feasible_gaps(flow, time_ok, 4, 60)
        assert seen
        sums = {sum((flow.roof.table[(c,)] for c in r), qr(0))
                for returns in candidates if returns is not None for r in returns}
        for t in seen:
            assert t in sums
        assert len(seen) == len(set(seen))

    def test_setup_needs_no_depth_scan(self, monkeypatch):
        # set-up reads exact return words: no return_spectrum and no language
        # at the certificate depth; the certificate's gap counts are computed
        # when it is written and equal the depth-420 scan
        lengths = []
        real_language = Sturmian.language

        def recording_language(self, n):
            lengths.append(n)
            return real_language(self, n)

        def no_spectrum(*args):
            raise AssertionError("return_spectrum called during set-up")

        monkeypatch.setattr(Sturmian, "language", recording_language)
        monkeypatch.setattr(markers, "return_spectrum", no_spectrum)
        built = [build_two_valued_instance(), build_marked_binary_instance()]
        assert lengths and max(lengths) < 420
        monkeypatch.undo()
        for rf in built:
            spec = return_spectrum(rf.flow.base, rf.marker.word, 420)
            assert rf.to_json()["marker"] == {
                "word": word_str(rf.marker.word),
                "separation_n": spec.min_return,
                "min_return": spec.min_return,
                "coverage_k": spec.first_start_max,
                "scan_depth": 420,
                "gap_counts": {str(g): c for g, c in sorted(spec.gap_counts.items())},
            }


def _marked_binary(angle, roof, q):
    flow = SuspensionFlow(Sturmian(angle), Roof.constant(roof))
    return lambda: build_marked_binary_instance(flow=flow, p=qr(1), q=q, delta=q - 1)


def _two_valued(angle, roof, q):
    flow = SuspensionFlow(Sturmian(angle), Roof.constant(roof))
    return lambda: build_two_valued_instance(flow=flow, p=qr(1), q=q)


# the shipped builds, the generator's other marked-binary instances and the
# sqrt7-2 two-valued instance
INSTANCE_BUILDS = {
    "marked-binary sqrt2-1": _marked_binary(sqrt_d(2) - 1, sqrt_d(2), sqrt_d(2)),
    "marked-binary sqrt3-1": _marked_binary(sqrt_d(3) - 1, sqrt_d(3), (1 + sqrt_d(3)) / 2),
    "marked-binary sqrt7-2": _marked_binary(sqrt_d(7) - 2, sqrt_d(7), sqrt_d(7) - Fraction(3, 2)),
    "two-valued sqrt2-1": _two_valued(sqrt_d(2) - 1, sqrt_d(2), sqrt_d(2)),
    "two-valued sqrt7-2": _two_valued(sqrt_d(7) - 2, sqrt_d(7), sqrt_d(7)),
}


@pytest.mark.parametrize("name", sorted(INSTANCE_BUILDS))
def test_setup_equals_the_quadratic_reference(name, monkeypatch):
    # the same build with the QuadraticReal pair loop, table-read code sizes
    # and the QuadraticReal schedule must give every atom the same pair,
    # code, code word, offsets and durations, in the same exact forms
    rf = INSTANCE_BUILDS[name]()
    monkeypatch.setattr(recode, "candidate_pairs", reference_candidate_pairs)
    monkeypatch.setattr(recode, "code_size", table_code_size)
    monkeypatch.setattr(recode, "_schedule_atom", reference_schedule_atom)
    ref = INSTANCE_BUILDS[name]()
    assert rf.marker.word == ref.marker.word
    assert list(rf.codes) == list(ref.codes)
    assert len(rf.atoms) == len(ref.atoms) > 1
    for a, b in zip(rf.atoms, ref.atoms):
        assert (a.k, a.l, exact_form(a.remainder)) == (b.k, b.l, exact_form(b.remainder))
        args = rf.layout.code_args(a)
        assert args == ref.layout.code_args(b)
        assert a.code_word == b.code_word \
            == ref.codes[args].unrank(sorted(ref.flow.base.language(ref.n)).index(a.n_word))
        assert a.emission == b.emission
        assert a.columns == b.columns
        assert list(map(exact_form, a.offsets)) == list(map(exact_form, b.offsets))
        assert list(map(exact_form, a.durations)) == list(map(exact_form, b.durations))
    assert rf.to_json() == ref.to_json()


@pytest.mark.parametrize("model", ["two_valued_model", "marked_model"])
def test_encode_reads_the_last_marker_hit(request, model):
    # a hit may start fewer than len(marker) symbols before the point; the
    # truth comes from a text scan for the hits, the roof sum since the last
    # one, and the concatenated emissions of the atoms at the hits
    rf = request.getfixturevalue(model)
    x = rf.flow.base.point(qr(Fraction(2, 11)))
    marker = word_str(rf.marker.word)
    text = word_str(x.block(-200, 400))
    hits = [s - 200 for s in range(len(text)) if text.startswith(marker, s)]
    symbols, first_symbol = [], {}
    for s in hits[:-1]:
        first_symbol[s] = len(symbols)
        symbols.extend(rf.atom_at(x, s).emission)
    radius = 10
    for i0 in range(60, 340):
        j0 = max(s for s in hits if s <= i0)
        elapsed = sum((rf.flow.roof.value_at(x, c) for c in range(j0, i0)), qr(0))
        atom = rf.atom_at(x, j0)
        piece = max(k for k, t in enumerate(atom.offsets) if t <= elapsed)
        center = first_symbol[j0] + piece
        window, z_height, center_base = rf.encode(make_flow_point(rf.flow, x, 0, i0), radius)
        assert (z_height, center_base) == (elapsed - atom.offsets[piece],
                                           j0 + atom.columns[piece])
        assert window == tuple(symbols[center - radius:center + radius + 1])


def reference_chain_language(automaton, n):
    """Every length-n window readable along atom chains, walked from each
    (atom, position) with a memo on (state, budget): the language of Z as
    it was computed before the automaton was a walked subshift."""
    seen = {}

    def walk(state, budget):
        if budget == 0:
            return {()}
        if (state, budget) not in seen:
            ai, pos = state
            emission = automaton.atoms[ai].emission
            nxt = ([(ai, pos + 1)] if pos + 1 < len(emission)
                   else [(j, 0) for j in automaton.successors[ai]])
            seen[state, budget] = {(emission[pos],) + tail
                                   for s2 in nxt for tail in walk(s2, budget - 1)}
        return seen[state, budget]

    return {w for a in automaton.atoms for pos in range(len(a.emission))
            for w in walk((a.index, pos), n)}


@pytest.mark.parametrize("model", ["two_valued_model", "marked_model"])
def test_z_walk_matches_chain_reference(request, model):
    z = request.getfixturevalue(model).automaton
    for n in range(1, 13):
        assert z.language(n) == reference_chain_language(z, n)
        assert z.count(n) == len(z.language(n))


@pytest.mark.parametrize("model", ["two_valued_model", "marked_model"])
def test_z_admits_long_chain_blocks(request, model):
    rf = request.getfixturevalue(model)
    for seed in range(5):
        block = rf.sample_point(seed).block(-100, 100)
        assert rf.automaton.admissible(block)
    # an atom's emission followed by a non-successor's is no chain block
    succ = rf.automaton.successors
    bad = [a.emission + b.emission for a in rf.atoms for b in rf.atoms
           if b.index not in succ[a.index]]
    assert bad and not any(map(rf.automaton.admissible, bad))


class TestSqrt7TwoValued:
    """The two-valued instance on Sturmian(sqrt7-2) with roof sqrt7, p=1,
    q=sqrt7, eps=delta=1/10: gaps 223 and 271, code lengths 312 and 328."""

    def test_builds_within_budget_and_round_trips(self):
        t0 = time.perf_counter()
        flow = SuspensionFlow(Sturmian(sqrt_d(7) - 2), Roof.constant(sqrt_d(7)))
        rf = build_two_valued_instance(flow=flow, p=qr(1), q=sqrt_d(7))
        elapsed = time.perf_counter() - t0
        assert elapsed < 5.0, f"sqrt7-2 two-valued build took {elapsed:.1f}s (budget 5s)"
        assert sorted(a.gap for a in rf.atoms) == [223, 271]
        assert sorted(c.length for c in rf.codes.values()) == [312, 328]
        radius = rf.certified_encode_radius(25)
        for seed in range(50):
            rng = random.Random(seed)
            x = flow.base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
            h = flow.roof.table[(x.block(0, 1)[0],)] * Fraction(rng.randrange(0, 100), 101)
            window, z_height, center_base = rf.encode(make_flow_point(flow, x, h),
                                                      radius=radius)
            assert qr(0) <= z_height
            word, center_idx = rf.decode(window)
            truth = tuple(x.block(center_base - 25, center_base + 26))
            assert tuple(word[center_idx - 25 : center_idx + 26]) == truth
