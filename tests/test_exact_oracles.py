"""Independent checks of the fast exact oracles.

- `Sturmian.symbol_at` (integer floors of the mechanical word) against the
  definition frac(phase + i*alpha) in [lo, hi), evaluated here with
  QuadraticReal sign tests;
- the symbol window of `SturmianPoint.block` against fresh points and
  `symbol_at`, and the symbols it computes;
- `return_to_section` on its integer `ReturnPlan`, whose group index finds
  the pieces a column lands on, against `_reference_return`, the
  QuadraticReal loop it replaced, kept here on a per-piece scan;
- the edge walk of `SFT.language` against filtering all words by
  `admissible`, including the order the words are stored in;
- the integer breakpoint walk of `Sturmian._language` against the
  QuadraticReal walk it replaced, kept here as the reference;
- `word_str` against the per-symbol join on any word.
"""

import collections
import importlib.util
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from suspshift.quadratic import QuadraticReal, qr, sqrt_d
from suspshift.subshifts import (
    SFT,
    Cylinder,
    PeriodicPoint,
    Sturmian,
    SturmianPoint,
    full_shift,
    golden_mean_sft,
    word_str,
)
from suspshift.suspension import (
    CrossSection,
    FlowPoint,
    NotHit,
    Roof,
    SuspensionFlow,
    return_to_section,
)
from test_golden import ROOT

ANGLES = {
    "sqrt2-1": sqrt_d(2) - 1,
    "sqrt3-1": sqrt_d(3) - 1,
    "(sqrt5-1)/2": (sqrt_d(5) - 1) / 2,
    "sqrt7-2": sqrt_d(7) - 2,
}
CASES = [(name, conv) for name in ANGLES for conv in ("low", "high")]
SYSTEMS = {case: Sturmian(ANGLES[case[0]], case[1]) for case in CASES}


def frac(x: QuadraticReal) -> QuadraticReal:
    return x - x.floor()


def reference_floor(x: QuadraticReal) -> int:
    """floor(x) from a float guess corrected by exact sign tests, so the
    reference shares no floor code with the library."""
    m = math.floor(float(x))
    while (x - m).sign() < 0:
        m -= 1
    while (x - (m + 1)).sign() >= 0:
        m += 1
    return m


def reference_symbol(alpha: QuadraticReal, convention: str, phase, i: int) -> int:
    """The coding by definition: is frac(phase + i*alpha) in the symbol-1 arc?"""
    one = QuadraticReal(1, 0, alpha.d)
    lo, hi = (one - one, alpha) if convention == "low" else (one - alpha, one)
    x = phase + i * alpha
    x = x - reference_floor(x)
    return 1 if lo <= x < hi else 0


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=10**6)
indices = st.one_of(
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=-10**15, max_value=10**15),
)


@st.composite
def phase_and_index(draw, alpha):
    """A quadratic phase, or one that puts x = phase + i*alpha (or x +- alpha)
    exactly on a boundary of the coding arcs."""
    i = draw(indices)
    kind = draw(st.sampled_from(["random", "frac(-i*alpha)", "alpha", "1-alpha"]))
    if kind == "random":
        phase = QuadraticReal(draw(fractions), draw(fractions), alpha.d)
    elif kind == "frac(-i*alpha)":
        phase = frac(-i * alpha) + draw(st.integers(-1, 1))
    elif kind == "alpha":
        phase = alpha
    else:
        phase = 1 - alpha
    return phase, i


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_symbol_at_matches_definition(case, data):
    sturmian = SYSTEMS[case]
    phase, i = data.draw(phase_and_index(sturmian.alpha))
    expected = reference_symbol(sturmian.alpha, sturmian.convention, phase, i)
    assert sturmian.symbol_at(phase, i) == expected


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_symbol_at_on_arc_boundaries(case):
    # x landing on 0, alpha and 1 - alpha exactly, at every index
    sturmian = SYSTEMS[case]
    alpha = sturmian.alpha
    for i in (-10**9, -7, -1, 0, 1, 2, 13, 10**9):
        for target in (qr(0, 0, alpha.d), alpha, 1 - alpha):
            phase = frac(target - i * alpha)
            expected = reference_symbol(alpha, sturmian.convention, phase, i)
            assert sturmian.symbol_at(phase, i) == expected


def test_symbol_at_rejects_mixed_radicands():
    with pytest.raises(ValueError):
        SYSTEMS[("sqrt2-1", "low")].symbol_at(sqrt_d(3) - 1, 0)


def test_rational_phase_with_other_radicand():
    # a rational phase carries no radicand of its own
    sturmian = SYSTEMS[("sqrt7-2", "high")]
    phase = QuadraticReal(Fraction(2, 9), 0, 2)
    for i in range(-5, 5):
        assert sturmian.symbol_at(phase, i) == reference_symbol(
            sturmian.alpha, "high", phase, i)


# ---------------------------------------------------------------------------
# the per-point symbol window


windows = st.lists(
    st.tuples(st.integers(-300, 300), st.integers(0, 40)), min_size=1, max_size=12
)


@pytest.mark.parametrize("case", [("sqrt2-1", "low"), ("(sqrt5-1)/2", "high")],
                         ids=lambda c: f"{c[0]}-{c[1]}")
@settings(max_examples=60, deadline=None)
@given(windows=windows, phase=st.fractions(0, 1, max_denominator=1000))
def test_memo_windows_equal_fresh_reads(case, windows, phase):
    sturmian = SYSTEMS[case]
    shared = sturmian.point(qr(phase, 0, sturmian.alpha.d))
    for start, length in windows:
        fresh = sturmian.point(qr(phase, 0, sturmian.alpha.d))
        assert shared.block(start, start + length) == fresh.block(start, start + length)


def test_memo_overlapping_negative_out_of_order():
    sturmian = SYSTEMS[("sqrt2-1", "low")]
    phase = qr(Fraction(3, 10))
    shared = sturmian.point(phase)
    for i, j in [(5, 30), (-20, 10), (25, 40), (-40, -30), (0, 0), (-35, 45), (7, 8)]:
        expected = tuple(sturmian.symbol_at(phase, k) for k in range(i, j))
        assert shared.block(i, j) == expected
        assert sturmian.point(phase).block(i, j) == expected


def _draw_read(data, point):
    """A read [i, j) drawn against the point's window [lo, hi): around its
    left or its right end, so that it lies inside the window, overlaps it or
    touches it, or a far jump to an index up to 10^15 away."""
    lo = point._lo
    hi = lo + len(point._window)
    before, after = data.draw(st.integers(0, 20)), data.draw(st.integers(0, 20))
    where = data.draw(st.sampled_from(["left end", "right end", "far"]))
    if where == "left end":
        return lo - before, lo + after
    if where == "right end":
        return hi - before, hi + after
    i = data.draw(indices)
    return i, i + after


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_window_reads_equal_symbol_at(case, data):
    sturmian = SYSTEMS[case]
    phase, start = data.draw(phase_and_index(sturmian.alpha))
    point = sturmian.point(phase)
    point.block(start, start + data.draw(st.integers(0, 20)))
    for _ in range(data.draw(st.integers(1, 12))):
        i, j = _draw_read(data, point)
        assert point.block(i, j) == tuple(sturmian.symbol_at(phase, k) for k in range(i, j))
    lo = point._lo
    assert point._window == [sturmian.symbol_at(phase, k)
                             for k in range(lo, lo + len(point._window))]


def test_far_jump_computes_only_the_symbols_it_reads(monkeypatch):
    sturmian = SYSTEMS[("sqrt2-1", "low")]
    computed = []
    symbol_at = Sturmian.symbol_at
    monkeypatch.setattr(Sturmian, "symbol_at",
                        lambda self, phase, i: computed.append(i) or symbol_at(self, phase, i))
    point = sturmian.point(qr(Fraction(3, 10)))
    far = 10**15
    for (i, j), new in [((0, 30), range(0, 30)),
                        ((far, far + 5), range(far, far + 5)),
                        ((far - 3, far + 8), [*range(far - 3, far), *range(far + 5, far + 8)]),
                        ((far + 1, far + 4), []),
                        ((-far, -far + 1), [-far]),
                        ((-far - 2, -far), [-far - 2, -far - 1])]:
        computed.clear()
        point.block(i, j)
        assert sorted(computed) == list(new)


def _bench_workloads(monkeypatch):
    """bench/workloads.py, imported without writing bytecode under bench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_workload_computes_each_symbol_read_once(monkeypatch):
    # 200 operations of the sturmian-sections stream, returns and codec
    # round trips: every (point, index) read is computed once, on any point
    workloads = _bench_workloads(monkeypatch)
    built = workloads.setup_two_valued()
    points, reads, computed = {}, set(), [0]
    block, symbol_at = SturmianPoint.block, Sturmian.symbol_at

    def counted_block(point, i, j):
        points[id(point)] = point  # kept alive, so no two points share an id
        reads.update((id(point), k) for k in range(i, j))
        return block(point, i, j)

    def counted_symbol_at(sturmian, phase, i):
        computed[0] += 1
        return symbol_at(sturmian, phase, i)

    monkeypatch.setattr(SturmianPoint, "block", counted_block)
    monkeypatch.setattr(Sturmian, "symbol_at", counted_symbol_at)
    ops = workloads.sturmian_sections(built, random.Random(1), collections.Counter())
    kind, run, check = next(ops)
    for _ in range(200):
        out = run()
        assert check(out), kind
        kind, run, check = ops.send(out)
    assert computed[0] == len(reads) > 0


# ---------------------------------------------------------------------------
# section returns against a per-piece scan


def scan_match(section, oracle, index):
    """(offset, piece index) for each piece whose cylinder holds at base
    coordinate `index`, in ascending piece index: one read per piece."""
    out = []
    for k, piece in enumerate(section.pieces):
        c = piece.cylinder
        start = index + c.anchor
        if tuple(oracle.block(start, start + len(c.word))) == tuple(c.word):
            out.append((piece.offset, k))
    return out


def _reference_return(flow_sys, p, section, max_shifts=10000):
    """The QuadraticReal loop that the integer returns replaced: the roof
    sum plus the lowest offset matched in a column, above the start height
    in the first column and below the roof in every one."""
    idx = p.index
    col_start = -p.height
    first = True
    for _ in range(max_shifts):
        r = flow_sys.roof_at(p.oracle, idx)
        hits = scan_match(section, p.oracle, idx)
        if first:
            hits = [(off, k) for (off, k) in hits if off > p.height]
            first = False
        hits = [(off, k) for (off, k) in hits if off < r]
        if hits:
            off, k = min(hits, key=lambda t: t[0])
            return col_start + off, FlowPoint(p.oracle, idx, off), k
        col_start = col_start + r
        idx += 1
    raise NotHit(f"no return within {max_shifts} base shifts")


def _qr_key(v):
    return v.A, v.B, v.C, v.d


def _flow_key(p):
    return p.index, _qr_key(p.height)


def _return_key(out):
    t, landing, k = out
    return _qr_key(t), _flow_key(landing), k


def _assert_same_chain(fl, p, section, returns, max_shifts=200):
    """Up to `returns` chained returns from p agree with the reference,
    down to a NotHit that ends the chain; the last landing, or None."""
    for _ in range(returns):
        try:
            want = _reference_return(fl, p, section, max_shifts)
        except NotHit:
            with pytest.raises(NotHit):
                return_to_section(fl, p, section, max_shifts)
            return None
        out = return_to_section(fl, p, section, max_shifts)
        assert _return_key(out) == _return_key(want)
        assert out[1].oracle is p.oracle
        assert out[1].height is section.pieces[out[2]].offset
        p = out[1]
    return p


def test_section_returns_on_two_valued_section(two_valued_model):
    section = two_valued_model.section()
    assert len(section) == 35
    flow = two_valued_model.flow
    rng = random.Random(3)
    hits = 0
    for _ in range(4):
        x = flow.base.point(qr(Fraction(rng.randrange(10**6), 10**6)))
        for index in range(-50, 150):
            landing = _assert_same_chain(flow, FlowPoint(x, index, qr(0)), section, 1)
            hits += landing.index == index
    assert hits > 0


# strategies built once: building them inside `mixed_sections` costs more
# than the returns under test
OFFSETS = sorted({Fraction(a, b) for b in range(1, 6) for a in range(2 * b + 1)})
ROOF_VALUES = [qr(1), qr(Fraction(3, 2)), sqrt_d(2)]
PIECES = {size: st.lists(st.tuples(st.lists(st.integers(0, size - 1), max_size=4),
                                   st.integers(-4, 4), st.sampled_from(OFFSETS)),
                         min_size=1, max_size=12)
          for size in (2, 3)}
PERIODS = {size: st.lists(st.integers(0, size - 1), min_size=1, max_size=7)
           for size in (2, 3)}
ROOFS = {size: st.lists(st.sampled_from(ROOF_VALUES), min_size=size, max_size=size)
         for size in (2, 3)}


@st.composite
def mixed_sections(draw):
    """Random sections over a small alphabet: mixed anchors and lengths,
    repeated words with distinct offsets, the occasional empty word; a
    by-symbol roof from 1, 3/2 and sqrt2 over the full shift."""
    size = draw(st.sampled_from((2, 3)))
    pieces = draw(PIECES[size])
    if draw(st.booleans()):
        word, anchor, offset = pieces[0]
        pieces.append((word, anchor, offset + 1))
    section = CrossSection([(Cylinder(tuple(w), a), o) for w, a, o in pieces])
    flow = SuspensionFlow(full_shift(size), Roof.by_symbol(draw(ROOFS[size])))
    return flow, section, PeriodicPoint(tuple(draw(PERIODS[size])))


@settings(max_examples=200, deadline=None)
@given(case=mixed_sections())
def test_section_returns_on_mixed_sections(case):
    flow, section, oracle = case
    for index in range(-8, 9):
        _assert_same_chain(flow, FlowPoint(oracle, index, qr(0)), section, 1, 20)


# ---------------------------------------------------------------------------
# SFT language by edge walk


def filtered_language(sft, n):
    return frozenset(
        w for w in itertools.product(range(sft.alphabet_size), repeat=n)
        if sft.admissible(w)
    )


SFTS = {
    "golden": golden_mean_sft(),
    "full3": full_shift(3),
    "adjacency": SFT(3, adjacency=[[1, 1, 0], [0, 0, 1], [1, 0, 1]]),
    "memory3": SFT(2, forbidden=[(1, 1, 1), (0, 0, 0, 0), (1, 0, 1)]),
    "mixed-lengths": SFT(3, forbidden=[(2,), (0, 1, 0), (1, 1)]),
    "trimmed": SFT(2, adjacency=[[1, 1], [0, 0]]),
    "empty": SFT(2, forbidden=[(0,), (1,)]),
}


@pytest.mark.parametrize("name", sorted(SFTS))
def test_language_walk_equals_filter(name):
    sft = SFTS[name]
    for n in range(1, 9):
        got = sft.language(n)
        want = filtered_language(sft, n)
        assert got == want
        # same words inserted in the same (lexicographic) order: downstream
        # float sums over the language see the same iteration order
        assert list(got) == list(frozenset(sorted(want)))


# ---------------------------------------------------------------------------
# Sturmian language by the integer breakpoint walk


def reference_language(st_: Sturmian, n: int) -> frozenset:
    """The breakpoint walk with QuadraticReal points, as it was before the
    integer form: tags keyed on the points, sorted by QuadraticReal order.
    Symbol 1 codes [lo, hi): [0, alpha) (low) or [1 - alpha, 1) (high)."""
    zero, one = qr(0), qr(1)
    lo, hi = (zero, st_.alpha) if st_.convention == "low" else (one - st_.alpha, one)
    tags = {}
    for j in range(n):
        sh = j * st_.alpha
        tags.setdefault(frac(lo - sh), []).append((j, 1))
        tags.setdefault(frac(hi - sh), []).append((j, 0))
    pts = sorted(tags)
    word = [st_.symbol_at(pts[0], j) for j in range(n)]
    words = {tuple(word)}
    for x in pts[1:]:
        for j, val in tags[x]:
            word[j] = val
        words.add(tuple(word))
    return frozenset(words)


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def test_integer_language_walk_equals_reference(case):
    st_ = SYSTEMS[case]
    for n in [*range(1, 61), 420]:
        got, want = st_._language(n), reference_language(st_, n)
        assert len(got) == n + 1  # Sturmian complexity
        assert got == want
        # same words inserted in the same order
        assert list(got) == list(want)


def test_language_walk_does_no_quadratic_arithmetic(monkeypatch):
    systems = [Sturmian(ANGLES[name], conv) for name, conv in CASES]
    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__lt__", "__le__", "__gt__",
                 "__ge__", "__eq__", "__hash__", "sign", "floor"):
        monkeypatch.setattr(QuadraticReal, name, counting(name, getattr(QuadraticReal, name)))
    # the counters see operator use and hashing
    assert qr(1) + qr(2) < qr(4) and hash(qr(1)) == hash(1)
    assert calls == ["__add__", "__lt__", "__hash__"]
    calls.clear()
    for system in systems:
        assert len(system._language(420)) == 421
    assert calls == []


# ---------------------------------------------------------------------------
# word_str


@settings(max_examples=300, deadline=None)
@given(w=st.one_of(st.lists(st.integers(0, 9), max_size=500),
                   st.lists(st.integers(0, 12), max_size=40),
                   st.lists(st.integers(-3, 300), max_size=20)))
def test_word_str_equals_join(w):
    want = "".join(str(c) for c in w)
    assert word_str(tuple(w)) == want
    assert word_str(w) == want


def test_word_str_edges():
    assert word_str(()) == ""
    assert word_str((10,)) == "10"
    assert word_str((1, 10, 2, 255, 256)) == "1102255256"
    assert word_str((0, 9)) == "09"
