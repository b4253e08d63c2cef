"""The benchmark workloads: seeded inputs, public entry points, exact checks.

Each workload has a set-up, which builds the certified objects a CLI run
builds before its first answer, and a stream of operations in a fixed mix.
An operation is a `(kind, run, check)` triple: `run()` is the timed call into
the library and `check(result)` decides, outside the timed region, whether
the result is exactly right.  The stream is a generator; bench/run.py sends
each result back (None after a failure), so chained operations such as
successive returns along one orbit continue from the last landing point.

All inputs come from the `random.Random(seed)` that bench/run.py passes in;
the library only ever sees the generated phases, heights, sample seeds and
orbits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from suspshift.generator import GeneratorModel, round_trip, verify_succession
from suspshift.instances import (
    build_marked_binary_instance,
    build_two_valued_instance,
    sturmian_root2_flow,
)
from suspshift.measures import DMetricConfig, bernoulli
from suspshift.periodic import PeriodicCensus, p_k
from suspshift.quadratic import qr
from suspshift.subshifts import Cylinder, full_shift, golden_mean_sft
from suspshift.suspension import (
    CrossSection,
    Roof,
    SuspensionFlow,
    kac_expected_return,
    make_flow_point,
    return_to_section,
    sample_sft_orbit,
)

RETURN_CHAIN = 4          # returns per seeded Sturmian flow point (1 entry + 3)
RETURN_MAX_SHIFTS = 200
BLOCK_RADIUS = 25         # base block checked by encode -> decode
GENERATOR_N = 50
LANGUAGE_N = 18
KAC_ORBIT = 4200          # symbols per sampled full-shift orbit
KAC_CHAIN = 1500          # returns drawn per orbit: ~3000 symbols, 1200 to spare
KAC_MAX_SHIFTS = 4000
KAC_SIGMAS = 6            # run tolerance on the Kac mean: 6 standard errors
CENSUS_N_MAX = 12
CENSUS_EPS = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
METRIC_DEPTH = 8


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def lucas(n):
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _mobius(n):
    result, k = 1, 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            result = -result
        k += 1
    return -result if n > 1 else result


def golden_orbit_count(n):
    """Periodic orbits of minimal period n in the golden mean shift."""
    return sum(_mobius(n // d) * lucas(d) for d in range(1, n + 1) if n % d == 0) // n


def _seeded_sturmian_point(flow, rng):
    x = flow.base.point(qr(Fraction(rng.randrange(0, 10**6), 10**6)))
    h = flow.roof_at(x, 0) * Fraction(rng.randrange(0, 100), 101)
    return x, make_flow_point(flow, x, h)


# ---------------------------------------------------------------------------
# Sturmian(sqrt2 - 1): the 35-piece two-valued section and its codec


def setup_two_valued():
    rf = build_two_valued_instance(flow=sturmian_root2_flow())
    return rf, rf.section(), rf.certified_encode_radius(BLOCK_RADIUS)


def sturmian_sections(built, rng, tally):
    """Cycles of RETURN_CHAIN exact returns from a seeded flow point, then one
    encode -> decode round trip from another."""
    rf, section, radius = built
    flow = rf.flow
    p, q, delta = (rf.constants[c] for c in ("p", "q", "delta"))
    bound = rf.globality_bound()
    zero = qr(0)
    r = BLOCK_RADIUS

    def landed_on_piece(out):
        _, landing, k = out
        return landing.height == section.pieces[k].offset

    def entry_ok(out):
        return zero < out[0] <= bound and landed_on_piece(out)

    def return_ok(out):
        t = out[0]
        return (t == p or t == q or zero < t < delta) and landed_on_piece(out)

    while True:
        _, start = _seeded_sturmian_point(flow, rng)
        check = entry_ok
        for _ in range(RETURN_CHAIN):
            out = yield "return", (lambda s=start: return_to_section(
                flow, s, section, RETURN_MAX_SHIFTS)), check
            if out is None:
                break
            start, check = out[1], return_ok

        x, fp = _seeded_sturmian_point(flow, rng)

        def codec(fp=fp):
            window, z_height, center_base = rf.encode(fp, radius=radius)
            word, center_idx = rf.decode(window)
            return z_height, center_base, word, center_idx

        def codec_ok(out, x=x):
            z_height, center_base, word, center_idx = out
            if z_height.sign() < 0 or center_idx < r or center_idx + r + 1 > len(word):
                return False
            return tuple(word[center_idx - r: center_idx + r + 1]) == \
                tuple(x.block(center_base - r, center_base + r + 1))

        yield "codec", codec, codec_ok


# ---------------------------------------------------------------------------
# the alpha-uniform generator on the marked-binary model


def setup_generator():
    return GeneratorModel(build_marked_binary_instance(flow=sturmian_root2_flow()))


def generator_round_trips(model, rng, tally):
    n = GENERATOR_N
    while True:
        pt = model.sample_point(rng.randrange(2**31))

        def check(out, pt=pt):
            # `match` is the library's substring gate: it also accepts some
            # wrong or shifted truths, so it is a weak check (ROADMAP item 2)
            recovered, truth, match = out
            return match is True and len(truth) == 2 * n + 1 \
                and verify_succession(model.name_of(pt, n))

        yield "roundtrip", (lambda pt=pt: round_trip(model, pt, n)), check


# ---------------------------------------------------------------------------
# SFTs, rational only: golden-mean language, Kac returns, periodic census


@dataclass
class SFTObjects:
    full: object
    flow: SuspensionFlow
    section: CrossSection
    kac_partial: Fraction
    kac_truncated: Fraction


def setup_sft():
    """SFT compile, the full-shift Kac flow with its 1-piece section [0], the
    exact truncated Kac oracle, and the D-metric cylinders of the golden mean."""
    full = full_shift(2)
    mu = bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=full)
    partial, truncated = kac_expected_return(mu, [0], tau_max=32)
    flow = SuspensionFlow(full, Roof.constant(1))
    section = CrossSection([(Cylinder((0,), 0), qr(0))])
    DMetricConfig(golden_mean_sft(), depth=METRIC_DEPTH).cylinders()
    return SFTObjects(full, flow, section, partial, truncated)


def sft_counting(built, rng, tally):
    """Cycles of one language(LANGUAGE_N) and one periodic census, each on a
    fresh golden-mean SFT (both cache per object), then KAC_CHAIN + 1 Kac
    returns along a seeded full-shift orbit."""
    n, n_max = LANGUAGE_N, CENSUS_N_MAX
    words_expected = fibonacci(n + 2)
    eps = [float(e) for e in CENSUS_EPS]
    flow, section = built.flow, built.section
    offset = section.pieces[0].offset

    def language_ok(words):
        # distinct words of length n avoiding 11, as many as F(n+2): exactly
        # the language
        ok = len(words) == words_expected and all(
            len(w) == n and all(a + b < 2 for a, b in zip(w, w[1:])) for w in words)
        if ok:
            tally["words"] += len(words)
        return ok

    def census():
        sft = golden_mean_sft()
        c = PeriodicCensus(sft, n_max)
        config = DMetricConfig(sft, depth=METRIC_DEPTH)
        return c, [[p_k(c, e, x, config) for x in eps] for e in c.entries]

    def census_ok(out):
        c, rows = out
        if any(c.fixed_counts[k] != lucas(k) for k in range(1, n_max + 1)):
            return False
        periods = [e.period for e in c.entries]
        if any(periods.count(k) != golden_orbit_count(k) for k in range(1, n_max + 1)):
            return False
        # p_k counts the orbit itself and is nonincreasing as eps shrinks
        return len(rows) == len(c.entries) and \
            all(row[0] >= row[1] >= row[2] >= 0 for row in rows)

    def entry_ok(out):
        t, landing, _ = out
        return t.is_rational and t.floor() == t and t >= 1 and landing.height == offset

    def return_ok(out):
        if not entry_ok(out):
            return False
        tally["kac_returns"] += 1
        tally["kac_time"] += out[0].floor()
        return True

    while True:
        sft = golden_mean_sft()
        yield "language", (lambda: sft.language(n)), language_ok
        yield "census", census, census_ok
        orbit = sample_sft_orbit(built.full, KAC_ORBIT, rng)
        start, check = make_flow_point(flow, orbit), entry_ok
        for _ in range(KAC_CHAIN + 1):
            out = yield "kac", (lambda s=start: return_to_section(
                flow, s, section, KAC_MAX_SHIFTS)), check
            if out is None:
                break
            start, check = out[1], return_ok


def kac_checks(built, tally):
    n = tally["kac_returns"]
    mean = tally["kac_time"] / n if n else float("nan")
    tol = KAC_SIGMAS * math.sqrt(2 / n) if n else 0.0  # geometric(1/2): variance 2
    return [
        ("kac_oracle", abs(float(built.kac_partial) - 2) < 1e-6
         and built.kac_truncated < Fraction(1, 2**30),
         f"exact truncated mean {float(built.kac_partial):.9f}"),
        ("kac_mean", n > 0 and abs(mean - 2) <= tol,
         f"simulated mean {mean:.4f} over {n} returns, tolerance {tol:.4f}"),
    ]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable
    operations: Callable   # (built, rng, tally) -> generator of (kind, run, check)
    kinds: dict            # kind -> (what one operation is, its named metric)
    setup_reps: int        # set-ups per run; setup_s is their median
    trace_ops: int         # operations in each pass of a traced run
    final_checks: Callable = lambda built, tally: []


WORKLOADS = {w.name: w for w in [
    Workload(
        "sturmian-sections",
        "exact returns to the 35-piece two-valued section and encode -> decode "
        "round trips: the Sturmian oracle, quadratic floors and match_at do the work",
        setup_two_valued, sturmian_sections,
        {"return": (f"one exact return_to_section, {RETURN_CHAIN} per seeded point",
                    "returns_per_s"),
         "codec": (f"one encode -> decode at certified_encode_radius({BLOCK_RADIUS})",
                   "codec_per_s")},
        setup_reps=5, trace_ops=2 * (RETURN_CHAIN + 1)),
    Workload(
        "generator-roundtrip",
        "quadratic sums and compares over a ChainPoint with no Sturmian oracle "
        "after set-up: an oracle change should leave it flat",
        setup_generator, generator_round_trips,
        {"roundtrip": (f"one round_trip at n={GENERATOR_N}", "roundtrips_per_s")},
        setup_reps=5, trace_ops=60),
    Workload(
        "sft-counting",
        "rational only: golden-mean language and periodic census, and Kac "
        "returns to the 1-piece section [0], the cheapest return_to_section",
        setup_sft, sft_counting,
        {"language": (f"one golden_mean_sft().language({LANGUAGE_N})", "words_per_s"),
         "census": (f"one PeriodicCensus(n_max={CENSUS_N_MAX}) with p_k for every "
                    f"orbit at eps 1/2, 1/4, 1/8, metric depth {METRIC_DEPTH}", "census_s"),
         "kac": (f"one return to [0] with roof 1, {KAC_CHAIN} per "
                 f"{KAC_ORBIT}-symbol orbit", "returns_per_s")},
        setup_reps=25, trace_ops=2 * (KAC_CHAIN + 3), final_checks=kac_checks),
]}
