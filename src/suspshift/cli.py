"""Batch experiment runner: deterministic, file-driven, table-emitting.

One subcommand per acceptance check.  Inputs are JSON configs, outputs are
CSV files (UTF-8, LF) whose first row carries the config hash, so replays
with identical (config, seed) are byte-identical.  Violated preconditions
exit nonzero with a machine-readable error JSON on stdout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import sys
from fractions import Fraction

from suspshift.quadratic import QuadraticReal, qr
from suspshift.subshifts import (
    SFT,
    Cylinder,
    EmptySubshift,
    parse_word,
    subshift_from_json,
    word_str,
)
from suspshift.measures import DMetricConfig, bernoulli, parry_measure, sum_exact
from suspshift.suspension import (
    Roof,
    SuspensionFlow,
    abramov_entropy,
    flow_from_json,
    induced_entropy_identity,
    kac_expected_return,
    make_flow_point,
    orbit_capacity_discrete,
    return_to_section,
    sample_sft_orbit,
    HorizonExceeded,
    IncommensurableRoof,
    NotHit,
    SFTWalk,
    time_delta_tower_entropy,
    CrossSection,
)
from suspshift.markers import NoMarkerFound, build_marker
from suspshift.recode import CapacityExceeded, InfeasibleSchedule, PreconditionFailed
from suspshift.generator import GeneratorModel, NoMarkersFound, round_trip
from suspshift.periodic import PeriodicCensus, global_periodic_growth, p_k
from suspshift.instances import build_marked_binary_instance, build_two_valued_instance


class ConfigError(Exception):
    """The config is JSON but not of the config's shape."""


ERRORS = (
    PreconditionFailed, CapacityExceeded, InfeasibleSchedule,  # recode
    NoMarkerFound, NoMarkersFound,  # markers, generator
    NotHit, HorizonExceeded, IncommensurableRoof,  # suspension
    EmptySubshift,  # subshifts
    ConfigError,
    ValueError, KeyError,
)


def _config_hash(config: dict, seed: int) -> str:
    blob = json.dumps(config, sort_keys=True) + f"|seed={seed}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_csv(out_dir: str, name: str, header, rows, chash: str):
    path = os.path.join(out_dir, name)
    lines = [f"config_hash,{chash}"]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(x) for x in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _write_json(out_dir: str, name: str, obj):
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _measure_param(cfg, subshift):
    """The measure of config key `measure`, on an SFT system: Bernoulli(1/2,
    1/2) on the full 2-shift when the key is absent, the Parry measure when
    it is "parry"."""
    p = cfg["parameters"]
    if "measure" in p and p["measure"] != "parry":
        raise ConfigError(
            f"config key 'measure' must be absent or \"parry\", not {p['measure']!r}")
    if not isinstance(subshift, SFT):
        raise ConfigError(
            f"config key 'measure' needs an SFT system, not a {type(subshift).__name__}")
    if "measure" in p:
        return parry_measure(subshift)
    if subshift.alphabet_size != 2 or subshift.forbidden:
        raise ConfigError("config key 'measure' must be given: its default, Bernoulli(1/2, "
                          "1/2), is a measure of the full 2-shift only")
    return bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=subshift)


def _sft_system(cfg) -> SFT:
    """The config's system, which must be an SFT: orbits are sampled by a
    walk on its graph."""
    system = subshift_from_json(cfg["system"])
    if not isinstance(system, SFT):
        raise ConfigError(f"config key 'system' must be an SFT, not {cfg['system']['kind']!r}")
    return system


def _integer(p, key, default, least=1) -> int:
    """The integer parameter `key`, which must be at least `least`."""
    return _checked_integer(key, p.get(key, default), least)


def _checked_integer(key, value, least) -> int:
    """`value`, read from config key `key`: a JSON integer (a bool, a float
    or a string is not one) of at least `least`."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"config key {key!r} must be an integer >= {least}, not {value!r}")
    return value


def _number(p, key, default, *, rational):
    """The parameter `key`, a number > 0 of Q (`rational`) or of Q[sqrt(d)]."""
    return _checked_number(key, p.get(key, default), rational=rational)


def _checked_number(key, value, *, rational):
    """`value`, read from config key `key`: a number > 0, written as a JSON
    integer or a string such as "1/10" (a bool or a float is not one) or,
    unless `rational`, as {"a": a, "b": b, "d": d} for a + b*sqrt(d).  A
    Fraction when `rational`, else a QuadraticReal."""
    try:
        x = None if isinstance(value, bool) else QuadraticReal.from_json(value)
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        x = None
    if x is None or (rational and not x.is_rational) or x.sign() <= 0:
        field = "Q" if rational else "Q[sqrt(d)]"
        raise ConfigError(f"config key {key!r} must be a number > 0 of {field}, not {value!r}")
    return x.a if rational else x


def _words(p, key, default, parse, size) -> list:
    """The list parameter `key`, each entry read into a word by `parse`:
    nonempty, with every symbol in 0..size-1."""
    raw = p.get(key, default)
    try:
        words = [parse(x) for x in raw] if isinstance(raw, list) else []
    except (TypeError, ValueError):
        words = []
    if not words or not all(0 <= s < size for w in words for s in w):
        raise ConfigError(f"config key {key!r} must be a nonempty list over "
                          f"0..{size - 1}, not {raw!r}")
    return words


def _a_symbols(cfg, system) -> list:
    """The symbols of the section [a], a nonempty list over the alphabet."""
    words = _words(cfg["parameters"], "a_symbols", [0],
                   lambda s: (_checked_integer("a_symbols", s, 0),), system.alphabet_size)
    return [w[0] for w in words]


def _time_counts(pairs) -> dict:
    """{(class, A, B, C): [count, time]} of (class, exact time) pairs: each
    distinct pair once, keyed on the time's unique integer form
    (A + B*sqrt(d))/C."""
    counts = {}
    for cls, t in pairs:
        key = (cls, t.A, t.B, t.C)
        entry = counts.get(key)
        if entry is None:
            counts[key] = [1, t]
        else:
            entry[0] += 1
    return counts


def _class_rows(counts):
    """(class, count, min, max) rows, sorted by class, of `_time_counts`:
    the min and max are taken over the distinct times only."""
    stats = {}
    for (cls, *_), (n, t) in counts.items():
        cur = stats.get(cls)
        if cur is None:
            stats[cls] = [n, t, t]
        else:
            cur[0] += n
            cur[1] = min(cur[1], t)
            cur[2] = max(cur[2], t)
    return [(cls, c, repr(float(mn)), repr(float(mx)))
            for cls, (c, mn, mx) in sorted(stats.items())]


# -- subcommands -------------------------------------------------------------


def cmd_entropy(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    horizon = _integer(cfg["parameters"], "horizon", 20)
    rows = []
    exact = system.entropy_exact()
    mu = _measure_param(cfg, system) if "measure" in cfg["parameters"] else None
    if exact is not None:
        rows.append(("perron", repr(exact)))
    count_rate = math.log(system.count(horizon)) / horizon
    rows.append((f"count_n{horizon}", repr(count_rate)))
    files = [_write_csv(out_dir, "entropy.csv", ("method", "nats"), rows, chash)]
    if mu is not None:
        n_max = _integer(cfg["parameters"], "blocks", 12)
        brows = []
        prev_total = 0.0
        for n in range(1, n_max + 1):
            hn = mu.block_entropy(n) * n
            brows.append((n, repr(hn), repr(hn / n), repr(hn - prev_total)))
            prev_total = hn
        files.append(
            _write_csv(out_dir, "block_entropy.csv",
                       ("n", "H_n", "H_n_over_n", "H_gain"), brows, chash)
        )
    return files


def cmd_marker(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    p = cfg["parameters"]
    marker = build_marker(
        system, _integer(p, "n", None), _integer(p, "max_word_len", 20),
        _integer(p, "depth", 100))
    cert = marker.certificate()
    files = [_write_json(out_dir, "marker.json", cert)]
    rows = list(cert["gap_counts"].items())
    files.append(_write_csv(out_dir, "marker_gaps.csv", ("gap", "count"), rows, chash))
    return files


def _load_flow(cfg) -> SuspensionFlow:
    return flow_from_json(cfg["system"])


def _two_valued_from_cfg(cfg):
    p = cfg["parameters"]
    return build_two_valued_instance(
        _load_flow(cfg), _number(p, "p", None, rational=False),
        _number(p, "q", None, rational=False), _number(p, "epsilon", "1/10", rational=True),
        _number(p, "delta", None, rational=False), _integer(p, "depth", 420))


def cmd_recode_two_valued(cfg, seed, out_dir, chash):
    rf = _two_valued_from_cfg(cfg)
    p = cfg["parameters"]
    returns = _integer(p, "returns", 10000)
    horizon = _integer(p, "horizon", 10000)
    pt = rf.sample_point(seed)
    census = rf.return_census_positions(pt, horizon)[:returns]
    rows = _class_rows(_time_counts((rf.return_class(t), t) for _, _, t in census))
    files = [_write_csv(out_dir, "two_valued_census.csv",
                        ("class", "count", "min", "max"), rows, chash)]
    window = pt.block(0, horizon)
    freqs = {s: window.count(s) / horizon for s in (0, 1, 2)}
    report = {
        "atoms": len(rf.atoms),
        "n": rf.n,
        "ratio_relaxed": rf.ratio_relaxed,
        "ocap_estimates": {str(s): freqs[s] for s in (0, 1, 2)},
        "K_params": sorted({(2 * a.k, a.k) for a in rf.atoms}),
    }
    files.append(_write_json(out_dir, "two_valued_report.json", report))
    files.append(_write_json(out_dir, "two_valued_recoded_flow.json", rf.to_json()))
    return files


def _marked_binary_from_cfg(cfg):
    p = cfg["parameters"]
    return build_marked_binary_instance(
        _load_flow(cfg), _number(p, "p", None, rational=False),
        _number(p, "q", None, rational=False), _integer(p, "M", 2),
        _number(p, "delta", None, rational=False), _integer(p, "depth", 420))


def cmd_recode_marked_binary(cfg, seed, out_dir, chash):
    rf = _marked_binary_from_cfg(cfg)
    p = cfg["parameters"]
    horizon = _integer(p, "horizon", 4000)
    pt = rf.sample_point(seed)
    census = rf.return_census_positions(pt, horizon)
    rows = _class_rows(_time_counts((rf.return_class(t), t) for _, _, t in census))
    files = [_write_csv(out_dir, "marked_binary_census.csv",
                        ("class", "count", "min", "max"), rows, chash)]
    pattern = rf.constants["pattern"]
    stretch = rf.automaton.longest_stretch_avoiding(pattern)
    report = {
        "atoms": len(rf.atoms),
        "n": rf.n,
        "K": rf.constants["K"],
        "M": rf.constants["M"],
        "pattern": word_str(pattern),
        "pattern_window_bound": None if stretch is None else stretch + len(pattern),
        "scheduling_words_ok": all(
            a.code_word[0] == 1 and a.code_word[-1] == 1 for a in rf.atoms
        ),
    }
    files.append(_write_json(out_dir, "marked_binary_report.json", report))
    files.append(_write_json(out_dir, "marked_binary_recoded_flow.json", rf.to_json()))
    return files


def cmd_generator_roundtrip(cfg, seed, out_dir, chash):
    p = cfg["parameters"]
    n = _integer(p, "n", 50)
    points = _integer(p, "points", 100)
    model = GeneratorModel(_marked_binary_from_cfg(cfg))
    rows = []
    for i in range(points):
        pt = model.sample_point(seed + i)
        rec, truth, match = round_trip(model, pt, n)
        rows.append((seed + i, n, int(match), len(rec)))
    return [
        _write_csv(out_dir, "roundtrip.csv",
                   ("seed", "n", "match", "recoveredLen"), rows, chash)
    ]


def cmd_ocap(cfg, seed, out_dir, chash):
    system = _sft_system(cfg)
    p = cfg["parameters"]
    cylinders = [Cylinder(w, 0) for w in _words(p, "cylinders", None, parse_word,
                                                system.alphabet_size)]
    horizon = _integer(p, "horizon", 500)
    samples = _integer(p, "samples", 20)
    period_max = _integer(p, "period_max", 12)
    rng = random.Random(seed)
    orbits = [
        sample_sft_orbit(system, horizon + 20, rng) for _ in range(samples)
    ]
    upper, lower, witness = orbit_capacity_discrete(
        system, cylinders, horizon, orbits, period_max
    )
    rows = [
        ("upper_estimate", repr(float(upper))),
        ("lower_witness_mass", repr(float(lower))),
        ("witness", word_str(witness.word) if witness else ""),
    ]
    return [_write_csv(out_dir, "ocap.csv", ("quantity", "value"), rows, chash)]


def cmd_abramov_check(cfg, seed, out_dir, chash):
    flow = _load_flow(cfg)
    mu = _measure_param(cfg, flow.base)
    p = cfg["parameters"]
    n = _integer(p, "n", 14, least=3)  # the gain reads level n - 2
    delta = _number(p, "delta", 1, rational=True)
    labels = {c: f"s{c}" for c in range(flow.base.alphabet_size)}
    h_base = mu.entropy_rate()
    integral = flow.roof.integral(mu)
    formula = abramov_entropy(h_base, integral)
    h_tot_n = time_delta_tower_entropy(mu, flow.roof, delta, labels, n)
    h_tot_prev = time_delta_tower_entropy(mu, flow.roof, delta, labels, n - 2)
    tower_n = h_tot_n / n
    gain = (h_tot_n - h_tot_prev) / 2 / float(delta)
    rows = [
        ("h_base", repr(h_base)),
        ("roof_integral", repr(float(integral))),
        ("abramov_formula", repr(formula)),
        (f"tower_avg_n{n}", repr(tower_n / float(delta))),
        (f"tower_gain_n{n}", repr(gain)),
    ]
    return [_write_csv(out_dir, "abramov.csv", ("quantity", "nats"), rows, chash)]


def cmd_kac_check(cfg, seed, out_dir, chash):
    system = _sft_system(cfg)
    a_symbols = _a_symbols(cfg, system)
    mu = _measure_param(cfg, system)
    p = cfg["parameters"]
    returns = _integer(p, "returns", 100000)
    tau_max = _integer(p, "tau_max", 32)
    partial, truncated = kac_expected_return(mu, a_symbols, tau_max)
    flow = SuspensionFlow(system, Roof.constant(1, system.alphabet_size))
    section = CrossSection([(Cylinder((s,), 0), qr(0)) for s in a_symbols])
    # one lazily drawn orbit: its first hit of the section, then `returns` returns
    point = make_flow_point(flow, SFTWalk(system, random.Random(seed)))
    _, point, _ = return_to_section(flow, point, section, max_shifts=2000)
    pairs = []
    for _ in range(returns):
        t, point, k = return_to_section(flow, point, section, max_shifts=2000)
        pairs.append((k, t))
    # the returns take few distinct times: sum and compare those only
    counts = _time_counts(pairs)
    mean = float(sum_exact([t * n for n, t in counts.values()])) / returns
    rows = [
        ("simulated_mean", repr(mean)),
        ("returns", returns),
        ("exact_truncated_mean", repr(float(partial))),
        ("truncated_mass", repr(float(truncated))),
    ]
    files = [_write_csv(out_dir, "kac.csv", ("quantity", "value"), rows, chash)]
    files.append(
        _write_csv(out_dir, "return_spectra.csv",
                   ("piece", "count", "min", "max"), _class_rows(counts), chash)
    )
    return files


def cmd_induced_check(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    a_symbols = _a_symbols(cfg, system)
    mu = _measure_param(cfg, system)
    p = cfg["parameters"]
    tau_max = _integer(p, "tau_max", 32)
    ns = p.get("ns", [10, 12, 14])
    if not isinstance(ns, list) or not ns:
        raise ConfigError(f"config key 'ns' must be a nonempty list of integers, not {ns!r}")
    ns = [_checked_integer("ns", n, 1) for n in ns]
    rows = []
    for n in ns:
        lhs, rhs, gap, trunc = induced_entropy_identity(mu, a_symbols, n, tau_max)
        rows.append((n, repr(lhs), repr(rhs), repr(gap), repr(trunc)))
    return [
        _write_csv(out_dir, "induced.csv",
                   ("n", "lhs", "rhs", "gap", "truncated_mass"), rows, chash)
    ]


def cmd_periodic(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    p = cfg["parameters"]
    n_max = _integer(p, "n_max", 12)
    dconf = DMetricConfig(system, depth=_integer(p, "metric_depth", 8))
    census = PeriodicCensus(system, n_max)
    growth = global_periodic_growth(census)
    eps = p.get("eps", ["1/2", "1/4", "1/8"])
    if not isinstance(eps, list) or not eps:
        raise ConfigError(f"config key 'eps' must be a nonempty list of rationals, not {eps!r}")
    eps_seq = [float(_checked_number("eps", e, rational=True)) for e in eps]
    rows = []
    for e in census.entries:
        pks = [repr(p_k(census, e, eps, dconf)) for eps in eps_seq]
        rows.append((e.period, e.orbit_id, word_str(e.point.word), *pks))
    header = ("period", "orbit_id", "word") + tuple(
        f"p_k_eps{i}" for i in range(len(eps_seq))
    )
    files = [_write_csv(out_dir, "periodic_census.csv", header, rows, chash)]
    grows = [(n, repr(v)) for n, v in sorted(growth.per_n.items())]
    grows.append(("growth_at_horizon", repr(growth.value)))
    files.append(
        _write_csv(out_dir, "periodic_growth.csv", ("n", "rate"), grows, chash)
    )
    return files


COMMANDS = {
    "entropy": cmd_entropy,
    "marker": cmd_marker,
    "recode-dex": cmd_recode_two_valued,
    "recode-dep": cmd_recode_marked_binary,
    "generator-roundtrip": cmd_generator_roundtrip,
    "ocap": cmd_ocap,
    "abramov-check": cmd_abramov_check,
    "kac-check": cmd_kac_check,
    "induced-check": cmd_induced_check,
    "periodic": cmd_periodic,
}


def _error_json(err: Exception) -> int:
    print(json.dumps({
        "error": type(err).__name__,
        "precondition": str(err),
    }, sort_keys=True))
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="suspshift-lab")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    out_dir = os.environ.get("SUSPSHIFT_OUT", args.out)
    os.makedirs(out_dir, exist_ok=True)
    try:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as err:  # unreadable, or not JSON
        return _error_json(err)
    if not isinstance(cfg, dict):
        return _error_json(ConfigError(f"config must be a JSON object, not {type(cfg).__name__}"))
    for key in ("system", "parameters"):
        if key not in cfg:
            return _error_json(ConfigError(f"config has no {key!r} key"))
        if not isinstance(cfg[key], dict):
            return _error_json(ConfigError(f"config key {key!r} must be a JSON object"))
    chash = _config_hash(cfg, args.seed)
    try:
        files = COMMANDS[args.command](cfg, args.seed, out_dir, chash)
    except ERRORS as err:
        return _error_json(err)
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
