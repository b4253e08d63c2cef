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
    Cylinder,
    parse_word,
    subshift_from_json,
    word_str,
)
from suspshift.measures import (
    DMetricConfig,
    block_entropy,
    bernoulli,
    measure_from_json,
    parry_measure,
)
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


ERRORS = (
    PreconditionFailed,
    CapacityExceeded,
    InfeasibleSchedule,
    NoMarkerFound,
    NoMarkersFound,
    NotHit,
    HorizonExceeded,
    ValueError,
    KeyError,
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


def _qr_param(obj) -> QuadraticReal:
    return QuadraticReal.from_json(obj)


def _measure_param(cfg, subshift):
    spec = cfg["parameters"].get("measure")
    if spec is None:
        return bernoulli([Fraction(1, 2), Fraction(1, 2)], subshift=subshift)
    if spec == "parry":
        return parry_measure(subshift)
    return measure_from_json(spec, subshift=subshift)


def _class_rows(pairs):
    """(class, count, min, max) rows, sorted by class, of (class, time) pairs."""
    stats = {}
    for cls, t in pairs:
        cur = stats.setdefault(cls, [0, t, t])
        cur[0] += 1
        cur[1] = min(cur[1], t)
        cur[2] = max(cur[2], t)
    return [(cls, c, repr(float(mn)), repr(float(mx)))
            for cls, (c, mn, mx) in sorted(stats.items())]


# -- subcommands -------------------------------------------------------------


def cmd_entropy(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    horizon = int(cfg["parameters"].get("horizon", 20))
    rows = []
    exact = system.entropy_exact()
    if exact is not None:
        rows.append(("perron", repr(exact)))
    count_rate = math.log(len(system.language(horizon))) / horizon
    rows.append((f"count_n{horizon}", repr(count_rate)))
    files = [_write_csv(out_dir, "entropy.csv", ("method", "nats"), rows, chash)]
    if "measure" in cfg["parameters"]:
        mu = _measure_param(cfg, system)
        n_max = int(cfg["parameters"].get("blocks", 12))
        brows = []
        prev_total = 0.0
        for n in range(1, n_max + 1):
            hn = block_entropy(mu, n) * n
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
        system, int(p["n"]), int(p.get("max_word_len", 20)), int(p.get("depth", 100))
    )
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
        _load_flow(cfg), _qr_param(p["p"]), _qr_param(p["q"]),
        Fraction(p.get("epsilon", "1/10")), _qr_param(p["delta"]), int(p.get("depth", 420)))


def cmd_recode_two_valued(cfg, seed, out_dir, chash):
    rf = _two_valued_from_cfg(cfg)
    p = cfg["parameters"]
    returns = int(p.get("returns", 10000))
    horizon = int(p.get("horizon", 10000))
    pt = rf.sample_point(seed)
    census = rf.return_census_positions(pt, 0, horizon)[:returns]
    rows = _class_rows((rf.return_class(t), t) for _, _, t in census)
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
        _load_flow(cfg), _qr_param(p["p"]), _qr_param(p["q"]), int(p.get("M", 2)),
        _qr_param(p["delta"]), int(p.get("depth", 420)))


def cmd_recode_marked_binary(cfg, seed, out_dir, chash):
    rf = _marked_binary_from_cfg(cfg)
    p = cfg["parameters"]
    horizon = int(p.get("horizon", 4000))
    pt = rf.sample_point(seed)
    census = rf.return_census_positions(pt, 0, horizon)
    rows = _class_rows((rf.return_class(t), t) for _, _, t in census)
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
    rf = _marked_binary_from_cfg(cfg)
    model = GeneratorModel(rf)
    p = cfg["parameters"]
    n = int(p.get("n", 50))
    points = int(p.get("points", 100))
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
    system = subshift_from_json(cfg["system"])
    p = cfg["parameters"]
    cylinders = [Cylinder(parse_word(w), 0) for w in p["cylinders"]]
    horizon = int(p.get("horizon", 500))
    samples = int(p.get("samples", 20))
    period_max = int(p.get("period_max", 12))
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
    n = int(p.get("n", 14))
    delta = Fraction(p.get("delta", 1))
    labels = {c: f"s{c}" for c in range(flow.base.alphabet_size)}
    h_base = mu.entropy_rate()
    integral = flow.roof.integral(mu)
    formula = abramov_entropy(h_base, integral)
    tower_n = time_delta_tower_entropy(mu, flow.roof, delta, labels, n)
    h_tot_n = time_delta_tower_entropy(mu, flow.roof, delta, labels, n,
                                       return_total=True)
    h_tot_prev = time_delta_tower_entropy(mu, flow.roof, delta, labels, n - 2,
                                          return_total=True)
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
    system = subshift_from_json(cfg["system"])
    mu = _measure_param(cfg, system)
    p = cfg["parameters"]
    a_symbols = [int(s) for s in p.get("a_symbols", [0])]
    returns = int(p.get("returns", 100000))
    tau_max = int(p.get("tau_max", 32))
    partial, truncated = kac_expected_return(mu, a_symbols, tau_max)
    flow = SuspensionFlow(system, Roof.constant(1, system.alphabet_size))
    section = CrossSection([(Cylinder((s,), 0), qr(0)) for s in a_symbols])
    # one lazily drawn orbit: its first hit of the section, then `returns` returns
    point = make_flow_point(flow, SFTWalk(system, random.Random(seed)))
    _, point, _ = return_to_section(flow, point, section, max_shifts=2000)
    total = qr(0)
    pairs = []
    for _ in range(returns):
        t, point, k = return_to_section(flow, point, section, max_shifts=2000)
        total = total + t
        pairs.append((k, t))
    mean = float(total) / returns
    rows = [
        ("simulated_mean", repr(mean)),
        ("returns", returns),
        ("exact_truncated_mean", repr(float(partial))),
        ("truncated_mass", repr(float(truncated))),
    ]
    files = [_write_csv(out_dir, "kac.csv", ("quantity", "value"), rows, chash)]
    files.append(
        _write_csv(out_dir, "return_spectra.csv",
                   ("piece", "count", "min", "max"), _class_rows(pairs), chash)
    )
    return files


def cmd_induced_check(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    mu = _measure_param(cfg, system)
    p = cfg["parameters"]
    a_symbols = [int(s) for s in p.get("a_symbols", [0])]
    tau_max = int(p.get("tau_max", 32))
    rows = []
    for n in p.get("ns", [10, 12, 14]):
        lhs, rhs, gap, trunc = induced_entropy_identity(mu, a_symbols, int(n),
                                                        tau_max)
        rows.append((n, repr(lhs), repr(rhs), repr(gap), repr(trunc)))
    return [
        _write_csv(out_dir, "induced.csv",
                   ("n", "lhs", "rhs", "gap", "truncated_mass"), rows, chash)
    ]


def cmd_periodic(cfg, seed, out_dir, chash):
    system = subshift_from_json(cfg["system"])
    p = cfg["parameters"]
    n_max = int(p.get("n_max", 12))
    census = PeriodicCensus(system, n_max)
    growth = global_periodic_growth(census)
    eps_seq = [float(Fraction(e)) for e in p.get("eps", ["1/2", "1/4", "1/8"])]
    dconf = DMetricConfig(system, depth=int(p.get("metric_depth", 8)))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="suspshift-lab")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".")
    args = parser.parse_args(argv)

    out_dir = os.environ.get("SUSPSHIFT_OUT", args.out)
    os.makedirs(out_dir, exist_ok=True)
    with open(args.config, encoding="utf-8") as fh:
        cfg = json.load(fh)
    chash = _config_hash(cfg, args.seed)
    try:
        files = COMMANDS[args.command](cfg, args.seed, out_dir, chash)
    except ERRORS as err:
        print(json.dumps({
            "error": type(err).__name__,
            "precondition": str(err),
        }, sort_keys=True))
        return 2
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
