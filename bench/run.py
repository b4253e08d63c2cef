"""suspshift benchmark: one workload per run, in a fresh process.

    python3 bench/run.py --workload sturmian-sections --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`.  With `--trace 0` the run performs seeded operations for `--seconds`
seconds, timing each call and checking each result exactly, and builds the
workload's certified objects several times over that span (`setup_s` is the
median).  Times are adjusted to a reference machine speed (SpeedGauge below);
the raw figures are printed too.
With `--trace 1` it performs a fixed number of operations twice, first
plainly and then with every layer's entry points wrapped in spans
(bench/spans.py), and reports per-layer counts, busy and self times and the
tracing overhead.  Counts repeat exactly for a fixed seed.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics, whose metric
names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MAX_REPORTED_FAILURES = 5
PROBE_REF_MS = 1.2       # the probe's time at the faster of a 2-vCPU Xeon VM's two speeds
PROBE_EVERY_S = 0.1


def machine_info(seed):
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.machine(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "load1_start": os.getloadavg()[0],
        "probe_ms_start": probe_ms(),
    }


def probe_ms():
    """Time of a fixed loop of Fraction arithmetic, tuples and dict stores:
    the kind of work suspshift does, from the standard library only, so a
    change to suspshift cannot move it.  Best of two, to skip interrupts."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        seen = {}
        for i in range(1, 250):
            x = Fraction(i % 11, 7) + Fraction(i % 13, 9) * Fraction(3, i % 5 + 1)
            seen[(i % 3, i % 5)] = x < 1
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class SpeedGauge:
    """Scales timings to one reference machine speed.

    A shared 2-vCPU Xeon VM ran at two speeds about 1.5x apart, switching
    every few seconds to minutes as neighbours loaded the same cores; its own
    load average did not show it.  Raw medians of two 10-run sets of the same
    code then differed by up to 53%.  The gauge times the
    probe at most every PROBE_EVERY_S, before an operation or a set-up, and
    that operation's time is multiplied by PROBE_REF_MS / probe time.  On
    the round trip workload the adjusted time stayed within 3% while the
    raw time moved by 1.7x."""

    def __init__(self):
        self.factor = 1.0
        self.last = -PROBE_EVERY_S
        self.probes = []

    def refresh(self, force=False):
        if force or time.perf_counter() - self.last >= PROBE_EVERY_S:
            ms = probe_ms()
            self.probes.append(ms)
            self.factor = PROBE_REF_MS / ms
            self.last = time.perf_counter()


class Run:
    """Operation outcomes of one pass over a workload."""

    def __init__(self, gauge=None):
        # kind -> seconds per attempted operation, adjusted by the gauge when
        # there is one; arrays keep the benchmark's own memory small beside
        # the library's peak RSS
        self.seconds = defaultdict(lambda: array("d"))
        self.raw_s = 0.0
        self.gauge = gauge
        self.attempted = 0
        self.failed = Counter()      # kind -> failed operations
        self.tally = Counter()

    def attempt(self, kind, run, check, tracer=None):
        """Time run(), then check its result untimed; None after a failure."""
        if self.gauge is not None:
            self.gauge.refresh()
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            out = run()
        except Exception:
            out, error = None, traceback.format_exc()
        else:
            error = None
        finally:
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
        self.raw_s += dt
        self.seconds[kind].append(dt if self.gauge is None else dt * self.gauge.factor)
        self.attempted += 1
        if error is None:
            try:
                if check(out):
                    return out
                error = "exact check failed"
            except Exception:
                error = traceback.format_exc()
        self.failed[kind] += 1
        if sum(self.failed.values()) <= MAX_REPORTED_FAILURES:
            print(f"# {kind} operation {self.attempted} failed: {error}", file=sys.stderr)
        return None

    def drive(self, workload, built, seed, *, deadline=None, count=None, tracer=None,
              between=None):
        ops = workload.operations(built, random.Random(seed), self.tally)
        op = next(ops)
        while True:
            out = self.attempt(*op, tracer=tracer)
            if (count is not None and self.attempted >= count) or \
                    (deadline is not None and time.perf_counter() >= deadline):
                return
            if between is not None:
                between()
            op = ops.send(out)


def timed_setup(workload, tracer=None):
    if tracer is not None:
        tracer.enabled = True
    t0 = time.perf_counter()
    built = workload.setup()
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    return built, dt


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def measure(workload, seed, seconds):
    """Set up, then run operations until `seconds` have passed.  The other
    set-ups of the run are spread evenly over that time, between operations,
    so that their median samples the whole run, not only its first moments.
    Every time is adjusted by the SpeedGauge; the raw figures are printed
    beside the adjusted ones."""
    gauge = SpeedGauge()
    raw_setups, setups = [], []

    def set_up():
        gauge.refresh(force=True)
        built, dt = timed_setup(workload)
        raw_setups.append(dt)
        setups.append(dt * gauge.factor)
        return built

    built = set_up()
    start = time.perf_counter()
    interval = seconds / workload.setup_reps

    def set_up_again():
        if len(setups) < workload.setup_reps and \
                time.perf_counter() >= start + len(setups) * interval:
            set_up()

    run = Run(gauge)
    run.drive(workload, built, seed, deadline=start + seconds, between=set_up_again)
    while len(setups) < workload.setup_reps:
        set_up()
    checks = workload.final_checks(built, run.tally)

    lat = sorted(dt for times in run.seconds.values() for dt in times)
    n = len(lat)
    tail = n - 11 if n >= 11 else n - 1   # at least 10 samples beyond it
    failed = sum(run.failed.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": n / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[tail] * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    mix = ", ".join(f"{len(run.seconds[kind])} {kind}" for kind in workload.kinds)
    named = {
        "setup_s": (metrics["setup_s"], "s", f"median of {len(setups)} set-ups; "
                    f"raw {statistics.median(raw_setups)!r} s"),
        "ops_per_s": (metrics["ops_per_s"], "1/s",
                      f"all {n} operations: {mix}; raw {n / run.raw_s!r} 1/s"),
        "op_p50_ms": (metrics["op_p50_ms"], "ms", f"median of {n} operations"),
        "op_tail_ms": (metrics["op_tail_ms"], "ms",
                       f"p{100 * (tail + 1) / n:.1f} of {n} operations, {n - 1 - tail} beyond it"),
        "failed_share": (failed / n, "ratio", f"{failed} of {n}"),
        "peak_rss_mb": (metrics["peak_rss_mb"], "MB", "whole process"),
    }
    for kind, (what, name) in workload.kinds.items():
        times = run.seconds[kind]
        if name == "census_s":
            named[name] = (statistics.median(times), "s", f"median of {len(times)}: {what}")
        elif name == "words_per_s":
            named[name] = (run.tally["words"] / sum(times), "1/s", f"checked words: {what}")
        else:
            named[name] = ((len(times) - run.failed[kind]) / sum(times), "1/s",
                           f"checked: {what}")
    named["speed_factor"] = (statistics.median(g / PROBE_REF_MS for g in gauge.probes), "ratio",
                             f"median probe time over {PROBE_REF_MS} ms, {len(gauge.probes)} probes; "
                             "adjusted time = raw time / factor")
    return run, checks, metrics, named


# -- traced run ---------------------------------------------------------------


def _ratio(a, b):
    return a / b if b else 0.0


LAYERS = ("quadratic", "subshifts", "suspension", "markers", "recode", "generator",
          "measures", "periodic", "instances")


def layer_metrics(tr, untraced_s, traced_s):
    returns = tr.calls("suspension.return_to_section")
    match_calls = tr.calls("suspension.match_at")
    words = tr.counts["subshifts.language.words"]
    p_k_calls = tr.calls("periodic.p_k")
    q_ops = tr.layer_calls("quadratic")
    return_time = tr.stats.get("suspension.return_to_section", (0, 0.0))[1]
    m = {
        "quadratic.ops": q_ops,
        "quadratic.floor.calls": tr.calls("quadratic.floor"),
        "quadratic.cmp.calls": tr.calls("quadratic.lt", "quadratic.le", "quadratic.gt",
                                        "quadratic.ge", "quadratic.eq"),
        "quadratic.rational_share": _ratio(tr.counts["quadratic.rational_ops"], q_ops),
        "quadratic.self_s": tr.layer_self_s("quadratic"),
        "subshifts.symbol_at.calls": tr.calls("subshifts.symbol_at"),
        "subshifts.symbol_at.self_s": tr.self_s("subshifts.symbol_at"),
        "subshifts.block.symbols": tr.counts["subshifts.block.symbols"],
        "subshifts.symbols_per_return": _ratio(tr.counts["symbols_in_returns"], returns),
        "subshifts.language.words": words,
        "subshifts.language.self_s": tr.self_s("subshifts.language"),
        "subshifts.admissible.calls": tr.calls("subshifts.admissible"),
        "subshifts.admissible_per_word": _ratio(tr.counts["admissible_in_language"], words),
        "suspension.return_to_section.calls": returns,
        "suspension.return_to_section.self_s": tr.self_s("suspension.return_to_section"),
        "suspension.match_at.calls": match_calls,
        "suspension.match_at.self_s": tr.self_s("suspension.match_at"),
        "suspension.pieces_tested": tr.counts["suspension.pieces_tested"],
        "suspension.match_hit_ratio": _ratio(tr.counts["suspension.match_hits"], match_calls),
        "suspension.shifts_per_return": _ratio(match_calls, returns),
        "suspension.return_share_quadratic_subshifts": _ratio(
            tr.under_return["quadratic"] + tr.under_return["subshifts"], return_time),
        "markers.return_spectrum.calls": tr.calls("markers.return_spectrum"),
        "markers.return_spectrum.self_s": tr.self_s("markers.return_spectrum"),
        "markers.verify_coverage.calls": tr.calls("markers.verify_coverage"),
        "markers.self_s": tr.layer_self_s("markers"),
        "recode.find_marker.self_s": tr.self_s("recode.find_marker"),
        "recode.build.self_s": tr.self_s("recode.build"),
        "recode.encode.self_s": tr.self_s("recode.encode"),
        "recode.decode.self_s": tr.self_s("recode.decode"),
        "recode.rank.calls": tr.calls("recode.rank"),
        "recode.chain_block.calls": tr.calls("recode.chain_block"),
        "recode.atom_boundaries.calls": tr.calls("recode.atom_boundaries"),
        "recode.atom_boundaries.self_s": tr.self_s("recode.atom_boundaries"),
        "generator.name_of.self_s": tr.self_s("generator.name_of"),
        "generator.step.calls": tr.calls("generator.step"),
        "generator.roof_at.calls": tr.calls("generator.roof_at"),
        "generator.roof_at.self_s": tr.self_s("generator.roof_at"),
        "generator.decode_name.self_s": tr.self_s("generator.decode_name"),
        "measures.d_distance.calls": tr.calls("measures.d_distance"),
        "measures.d_distance.self_s": tr.self_s("measures.d_distance"),
        "measures.mass.calls": tr.calls("measures.mass"),
        "measures.self_s": tr.layer_self_s("measures"),
        "periodic.census.self_s": tr.self_s("periodic.census"),
        "periodic.p_k.calls": p_k_calls,
        "periodic.p_k.self_s": tr.self_s("periodic.p_k"),
        "periodic.distances_per_p_k": _ratio(tr.counts["distances_in_p_k"], p_k_calls),
        "instances.gap_feasible.calls": tr.calls("instances.gap_feasible"),
        "instances.self_s": tr.layer_self_s("instances"),
        "trace.untraced_s": untraced_s,
        "trace.traced_s": traced_s,
        "trace.overhead": _ratio(traced_s, untraced_s) - 1,
    }
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = tr.busy[layer]
    return m


def trace(workload, seed):
    """The same set-up and operations twice, plainly and then traced.  The
    two pass times, hence the overhead, are adjusted by the SpeedGauge; the
    per-layer times are the tracer's raw clock readings."""
    from spans import Tracer

    gauge = SpeedGauge()

    def set_up(tracer=None):
        gauge.refresh(force=True)
        built, dt = timed_setup(workload, tracer)
        return built, dt * gauge.factor

    plain = Run(gauge)
    built, setup_s = set_up()
    plain.drive(workload, built, seed, count=workload.trace_ops)
    untraced_s = setup_s + sum(map(sum, plain.seconds.values()))

    tracer = Tracer()
    tracer.install()
    if tracer.missing:
        print("# trace: entry points not found: " + ", ".join(tracer.missing), file=sys.stderr)
    traced = Run(gauge)
    built, setup_s = set_up(tracer)
    traced.drive(workload, built, seed, count=workload.trace_ops, tracer=tracer)
    traced_s = setup_s + sum(map(sum, traced.seconds.values()))

    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = out_dir / f"trace-{workload.name}-seed{seed}"
    tracer.write_spans(f"{stem}.spans.jsonl")
    with open(f"{stem}.table.json", "w", encoding="utf-8") as fh:
        json.dump(tracer.table(), fh, indent=1, sort_keys=True)
    checks = workload.final_checks(built, traced.tally)
    return [plain, traced], checks, layer_metrics(tracer, untraced_s, traced_s), stem


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "suspshift" / "__init__.py").is_file():
        print(f"error: no suspshift sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    info = machine_info(args.seed)
    print(f"# workload {workload.name}: {workload.why}")
    if args.trace:
        runs, checks, values, stem = trace(workload, args.seed)
        wanted = spec["per_layer"]
        for m in wanted:
            print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
        print(f"# spans written to {stem}.spans.jsonl and {stem}.table.json")
    else:
        run, checks, values, named = measure(workload, args.seed, args.seconds)
        runs = [run]
        wanted = spec["end_to_end"]
        for name, (value, unit, note) in named.items():
            print(f"{name} {value!r} {unit}  ({note})")
    for name, ok, detail in checks:
        print(f"# check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    info["load1_end"] = os.getloadavg()[0]
    info["probe_ms_end"] = probe_ms()
    print("# machine " + json.dumps(info, sort_keys=True))

    attempted = sum(r.attempted for r in runs)
    failed = sum(sum(r.failed.values()) for r in runs)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({
        "correct": failed == 0 and all(ok for _, ok, _ in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
