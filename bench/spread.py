"""Run-to-run spread of the benchmark, and determinism of traced counts.

    python3 bench/spread.py --runs 10 [--workloads a,b] [--seconds S]
                            [--trace-check] [--compare bench/out/spread-X.json]

Runs bench/run.py once per seed (1..runs) for each workload, one process at
a time, and prints for each end-to-end metric the median and the spread:
the distance between the first and third quartiles as a share of the median.
The spread of every metric except setup_s must stay within the metric's
bound in BENCHMARK.json, and is flagged when above a third of it.  The
values are saved under bench/out/; `--compare` prints how far each median
moved from an earlier saved set, worse-direction positive.

`--trace-check` runs the traced run twice with the same seed per workload and
reports every non-time per-layer metric that differs, plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_RATIOS = {"trace.overhead", "suspension.return_share_quadratic_subshifts"}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}\n{proc.stderr}")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace-check", action="store_true")
    parser.add_argument("--compare")
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved = {}
    for w in workloads:
        t0 = time.monotonic()
        runs = [run_once(w, s, args.seconds, 0)
                for s in range(args.first_seed, args.first_seed + args.runs)]
        print(f"{w}: {args.runs} runs in {time.monotonic() - t0:.0f} s")
        saved[w] = {name: [r["metrics"][name]["value"] for r in runs] for name in bounds}
        for name, m in bounds.items():
            vals = saved[w][name]
            med, spr = statistics.median(vals), spread(vals)
            flag = "" if name == "setup_s" else (
                "OVER BOUND" if spr > m["bound"] else ("over bound/3" if spr > m["bound"] / 3 else ""))
            line = f"  {name:12s} median {med:12.6g} {m['unit']:5s} spread {spr:6.3f} " \
                   f"(bound {m['bound']}) {flag}"
            if name in earlier.get(w, {}):
                before = statistics.median(earlier[w][name])
                worse = (med - before) / before * (1 if m["better"] == "lower" else -1)
                line += f" worse-by {worse:+.3f}" + (" OVER BOUND" if worse > m["bound"] else "")
            print(line)
        if args.trace_check:
            a, b = (run_once(w, args.first_seed, args.seconds, 1) for _ in range(2))
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            diff = [n for n, u in units.items()
                    if u != "s" and n not in TIME_RATIOS
                    and a["metrics"][n]["value"] != b["metrics"][n]["value"]]
            print(f"  traced counts {'identical' if not diff else 'DIFFER: ' + ', '.join(diff)}; "
                  f"overhead {a['metrics']['trace.overhead']['value']:.3f}, "
                  f"{b['metrics']['trace.overhead']['value']:.3f}")
    out = ROOT / "bench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(saved, indent=1))
    print(f"values saved to {path}")


if __name__ == "__main__":
    main()
