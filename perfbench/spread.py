"""Run-to-run spread of the end-to-end metrics, as the acceptance rule computes it.

    python3 perfbench/spread.py --workload solve_fine --runs 10 [--seconds 30]

Runs the benchmark once per seed (1..runs) and prints, per metric, the
median, the quartile spread (Q3 - Q1) / median from
statistics.quantiles(values, n=4), the metric's bound from BENCHMARK.json
and whether the spread is below a third of that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in range(1, args.runs + 1):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = stats.quartile_spread(vals) if len(vals) > 1 else 0.0
        verdict = "ok" if spread < bounds[name] / 3 else "WIDE"
        print(f"{name:14s} median={statistics.median(vals):.6g} spread={spread:.4f} "
              f"bound={bounds[name]} {verdict}  values=" + " ".join(f"{v:.4g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main())
