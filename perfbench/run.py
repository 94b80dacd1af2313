"""Benchmark of stokesmg: time-to-tolerance solves and an LFA c-sweep.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve_fine --seed 1 --seconds 30 --trace 0

Workloads: solve_fine, lfa_curve (see perfbench/README.md).
--trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
untraced and then traced, checks that both give identical results, and
prints the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5   # this process plus fresh interpreters spread over the run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# End-to-end metrics as declared in BENCHMARK.json, in output order.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("s_per_digit", "s"),
    ("rho_observed", "ratio"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve_fine", "lfa_curve"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def measure(wl, seconds, probe=None, n_probes=0):
    """Closed loop: whole rounds of operations for `seconds` of operation time.

    probe() is called n_probes times between rounds, spread evenly over
    the run, and its values are returned; the time it takes is not counted.
    """
    inputs, results, problems, probed = [], [], [], []
    t0 = time.perf_counter()
    paused = 0.0
    while True:
        for inp in wl.draw_round():
            res, bad = wl.run(inp)
            inputs.append(inp)
            results.append(res)
            problems += bad
        elapsed = time.perf_counter() - t0 - paused
        while len(probed) < n_probes and elapsed >= seconds * (len(probed) + 1) / (n_probes + 1):
            t = time.perf_counter()
            probed.append(probe())
            paused += time.perf_counter() - t
        if elapsed >= seconds:
            return inputs, results, problems, probed


def child_setup_s(args):
    """Set-up time of the same workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def distributions(results, wl):
    """Per-sample values behind the end-to-end metrics and the report."""
    import workloads
    ok = [r for r in results if r["ok"]]
    dists = {
        "op_ms": [1000.0 * r["seconds"] for r in ok],
        "s_per_digit": [stats.seconds_per_digit(r["seconds"], r["digits"]) for r in ok],
    }
    if isinstance(wl, workloads.SolveWorkload):
        cycle_s = [t for r in results for t in r["cycle_s"]]
        dists["cycle_ms"] = [1000.0 * t for t in cycle_s]
        dists["ns_per_dof_cycle"] = [1e9 * t / (3 * wl.n**2) for t in cycle_s]
        dists["cycles_to_tol"] = [float(r["cycles"]) for r in ok]
    else:
        for key in ("sweep_vs_closed", "oracle", "periodic_minus_predicted"):
            dists["check." + key] = [r["checks"][key] for r in results]
    return dists


def end_to_end(results, dists, setups):
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms": statistics.median(dists["op_ms"]),
        "s_per_digit": statistics.median(dists["s_per_digit"]),
        "rho_observed": stats.geomean([q for r in results for q in r["rho_tail"]]),
    }


def detail_lines(results, dists):
    """Readable report: failures, throughput and each distribution."""
    failed = sum(not r["ok"] for r in results)
    lines = [f"fail_rate {stats.fail_rate(failed, len(results)):.4f} "
             f"({failed} failed of {len(results)} attempted)",
             f"ops_per_s {(len(results) - failed) / sum(r['seconds'] for r in results):.6g} "
             "(successful operations per second of operation time)"]
    for name, values in dists.items():
        lines.append(f"{name} " + " ".join(f"{k}={v:.6g}" for k, v in
                                            stats.summary(values).items()))
    return lines


def environment():
    import numpy
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "finest_working_set_mb_computed": 3 * 513**2 * 8 / 1e6,
    }


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _caches():
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    out = {}
    try:
        for idx in sorted(base.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                out[f"L{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return out


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "stokesmg" / "__init__.py").is_file():
        print(f"error: no stokesmg sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:   # the workloads are single-threaded by design
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (read from its installed bytecode)
    # Point bytecode lookups at a tree that is never written, so stokesmg
    # compiles from source in every run, whatever __pycache__ the checkout holds.
    sys.pycache_prefix = str(OUT_DIR / "no-bytecode")
    import workloads
    sys.pycache_prefix = None
    wl = workloads.make(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    lines = [f"env {json.dumps(environment())}",
             f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
             f"trace {args.trace}"]
    if args.trace == 0:
        _, results, problems, setups = measure(
            wl, args.seconds, lambda: child_setup_s(args), SETUP_SAMPLES - 1)
        setups.append(setup_s)
        if not any(r["ok"] for r in results):
            print("error: no operation succeeded", file=sys.stderr)
            return 1
        dists = distributions(results, wl)
        values = end_to_end(results, dists, setups)
        units = dict(END_TO_END)
        lines += detail_lines(results, dists)
    else:
        import layers
        import spans
        inputs, results, problems, _ = measure(wl, args.seconds / 2.0)
        tracer = spans.Tracer()
        with tracer:
            layers.install(tracer)
            traced = []
            for i, inp in enumerate(inputs):
                tracer.op = i
                res, bad = wl.run(inp, tracer)
                traced.append(res)
                problems += bad
        for i, (a, b) in enumerate(zip(results, traced)):
            if a["key"] != b["key"]:
                problems.append(f"operation {i}: traced result differs from untraced")
        values = layers.layer_metrics(
            tracer.spans, getattr(wl, "coarsest_n", 0),
            sum(r["seconds"] for r in traced), sum(r["seconds"] for r in results))
        units = dict(layers.PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.jsonl"
        tracer.write_jsonl(trace_path)
        lines.append(f"trace {len(tracer.spans)} spans over {len(inputs)} operations "
                     f"written to {trace_path.relative_to(ROOT)}")

    failed = sum(not r["ok"] for r in results)
    for name, unit in units.items():
        lines.append(f"metric {name} {values[name]!r} {unit}")
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("\n".join(lines))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
