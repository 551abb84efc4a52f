"""Benchmark for qvalued: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload relax --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics (set-up time, median
round time, peak RSS).  With ``--trace 1`` it alternates untraced and
traced rounds, runs the layer probes and reports the per-layer metrics,
including the tracing overhead.  The last line of standard output is one
JSON object; the lines before it are a readable report.  Spans go to
``.bench_out/spans-<workload>-s<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MIN_ROUNDS = 3        # the round-time median needs at least three samples


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("relax", "sheets", "diagnose", "pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024


def calibrate(np) -> float:
    """Seconds for a fixed mix of work that touches no qvalued code:
    small numpy operations and a pure-Python loop.

    It runs before the first round and after every round; dividing a
    round's time by the mean of the calibrations on either side cancels
    the host's speed drift.
    """
    rng = np.random.default_rng(0)
    a = rng.normal(size=(97, 97, 2, 2))
    idx = rng.integers(0, 2, size=(97, 97, 2, 1))
    t0 = perf_counter()
    for _ in range(100):
        a = 0.5 * a + 0.5 * np.take_along_axis(a, idx, -2)
        np.sort(np.einsum("yxqn,yxqn->yxq", a, a), axis=-1)
    acc = 0
    for i in range(100_000):
        acc += i * i
    return perf_counter() - t0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "qvalued" / "__init__.py").is_file():
        print(f"perfbench: no qvalued package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"   # before numpy loads its BLAS
    sys.path.insert(0, str(src))

    t0 = perf_counter()
    import qvalued
    import_s = perf_counter() - t0
    if Path(qvalued.__file__).resolve().parent != (src / "qvalued").resolve():
        print(f"perfbench: imported qvalued from {qvalued.__file__}, not {src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import workloads
    from spans import Tracer

    out_root = ROOT / ".bench_out"
    out_dir = out_root / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
        reps = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.setup()
            reps.append(perf_counter() - t0)
        setup_s = import_s + statistics.median(reps)

        ops = workloads.Ops()
        wl.prepare(ops)
        plain, traced = Tracer(False), Tracer(bool(args.trace))
        plain_s, traced_s, plain_rel, calib = [], [], [], [calibrate(np)]
        start = perf_counter()
        k = 0
        while True:
            tr = traced if args.trace and k % 2 else plain
            tr.run_id = k
            t0 = perf_counter()
            try:
                dt = wl.run_round(tr, ops)
            except Exception:
                traceback.print_exc()
                ops.record(f"round {k}", False, "raised")
                dt = perf_counter() - t0
            calib.append(calibrate(np))
            if tr is traced:
                traced_s.append(dt)
            else:
                plain_s.append(dt)
                plain_rel.append(dt / (0.5 * (calib[-2] + calib[-1])))
            k += 1
            if perf_counter() - start >= args.seconds and k >= MIN_ROUNDS + args.trace:
                break
        rss = peak_rss_mb()

        env = {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "threads": {var: os.environ[var] for var in THREAD_VARS},
        }
        round_s = statistics.median(plain_s)
        round_rel = statistics.median(plain_rel)
        print(f"workload {args.workload}  seed {args.seed}  rounds {k}  (closed loop, one client)")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            traced.run_id = k
            metrics = workloads.layer_metrics(wl, traced, np.random.default_rng(args.seed))
            metrics["trace.overhead_s"] = statistics.median(traced_s) - round_s
            traced.write(out_root / f"spans-{args.workload}-s{args.seed}.jsonl")
        else:
            metrics = {"setup_s": setup_s, "round_rel": round_rel, "peak_rss_mb": rss}
        print(f"  {'calibration_s':<28} {statistics.median(calib):.4f} s (median of {len(calib)})")
        print_report(args.workload, metrics, setup_s, round_s, rss, wl, ops)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_report(workload, metrics, setup_s, round_s, rss, wl, ops) -> None:
    """The seven end-to-end figures by their names, then whatever was measured."""
    na = "n/a"
    excess = [v for k, v in wl.calls if k == "relax_excess"]
    lines = [
        ("setup_s", f"{setup_s:.4f}", "s"),
        ("relax_s", f"{round_s:.4f}" if workload in ("relax", "sheets") else na, "s"),
        ("relax_excess", f"{max(excess):.6e}" if workload == "relax" else na, "ratio"),
        ("diagnose_s", f"{round_s:.4f}" if workload == "diagnose" else na, "s"),
        ("pipeline_s", f"{round_s:.4f}" if workload == "pipeline" else na, "s"),
        ("peak_rss_mb", f"{rss:.1f}", "MB"),
        ("error_rate", f"{ops.failed / max(ops.attempted, 1):.4g}  ({ops.failed}/{ops.attempted})", "ratio"),
    ]
    for name, value, unit in lines:
        print(f"  {name:<28} {value} {unit}")
    for name, value in metrics.items():
        if name not in {"setup_s", "peak_rss_mb"}:
            print(f"  {name:<28} {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
