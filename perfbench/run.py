"""persvec benchmark: one workload, one seed, one fresh process.

    python3 perfbench/run.py --workload batch-synth --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/`` and
driven in-process with one client and no process pool; BLAS/OpenMP threads
are pinned to 1.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60


def bootstrap() -> None:
    """Pin native thread pools to 1 and import persvec from this checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "persvec", "__init__.py")):
        sys.exit(f"error: no persvec sources under {src}")
    sys.path.insert(0, src)


def work_dir(tag: str) -> str:
    path = os.path.join(HERE, "_work", f"{tag}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def probe_setup(name: str, workdir: str, slot: int) -> float:
    """Seconds from starting a fresh interpreter to its workload being set up,
    scaled by the calibration readings taken just before and just after."""
    import calib

    before = calib.reading()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), name, workdir, str(slot),
         repr(time.monotonic())],
        stdout=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"error: set-up probe for {name} failed (exit {proc.returncode})")
    return calib.scale(float(proc.stdout.split()[-1]), before, calib.reading())


def check(w, ref, results) -> tuple[int, int]:
    """(attempted, failed) for one job: an operation fails if it raised,
    returned non-zero, or left output that differs from the reference."""
    import refcheck

    failed = {name for name, _, ok in results if not ok}
    try:
        snapshot = w.snapshot()
    except (OSError, ValueError, IndexError, KeyError, TypeError):
        snapshot = {}  # outputs missing or unreadable: every operation fails
    failed |= refcheck.mismatches(snapshot, ref)
    attempted = set(ref) | set(snapshot) | {name for name, _, _ in results}
    return len(attempted), len(failed)


def timed(w, ref, seconds: float):
    """End-to-end metrics: repeat the job until ``seconds`` are used.

    The host's speed drifts by up to ~1.5x for seconds to minutes at a time,
    so a calibration reading is taken between operations and each
    operation's time is scaled by the readings on either side of it
    (``calib.scale``).  Each operation's latency is the median of its scaled
    times over the repetitions, so a one-off stall does not move it (a
    workload may pool several calls into one operation: ``op_group``);
    ``run_s`` is the mean scaled time per job.  Raw wall times go to the
    environment line.
    """
    import calib

    setups = [probe_setup(w.name, w.workdir, w.slot) for _ in range(SETUP_PROBES)]
    w.setup()
    speeds, readings = [], []
    w.between_ops = lambda: speeds.append(calib.reading())
    runs, scaled_runs, per_op, attempted, failed = [], [], defaultdict(list), 0, 0
    start = time.perf_counter()
    while True:
        w.reset()
        speeds.clear()
        t0 = time.perf_counter()
        results = w.job()
        runs.append(time.perf_counter() - t0)
        if len(runs) == 1:
            # peak through set-up and one job, before any check reads outputs;
            # later jobs only add allocator noise
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        scaled = [(name, calib.scale(seconds_taken, s0, s1))
                  for (name, seconds_taken, _), s0, s1 in zip(results, speeds, speeds[1:])]
        scaled_runs.append(sum(t for _, t in scaled))
        for name, t in scaled:
            per_op[w.op_group(name)].append(t)
        readings += speeds
        a, f = check(w, ref, results)
        attempted, failed = attempted + a, failed + f
        if time.perf_counter() - start + statistics.mean(runs) / 2 > seconds:
            break
    latencies = [statistics.median(v) for v in per_op.values()]
    op_ms = {name: [round(t * 1e3, 1) for t in v] for name, v in per_op.items()}
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.mean(scaled_runs), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        # inclusive: with as few as 3 operations, never extrapolate past the slowest
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, attempted, failed, {"jobs": len(runs), "ops": len(latencies),
                                        "op_ms": op_ms,
                                        "job_wall_s": runs, "setup_probes_s": setups,
                                        "host_cal_ms": statistics.median(readings) * 1e3}


def traced(w, ref, trace_path: str, header: dict):
    """Per-layer metrics from one traced load + job, between two untraced jobs."""
    import tracer

    w.setup()
    attempted = failed = 0
    untraced = []
    tr = tracer.Tracer()
    for phase in ("untraced", "traced", "untraced"):
        if phase == "traced":
            try:
                tr.install()
            except LookupError as exc:
                sys.exit(f"error: {exc}")
            try:
                with tr.window("load"):
                    w.load()
                w.reset()
                with tr.window("run"):
                    results = w.job()
            finally:
                tr.uninstall()
        else:
            w.reset()
            t0 = time.perf_counter()
            results = w.job()
            untraced.append(time.perf_counter() - t0)
        a, f = check(w, ref, results)
        attempted, failed = attempted + a, failed + f
    values = tr.metrics(statistics.mean(untraced))
    values["fail_ratio"] = failed / attempted
    tr.write(trace_path, header)
    metrics = {name: (values[name], unit) for name, unit in tracer.metric_units().items()}
    return metrics, attempted, failed, {"jobs": 3,
                                        "trace_file": os.path.relpath(trace_path, ROOT)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    import numpy
    import scipy

    import jobs
    import refcheck

    if args.workload not in jobs.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}, expected one of {sorted(jobs.WORKLOADS)}")
    slot = args.seed % refcheck.SLOTS
    try:
        ref = refcheck.load_reference(args.workload, slot)
    except (OSError, ValueError) as exc:
        sys.exit(f"error: {exc}")
    env = {"workload": args.workload, "seed": args.seed, "slot": slot,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "affinity": len(os.sched_getaffinity(0)),
           "threads": {v: os.environ[v] for v in THREAD_VARS}}
    workdir = work_dir(args.workload)
    try:
        w = jobs.WORKLOADS[args.workload](workdir, slot)
        w.generate()
        if args.trace:
            path = os.path.join(HERE, "_work", f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics, attempted, failed, extra = traced(w, ref, path, {"env": env})
        else:
            metrics, attempted, failed, extra = timed(w, ref, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update(extra)
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
