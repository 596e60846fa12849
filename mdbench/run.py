"""mdconst benchmark: design time and BER-simulation throughput.

    python3 mdbench/run.py --workload design-table1 --seed 0 --seconds 30 --trace 0

Runs one workload in this process as one closed-loop caller on one
thread: jobs run back to back until ``--seconds`` have passed (at least
one job). It imports the package from ``src/`` next to this directory and
exits with code 2 if that is missing.

``--trace 0`` prints the end-to-end metrics: ``job_s`` (wall seconds per
job, from per-operation medians over the jobs), ``setup_s`` (median of
several set-ups) and ``peak_rss_mb``.
``--trace 1`` alternates an untraced and a traced job on the same inputs
and prints the per-layer metrics of the traced jobs (medians over jobs)
and the tracing overhead. The last stdout line is the JSON result; the
lines before it, starting with '#', are the environment and a summary.
The full record (jobs, operations and, when traced, spans) is written to
``mdbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

import layers
import workloads as wl
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

#: Set-ups before the first job. setup_s is the median of these and of
#: the one after each job.
SETUP_REPEATS = 9

END_TO_END_UNITS = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment(pkg, workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "numba_imports": importlib.util.find_spec("numba") is not None,
        "kernels_backend": pkg.kernels.BACKEND,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _job_record(p, seed, ops, traced=False):
    return {
        "job": p,
        "seed": seed,
        "traced": traced,
        "seconds": sum(op.seconds for op in ops),
        "ops": [vars(op) for op in ops],
    }


def _job_seconds(jobs) -> float:
    """Sum over a job's operations of each operation's median over the jobs.

    Per-operation medians drop the jobs that a burst of host load slowed;
    with two jobs this is their mean.
    """
    n_ops = len(jobs[0]["ops"])
    return sum(
        statistics.median(j["ops"][i]["seconds"] for j in jobs) for i in range(n_ops)
    )


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  smoke: bool = False) -> dict:
    """Run one workload; returns the full record including the result line."""
    w = wl.WORKLOADS[workload]
    if smoke:
        w = w.smoke()

    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        out = wl.setup(w)
        setup_times.append(time.perf_counter() - t0)
        return out

    for _ in range(SETUP_REPEATS):
        ctx, setup_ops = timed_setup()
    env = environment(ctx.pkg, workload, seed)

    jobs = []
    layer_rows = []
    spans = []
    t_start = time.perf_counter()
    if not trace:
        p = 0
        while p == 0 or time.perf_counter() - t_start < seconds:
            s = seed + wl.JOB_SEED_STRIDE * p
            jobs.append(_job_record(p, s, wl.run_job(w, ctx, s)))
            # one more set-up between jobs spreads the samples over the run
            ctx, setup_ops = timed_setup()
            p += 1
        metrics = {
            "job_s": _job_seconds(jobs),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": _peak_rss_mb(),
        }
        units = END_TO_END_UNITS
    else:
        # every job repeats job 0's inputs, so counts are exact per job
        tracer = Tracer()
        p = 0
        while p == 0 or time.perf_counter() - t_start < seconds:
            jobs.append(_job_record(p, seed, wl.run_job(w, ctx, seed)))
            tracer.reset_counts()
            tracer.job = p + 1
            layers.install(tracer, ctx.pkg)
            try:
                ops = wl.run_job(w, ctx, seed)
            finally:
                tracer.restore()
            jobs.append(_job_record(p + 1, seed, ops, traced=True))
            layer_rows.append(layers.metrics(tracer))
            p += 2
        metrics = {
            name: statistics.median(row[name] for row in layer_rows)
            for name in layer_rows[0]
        }
        plain = statistics.median(j["seconds"] for j in jobs if not j["traced"])
        traced = statistics.median(j["seconds"] for j in jobs if j["traced"])
        metrics["trace.overhead_s"] = traced - plain
        units = layers.UNITS
        spans = tracer.span_records()

    all_ops = [vars(op) for op in setup_ops] + [op for j in jobs for op in j["ops"]]
    failed = sum(not op["ok"] for op in all_ops)
    result = {
        "correct": failed == 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return {
        "env": env,
        "setup_s": setup_times,
        "setup_ops": [vars(op) for op in setup_ops],
        "jobs": jobs,
        "spans": spans,
        "result": result,
    }


def _summary(record: dict) -> list[str]:
    lines = ["# env " + json.dumps(record["env"])]
    for j in record["jobs"]:
        tag = "traced" if j["traced"] else "plain"
        ops = ", ".join(
            f"{o['label']} {o['seconds']:.3f}s {'ok' if o['ok'] else 'FAILED: ' + o['detail']}"
            for o in j["ops"]
        )
        lines.append(f"# job {j['job']} seed {j['seed']} {tag} {j['seconds']:.3f}s: {ops}")
    for op in record["setup_ops"]:
        if not op["ok"]:
            lines.append(f"# setup {op['label']} FAILED: {op['detail']}")
    res = record["result"]
    lines.append(f"# failed_frac {res['failed'] / res['attempted']:.6g}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mdconst", "__init__.py")):
        print(f"error: package source not found at {SRC}/mdconst", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(record, fh)
    for line in _summary(record):
        print(line)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
