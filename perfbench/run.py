"""Benchmark for hjj: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload classify|cohomology|quadratic \
        --seed N --seconds S --trace 0|1

Run from the repository root; hjj is imported from ``src/``.  The run is a
closed loop with one client in one thread: the next job starts when the
previous one has finished.  Jobs come in cycles (see workloads.py), and no
cycle starts after ``--seconds`` of measured time.  Every job's canonical
output is checked against its golden digest; a job that
raises, exits non-zero, misses its deadline or produces a wrong digest
counts as failed, and the run goes on.  A run whose job universe runs out
before ``--seconds`` is not correct.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps hjj's
public functions (see spans.py), reports per-layer metrics per job, then
re-runs the same jobs untraced in a fresh interpreter to measure the
tracing overhead.  The last line of standard output is the result object;
the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES, Tracer
from workloads import RUNNERS, job_stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A job that runs longer than this fails.  Each is ten times or more the
# slowest job of its workload, so only a blow-up (such as an invariant
# computation that does not terminate) reaches it.
DEADLINE_S = {"classify": 60.0, "cohomology": 10.0, "quadratic": 20.0}

SETUP_REPEATS = 21
SETUP_CODE = "import time; t = time.perf_counter(); import hjj, hjj.cli; print(repr(time.perf_counter() - t))"

# The traced run must attribute at least this share of its wall time to
# spans of hjj functions.
MIN_ATTRIBUTED_SHARE = 0.90

# Per-layer rows: traced function and the fields reported for it, per job.
LAYER_ROWS = (
    ("catalog.match_catalog", ("calls", "self_s")),
    ("algebra.isomorphism_invariants", ("calls", "self_s")),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.charpoly", ("self_s",)),
    ("linalg.minpoly", ("self_s",)),
    ("linalg.rational_roots", ("self_s",)),
    ("linalg.kernel_basis", ("calls",)),
    ("linalg.solve", ("calls",)),
    ("cohomology.d2", ("calls", "self_s")),
    ("cohomology.compute_H2", ("calls", "self_s")),
    ("cohomology.cochain2_space", ("calls", "self_s")),
    ("cohomology.dr3", ("calls", "self_s")),
    ("representations.check_representation", ("calls", "self_s")),
    ("representations.coadjoint_condition", ("calls", "self_s")),
    ("extensions.build_extension", ("self_s",)),
    ("extensions.extensions_equivalent", ("self_s",)),
    ("quadratic.compute_H2Q", ("self_s",)),
    ("quadratic.build_twofold", ("self_s",)),
    ("quadratic.wedge", ("self_s",)),
    ("metric.check_metric", ("calls", "self_s")),
    ("metric.metric_criterion", ("calls", "self_s")),
    ("documents.parse_document", ("self_s",)),
    ("documents.emit_document", ("self_s",)),
    ("cli.main", ("self_s",)),
)
UNITS = {"calls": "calls/job", "self_s": "s/job"}


class JobTimeout(BaseException):
    """Raised by the alarm at a job's deadline.  A BaseException, so that no
    ``except Exception`` inside hjj can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--jobs", type=int, help="run whole cycles until JOBS jobs have run, not timed (the overhead re-run)")
    return parser.parse_args(argv)


def measure_setup() -> float:
    """Median over fresh interpreters of the time to import hjj and hjj.cli
    (which builds the catalog tables).  A first, discarded import writes the
    bytecode cache under ``src/``, so compilation is not counted, as for an
    installed package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True
        )
        if i:
            times.append(float(out.stdout.strip()))
    return statistics.median(times)


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_cycles(stream, runner, golden, deadline, seconds=None, max_jobs=None):
    """Closed loop over the stream's cycles.  No cycle starts after
    ``seconds`` of measured time, or once ``max_jobs`` jobs have run.
    Returns per-job records (key, latency, error), the measured time, which
    leaves out building each cycle's inputs, and whether the stream ran out
    before ``seconds``."""
    records = []
    measured = 0.0
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for cycle in stream:
            if (seconds is not None and measured >= seconds) or (max_jobs is not None and len(records) >= max_jobs):
                break
            cycle_start = time.perf_counter()
            for job in cycle:
                records.append(run_job(job, runner, golden, deadline))
            measured += time.perf_counter() - cycle_start
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records, measured, seconds is not None and measured < seconds


def run_job(job, runner, golden, deadline):
    error = None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, deadline)
            out = runner(job)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        error = f"missed its {deadline:g} s deadline"
    except Exception as exc:  # a failing job is counted, and the run goes on
        error = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if error is None:
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        expected = golden.get(job.key)
        if expected is None:
            error = "has no golden digest"
        elif digest != expected:
            error = f"digest {digest} != golden {expected}"
    return job.key, latency, error


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, measured, setup_s):
    ok = sum(1 for r in records if r[2] is None)
    latencies = [r[1] for r in records]
    return {
        "jobs_per_s": metric(ok / measured, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1000.0, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def untraced_loop_seconds(args, njobs) -> float:
    """Wall time of the same first njobs jobs, untraced, in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0", "--jobs", str(njobs),
    ]  # fmt: skip
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["metrics"]["loop_s"]["value"]


def per_layer(tracer, records, wall, untraced_wall):
    stats, invariants_in_match = tracer.totals()
    njobs = len(records)
    empty = [0, 0.0]
    out = {}
    for name, fields in LAYER_ROWS:
        calls, self_s = stats.get(name, empty)
        for field in fields:
            out[f"{name}.{field}"] = metric((calls if field == "calls" else self_s) / njobs, UNITS[field])
    out["linalg.rref.cells"] = metric(tracer.rref_cells / njobs, "cells/job")
    matches = stats.get("catalog.match_catalog", empty)[0]
    out["catalog.invariants_per_output"] = metric(invariants_in_match / matches if matches else 0.0, "ratio")
    attributed = 0.0
    for module in MODULES:
        share = sum(s for name, (c, s) in stats.items() if name.split(".")[0] == module)
        attributed += share
        out[f"{module}.self_share"] = metric(share / wall, "share")
    out["trace.attributed_share"] = metric(attributed / wall, "share")
    out["trace.overhead_ratio"] = metric(wall / untraced_wall, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hjj" / "__init__.py").is_file():
        print(f"error: hjj sources not found under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    tables = [HERE / "golden" / f"{args.workload}.json", HERE / "costs" / f"{args.workload}.json"]
    for path in tables:
        if not path.is_file():
            print(f"error: missing {path}", file=sys.stderr)
            return 2
    timed = args.jobs is None
    setup_s = measure_setup() if timed and not args.trace else None

    sys.path.insert(0, str(SRC))
    import hjj.cli  # noqa: F401  (imports every layer, as a CLI user's process does)
    from hjj.scalars import BACKEND

    golden, costs = (json.loads(path.read_text(encoding="utf-8")) for path in tables)
    stream = job_stream(args.workload, args.seed, costs)
    runner = RUNNERS[args.workload]
    deadline = DEADLINE_S[args.workload]

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        records, wall, exhausted = run_cycles(stream, runner, golden, deadline, args.seconds if timed else None, args.jobs)
    finally:
        if tracer:
            tracer.uninstall()

    failed = [r for r in records if r[2] is not None]
    # A run cut short by its universe is shorter than the declared runs and is
    # not compared with them.
    correct = bool(records) and not failed and not exhausted
    if not timed:
        print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": {"loop_s": metric(wall, "s")}}))
        return 0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": BACKEND,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "jobs": len(records),
        "stream_exhausted": exhausted,
    }
    print("run: " + json.dumps(meta, sort_keys=True))
    if tracer:
        metrics = per_layer(tracer, records, wall, untraced_loop_seconds(args, len(records)))
        (HERE / "out").mkdir(exist_ok=True)
        tracer.write(HERE / "out" / f"spans-{args.workload}-{args.seed}.tsv")
        correct = correct and metrics["trace.attributed_share"]["value"] >= MIN_ATTRIBUTED_SHARE
    else:
        metrics = end_to_end(records, wall, setup_s)
    for key, error in ((r[0], r[2]) for r in failed):
        print(f"FAILED job {key}: {error}")
    if exhausted:
        print(f"FAILED run: the {args.workload} universe ran out after {wall:.1f} s; grow it in workloads.py before comparing")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_share = {len(failed) / max(len(records), 1):.6g} ({len(failed)} of {len(records)} jobs)")
    if not args.trace:
        latencies = sorted(r[1] for r in records)
        if len(latencies) >= 100:
            print(f"latency_p90_ms = {statistics.quantiles(latencies, n=10)[8] * 1000.0:.6g} ms ({len(latencies)} jobs)")
        else:
            print(f"latency_p90_ms not reported: {len(latencies)} jobs, fewer than 100")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
