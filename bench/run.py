"""grassmean benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload bi-trials --seed 1 --seconds 20 --trace 0

Workloads are listed in BENCHMARK.json and defined in ``workloads.py``. With
``--trace 0`` the ops run untraced for ``--seconds`` and the end-to-end
metrics are printed. Op times there are in units of a reference kernel timed
between ops (see ``Reference``); the same figures in milliseconds are in the
details line. With ``--trace 1`` the ops run with span tracing (see
``spans.py``) for half of ``--seconds``, every wrapped attribute is restored,
the same ops are replayed untraced, both runs must give identical outputs,
and the per-layer metrics are printed. The last line of standard output is
the result JSON; the line before it holds the run's metadata (versions, BLAS,
threads, commit, seed) and details that are not BENCHMARK.json metrics.

The package is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with an error and prints no result.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads, and inherited by the set-up probes. One thread:
# every workload has a single caller, and BLAS threading on these small
# matrices only adds run-to-run noise.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 11
# A fresh interpreter until grassmean is imported and an op could be issued.
SETUP_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import grassmean, grassmean.cli; grassmean.CGConfig()")
TAIL_SAMPLES = 10


@dataclass
class OpRecord:
    latency_s: float
    status: str
    output: object = None
    reference_s: float = math.nan  # reference kernel time around the op


class Reference:
    """A fixed numpy-and-Python kernel, timed between ops.

    On a shared 2-vCPU KVM guest the host changed speed by up to 1.6x, for
    seconds or whole runs at a time, and a run's median op latency moved by
    as much. Dividing each op's latency by this kernel's time measured just
    before and after it cancels most of that. The kernel mixes small LAPACK
    calls with interpreter work, as the workloads do, and no change to
    grassmean can change it.
    """

    def __init__(self):
        a = np.random.default_rng(0).standard_normal((48, 48))
        self._matrix = a @ a.T

    def time_s(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(self._matrix)
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def measure_setup() -> list:
    """Wall times of SETUP_REPEATS fresh interpreters importing grassmean."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def git_commit() -> str:
    """The checked-out commit, read from the checkout's own .git, if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(args) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
    }


def run_ops(workload, seconds=None, count=None, tracer=None, reference=None) -> list:
    """Closed loop: run ops until ``count`` ops, or whole cycles for ``seconds``."""
    import grassmean
    from workloads import CheckFailed, OpFailed

    records = []
    before = reference.time_s() if reference is not None else math.nan
    deadline = time.perf_counter() + (seconds or 0.0)
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k > 0 and k % workload.cycle == 0 and time.perf_counter() >= deadline:
            break
        data = workload.make_input(k)
        output = None
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            output = workload.op(data)
            status = "ok"
        except OpFailed as err:
            status = err.status
        except grassmean.GrassmeanError as err:
            status = type(err).__name__
        except Exception:  # counted as an untyped failure; the loop goes on
            traceback.print_exc()
            status = "untyped"
        finally:
            latency = time.perf_counter() - start
            if tracer is not None:
                tracer.end_op()
        if status == "ok":
            try:
                workload.check(data, output)
            except CheckFailed as err:
                print(f"op {k}: check failed: {err}", file=sys.stderr)
                status = "check_failed"
        after = reference.time_s() if reference is not None else math.nan
        records.append(OpRecord(latency, status, output, 0.5 * (before + after)))
        before = after
        k += 1
    return records


def upper_percentile(sorted_ms: list, pct: int = 90):
    """Nearest-rank ``pct`` percentile, lowered until TAIL_SAMPLES lie beyond it."""
    n = len(sorted_ms)
    while pct > 50 and n - math.ceil(pct / 100 * n) < TAIL_SAMPLES:
        pct -= 1
    return sorted_ms[max(math.ceil(pct / 100 * n) - 1, 0)], pct


def status_counts(records) -> dict:
    return dict(Counter(r.status for r in records))


def run_summary(workload, records):
    """Run-level summary of the ok outputs, and whether its check held."""
    from workloads import CheckFailed

    try:
        return workload.summary([r.output for r in records if r.status == "ok"]), True
    except CheckFailed as err:
        print(f"run check failed: {err}", file=sys.stderr)
        return {}, False


def latency_metrics(records, scale) -> tuple:
    """Throughput, median and upper percentile of ``scale(record)`` op times.

    A failed op counts as missing every latency limit.
    """
    ok = sum(r.status == "ok" for r in records)
    times = sorted(scale(r) if r.status == "ok" else math.inf for r in records)
    upper, pct = upper_percentile(times)
    return ok / sum(scale(r) for r in records), statistics.median(times), upper, pct


def timed_run(workload, args, setup_times):
    reference = Reference()
    run_ops(workload, count=1, reference=reference)  # warm-up: first-call costs
    records = run_ops(workload, seconds=args.seconds, reference=reference)
    ok = sum(r.status == "ok" for r in records)
    rate, p50, p90, pct = latency_metrics(records, lambda r: r.latency_s / r.reference_s)
    rate_s, p50_s, p90_s, _ = latency_metrics(records, lambda r: r.latency_s)
    summary, summary_ok = run_summary(workload, records)
    metrics = {
        "ops_per_kref": (1e3 * rate, "1/kref"),
        "op_p50_ref": (p50, "ref"),
        "op_p90_ref": (p90, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    details = {"statuses": status_counts(records), "ops_per_s": rate_s,
               "op_p50_ms": 1e3 * p50_s, "op_p90_ms": 1e3 * p90_s, "upper_percentile": pct,
               "reference_ms": 1e3 * statistics.median(r.reference_s for r in records),
               "setup_s_samples": setup_times,
               "fail_ratio": (len(records) - ok) / len(records), **summary}
    return records, metrics, details, summary_ok


def traced_run(workload, args):
    from spans import Tracer

    reference = Reference()
    run_ops(workload, count=1)
    tracer = Tracer()
    # half the budget traced and about half replaying the same ops untraced,
    # so a traced run takes about as long as a timed one
    with tracer:
        traced = run_ops(workload, seconds=args.seconds / 2, tracer=tracer,
                         reference=reference)
    untraced = run_ops(workload, count=len(traced), reference=reference)
    same = [workload.digest(a.output) == workload.digest(b.output)
            if a.status == b.status == "ok" else a.status == b.status
            for a, b in zip(traced, untraced)]
    if not all(same):
        print(f"traced and untraced outputs differ on {same.count(False)} ops",
              file=sys.stderr)
    traced_s = sum(r.latency_s for r in traced)
    untraced_s = sum(r.latency_s for r in untraced)
    traced_ref = sum(r.latency_s / r.reference_s for r in traced)
    untraced_ref = sum(r.latency_s / r.reference_s for r in untraced)
    summary, summary_ok = run_summary(workload, traced)
    details = {"statuses": status_counts(traced), **tracer.details(),
               "tracing_overhead_s": traced_s - untraced_s,
               "tracing_overhead_share": traced_ref / untraced_ref - 1.0,
               "untraced_op_s": untraced_s, **summary}
    return traced, tracer.metrics(), details, summary_ok and all(same)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "grassmean" / "__init__.py").is_file():
        print(f"bench: no grassmean package under {SRC}", file=sys.stderr)
        return 2
    setup_times = measure_setup() if args.trace == 0 else []
    sys.path.insert(0, str(SRC))
    import grassmean
    from workloads import WORKLOADS

    if not Path(grassmean.__file__).resolve().is_relative_to(SRC):
        print(f"bench: grassmean was imported from {grassmean.__file__}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, smoke=args.smoke)
        if args.trace:
            records, metrics, details, checks_ok = traced_run(workload, args)
        else:
            records, metrics, details, checks_ok = timed_run(workload, args, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(r.status != "ok" for r in records)
    wrong = sum(r.status in ("check_failed", "untyped") for r in records)
    print(json.dumps({"meta": metadata(args), "details": details}))
    print(json.dumps({
        "correct": checks_ok and wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
