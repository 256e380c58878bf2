"""numrad benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports numrad from its
``src`` directory; without one it exits with status 2 and prints no result.
Workloads (see workloads.py): verify-sweep, radius-query, lemma-fuzz.

``--trace 0`` measures the end-to-end metrics with numrad unmodified:

  setup_s              median over nine fresh processes of the time to
                       import numrad, build the workload's first pass of
                       inputs from the seed and make one warm-up call (this
                       process plus eight children), in reference seconds
  throughput_per_ref_s work units per reference second spent inside numrad:
                       matrices verified (verify-sweep), queries
                       (radius-query), or scalar records plus lemma checks
                       (lemma-fuzz)
  latency_p50_ref_ms   median latency of one operation in reference
                       milliseconds: a ``verify`` call of one config, one
                       query, or 200 fuzz tuples
  latency_tail_ref_ms  latency at the highest percentile with at least ten
                       operations beyond it (the percentile and the sample
                       count are in the details line)
  peak_rss_mb          peak resident memory of this process

Reference time (refclock.py) is wall time rescaled by a fixed computation
timed between operations, or right after a set-up, which cancels the
drifting speed of a shared host; the same figures in wall-clock time are in
the details line.

``--trace 1`` runs one pass of the workload, built from the seed, over and
over: each time untraced and then traced (tracing.py). It prints the
per-layer metrics of one pass: counts from the first traced pass, times as
the median over traced passes. ``trace.overhead_s`` is the traced minus the
untraced pass time; ``trace.accounted_share`` is the share of the time in
the traced pass's timed numrad calls that the layers' self times cover. A
traced run fails when that share is below ACCOUNTED_FLOOR, as it is when
numrad work runs outside every wrapped function.

Every run checks every result. The second-to-last line of standard output
is a JSON details record (environment, seeds, sample counts, failed_frac,
report hashes); the last line is the result. The exit status is 1 when any
operation failed.

``--tiny`` shrinks every workload for the smoke test (test_smoke.py).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build"
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120
# Least share of the timed numrad calls of a traced pass that the layers'
# self times must cover.
ACCOUNTED_FLOOR = 0.95


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("verify-sweep", "radius-query", "lemma-fuzz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(args, workdir: str):
    """Import numrad, build the workload with its first pass of inputs and
    warm it up; return both with the (reference, wall) seconds that took."""
    start = time.perf_counter()
    import workloads  # the first import of numpy and numrad, so it is timed

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, workdir)
    first_pass = wl.make_pass(0)
    wl.warm_up()
    wall = time.perf_counter() - start
    from refclock import setup_reference_seconds

    return wl, first_pass, (setup_reference_seconds(wall), wall)


def child_setup_s(args) -> tuple[float, float]:
    """(reference, wall) set-up seconds measured in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    if args.tiny:
        cmd.append("--tiny")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    return tuple(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(wl, first_pass, seconds: float, totals) -> tuple[dict, dict]:
    """Run fresh passes until ``seconds`` have passed; end-to-end metrics.

    Operations run one at a time so that the reference clock can sample
    between them.
    """
    from refclock import ReferenceClock

    clock = ReferenceClock()
    start = time.perf_counter()
    inputs, passes = first_pass, 0
    while True:
        for op in inputs:
            res = wl.run_pass([op])
            totals.add(res)
            clock.record(res.latencies)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
        inputs = wl.make_pass(passes)
    clock.sample()
    wall, ref = totals.latencies, clock.scaled
    if not wall:
        return {}, {"passes": passes}
    units = sum(totals.units)
    wall_tail, pct = tail(wall)
    ref_tail, _ = tail(ref)
    metrics = {
        "throughput_per_ref_s": (units / sum(ref), "1/s"),
        "latency_p50_ref_ms": (statistics.median(ref) * 1e3, "ms"),
        "latency_tail_ref_ms": (ref_tail * 1e3, "ms"),
    }
    return metrics, {
        "passes": passes, "samples": len(wall), "tail_percentile": pct, "work_units": units,
        "wall_throughput_per_s": units / sum(wall),
        "wall_latency_p50_ms": statistics.median(wall) * 1e3,
        "wall_latency_tail_ms": wall_tail * 1e3,
        "reference_samples": len(clock.samples),
        "reference_sample_ms": {"median": statistics.median(clock.samples) * 1e3,
                                "min": min(clock.samples) * 1e3,
                                "max": max(clock.samples) * 1e3},
    }


def measure_traced(wl, inputs, seconds: float, totals) -> tuple[dict, dict]:
    """Alternate untraced and traced runs of one pass; per-layer metrics."""
    from tracing import PER_LAYER_UNITS, Tracer

    tracer = Tracer()
    untraced, traced, samples = [], [], []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        totals.add(wl.run_pass(inputs))
        untraced.append(time.perf_counter() - t0)
        tracer.reset()
        with tracer.active():
            t0 = time.perf_counter()
            res = wl.run_pass(inputs)
            wall = time.perf_counter() - t0
        totals.add(res)
        traced.append(wall)
        samples.append(tracer.layer_metrics(wall, sum(res.latencies), res.report_bytes))
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(untraced)
        elif unit in ("s", "fraction"):
            value = statistics.median(s[name] for s in samples)
        else:
            value = samples[0][name]
        metrics[name] = (value, unit)
    share = metrics["trace.accounted_share"][0]
    totals.check(share >= ACCOUNTED_FLOOR,
                 lambda: f"layer self times cover {share:.3f} of the timed numrad calls, "
                         f"below {ACCOUNTED_FLOOR}")
    return metrics, {"traced_passes": len(traced),
                     "untraced_pass_s": statistics.median(untraced),
                     "traced_pass_s": statistics.median(traced)}


# --------------------------------------------------------------------------
# Environment record

def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "numrad" / "__init__.py").is_file():
        print(f"error: no numrad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as workdir:
        wl, first_pass, setup_s = set_up(args, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        from workloads import PassResult

        totals = PassResult()  # every pass of the run
        if args.trace:
            metrics, info = measure_traced(wl, first_pass, args.seconds, totals)
        else:
            setups = [setup_s]
            setups += [child_setup_s(args) for _ in range((1 if args.tiny else SETUP_SAMPLES) - 1)]
            metrics, info = measure(wl, first_pass, args.seconds, totals)
            info["setup_samples_ref_s"] = [ref for ref, _ in setups]
            info["setup_samples_wall_s"] = [wall for _, wall in setups]
            if metrics:
                metrics["setup_s"] = (statistics.median(info["setup_samples_ref_s"]), "s")
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB")
    correct = totals.failed == 0 and bool(metrics)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": environment(),
        "parameters": wl.parameters(), **info,
        "failed_frac": totals.failed / max(1, totals.attempted),
        "errors": totals.errors,
    }
    if totals.report_sha256:
        details["report_sha256"] = totals.report_sha256
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
