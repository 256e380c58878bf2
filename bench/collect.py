"""Repeat the benchmark over several seeds and summarise it.

    python3 bench/collect.py --tag NAME

For every workload of BENCHMARK.json it makes ten untraced runs of
``run_seconds``, seeds 1 to 10, taking the workloads in turn, then two
traced runs on seed 1. It writes bench/BENCH_<NAME>.json with every run's
result and, per end-to-end metric, the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread, (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json. For the traced runs it
records whether every count repeated exactly. The exit status is 1 when a
run failed, a spread reached its bound, or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXACT_UNITS = ("count", "bytes", "flop")
RUNS = 10
TRACED = 2
SEEDS = list(range(1, RUNS + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"workload": workload, "seed": seed, "trace": trace,
                "exit": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"workload": workload, "seed": seed, "trace": trace, "exit": 0,
            "details": json.loads(lines[-2])["details"], "result": json.loads(lines[-1])}


def summarise(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "spread_within_third_of_bound": spread < bound / 3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]

    untraced = {w: [] for w in names}
    for seed in SEEDS:
        for w in names:
            run = run_once(w, seed, seconds, 0)
            untraced[w].append(run)
            print(w, seed, "exit", run["exit"],
                  {k: v["value"] for k, v in run.get("result", {}).get("metrics", {}).items()},
                  flush=True)
    traced = {w: [run_once(w, SEEDS[0], seconds, 1) for _ in range(TRACED)] for w in names}

    ok = True
    summary = {}
    for w in names:
        good = [r for r in untraced[w] if r["exit"] == 0]
        ok &= len(good) == len(untraced[w])
        e2e = {}
        for m in spec["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in good]
            if len(values) >= 2:
                e2e[m["name"]] = summarise(values, m["bound"])
                ok &= e2e[m["name"]]["spread"] < m["bound"]
        traced_good = [r for r in traced[w] if r["exit"] == 0]
        ok &= len(traced_good) == len(traced[w])
        per_layer, repeat = {}, True
        for m in spec["per_layer"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in traced_good]
            if not values:
                continue
            per_layer[m["name"]] = {"unit": m["unit"], "values": values,
                                    "median": statistics.median(values)}
            if m["unit"] in EXACT_UNITS:
                repeat &= len(set(values)) == 1
        ok &= repeat
        summary[w] = {"end_to_end": e2e, "per_layer": per_layer,
                      "counts_repeat_exactly": repeat,
                      "untraced_runs": untraced[w], "traced_runs": traced[w]}
        for name, s in e2e.items():
            print(f"{w:13s} {name:17s} median {s['median']:.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}", flush=True)
        print(f"{w:13s} counts repeat exactly: {repeat}", flush=True)

    first = next((r for runs in untraced.values() for r in runs if r["exit"] == 0), None)
    out = {"tag": args.tag, "run_seconds": seconds, "seeds": SEEDS,
           "environment": first["details"]["environment"] if first else None,
           "accepted": ok, "workloads": summary}
    path = BENCH / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print("wrote", path, "accepted" if ok else "NOT accepted")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
