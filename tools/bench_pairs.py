"""Run alternating benchmark pairs of a git revision and the working tree.

    python3 tools/bench_pairs.py REV --workload W --pairs N --seed S [--seconds T]

extracts REV's `src/` with `git archive` and copies the working tree's `src/`,
each into a temporary directory next to its own copy of the working tree's
`bench/`, so both sides run the same harness (the repository and its working
tree are left as they are). It then runs N pairs of
`bench/run.py --workload W --seed SEED --seconds T --trace 0`, SEED going
from S to S+N-1, REV first in even-numbered pairs and the working tree first
in odd-numbered ones, one run at a time. T defaults to `run_seconds` in
BENCHMARK.json.

For each end-to-end metric of BENCHMARK.json it prints the median of each
side, the interquartile range of REV's runs, in how many pairs the working
tree did better, by the metric's `better` direction, how far the working
tree's median moved from REV's, relative to REV's and signed so that positive
is worse, whether that move is inside the metric's `bound` (no worse than it),
and whether the pairs show a gain by the claim rule (`summary`): the working
tree won at least 9 in 10 of the pairs, ties counting for neither side, and
its median is better than REV's by more than REV's IQR. It exits 0 when every
run was correct, 1 when some were not (each named, by side and seed), and 2
when REV cannot be extracted.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("rev", "tree")


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    return parser.parse_args(argv)


def extract_src(rev: str, root: str) -> bool:
    """Extract REV's src/ into root with `git archive`; False, with git's message
    printed, when REV cannot be extracted."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], capture_output=True)
    if archive.returncode:
        print(archive.stderr.decode().strip(), file=sys.stderr)
        return False
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(root, filter="data")
    return True


def make_side(tmp: str, name: str, rev: str | None) -> str | None:
    """A checkout of bench/ and src/ (REV's, or the working tree's for None);
    None when REV cannot be extracted."""
    root = os.path.join(tmp, name)
    skip = shutil.ignore_patterns("__pycache__", ".bench_build")
    shutil.copytree(os.path.join(ROOT, "bench"), os.path.join(root, "bench"), ignore=skip)
    if rev is None:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"), ignore=skip)
        return root
    return root if extract_src(rev, root) else None


def run(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one untraced run in root, or None when it printed none."""
    proc = subprocess.run([sys.executable, "-B", os.path.join("bench", "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(rev: list[float], tree: list[float], better: str, bound: float) -> dict:
    """The figures of one metric over pairs (rev[i], tree[i]), ``better`` saying
    whether "higher" or "lower" is better: each side's median, REV's IQR, the
    pairs the tree won (a tie counts for neither side), the tree's median move
    relative to REV's median, signed so that positive is worse, whether that
    move is inside ``bound``, and whether the pairs show a gain by the claim
    rule: the tree wins at least 9 in 10 of the pairs, and its median is
    better than REV's by more than REV's IQR."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (t - r) > 0 for r, t in zip(rev, tree))
    medians = statistics.median(rev), statistics.median(tree)
    spread = iqr(rev)
    worse = sign * (medians[0] - medians[1]) / medians[0]
    return {"rev": medians[0], "tree": medians[1], "iqr": spread, "won": won,
            "pairs": len(rev), "worse": worse, "inside": worse <= bound,
            "gain": 10 * won >= 9 * len(rev) and sign * (medians[1] - medians[0]) > spread}


def main(argv) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    results = {side: [] for side in SIDES}  # per pair: the result line or None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: make_side(tmp, side, args.rev if side == "rev" else None)
                 for side in SIDES}
        if roots["rev"] is None:
            return 2
        for i in range(args.pairs):
            seed = args.seed + i
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                results[side].append(run(roots[side], args.workload, seed, seconds))
                result = results[side][-1]
                status = "no result" if result is None else (
                    "correct" if result["correct"] else "not correct")
                print(f"pair {i + 1} seed {seed} {side}: {status}", flush=True)
    seeds = range(args.seed, args.seed + args.pairs)
    bad = [(side, seed) for side in SIDES for seed, result in zip(seeds, results[side])
           if not (result and result["correct"])]
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, seeds {args.seed}.."
          f"{args.seed + args.pairs - 1}; rev is {args.rev}, tree the working tree")
    print(f"{'metric':<22} {'better':<7} {'rev median':>12} {'tree median':>12} "
          f"{'rev IQR':>10} {'tree won':>9} {'worse by':>9} {'bound':>6} {'inside':>6} "
          f"{'gain':>4}")
    good = [i for i in range(args.pairs)
            if all(results[side][i] and results[side][i]["correct"] for side in SIDES)]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = {side: [results[side][i]["metrics"][name]["value"] for i in good
                         if name in results[side][i]["metrics"]] for side in SIDES}
        if len(values["rev"]) != len(good) or len(values["tree"]) != len(good) or not good:
            print(f"{name:<22} {metric['better']:<7} {'(not in every run)':>12}")
            continue
        row = summary(values["rev"], values["tree"], metric["better"], metric["bound"])
        print(f"{name:<22} {metric['better']:<7} {row['rev']:>12.6g} {row['tree']:>12.6g} "
              f"{row['iqr']:>10.4g} {row['won']:>4}/{row['pairs']:<4} {row['worse']:>+9.2%} "
              f"{metric['bound']:>6.0%} {'yes' if row['inside'] else 'NO':>6} "
              f"{'yes' if row['gain'] else 'no':>4}")
    for side, seed in bad:
        print(f"not correct: {side} seed {seed}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
