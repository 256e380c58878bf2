"""Write the verify report corpus, so two trees can be compared by `diff -r`.

    PYTHONPATH=src python3 tools/report_corpus.py OUTDIR

runs `numrad verify` in-process, for the numrad found on PYTHONPATH, over

* the 24 criterion-4 configs: 6 ensembles x dims 2/3/5/8, 50 trials, seed 42,
  grid 0.01,0.5,1,2,100, every bound and chain;
* the (r, n, alpha) set: 6 ensembles x dims 2/4 x (r, n, alpha) in
  {(2, 2, 0.3), (1.5, 3, 0.8), (1, 1, 0.5)}, 7 trials, seed 9,
  grid 2,0.01,100,0.5,0.5;
* the sweep: 6 ensembles x dims 2/3/5/8 x seeds 1 and 7, 10 trials, the
  default grid,

and writes each report as NAME.json and NAME.csv in OUTDIR, and one line per
run, "NAME FORMAT EXIT stdout | stderr", in OUTDIR/runs.txt. Reports are
written under relative names from inside OUTDIR, so stdout does not name it.
"""

import contextlib
import io
import os
import sys

from numrad import ENSEMBLES, cli


def configs():
    """(name, verify arguments) of every run, formats aside."""
    for ens in ENSEMBLES:
        for dim in (2, 3, 5, 8):
            yield f"c4_{ens}_{dim}", ["--ensemble", ens, "--dim", str(dim), "--trials", "50",
                                      "--seed", "42", "--lambda-grid", "0.01,0.5,1,2,100"]
        for dim in (2, 4):
            for r, n, alpha in (("2", "2", "0.3"), ("1.5", "3", "0.8"), ("1", "1", "0.5")):
                yield f"rna_{ens}_{dim}_r{r}_n{n}_a{alpha}", [
                    "--ensemble", ens, "--dim", str(dim), "--trials", "7", "--seed", "9",
                    "--lambda-grid", "2,0.01,100,0.5,0.5", "--r", r, "--n", n, "--alpha", alpha]
        for dim in (2, 3, 5, 8):
            for seed in (1, 7):
                yield f"sweep_{ens}_{dim}_s{seed}", ["--ensemble", ens, "--dim", str(dim),
                                                     "--trials", "10", "--seed", str(seed)]


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    lines = []
    for name, args in configs():
        for fmt in ("json", "csv"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["verify", *args, "--out", f"{name}.{fmt}", "--format", fmt])
            lines.append(f"{name} {fmt} {code} {out.getvalue().strip()} | {err.getvalue().strip()}")
    with open("runs.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{len(lines)} reports in {os.getcwd()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
