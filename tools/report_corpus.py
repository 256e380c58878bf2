"""Write the report corpus, so two trees can be compared by `diff -r`.

    PYTHONPATH=src python3 tools/report_corpus.py OUTDIR

runs `numrad` in-process, for the numrad found on PYTHONPATH:

* `verify` over
  - the 24 criterion-4 configs: 6 ensembles x dims 2/3/5/8, 50 trials,
    seed 42, grid 0.01,0.5,1,2,100, every bound and chain;
  - the (r, n, alpha) set: 6 ensembles x dims 2/4 x (r, n, alpha) in
    {(2, 2, 0.3), (1.5, 3, 0.8), (1, 1, 0.5)}, 7 trials, seed 9,
    grid 2,0.01,100,0.5,0.5;
  - the sweep: 6 ensembles x dims 2/3/5/8 x seeds 1 and 7, 10 trials, the
    default grid;
  - criterion 4's own runs: the criterion-4 configs with `--chains ""`;
  - the edge shapes, 6 ensembles x dims 2/3, seed 5, the default grid:
    `--bounds ""` (no bound rows), `--bounds kittaneh,op_norm` (no bound
    takes lambda, so every row's lambda is null) and `--trials 1` (a lone
    trial paired with itself);
  - the lambda checks, 6 ensembles x dim 2, seed 5, 4 trials:
    `--bounds th2,th3 --lambda-grid ""` (refused, naming th3, the first
    single-matrix bound that reads the grid), `--bounds kittaneh,op_norm
    --lambda-grid ""` (a report: no bound reads the grid), `--bounds
    al_dolat,kittaneh --lambda-grid 0,1` (a report: al_dolat admits lambda 0,
    the chains read lambda 1) and `--bounds al_dolat,kittaneh,th2
    --lambda-grid 0,1` (refused: th2 needs lambda > 0);
  each report written as NAME.json and NAME.csv;
* the single-input callers, on 4 seeded matrices written as matrix JSON
  (m2a, m2b of dim 2 and m3a, m3b of dim 3; each is the other's --matrix2
  for a product bound):
  - `bound` for every bound x mode x lambda in {0.5, 2};
  - `optimize --method auto|golden-section` for every bound that takes
    lambda, in each of its modes;
* `radius` on those 4 matrices and on two more written the same way, the
  4x4 Jordan block j4 and a 3x3 Hermitian matrix h3 (`gue`, seed 11), each
  without and with `--oracle-samples 4 --seed 1`.

One line per run goes to OUTDIR/runs.txt: "NAME EXIT stdout | stderr". Every
file is written under a relative name from inside OUTDIR, so no output names
it.
"""

import contextlib
import io
import os
import sys

from numrad import ALL_BOUNDS, ENSEMBLES, EnsembleConfig, cli, generate_ensemble, jsonio, suite
from numrad.bounds import PRODUCT_BOUNDS, bound_modes, uses_lambda

try:  # the tables the CLI runs from
    FORMATS, CLI_MODES = suite.REPORT_FORMATS, cli.MODES
except AttributeError:  # a numrad from before they were public (870e554 and older)
    FORMATS, CLI_MODES = ("json", "csv"), cli._MODES
MODES = {mode: name for name, mode in CLI_MODES.items()}  # catalog mode -> --mode value
LAMBDA_CHECKS = (("emptygrid", "th2,th3", ""), ("emptyfree", "kittaneh,op_norm", ""),
                 ("lamzero", "al_dolat,kittaneh", "0,1"),
                 ("lamzeropos", "al_dolat,kittaneh,th2", "0,1"))


def configs():
    """(name, verify arguments) of every verify run, formats aside."""
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
            yield f"c4own_{ens}_{dim}", ["--ensemble", ens, "--dim", str(dim), "--trials", "50",
                                         "--seed", "42", "--lambda-grid", "0.01,0.5,1,2,100",
                                         "--chains", ""]
        for dim in (2, 3):
            base = ["--ensemble", ens, "--dim", str(dim), "--seed", "5"]
            yield f"nobounds_{ens}_{dim}", base + ["--trials", "4", "--bounds", ""]
            yield f"lamfree_{ens}_{dim}", base + ["--trials", "4", "--bounds", "kittaneh,op_norm"]
            yield f"onetrial_{ens}_{dim}", base + ["--trials", "1"]
        for name, bounds, grid in LAMBDA_CHECKS:
            yield f"{name}_{ens}_2", ["--ensemble", ens, "--dim", "2", "--seed", "5", "--trials",
                                      "4", "--bounds", bounds, "--lambda-grid", grid]


def matrices() -> dict:
    """Write the seeded matrices as NAME.json; each NAME mapped to its partner's."""
    partners = {}
    for dim in (2, 3):
        a, b = (generate_ensemble(EnsembleConfig(ens, dim, 1, 11))[0]
                for ens in ("ginibre", "nilpotent"))
        jsonio.save_matrix(a, f"m{dim}a.json")
        jsonio.save_matrix(b, f"m{dim}b.json")
        partners[f"m{dim}a"], partners[f"m{dim}b"] = f"m{dim}b", f"m{dim}a"
    return partners


def single_runs(partners):
    """(name, arguments) of every bound and optimize run."""
    for matrix, partner in partners.items():
        for bound in ALL_BOUNDS:
            pair = ["--matrix", f"{matrix}.json", "--bound", bound] + (
                ["--matrix2", f"{partner}.json"] if bound in PRODUCT_BOUNDS else [])
            for mode in bound_modes(bound):
                for lam in ("0.5", "2"):
                    yield (f"bound_{matrix}_{bound}_{MODES[mode]}_l{lam}",
                           ["bound", *pair, "--mode", MODES[mode], "--lambda", lam])
                if uses_lambda(bound):
                    for method in ("auto", "golden-section"):
                        yield (f"optimize_{matrix}_{bound}_{MODES[mode]}_{method}",
                               ["optimize", *pair, "--mode", MODES[mode], "--method", method])


def radius_runs(partners) -> list:
    """(name, arguments) of every radius run; writes j4.json and h3.json."""
    for name, ens, dim in (("j4", "jordan", 4), ("h3", "gue", 3)):
        jsonio.save_matrix(generate_ensemble(EnsembleConfig(ens, dim, 1, 11))[0], f"{name}.json")
    runs = []
    for matrix in [*partners, "j4", "h3"]:
        base = ["radius", "--matrix", f"{matrix}.json"]
        runs += [(f"radius_{matrix}", base),
                 (f"radius_{matrix}_oracle", base + ["--oracle-samples", "4", "--seed", "1"])]
    return runs


def run(argv) -> str:
    """"EXIT stdout | stderr" of one cli call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"{code} {out.getvalue().strip()} | {err.getvalue().strip()}"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    lines = [f"{name} {fmt} " + run(["verify", *args, "--out", f"{name}.{fmt}", "--format", fmt])
             for name, args in configs() for fmt in FORMATS]
    reports = len(lines)
    partners = matrices()
    lines += [f"{name} " + run(args)
              for name, args in [*single_runs(partners), *radius_runs(partners)]]
    with open("runs.txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"{reports} reports and {len(lines) - reports} bound, optimize and radius runs "
          f"in {os.getcwd()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
