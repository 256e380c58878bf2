"""Command-line interface.

Subcommands:
  verify    run a batch suite over a random ensemble and write a report
  bound     evaluate one catalog bound on a matrix file
  optimize  minimize a bound's right side over the free parameter
  radius    enclosure of the numerical radius of a matrix file, optionally
            with the oracle

Exit status: 0 on success with zero violations, 1 when violations were
found, 2 on usage or I/O errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .bounds import (
    ALL_BOUNDS,
    CHAIN_IDS,
    MODE_CERTIFICATE,
    MODE_INEQUALITY,
    OPTIMIZE_METHODS,
    evaluate_bound,
    optimize_lambda,
)
from .ensembles import ENSEMBLES, EnsembleConfig
from .errors import UnknownBoundError, UnknownChainError
from .linalg import DEFAULT_RADIUS_TOL, numerical_radius_enclosure, numerical_radius_oracle
from .scalar_ineq import BoundParams
from .suite import CSV_HEADER, DEFAULT_LAMBDA_GRID, REPORT_FORMATS, emit_report, run_suite

MODES = {"inequality": MODE_INEQUALITY, "certificate": MODE_CERTIFICATE}  # --mode: catalog mode


def _csv_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_floats(text: str) -> list[float]:
    return [float(item) for item in _csv_list(text)]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: its defaults
    are immutable, so no call can change what the next one parses."""
    parser = argparse.ArgumentParser(prog="numrad", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    params = argparse.ArgumentParser(add_help=False)  # BoundParams' fields but lam
    for name, kind in (("r", float), ("n", int), ("alpha", float)):
        params.add_argument(f"--{name}", type=kind, default=getattr(BoundParams, name))
    one_bound = argparse.ArgumentParser(add_help=False)
    one_bound.add_argument("--matrix", required=True)
    one_bound.add_argument("--matrix2", default=None,
                           help="second matrix for product bounds (default: pair with itself)")
    one_bound.add_argument("--bound", required=True)
    one_bound.add_argument("--mode", choices=tuple(MODES), default=None)

    p_verify = sub.add_parser("verify", parents=[params],
                              help="batch-verify bounds and chains on an ensemble")
    p_verify.add_argument("--ensemble", required=True, choices=ENSEMBLES)
    p_verify.add_argument("--dim", type=int, required=True)
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--bounds", type=_csv_list, default=None,
                          help=f"comma list from {','.join(ALL_BOUNDS)} (default: all)")
    p_verify.add_argument("--chains", type=_csv_list, default=None,
                          help=f"comma list from {','.join(CHAIN_IDS)} (default: all)")
    p_verify.add_argument("--lambda-grid", type=_csv_floats, dest="lambda_grid",
                          default=DEFAULT_LAMBDA_GRID)
    p_verify.add_argument("--out", required=True)
    p_verify.add_argument("--format", choices=tuple(REPORT_FORMATS),
                          default=next(iter(REPORT_FORMATS)))
    p_verify.set_defaults(handler=_cmd_verify)

    p_bound = sub.add_parser("bound", parents=[one_bound, params],
                             help="evaluate one bound on a matrix file")
    p_bound.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p_bound.set_defaults(handler=_cmd_bound)

    p_opt = sub.add_parser("optimize", parents=[one_bound, params],
                           help="minimize a bound's rhs over lambda")
    p_opt.add_argument("--method", choices=OPTIMIZE_METHODS, default="auto")
    p_opt.set_defaults(handler=_cmd_optimize)

    p_rad = sub.add_parser("radius", help="numerical radius of a matrix file")
    p_rad.add_argument("--matrix", required=True)
    p_rad.add_argument("--tol", type=float, default=DEFAULT_RADIUS_TOL,
                       help="relative gap (upper - radius) / upper of the enclosure "
                            f"(default: {DEFAULT_RADIUS_TOL:g})")
    p_rad.add_argument("--oracle-samples", dest="oracle_samples", type=int, default=None)
    p_rad.add_argument("--seed", type=int, default=0)
    p_rad.set_defaults(handler=_cmd_radius)

    return parser


def _cmd_verify(args) -> int:
    config = EnsembleConfig(ensemble=args.ensemble, dim=args.dim,
                            trials=args.trials, seed=args.seed)
    report = run_suite(config, bounds=args.bounds, chains=args.chains,
                       lambda_grid=args.lambda_grid, r=args.r, n=args.n,
                       alpha=args.alpha)
    emit_report(report, args.format, args.out)
    print(f"{report.violations} violation(s) in {len(report.bound_rows)} bound rows "
          f"and {len(report.chain_rows)} chain rows -> {args.out}")
    return 0 if report.violations == 0 else 1


def _result_dict(res) -> dict:
    """A bound result under the report's column names."""
    p = res.params
    return dict(zip(CSV_HEADER[1:], (res.bound_name, res.mode, p.lam, p.r, p.n, p.alpha,
                                     res.exponent_p, res.w_power_value, res.rhs_value,
                                     res.slack, res.holds)))


def _one_bound(args) -> tuple:
    """T, S (None without --matrix2) and the catalog mode (None without --mode)."""
    return (jsonio.load_matrix(args.matrix),
            jsonio.load_matrix(args.matrix2) if args.matrix2 else None, MODES.get(args.mode))


def _cmd_bound(args) -> int:
    t, s, mode = _one_bound(args)
    params = BoundParams(lam=args.lam, r=args.r, n=args.n, alpha=args.alpha)
    results = evaluate_bound(args.bound, t, s, params, mode=mode)
    print(jsonio.dumps({"results": [_result_dict(res) for res in results]}))
    return 0 if all(res.holds for res in results) else 1


def _cmd_optimize(args) -> int:
    t, s, mode = _one_bound(args)
    opt = optimize_lambda(args.bound, t, s, r=args.r, n=args.n,
                          alpha=args.alpha, mode=mode, method=args.method)
    print(jsonio.dumps({
        "bound": opt.bound_name,
        "mode": opt.mode,
        "infimum": opt.infimum,
        "lambda_star": opt.lambda_star,
        "boundary": opt.boundary,
    }))
    return 0


def _cmd_radius(args) -> int:
    t = jsonio.load_matrix(args.matrix)
    lo, hi = numerical_radius_enclosure(t, args.tol)
    out = {"radius": lo, "upper": hi, "tol": args.tol}
    if args.oracle_samples is not None:
        out["oracle"] = numerical_radius_oracle(t, args.oracle_samples, args.seed)
        out["oracle_samples"] = args.oracle_samples
        out["seed"] = args.seed
    print(jsonio.dumps(out))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (UnknownBoundError, UnknownChainError, ValueError, OverflowError) as exc:
        # KeyError subclasses repr() their message; print it bare
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
