"""Batch verification suites and report emission.

run_suite evaluates a set of catalog bounds (in every mode they support)
and refinement chains over one ensemble, at every value of a lambda grid,
and collects the outcome per row. Violations are recorded, never fatal: a
counterexample is the tool's most valuable output.

Product bounds pair trial 2k with 2k+1; an odd trailing matrix is paired
with itself. Rows are ordered by (trial, bound, lambda, mode).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from . import jsonio
from .bounds import (
    ALL_BOUNDS,
    CHAIN_IDS,
    PRODUCT_BOUNDS,
    PRODUCT_CHAINS,
    evaluate_bound,
    refinement_chain,
    uses_lambda,
)
from .ensembles import EnsembleConfig, generate_ensemble
from .errors import UnknownBoundError, UnknownChainError
from .scalar_ineq import BoundParams

DEFAULT_LAMBDA_GRID = (0.01, 0.5, 1.0, 2.0, 100.0)

CSV_HEADER = ("trial", "bound", "mode", "lambda", "r", "n", "alpha",
              "exponent_p", "w_power", "rhs", "slack", "holds")


@dataclass(frozen=True)
class BoundRow:
    trial: int
    bound: str
    mode: str
    lam: float | None  # None for bounds the lambda grid does not touch
    r: float
    n: int
    alpha: float
    exponent_p: float
    w_power: float
    rhs: float
    slack: float
    holds: bool

    @property
    def rel_slack(self) -> float:
        return self.slack / max(1.0, abs(self.rhs), abs(self.w_power))


@dataclass(frozen=True)
class ChainRow:
    trial: int
    chain: str
    holds: bool


@dataclass(frozen=True)
class TightnessRow:
    bound: str
    mode: str
    rows: int
    mean_rel_slack: float
    min_rel_slack: float


@dataclass(frozen=True)
class SuiteReport:
    config: EnsembleConfig
    bounds: tuple[str, ...]
    chains: tuple[str, ...]
    lambda_grid: tuple[float, ...]
    r: float
    n: int
    alpha: float
    bound_rows: tuple[BoundRow, ...]
    chain_rows: tuple[ChainRow, ...]
    violations: int
    tightness: tuple[TightnessRow, ...]


def _bound_rows_for(trial: int, bound: str, t, s, lambda_grid, r, n, alpha) -> list[BoundRow]:
    # lambda-independent bounds get a single row; the grid only drives the
    # lam-parameterized family.
    lams = lambda_grid if uses_lambda(bound) else (None,)
    rows = []
    for lam in lams:
        params = BoundParams(lam=1.0 if lam is None else float(lam), r=r, n=n, alpha=alpha)
        for res in evaluate_bound(bound, t, s, params):
            rows.append(BoundRow(
                trial=trial, bound=bound, mode=res.mode, lam=lam,
                r=r, n=n, alpha=alpha, exponent_p=res.exponent_p,
                w_power=res.w_power_value, rhs=res.rhs_value,
                slack=res.slack, holds=res.holds,
            ))
    return rows


def run_suite(config: EnsembleConfig, bounds=None, chains=None,
              lambda_grid=DEFAULT_LAMBDA_GRID, r: float = 1.0, n: int = 1,
              alpha: float = 0.5) -> SuiteReport:
    """Evaluate the requested bounds and chains over one ensemble."""
    bounds = tuple(ALL_BOUNDS) if bounds is None else tuple(bounds)
    chains = tuple(CHAIN_IDS) if chains is None else tuple(chains)
    for b in bounds:
        if b not in ALL_BOUNDS:
            raise UnknownBoundError(f"unknown bound {b!r}; catalog: {ALL_BOUNDS}")
    for c in chains:
        if c not in CHAIN_IDS:
            raise UnknownChainError(f"unknown chain {c!r}; catalog: {CHAIN_IDS}")
    lambda_grid = tuple(float(x) for x in lambda_grid)

    matrices = generate_ensemble(config)
    chain_params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)
    bound_rows: list[BoundRow] = []
    chain_rows: list[ChainRow] = []
    # Single-matrix work first, trial by trial, then the pairs (2k, 2k+1).
    units = [(i, None, False) for i in range(config.trials)]
    units += [(i, min(i + 1, config.trials - 1), True) for i in range(0, config.trials, 2)]
    for i, j, product in units:
        t, s = matrices[i], None if j is None else matrices[j]
        for b in bounds:
            if (b in PRODUCT_BOUNDS) == product:
                bound_rows.extend(_bound_rows_for(i, b, t, s, lambda_grid, r, n, alpha))
        for c in chains:
            if (c in PRODUCT_CHAINS) == product:
                chain_rows.append(ChainRow(i, c, refinement_chain(t, s, c, chain_params).holds))
    bound_rows.sort(key=lambda row: (row.trial, row.bound,
                                     float("-inf") if row.lam is None else row.lam,
                                     row.mode))
    chain_rows.sort(key=lambda row: (row.trial, row.chain))

    violations = sum(not row.holds for row in bound_rows) + sum(not row.holds for row in chain_rows)

    tightness = []
    groups: dict[tuple[str, str], list[BoundRow]] = {}
    for row in bound_rows:
        groups.setdefault((row.bound, row.mode), []).append(row)
    for (bname, mode) in sorted(groups):
        rows = groups[(bname, mode)]
        rel = [row.rel_slack for row in rows]
        tightness.append(TightnessRow(bound=bname, mode=mode, rows=len(rows),
                                      mean_rel_slack=sum(rel) / len(rel),
                                      min_rel_slack=min(rel)))

    return SuiteReport(config=config, bounds=bounds, chains=chains,
                       lambda_grid=lambda_grid, r=r, n=n, alpha=alpha,
                       bound_rows=tuple(bound_rows), chain_rows=tuple(chain_rows),
                       violations=violations, tightness=tuple(tightness))


# --------------------------------------------------------------------------
# Serialization

def report_to_dict(report: SuiteReport) -> dict:
    return {
        "config": {
            "ensemble": report.config.ensemble,
            "dim": report.config.dim,
            "trials": report.config.trials,
            "seed": report.config.seed,
        },
        "request": {
            "bounds": list(report.bounds),
            "chains": list(report.chains),
            "lambda_grid": list(report.lambda_grid),
            "r": report.r,
            "n": report.n,
            "alpha": report.alpha,
        },
        "bound_rows": [
            {
                "trial": row.trial, "bound": row.bound, "mode": row.mode,
                "lambda": row.lam, "r": row.r, "n": row.n, "alpha": row.alpha,
                "exponent_p": row.exponent_p, "w_power": row.w_power,
                "rhs": row.rhs, "slack": row.slack, "holds": row.holds,
            }
            for row in report.bound_rows
        ],
        "chain_rows": [
            {"trial": row.trial, "chain": row.chain, "holds": row.holds}
            for row in report.chain_rows
        ],
        "violations": report.violations,
        "tightness": [
            {
                "bound": row.bound, "mode": row.mode, "rows": row.rows,
                "mean_rel_slack": row.mean_rel_slack,
                "min_rel_slack": row.min_rel_slack,
            }
            for row in report.tightness
        ],
    }


def report_to_json(report: SuiteReport) -> str:
    return jsonio.dumps(report_to_dict(report)) + "\n"


def report_from_json(text: str) -> SuiteReport:
    obj = json.loads(text)
    config = EnsembleConfig(**obj["config"])
    req = obj["request"]
    bound_rows = tuple(
        BoundRow(trial=row["trial"], bound=row["bound"], mode=row["mode"],
                 lam=row["lambda"], r=row["r"], n=row["n"], alpha=row["alpha"],
                 exponent_p=row["exponent_p"], w_power=row["w_power"],
                 rhs=row["rhs"], slack=row["slack"], holds=row["holds"])
        for row in obj["bound_rows"]
    )
    chain_rows = tuple(ChainRow(**row) for row in obj["chain_rows"])
    tightness = tuple(TightnessRow(**row) for row in obj["tightness"])
    return SuiteReport(config=config, bounds=tuple(req["bounds"]),
                       chains=tuple(req["chains"]),
                       lambda_grid=tuple(req["lambda_grid"]), r=req["r"],
                       n=req["n"], alpha=req["alpha"], bound_rows=bound_rows,
                       chain_rows=chain_rows, violations=obj["violations"],
                       tightness=tightness)


def report_to_csv(report: SuiteReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.bound_rows:
        writer.writerow([
            row.trial, row.bound, row.mode,
            "" if row.lam is None else jsonio.fmt_float(row.lam),
            jsonio.fmt_float(row.r), row.n, jsonio.fmt_float(row.alpha),
            jsonio.fmt_float(row.exponent_p), jsonio.fmt_float(row.w_power),
            jsonio.fmt_float(row.rhs), jsonio.fmt_float(row.slack),
            "true" if row.holds else "false",
        ])
    return buf.getvalue()


def emit_report(report: SuiteReport, format: str, path) -> None:
    """Write the report as json (full object) or csv (flattened bound rows)."""
    if format == "json":
        text = report_to_json(report)
    elif format == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
