"""Batch verification suites and report emission.

run_suite evaluates a set of catalog bounds (in every mode they support)
and refinement chains over one ensemble, at every value of a lambda grid,
and collects the outcome per row. Violations are recorded, never fatal: a
counterexample is the tool's most valuable output.

A config is evaluated at a time, as arrays over (trials x lambda), with one
stacked engine call for every engine input of its trials and pairs.

Product bounds pair trial 2k with 2k+1; an odd trailing matrix is paired
with itself. Rows are ordered by (trial, bound, lambda, mode).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from . import jsonio
from .bounds import (
    CATALOG,
    CHAINS,
    chain_bounds,
    chain_links,
    evaluate_sides,
    fill_terms,
    matrix_terms,
    pair_terms,
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


def run_suite(config: EnsembleConfig, bounds=None, chains=None,
              lambda_grid=DEFAULT_LAMBDA_GRID, r: float = 1.0, n: int = 1,
              alpha: float = 0.5) -> SuiteReport:
    """Evaluate the requested bounds and chains over one ensemble."""
    bounds = tuple(CATALOG if bounds is None else bounds)
    chains = tuple(CHAINS if chains is None else chains)
    for b in bounds:
        if b not in CATALOG:
            raise UnknownBoundError(f"unknown bound {b!r}; catalog: {tuple(CATALOG)}")
    for c in chains:
        if c not in CHAINS:
            raise UnknownChainError(f"unknown chain {c!r}; catalog: {tuple(CHAINS)}")
    lambda_grid = tuple(float(x) for x in lambda_grid)

    matrices = np.array(generate_ensemble(config))
    params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)
    pairs = np.arange(0, config.trials, 2)
    work, requests = [], []  # (row labels, bounds, chains, terms) per kind
    for product in (False, True):
        names = [b for b in bounds if CATALOG[b].product == product]
        ids = [c for c in chains if CATALOG[CHAINS[c].refined].product == product]
        if names or ids:
            terms = (pair_terms(matrices[pairs], matrices[np.minimum(pairs + 1, config.trials - 1)])
                     if product else matrix_terms(matrices))
            labels = (pairs if product else np.arange(config.trials)).tolist()
            work.append((labels, names, ids, terms))
            reads = [(b, params) for b in names]
            reads += [read for c in ids for read in chain_bounds(CHAINS[c], params)]
            requests.append((terms, [key for b, bp in reads for key in CATALOG[b].keys(bp)]))
    fill_terms(requests)  # one engine call for the config

    bound_rows, chain_rows = [], []
    for labels, names, ids, terms in work:
        for b in names:
            # a lambda-free bound gets one row; the grid drives the others
            lams = (None,) if CATALOG[b].lam is None else lambda_grid
            for sides in evaluate_sides(b, terms, params, [1.0 if x is None else x for x in lams]):
                for i, w, *cells in zip(labels, sides.w_power.tolist(), sides.rhs.tolist(),
                                        sides.slack.tolist(), sides.holds.tolist()):
                    bound_rows += [BoundRow(i, b, sides.mode, lam, r, n, alpha, sides.exponent, w,
                                            *cell) for lam, *cell in zip(lams, *cells)]
        for c in ids:
            holds = chain_links(CHAINS[c], terms, params)[1].tolist()
            chain_rows += [ChainRow(i, c, h) for i, h in zip(labels, holds)]
    bound_rows.sort(key=lambda row: (row.trial, row.bound,
                                     float("-inf") if row.lam is None else row.lam, row.mode))
    chain_rows.sort(key=lambda row: (row.trial, row.chain))

    violations = sum(not row.holds for row in bound_rows) + sum(not row.holds for row in chain_rows)

    groups: dict[tuple[str, str], list[float]] = {}
    for row in bound_rows:
        groups.setdefault((row.bound, row.mode), []).append(row.rel_slack)
    tightness = [TightnessRow(bound, mode, len(rel), sum(rel) / len(rel), min(rel))
                 for (bound, mode), rel in sorted(groups.items())]

    return SuiteReport(config=config, bounds=bounds, chains=chains,
                       lambda_grid=lambda_grid, r=r, n=n, alpha=alpha,
                       bound_rows=tuple(bound_rows), chain_rows=tuple(chain_rows),
                       violations=violations, tightness=tuple(tightness))


# --------------------------------------------------------------------------
# Serialization

def _bound_row_cells(rows, null: str, name, integer) -> list[tuple]:
    """The CSV_HEADER cells of each bound row as text, every float through
    jsonio.fmt_float (which refuses NaN and inf), repeated ones looked up."""
    fmt, cached = jsonio.fmt_float, functools.lru_cache(maxsize=None)(jsonio.fmt_float)

    def num(x):  # -0.0 == 0.0, but its text differs
        return cached(x) if x else fmt(x)

    return [(row.trial, name(row.bound), name(row.mode),
             null if row.lam is None else num(row.lam), num(row.r), integer(row.n),
             num(row.alpha), num(row.exponent_p), num(row.w_power), fmt(row.rhs),
             fmt(row.slack), "true" if row.holds else "false") for row in rows]


# One bound row of the JSON report; its keys are the CSV columns.
_JSON_ROW = "{{" + ",".join(f'"{key}":{{}}' for key in CSV_HEADER) + "}}"


def report_to_json(report: SuiteReport) -> str:
    """The report as JSON: the bytes jsonio.dumps gives for the full object,
    with each bound row filled into one template."""
    request = {"bounds": list(report.bounds), "chains": list(report.chains),
               "lambda_grid": list(report.lambda_grid), "r": report.r, "n": report.n,
               "alpha": report.alpha}
    head = jsonio.dumps({"config": vars(report.config), "request": request})
    tail = jsonio.dumps({"chain_rows": [vars(row) for row in report.chain_rows],
                         "violations": report.violations,
                         "tightness": [vars(row) for row in report.tightness]})
    names = functools.lru_cache(maxsize=None)(json.dumps)
    rows = ",".join(_JSON_ROW.format(*cells) for cells in _bound_row_cells(
        report.bound_rows, "null", names, functools.lru_cache(maxsize=None)(jsonio.dumps)))
    return f'{head[:-1]},"bound_rows":[{rows}],{tail[1:]}\n'


def report_from_json(text: str) -> SuiteReport:
    obj = json.loads(text)
    req = obj["request"]
    bound_rows = tuple(BoundRow(**{"lam" if key == "lambda" else key: value
                                   for key, value in row.items()}) for row in obj["bound_rows"])
    return SuiteReport(config=EnsembleConfig(**obj["config"]), bounds=tuple(req["bounds"]),
                       chains=tuple(req["chains"]), lambda_grid=tuple(req["lambda_grid"]),
                       r=req["r"], n=req["n"], alpha=req["alpha"], bound_rows=bound_rows,
                       chain_rows=tuple(ChainRow(**row) for row in obj["chain_rows"]),
                       violations=obj["violations"],
                       tightness=tuple(TightnessRow(**row) for row in obj["tightness"]))


def report_to_csv(report: SuiteReport) -> str:
    """The bound rows as CSV (no cell needs quoting), one line per row."""
    rows = [CSV_HEADER] + _bound_row_cells(report.bound_rows, "", str, str)
    return "".join(",".join(map(str, cells)) + "\n" for cells in rows)


def emit_report(report: SuiteReport, format: str, path) -> None:
    """Write the report as json (full object) or csv (flattened bound rows)."""
    formats = {"json": report_to_json, "csv": report_to_csv}
    if format not in formats:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")
    text = formats[format](report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
