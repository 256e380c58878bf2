"""Batch verification suites and report emission.

run_suite evaluates a set of catalog bounds (in every mode they support)
over one ensemble, a bound that takes lambda at every value of a lambda
grid, and refinement chains once each, at lambda = 1 and the request's
(r, n, alpha) mapped by the chain's ChainSpec; the grid drives bound rows
only. It collects the outcome per row. Every read is checked before the
ensemble is generated, when its plan is first built. Violations are recorded,
never fatal: a counterexample is the tool's most valuable output.

A config is evaluated at a time, from one SVD and one bounds.evaluate call
over its trials, one read per bound, lambda and mode, with one engine call
for its trials and pairs. Each read is one plan row, and its report rows take
their bound, mode, lambda and exponent from that row. The rows stay columns
(Columns) until the text: one lexsort orders them, each cell is a code into
its column's table (w-power, rhs and slack hold each value once, by its bits),
each table value is formatted once, and tuples are built on read.

Product bounds pair the trials by bounds.PairTerms' rule: trial 2k with 2k+1,
an odd last trial with itself. Rows are ordered by (trial, bound, lambda, mode).
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import jsonio
from .bounds import (
    CATALOG,
    CHAINS,
    PairTerms,
    Read,
    _chain,
    _plan,
    _spec,
    chain_links,
    chain_reads,
    evaluate,
    matrix_terms,
    rel_scale,
)
from .ensembles import EnsembleConfig, generate_ensemble
from .linalg import _require_number
from .scalar_ineq import BoundParams

DEFAULT_LAMBDA_GRID = (0.01, 0.5, 1.0, 2.0, 100.0)


class BoundRow(NamedTuple):
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
        return float(self.slack / rel_scale(self.rhs, self.w_power))


# the report's column names: BoundRow's fields, lam written out as lambda
CSV_HEADER = tuple("lambda" if field == "lam" else field for field in BoundRow._fields)


class ChainRow(NamedTuple):
    trial: int
    chain: str
    holds: bool


class TightnessRow(NamedTuple):
    bound: str
    mode: str
    rows: int
    mean_rel_slack: float
    min_rel_slack: float


class Columns(Sequence):
    """Rows as columns, in row order: column j is (table, codes), row i holding
    table[codes[i]], and the text formats each table value once. It reads as
    the tuple of its kind's rows, which is built on the first read of a row."""

    def __init__(self, kind, columns):
        self.kind, self.columns = kind, columns

    @cached_property
    def rows(self) -> tuple:
        return tuple(map(self.kind._make, zip(*(_take(*c) for c in self.columns))))

    def __len__(self):
        return len(self.columns[0][1])

    def __getitem__(self, i):
        return self.rows[i]

    def __eq__(self, other):
        rows = isinstance(other, (tuple, Columns))
        return self.rows == tuple(other) if rows else NotImplemented

    def __hash__(self):
        return hash(self.rows)


def _as_columns(rows, kind) -> Columns:
    """Rows given as tuples of kind (or already as columns) as columns."""
    if isinstance(rows, Columns):
        return rows
    columns = np.array(rows, dtype=object).reshape(len(rows), len(kind._fields)).T
    return Columns(kind, [(c.tolist(), np.arange(len(rows))) for c in columns])


def _distinct(a) -> tuple[list, np.ndarray]:
    """Floats as (table, codes), their values told apart by their bits (so
    -0.0 and 0.0 keep their own text)."""
    table, codes = np.unique(np.asarray(a, np.float64).view(np.int64), return_inverse=True)
    return table.view(np.float64).tolist(), codes


def _ranked(values) -> tuple[list, np.ndarray]:
    """(the distinct values in sorted order, each value's index there)."""
    rank = {x: i for i, x in enumerate(sorted(set(values)))}
    return list(rank), np.array([rank[x] for x in values], dtype=np.intp)


def _take(table, codes) -> list:
    return np.array(table, dtype=object)[codes].tolist()


@dataclass(frozen=True)
class SuiteReport:
    config: EnsembleConfig
    bounds: tuple[str, ...]
    chains: tuple[str, ...]
    lambda_grid: tuple[float, ...]
    r: float
    n: int
    alpha: float
    bound_rows: Sequence[BoundRow]
    chain_rows: Sequence[ChainRow]
    violations: int
    tightness: Sequence[TightnessRow]


def run_suite(config: EnsembleConfig, bounds=None, chains=None,
              lambda_grid=DEFAULT_LAMBDA_GRID, r: float = 1.0, n: int = 1,
              alpha: float = 0.5) -> SuiteReport:
    """Evaluate the requested bounds and chains over one ensemble.

    A bound or chain named twice is refused. Each grid value is checked once,
    as a BoundParams lam, whether or not a requested bound reads the grid; an
    empty grid is refused when a requested bound takes lambda, naming the
    first (single-matrix bounds first). All before the ensemble is generated.
    """
    bounds = tuple(CATALOG if bounds is None else bounds)
    chains = tuple(CHAINS if chains is None else chains)
    specs, chain_specs = [_spec(b) for b in bounds], [_chain(c) for c in chains]
    for kind, names in (("bound", bounds), ("chain", chains)):
        repeated = [x for x in names if names.count(x) > 1]  # its rows would count twice
        if repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is requested more than once")
    lambda_grid = tuple(float(_require_number("lam", x)) for x in lambda_grid)
    params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)
    grid = [replace(params, lam=lam) for lam in lambda_grid]  # each lam checked once
    takes = [b for b, spec in sorted(zip(bounds, specs), key=lambda x: x[1].product)
             if spec.uses_lambda]  # the bounds that read the grid, single ones first
    if takes and not grid:
        raise ValueError(f"empty lambda grid for bound {takes[0]!r}")

    pairs = np.arange(0, config.trials, 2)
    work = []  # (row labels, bound reads, chains with their reads) per kind
    for product in (False, True):
        # a bound the grid does not drive is read at lam = 1, its rows with lam None
        reads = [Read(b, p, mode) for b, spec in zip(bounds, specs) if spec.product == product
                 for p in (grid if spec.uses_lambda else [params]) for mode in spec.modes]
        links = [(c, chain_reads(ch, params)) for c, ch in zip(chains, chain_specs)
                 if CATALOG[ch.refined].product == product]
        work.append((pairs if product else np.arange(config.trials), reads, links))
    kinds = [reads + [r for _, pair in links for r in pair] for _, reads, links in work]
    plans = [_plan(tuple(kind)) for kind in kinds]  # checked before the ensemble is made
    terms = matrix_terms(np.array(generate_ensemble(config)))  # the config's one SVD
    paired = PairTerms(terms, pairs)
    evs = evaluate(list(zip((terms, paired), plans)))  # one engine call

    parts, chain_blocks = [], []  # (labels, evaluation, plan rows); (labels, chain, holds)
    for (labels, reads, links), ev in zip(work, evs):
        parts.append((labels, ev, [ev.plan.rows[read] for read in reads]))
        if links:  # each chain's holds, a row of one stacked array
            rows = np.array([[ev.plan.rows[read] for read in pair] for _, pair in links])
            chain_blocks += zip(repeat(labels), [c for c, _ in links], chain_links(ev, *rows.T)[1])
    bound_rows, tightness, bound_violations = _bound_rows(parts, r, n, alpha)
    chain_rows, chain_violations = _chain_rows(chain_blocks)
    violations = bound_violations + chain_violations
    return SuiteReport(config=config, bounds=bounds, chains=chains,
                       lambda_grid=lambda_grid, r=r, n=n, alpha=alpha,
                       bound_rows=bound_rows, chain_rows=chain_rows,
                       violations=violations, tightness=tightness)


def _bound_rows(parts, r, n, alpha):
    """The rows of (labels, evaluation, plan rows) parts, each labelled by its
    plan row, in the order a stable sort by (trial, bound, lam with None first,
    mode) gives them, the tightness of each (bound, mode) over its rows in that
    order, and the number of rows that do not hold."""
    blocks = [(ev, i) for _, ev, rows in parts for i in rows]
    if not blocks:
        return (), (), 0
    # a block is one plan row, with one row per input
    bound, mode, lam, p = ([getattr(ev.plan, f)[i] for ev, i in blocks]
                           for f in ("name", "mode", "lam", "exponent"))
    inputs = [len(labels) for labels, _, rows in parts for _ in rows]
    block = np.repeat(np.arange(len(blocks)), inputs)
    trial = np.concatenate([np.tile(labels, len(rows)) for labels, _, rows in parts])
    (bounds, bound_of), (modes, mode_of) = _ranked(bound), _ranked(mode)
    lams, lam_of = _distinct(lam)  # nan: free of lam, shown as None and sorted first
    order = np.lexsort((mode_of[block], np.where(np.isnan(lam), -np.inf, lam)[block],
                        bound_of[block], trial))
    w, rhs, slack, holds = (np.concatenate([getattr(ev, f)[rows].ravel()
                                            for _, ev, rows in parts])[order]
                            for f in ("w_power", "rhs", "slack", "holds"))
    block, once = block[order], np.zeros(len(block), dtype=np.intp)
    rows = Columns(BoundRow, [  # trials count from 0
        (list(range(trial.max() + 1)), trial[order]), (bounds, bound_of[block]),
        (modes, mode_of[block]), ([None if np.isnan(x) else x for x in lams], lam_of[block]),
        ([r], once), ([n], once), ([alpha], once), (p, block), _distinct(w), _distinct(rhs),
        _distinct(slack), ([False, True], holds.astype(np.intp))])

    # tightness: the rows' rel_slack grouped by (bound, mode), in row order;
    # each mean is a Python sum over its group (numpy's pairwise sum rounds
    # differently)
    groups, group = _ranked(list(zip(bound, mode)))
    by_group = np.argsort(group[block], kind="stable")
    rel = (slack / rel_scale(rhs, w))[by_group].tolist()
    ends = np.cumsum(np.bincount(group[block], minlength=len(groups))).tolist()
    stats = [(end - start, sum(rel[start:end]) / (end - start), min(rel[start:end]))
             for start, end in zip([0] + ends, ends)]
    tightness = Columns(TightnessRow, [(list(column), np.arange(len(groups)))
                                       for column in [*zip(*groups), *zip(*stats)]])
    return rows, tightness, int(np.count_nonzero(~holds))


def _chain_rows(blocks):
    """The rows of (labels, chain, holds) blocks, in the order a stable sort
    by (trial, chain) gives them, and the number that do not hold."""
    if not blocks:
        return (), 0
    names, chain = _ranked([c for _, c, _ in blocks])
    trial = np.concatenate([labels for labels, _, _ in blocks])
    chain = np.repeat(chain, [len(h) for *_, h in blocks])
    holds = np.concatenate([h for *_, h in blocks])
    order = np.lexsort((chain, trial))
    rows = Columns(ChainRow, [(list(range(trial.max() + 1)), trial[order]), (names, chain[order]),
                              ([False, True], holds[order].astype(np.intp))])
    return rows, int(np.count_nonzero(~holds))


# --------------------------------------------------------------------------
# Serialization

def _cells(rows, kind, token=jsonio.token) -> list[list[str]]:
    """The columns of rows of kind as text, each table value written once by token;
    a table of floats alone takes one jsonio.fmt_floats call (the same text, no NaN or inf)."""
    return [_take(jsonio.fmt_floats(table) if {*map(type, table)} <= {float}
                  else list(map(token, table)), codes)
            for table, codes in _as_columns(rows, kind).columns]


def _rows_text(seps, columns, end: str) -> str:
    """Each row as sep_0 cell_0 sep_1 cell_1 ... end, the rows' cells given
    as text columns, all in one join."""
    count, width = len(columns[0]), 2 * len(columns) + 1
    parts = [end] * (count * width)
    for j, (sep, column) in enumerate(zip(seps, columns)):
        parts[2 * j::width] = [sep] * count
        parts[2 * j + 1::width] = column
    return "".join(parts)


def _json_objects(keys, columns) -> str:
    """A JSON array of one object per row, its cells (JSON text) under keys."""
    seps = [("," if j else "{") + json.dumps(key) + ":" for j, key in enumerate(keys)]
    return "[" + _rows_text(seps, columns, "},")[:-1] + "]"


def report_to_json(report: SuiteReport) -> str:
    """The report as JSON: the bytes jsonio.dumps gives for the full object,
    with each list of rows written column by column into one template."""
    request = {"bounds": list(report.bounds), "chains": list(report.chains),
               "lambda_grid": list(report.lambda_grid), "r": report.r, "n": report.n,
               "alpha": report.alpha}
    head = jsonio.dumps({"config": vars(report.config), "request": request})
    bound_rows, chain_rows, tightness = (
        _json_objects(keys, _cells(rows, kind)) for rows, kind, keys in (
            (report.bound_rows, BoundRow, CSV_HEADER),
            (report.chain_rows, ChainRow, ChainRow._fields),
            (report.tightness, TightnessRow, TightnessRow._fields)))
    return (f'{head[:-1]},"bound_rows":{bound_rows},"chain_rows":{chain_rows},'
            f'"violations":{jsonio.dumps(report.violations)},"tightness":{tightness}}}\n')


def report_from_json(text: str) -> SuiteReport:
    obj = json.loads(text)
    req = obj["request"]
    bound_rows = tuple(BoundRow._make(row[key] for key in CSV_HEADER) for row in obj["bound_rows"])
    return SuiteReport(config=EnsembleConfig(**obj["config"]), bounds=tuple(req["bounds"]),
                       chains=tuple(req["chains"]), lambda_grid=tuple(req["lambda_grid"]),
                       r=req["r"], n=req["n"], alpha=req["alpha"], bound_rows=bound_rows,
                       chain_rows=tuple(ChainRow(**row) for row in obj["chain_rows"]),
                       violations=obj["violations"],
                       tightness=tuple(TightnessRow(**row) for row in obj["tightness"]))


def report_to_csv(report: SuiteReport) -> str:
    """The bound rows as CSV, one line per row: each cell is its JSON token,
    a string without its quotes (no cell needs quoting) and null empty."""
    cells = _cells(report.bound_rows, BoundRow,
                   lambda x: x if type(x) is str else "" if x is None else jsonio.token(x))
    seps = ["", *[","] * (len(cells) - 1)]
    return ",".join(CSV_HEADER) + "\n" + _rows_text(seps, cells, "\n")


REPORT_FORMATS = {"json": report_to_json, "csv": report_to_csv}


def emit_report(report: SuiteReport, format: str, path) -> None:
    """Write the report in a format of REPORT_FORMATS (the first is verify's default)."""
    if format not in REPORT_FORMATS:
        raise ValueError(f"unknown format {format!r}; use {' or '.join(map(repr, REPORT_FORMATS))}")
    text = REPORT_FORMATS[format](report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
