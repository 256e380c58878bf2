"""Batch verification suites and report emission.

run_suite evaluates a set of catalog bounds (in every mode they support)
and refinement chains over one ensemble, at every value of a lambda grid,
and collects the outcome per row. Violations are recorded, never fatal: a
counterexample is the tool's most valuable output.

A config is evaluated at a time, from one SVD and one bounds.evaluate call
over (trials x lambda) with one engine call for its trials and pairs. Its rows
stay arrays until the report is built: one lexsort orders them, violations
and tightness are counted from the columns, and the row tuples are made in
bulk. The serializers format the rows column by column and join them once.

Product bounds pair trial 2k with 2k+1; an odd trailing matrix is paired
with itself. Rows are ordered by (trial, bound, lambda, mode).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    _spec,
    chain_links,
    chain_reads,
    evaluate,
    matrix_terms,
    rel_scale,
)
from .ensembles import EnsembleConfig, generate_ensemble
from .scalar_ineq import BoundParams

DEFAULT_LAMBDA_GRID = (0.01, 0.5, 1.0, 2.0, 100.0)

CSV_HEADER = ("trial", "bound", "mode", "lambda", "r", "n", "alpha",
              "exponent_p", "w_power", "rhs", "slack", "holds")


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
    specs, chain_specs = [_spec(b) for b in bounds], [_chain(c) for c in chains]
    for kind, names in (("bound", bounds), ("chain", chains)):
        repeated = [x for x in names if names.count(x) > 1]  # its rows would count twice
        if repeated:
            raise ValueError(f"{kind} {repeated[0]!r} is requested more than once")
    lambda_grid = tuple(float(x) for x in lambda_grid)
    params = BoundParams(lam=1.0, r=r, n=n, alpha=alpha)

    terms = matrix_terms(np.array(generate_ensemble(config)))  # the config's one SVD
    pairs = np.arange(0, config.trials, 2)
    work, requests = [], []  # (row labels, bound reads, chains with their reads) per kind
    for product in (False, True):
        # a bound the grid does not drive is read at lam = 1, as one row with lam None
        reads = [Read(b, params, None, lambda_grid if spec.uses_lambda else (1.0,))
                 for b, spec in zip(bounds, specs) if spec.product == product]
        links = [(c, chain_reads(ch, params)) for c, ch in zip(chains, chain_specs)
                 if CATALOG[ch.refined].product == product]
        work.append((pairs if product else np.arange(config.trials), reads, links))
        requests.append((PairTerms(terms, pairs, np.minimum(pairs + 1, config.trials - 1))
                         if product else terms,
                         reads + [read for _, pair in links for read in pair]))

    parts, chain_blocks = [], []  # (labels, evaluation, bound rows); (labels, chain, holds)
    for (labels, reads, links), ev in zip(work, evaluate(requests)):  # one engine call
        parts.append((labels, ev, [i for read in reads for i in ev.rows[read]]))
        if links:  # each chain's holds, a row of one stacked array
            rows = np.array([[ev.rows[read][0] for read in pair] for _, pair in links])
            chain_blocks += zip(repeat(labels), [c for c, _ in links], chain_links(ev, *rows.T)[1])
    bound_rows, tightness, bound_violations = _bound_rows(parts, lambda_grid, r, n, alpha)
    chain_rows, chain_violations = _chain_rows(chain_blocks)
    violations = bound_violations + chain_violations
    return SuiteReport(config=config, bounds=bounds, chains=chains,
                       lambda_grid=lambda_grid, r=r, n=n, alpha=alpha,
                       bound_rows=bound_rows, chain_rows=chain_rows,
                       violations=violations, tightness=tightness)


def _ranks(keys) -> dict:
    """Each distinct key's place in sorted order, in that order."""
    return {key: i for i, key in enumerate(sorted(set(keys)))}


def _bound_rows(parts, grid, r, n, alpha):
    """The rows of (labels, evaluation, its plan rows) parts, in the order a
    stable sort by (trial, bound, lam with None first, mode) gives them, the
    tightness of each (bound, mode) over its rows in that order, and the
    number of rows that do not hold."""
    blocks = [(labels, ev, i) for labels, ev, rows in parts for i in rows]
    if not blocks:
        return (), (), 0
    # a block, one plan row, has the cells (input, lam) of its read, input-major
    bound, mode, p = ([getattr(ev.plan, f)[i] for _, ev, i in blocks]
                      for f in ("name", "mode", "exponent"))
    free, width, columns, inputs = np.array([(ev.plan.free[i, 0], ev.width[i], ev.rhs.shape[2],
                                              len(labels)) for labels, ev, i in blocks]).T
    sizes, padded = inputs * width, inputs * columns
    block = np.repeat(np.arange(len(blocks)), sizes)  # per row: its block
    pos = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)  # its cell there
    inp, col = np.divmod(pos, width[block])
    row_input = np.repeat(np.cumsum(inputs) - inputs, sizes) + inp  # of all inputs
    lam = np.where(free[block], 0, col + 1)  # an index into (None, *grid)
    # its place in the parts' (rows x inputs x lams) arrays, raveled and joined
    cell = np.repeat(np.cumsum(padded) - padded, sizes) + inp * columns[block] + col
    trial = np.concatenate([labels for labels, _, _ in blocks])[row_input]
    bound_rank, mode_rank = _ranks(bound), _ranks(mode)
    order = np.lexsort((np.array([mode_rank[m] for m in mode])[block],
                        np.array([-np.inf, *grid])[lam],
                        np.array([bound_rank[b] for b in bound])[block], trial))
    block, lam, row_input, cell = block[order], lam[order], row_input[order], cell[order]
    w = np.concatenate([ev.w_power[rows].ravel() for _, ev, rows in parts])[row_input]
    rhs, slack, holds = (np.concatenate([getattr(ev, f)[rows].ravel() for _, ev, rows in parts])
                         [cell] for f in ("rhs", "slack", "holds"))
    per_block = np.array(list(zip(bound, mode, p)), dtype=object)
    rows = tuple(map(tuple.__new__, repeat(BoundRow), zip(
        trial[order].tolist(), per_block[block, 0].tolist(), per_block[block, 1].tolist(),
        np.array([None, *grid], dtype=object)[lam].tolist(), repeat(r), repeat(n),
        repeat(alpha), per_block[block, 2].tolist(), w.tolist(), rhs.tolist(),
        slack.tolist(), holds.tolist())))

    # tightness: the rows' rel_slack grouped by (bound, mode), in row order;
    # each mean is a Python sum over its group (numpy's pairwise sum rounds
    # differently)
    group_rank = _ranks(zip(bound, mode))
    group = np.array([group_rank[g] for g in zip(bound, mode)])[block]
    by_group = np.argsort(group, kind="stable")
    rel = (slack / rel_scale(rhs, w))[by_group].tolist()
    ends = np.cumsum(np.bincount(group, minlength=len(group_rank))).tolist()
    tightness = tuple(TightnessRow(bound, mode, end - start, sum(rel[start:end]) / (end - start),
                                   min(rel[start:end]))
                      for (bound, mode), start, end in zip(group_rank, [0] + ends, ends))
    return rows, tightness, int(np.count_nonzero(~holds))


def _chain_rows(blocks):
    """The rows of (labels, chain, holds) blocks, in the order a stable sort
    by (trial, chain) gives them, and the number that do not hold."""
    if not blocks:
        return (), 0
    rank = _ranks(c for _, c, _ in blocks)
    trial = np.concatenate([labels for labels, _, _ in blocks])
    chain = np.repeat([rank[c] for _, c, _ in blocks], [len(h) for *_, h in blocks])
    holds = np.concatenate([h for *_, h in blocks])
    order = np.lexsort((chain, trial))
    rows = tuple(map(tuple.__new__, repeat(ChainRow), zip(
        trial[order].tolist(), np.array(list(rank), dtype=object)[chain[order]].tolist(),
        holds[order].tolist())))
    return rows, int(np.count_nonzero(~holds))


# --------------------------------------------------------------------------
# Serialization

def _each_once(fmt, column) -> list[str]:
    """fmt of each value of a column, each distinct value formatted once;
    -0.0 == 0.0 share a key, but their text differs, so zeros go one by one."""
    text = {x: fmt(x) for x in set(column)}
    if 0 in text:
        return [fmt(x) if x == 0 else text[x] for x in column]
    return list(map(text.__getitem__, column))


def _columns(rows, fields) -> list[tuple]:
    """The rows' values field by field."""
    return list(zip(*rows)) or [()] * len(fields)


def _bools(column) -> list[str]:
    return ["true" if x else "false" for x in column]


def _bound_row_cells(rows, null: str, name, integer) -> list[list[str]]:
    """The CSV_HEADER columns of the bound rows as text, every float through
    jsonio.fmt_float's rule (which refuses NaN and inf)."""
    trial, bound, mode, lam, r, n, alpha, p, w, rhs, slack, holds = _columns(rows, CSV_HEADER)

    def num(x):
        return null if x is None else jsonio.fmt_float(x)

    return [list(map(str, trial)), _each_once(name, bound), _each_once(name, mode),
            _each_once(num, lam), _each_once(num, r), _each_once(integer, n),
            _each_once(num, alpha), _each_once(num, p), _each_once(num, w),
            jsonio.fmt_floats(rhs), jsonio.fmt_floats(slack), _bools(holds)]


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
    bound_rows = _json_objects(CSV_HEADER, _bound_row_cells(
        report.bound_rows, "null", json.dumps, jsonio.dumps))
    trial, chain, holds = _columns(report.chain_rows, ChainRow._fields)
    chain_rows = _json_objects(ChainRow._fields, [
        list(map(str, trial)), _each_once(json.dumps, chain), _bools(holds)])
    bound, mode, count, mean, low = _columns(report.tightness, TightnessRow._fields)
    tightness = _json_objects(TightnessRow._fields, [
        _each_once(json.dumps, bound), _each_once(json.dumps, mode), list(map(str, count)),
        jsonio.fmt_floats(mean), jsonio.fmt_floats(low)])
    return (f'{head[:-1]},"bound_rows":{bound_rows},"chain_rows":{chain_rows},'
            f'"violations":{jsonio.dumps(report.violations)},"tightness":{tightness}}}\n')


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
    seps = ("",) + (",",) * (len(CSV_HEADER) - 1)
    cells = _bound_row_cells(report.bound_rows, "", str, str)
    return ",".join(CSV_HEADER) + "\n" + _rows_text(seps, cells, "\n")


def emit_report(report: SuiteReport, format: str, path) -> None:
    """Write the report as json (full object) or csv (flattened bound rows)."""
    formats = {"json": report_to_json, "csv": report_to_csv}
    if format not in formats:
        raise ValueError(f"unknown format {format!r}; use 'json' or 'csv'")
    text = formats[format](report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
