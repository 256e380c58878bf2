"""Suite runner and report emission."""

import csv
import io
import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from numrad import (
    ENSEMBLES,
    BoundParams,
    EnsembleConfig,
    bounds,
    emit_report,
    jsonio,
    run_suite,
    suite,
)
from numrad.bounds import (
    ALL_BOUNDS,
    CHAIN_IDS,
    MODE_CERTIFICATE,
    MODE_INEQUALITY,
    PRODUCT_BOUNDS,
    PRODUCT_CHAINS,
    bound_modes,
    evaluate_bound,
    refinement_chain,
    uses_lambda,
)
from numrad.ensembles import generate_ensemble
from numrad.errors import UnknownBoundError, UnknownChainError
from numrad.suite import (
    CSV_HEADER,
    BoundRow,
    ChainRow,
    TightnessRow,
    report_from_json,
    report_to_csv,
    report_to_json,
)


def test_jordan_kittaneh_single_tight_row():
    cfg = EnsembleConfig("jordan", 2, 1, 0)
    rep = run_suite(cfg, bounds=["kittaneh"], chains=[],
                    lambda_grid=(0.01, 0.5, 1.0, 2.0, 100.0))
    assert len(rep.bound_rows) == 1  # kittaneh ignores the lambda grid
    row = rep.bound_rows[0]
    assert row.lam is None
    assert abs(row.slack) <= 1e-8
    assert rep.violations == 0


def test_lambda_bounds_sweep_grid():
    cfg = EnsembleConfig("jordan", 2, 1, 0)
    rep = run_suite(cfg, bounds=["th4"], chains=[], lambda_grid=(0.5, 1.0, 2.0))
    assert len(rep.bound_rows) == 3
    assert [row.lam for row in rep.bound_rows] == [0.5, 1.0, 2.0]


def test_dual_mode_bounds_emit_both_modes():
    cfg = EnsembleConfig("jordan", 2, 1, 0)
    rep = run_suite(cfg, bounds=["th2"], chains=[], lambda_grid=(1.0,))
    assert len(rep.bound_rows) == 2
    assert {row.mode for row in rep.bound_rows} == {"inequality-check", MODE_CERTIFICATE}


def test_empty_request_empty_report():
    cfg = EnsembleConfig("gue", 3, 2, 5)
    rep = run_suite(cfg, bounds=[], chains=[])
    assert rep.bound_rows == ()
    assert rep.chain_rows == ()
    assert rep.violations == 0


def test_product_bounds_pair_consecutive_trials():
    cfg = EnsembleConfig("ginibre", 2, 5, 13)
    rep = run_suite(cfg, bounds=["dragomir"], chains=[])
    # pairs (0,1), (2,3), (4,4): rows labeled by the first trial of each pair
    assert [row.trial for row in rep.bound_rows] == [0, 2, 4]
    assert rep.violations == 0


def test_full_default_suite_clean():
    cfg = EnsembleConfig("ginibre", 3, 6, 42)
    rep = run_suite(cfg)
    assert rep.violations == 0
    assert rep.chain_rows
    assert all(row.holds for row in rep.chain_rows)
    assert rep.tightness
    for t in rep.tightness:
        assert t.min_rel_slack >= -1e-8
        assert t.mean_rel_slack >= t.min_rel_slack - 1e-15


@pytest.mark.parametrize("ensemble", ENSEMBLES)
def test_every_builtin_ensemble_defaults_clean(ensemble):
    rep = run_suite(EnsembleConfig(ensemble, 3, 4, 2024))
    assert rep.violations == 0


def test_json_round_trip_and_determinism():
    cfg = EnsembleConfig("normal", 3, 4, 7)
    rep_a = run_suite(cfg)
    rep_b = run_suite(cfg)
    text_a, text_b = report_to_json(rep_a), report_to_json(rep_b)
    assert text_a == text_b
    assert report_from_json(text_a) == rep_a


def test_csv_shape(tmp_path):
    cfg = EnsembleConfig("gue", 3, 2, 3)
    rep = run_suite(cfg, bounds=["kittaneh", "th4"], chains=[], lambda_grid=(1.0, 2.0))
    text = report_to_csv(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == CSV_HEADER
    assert len(rows) == 1 + len(rep.bound_rows)
    holds_col = CSV_HEADER.index("holds")
    assert {row[holds_col] for row in rows[1:]} == {"true"}
    path = tmp_path / "rep.csv"
    emit_report(rep, "csv", path)
    assert path.read_text() == text


def test_empty_csv_has_header_only():
    cfg = EnsembleConfig("gue", 3, 1, 3)
    rep = run_suite(cfg, bounds=[], chains=[])
    assert report_to_csv(rep).strip() == ",".join(CSV_HEADER)


def test_violation_renders_as_false():
    # no catalog bound can fail on valid input, so forge one violating row
    cfg = EnsembleConfig("jordan", 2, 1, 0)
    rep = run_suite(cfg, bounds=["kittaneh"], chains=[])
    bad_row = BoundRow(trial=0, bound="kittaneh", mode=MODE_CERTIFICATE, lam=None,
                       r=1.0, n=1, alpha=0.5, exponent_p=1.0, w_power=0.5,
                       rhs=0.4, slack=-0.1, holds=False)
    forged = replace(rep, bound_rows=(bad_row,), violations=1)
    assert '"holds":false' in report_to_json(forged)
    csv_text = report_to_csv(forged)
    assert csv_text.strip().splitlines()[1].endswith("false")
    assert report_from_json(report_to_json(forged)) == forged


def test_empty_lambda_grid_refused_when_a_bound_takes_lambda():
    cfg = EnsembleConfig("gue", 2, 2, 3)
    with pytest.raises(ValueError, match="^empty lambda grid for bound 'th3'$"):
        run_suite(cfg, bounds=["kittaneh", "th3"], chains=[], lambda_grid=())
    # single-matrix bounds are named before product bounds
    with pytest.raises(ValueError, match="^empty lambda grid for bound 'th3'$"):
        run_suite(cfg, bounds=["th2", "th3"], chains=[], lambda_grid=())
    with pytest.raises(ValueError, match="^empty lambda grid for bound 'al_dolat'$"):
        run_suite(cfg, bounds=["al_dolat"], chains=[], lambda_grid=[])
    rep = run_suite(cfg, bounds=["kittaneh"], lambda_grid=())  # the grid is not read
    assert len(rep.bound_rows) == 2 and rep.chain_rows and rep.violations == 0


def test_a_config_checks_its_lambda_grid_once(monkeypatch):
    # each grid value is checked once per config, as one BoundParams that the
    # reads at that lam share; the grid is read by exactly the bounds that
    # take lambda, in one evaluate call with the chains
    checked, calls, post_init = [], [], BoundParams.__post_init__

    def spy(params):
        checked.append(params.lam)
        post_init(params)

    def keep(requests, evaluate=bounds.evaluate):
        calls.append([read for _, plan in requests for read in plan.rows])
        return evaluate(requests)

    monkeypatch.setattr(BoundParams, "__post_init__", spy)
    monkeypatch.setattr(suite, "evaluate", keep)
    grid = (0.25, 3.0)  # not the chains' lam 1
    rep = run_suite(EnsembleConfig("ginibre", 2, 3, 1), lambda_grid=grid)
    assert rep.chain_rows and len(calls) == 1
    assert [lam for lam in checked if lam != 1.0] == list(grid)
    for lam in grid:
        grid_reads = [read for read in calls[0] if read.params.lam == lam]
        assert [(read.name, read.mode) for read in grid_reads] == [
            (b, mode) for b in ALL_BOUNDS if uses_lambda(b) for mode in bound_modes(b)]
        assert len({id(read.params) for read in grid_reads}) == 1
    assert not {"fill_terms", "_require_positive"} & set(vars(suite))


@pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
def test_every_grid_value_is_checked_before_the_ensemble(monkeypatch, lam):
    # no requested bound reads the grid, and it is checked all the same
    generated = []
    monkeypatch.setattr(suite, "generate_ensemble", lambda config: generated.append(config))
    with pytest.raises(ValueError, match=f"^lam must be finite and >= 0, got {lam}$"):
        run_suite(EnsembleConfig("gue", 2, 2, 1), bounds=["kittaneh"], chains=[],
                  lambda_grid=(1.0, lam))
    assert generated == []


def test_a_zero_lambda_is_refused_before_the_ensemble(monkeypatch):
    # 0 is a valid grid value, refused by the read of th2, which needs lam > 0
    generated = []
    monkeypatch.setattr(suite, "generate_ensemble", lambda config: generated.append(config))
    with pytest.raises(ValueError, match=r"^lam must be finite and > 0, got 0\.0$"):
        run_suite(EnsembleConfig("ginibre", 3, 4, 1), bounds=["th2"], lambda_grid=(0.0, 1.0))
    assert generated == []


@pytest.mark.parametrize("flag", [True, np.True_, "0.5"])
def test_a_bool_grid_value_is_refused_before_the_ensemble(monkeypatch, flag):
    # float() would read a bool as lam = 1 and parse a string, as no BoundParams
    # field takes either
    generated = []
    monkeypatch.setattr(suite, "generate_ensemble", lambda config: generated.append(config))
    with pytest.raises(ValueError, match=f"^lam must be a number, not a {type(flag).__name__}$"):
        run_suite(EnsembleConfig("ginibre", 2, 2, 1), bounds=["th2"], chains=[],
                  lambda_grid=(flag, 2.0))
    assert generated == []


def test_th6_past_its_order_cap_is_refused_before_the_ensemble(monkeypatch):
    generated = []
    monkeypatch.setattr(suite, "generate_ensemble", lambda config: generated.append(config))
    with pytest.raises(OverflowError, match=r"^n > 15 not supported \(binomial exactness cap\)$"):
        run_suite(EnsembleConfig("ginibre", 3, 4, 1), bounds=["th6"], n=16)
    assert generated == []


def test_a_planned_request_is_not_checked_again(monkeypatch):
    # the reads are checked when their plan is built; a repeated request finds
    # its plans memoized
    config, checked = EnsembleConfig("ginibre", 2, 3, 4), []
    run_suite(config, lambda_grid=(0.125, 8.0))
    monkeypatch.setattr(bounds, "_require_positive", lambda lam: checked.append(lam))
    run_suite(config, lambda_grid=(0.125, 8.0))
    assert checked == []


def test_a_config_evaluates_each_read_once(monkeypatch):
    # a chain reads what the config already reads: el_haddad at r = 2 once for
    # th4/th5/bomi_elhaddad, and th3_elhaddad's el_haddad at r = 1 and both th2
    # chains' th2 at r = 1, lam 1 in inequality mode are the config's own rows
    # (each plan row is one read, at one lam, in one mode: th2 is 5 grid lams
    # in 2 modes)
    calls = Counter()

    def spy(requests, evaluate=bounds.evaluate):
        out = evaluate(requests)
        calls.update(name for ev in out for name in ev.plan.name)
        return out

    monkeypatch.setattr(suite, "evaluate", spy)
    run_suite(EnsembleConfig("ginibre", 3, 4, 1))
    assert (calls["el_haddad"], calls["th2"], sum(calls.values())) == (2, 10, 63)


def test_a_signed_zero_lambda_keeps_its_sign():
    # rows take their lam from their plan row: -0.0 and 0.0 are two reads, so a
    # plan memoized for one grid does not label the other's rows
    config = EnsembleConfig("jordan", 2, 2, 0)
    for grid in ((-0.0, 1.0), (0.0, 1.0), (0.0, -0.0)):
        rep = run_suite(config, bounds=["al_dolat"], chains=[], lambda_grid=grid)
        signs = [math.copysign(1.0, row.lam) for row in rep.bound_rows if row.lam == 0.0]
        modes = len(bound_modes("al_dolat"))
        assert signs == [math.copysign(1.0, lam) for lam in grid if lam == 0.0] * modes, grid


def _forged_report():
    # rows no catalog bound gives: signed zeros in one column, lam None, failures
    rep = run_suite(EnsembleConfig("jordan", 2, 2, 0), bounds=["kittaneh", "al_dolat"],
                    chains=["th4_elhaddad"], lambda_grid=(0.0, 1.0))
    rows = (BoundRow(0, "al_dolat", MODE_INEQUALITY, -0.0, 1.0, 1, 0.5, 2.0, -0.0, 0.0, -0.0,
                     False),
            BoundRow(0, "al_dolat", MODE_CERTIFICATE, 0.0, 1.0, 1, 0.5, 1.0, 0.0, -0.0, 0.0,
                     True),
            BoundRow(1, "kittaneh", MODE_CERTIFICATE, None, 1.0, 1, 0.5, 1.0, 0.5, 0.4, -0.1,
                     False))
    return replace(rep, bound_rows=rows, chain_rows=(ChainRow(0, "th4_elhaddad", False),),
                   tightness=(TightnessRow("al_dolat", MODE_INEQUALITY, 1, -0.0, 0.0),),
                   violations=3)


@pytest.mark.parametrize("make", [
    lambda: run_suite(EnsembleConfig("ginibre", 3, 4, 5), lambda_grid=(2.0, 0.01, 100.0, 0.5, 0.5)),
    lambda: run_suite(EnsembleConfig("jordan", 3, 4, 8), r=1.5, n=2, alpha=0.3),
    lambda: run_suite(EnsembleConfig("normal", 2, 5, 11), bounds=PRODUCT_BOUNDS + ("th3",)),
    _forged_report,
    lambda: run_suite(EnsembleConfig("gue", 3, 4, 5), bounds=["kittaneh", "op_norm"]),
    lambda: run_suite(EnsembleConfig("ginibre", 2, 1, 5)),
    lambda: run_suite(EnsembleConfig("nilpotent", 3, 4, 5), bounds=[]),
    lambda: run_suite(EnsembleConfig("jordan", 3, 4, 8), lambda_grid=(0.0, 1.0), chains=[],
                      bounds=["al_dolat", "kittaneh"]),
    lambda: _as_tuples(run_suite(EnsembleConfig("ginibre", 3, 3, 5), r=1.5, n=2)),
], ids=["duplicate-lambda", "r-n-alpha", "odd-trials-product", "forged", "lambda-free",
        "one-trial", "no-bounds", "lambda-zero", "rows-as-tuples"])
def test_bulk_serializers_match_generic_json(make):
    rep = make()
    request = {"bounds": list(rep.bounds), "chains": list(rep.chains),
               "lambda_grid": list(rep.lambda_grid), "r": rep.r, "n": rep.n,
               "alpha": rep.alpha}
    full = {"config": vars(rep.config), "request": request,
            "bound_rows": [dict(zip(CSV_HEADER, row)) for row in rep.bound_rows],
            "chain_rows": [row._asdict() for row in rep.chain_rows],
            "violations": rep.violations,
            "tightness": [row._asdict() for row in rep.tightness]}
    text = report_to_json(rep)
    assert text == jsonio.dumps(full) + "\n"
    # each CSV cell is its JSON token, quotes dropped and null read as empty
    tokens = json.loads(text, parse_float=str, parse_int=str)["bound_rows"]
    cells = {None: "", True: "true", False: "false"}
    expected = [list(CSV_HEADER)] + [[cells.get(v, v) for v in row.values()] for row in tokens]
    assert list(csv.reader(io.StringIO(report_to_csv(rep)))) == expected


def _as_tuples(rep):
    return replace(rep, bound_rows=tuple(rep.bound_rows), chain_rows=tuple(rep.chain_rows),
                   tightness=tuple(rep.tightness))


@pytest.mark.parametrize("make", [_forged_report, lambda: run_suite(
    EnsembleConfig("ginibre", 3, 3, 2), lambda_grid=(0.5, 2.0))], ids=["forged", "suite"])
@pytest.mark.parametrize("field, value", [("rhs", math.inf), ("slack", math.nan),
                                          ("rhs", -math.inf)])
def test_non_finite_cells_refused_by_both_serializers(make, field, value):
    rep = make()
    rows = list(rep.bound_rows)
    rows[-1] = rows[-1]._replace(**{field: value})
    forged = replace(rep, bound_rows=tuple(rows))
    for serialize in (report_to_json, report_to_csv):
        with pytest.raises(ValueError, match=f"^cannot render non-finite float {value}$"):
            serialize(forged)


@pytest.mark.parametrize("ensemble", ["ginibre", "jordan"])
def test_rows_read_as_their_tuples(ensemble):
    # the suite keeps its rows as columns; read, they are the row tuples
    rep = run_suite(EnsembleConfig(ensemble, 3, 5, 17), lambda_grid=(2.0, 0.5), r=1.5)
    built = tuple(BoundRow(*row.values()) for row in json.loads(report_to_json(rep))["bound_rows"])
    view = rep.bound_rows
    assert len(view) == len(built) and view[0] == built[0] and view[-1] == built[-1]
    assert list(view) == list(built) and view[1:3] == built[1:3]
    assert all(type(row) is BoundRow for row in view)
    assert view == tuple(view) == built and tuple(view) == view and built == view
    assert view == run_suite(EnsembleConfig(ensemble, 3, 5, 17), lambda_grid=(2.0, 0.5),
                             r=1.5).bound_rows
    assert view != built[:-1] and view != list(built)
    for rows, kind in ((rep.chain_rows, ChainRow), (rep.tightness, TightnessRow)):
        assert len(rows) == len(tuple(rows)) > 0 and rows[-1] == tuple(rows)[-1]
        assert all(type(row) is kind for row in rows) and rows == tuple(rows)
    assert hash(rep) == hash(_as_tuples(rep)) and _as_tuples(rep) == rep
    again = _as_tuples(rep)
    assert (report_to_json(again), report_to_csv(again)) == (report_to_json(rep),
                                                             report_to_csv(rep))


def test_a_repeated_float_is_kept_once_by_its_bits():
    # -0.0 == 0.0, but their text differs, so a column keeps both
    table, codes = suite._distinct(np.array([0.0, -0.0, 0.5, 0.0, -0.0, 0.5]))
    assert len(table) == 3 and codes[0] == codes[3] and codes[1] == codes[4]
    assert [jsonio.fmt_float(table[i]) for i in codes] == ["0", "-0", "0.5", "0", "-0", "0.5"]


def test_unknown_identifiers_rejected():
    cfg = EnsembleConfig("gue", 3, 1, 3)
    with pytest.raises(UnknownBoundError):
        run_suite(cfg, bounds=["nope"], chains=[])
    with pytest.raises(UnknownChainError):
        run_suite(cfg, bounds=[], chains=["nope"])


def test_repeated_names_refused():
    # each repeat would double its rows, and every violation would count twice
    cfg = EnsembleConfig("ginibre", 2, 2, 1)
    with pytest.raises(ValueError, match="^bound 'th3' is requested more than once$"):
        run_suite(cfg, bounds=["th3", "kittaneh", "th3"], chains=[])
    with pytest.raises(ValueError, match="^chain 'th2_dragomir' is requested more than once$"):
        run_suite(cfg, bounds=["th3"], chains=["th2_dragomir"] * 2)


def test_bool_params_refused():
    # a bool would be written as true in the request but as 1 in the rows
    with pytest.raises(ValueError, match="^r must be a number, not a bool$"):
        run_suite(EnsembleConfig("ginibre", 2, 2, 1), bounds=["el_haddad"], chains=[],
                  r=True, n=True)


def test_overflow_names_every_power_parameter():
    # r, not n, drives this overflow: the message names all three
    with pytest.raises(OverflowError,
                       match=r"^bound 'el_haddad' with r=1000\.0, n=1, alpha=0\.5: "):
        run_suite(EnsembleConfig("ginibre", 2, 2, 1), r=1e3)


def test_emit_report_rejects_unknown_format(tmp_path):
    cfg = EnsembleConfig("gue", 3, 1, 3)
    rep = run_suite(cfg, bounds=[], chains=[])
    with pytest.raises(ValueError, match="^unknown format 'xml'; use 'json' or 'csv'$"):
        emit_report(rep, "xml", tmp_path / "rep.xml")


@pytest.mark.parametrize("ensemble", ["ginibre", "jordan"])
def test_rows_match_single_evaluations(ensemble):
    # every row of the config-at-a-time suite is the k = 1 evaluation of its trial
    cfg = EnsembleConfig(ensemble, 4, 5, 31)
    grid, fixed = (100.0, 0.01, 1.0), {"r": 1.5, "n": 2, "alpha": 0.3}
    rep = run_suite(cfg, lambda_grid=grid, **fixed)
    mats = generate_ensemble(cfg)

    def partner(name, i):
        return mats[min(i + 1, cfg.trials - 1)] if name in PRODUCT_BOUNDS + PRODUCT_CHAINS else None

    def trials(name):
        return range(0, cfg.trials, 2) if partner(name, 0) is not None else range(cfg.trials)

    expected = [(i, b, res.mode, lam, res.exponent_p, res.w_power_value, res.rhs_value,
                 res.slack, res.holds)
                for b in ALL_BOUNDS for i in trials(b)
                for lam in (grid if uses_lambda(b) else (None,))
                for res in evaluate_bound(b, mats[i], partner(b, i),
                                          BoundParams(1.0 if lam is None else lam, **fixed))]
    expected.sort(key=lambda row: (row[0], row[1], -np.inf if row[3] is None else row[3], row[2]))
    assert [(row.trial, row.bound, row.mode, row.lam, row.exponent_p, row.w_power, row.rhs,
             row.slack, row.holds) for row in rep.bound_rows] == expected
    for row in rep.bound_rows:
        assert {type(x) for x in (row.exponent_p, row.w_power, row.rhs, row.slack)} == {float}
        assert type(row.holds) is bool and type(row.trial) is int
    chains = sorted((i, c, refinement_chain(mats[i], partner(c, i), c,
                                            BoundParams(1.0, **fixed)).holds)
                    for c in CHAIN_IDS for i in trials(c))
    assert [(row.trial, row.chain, row.holds) for row in rep.chain_rows] == chains
    assert all(type(row.holds) is bool for row in rep.chain_rows)
    for t in rep.tightness:  # a Python sum in row order, not numpy's pairwise one
        key = (t.bound, t.mode)
        rel = [row.rel_slack for row in rep.bound_rows if (row.bound, row.mode) == key]
        assert (t.rows, t.mean_rel_slack, t.min_rel_slack) == (len(rel), sum(rel) / len(rel),
                                                                min(rel))


@pytest.mark.parametrize("config", [
    pytest.param(EnsembleConfig("ginibre", 8, 10, 42), id="ginibre"),
    pytest.param(EnsembleConfig("jordan", 8, 10, 42), id="jordan"),  # one matrix, repeated
])
def test_a_config_takes_few_eigvalsh_batches(monkeypatch, config):
    # per config, not per row: one engine call over every input as named, the
    # norm sums included, so one batch per engine round (the row-at-a-time
    # suite made 456 here)
    calls, engine_calls = [], []
    eigvalsh, radius = np.linalg.eigvalsh, bounds.numerical_radius
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda h: calls.append(len(h)) or eigvalsh(h))
    monkeypatch.setattr(bounds, "numerical_radius", lambda m: engine_calls.append(m) or radius(m))
    rep = run_suite(config)
    assert rep.violations == 0 and len(rep.chain_rows) == 50
    assert len(calls) <= 40
    # per trial w, w2, 2 wc and 3 ns; per pair wp, wc and 2 ns
    assert len(engine_calls) == 1 and len(engine_calls[0]) == 7 * 10 + 4 * 5


def test_a_config_takes_one_svd(monkeypatch):
    # the pairs take rows of the trials' |T| family (each side of the pairs took one more)
    shapes, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a: shapes.append(a.shape) or svd(a))
    run_suite(EnsembleConfig("nilpotent", 3, 5, 7))
    assert shapes == [(5, 3, 3)]
