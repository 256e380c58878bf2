"""Suite runner and report emission."""

import csv
import io
from dataclasses import replace

import pytest

from numrad import ENSEMBLES, EnsembleConfig, emit_report, run_suite
from numrad.bounds import MODE_CERTIFICATE
from numrad.errors import UnknownBoundError, UnknownChainError
from numrad.suite import (
    CSV_HEADER,
    BoundRow,
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


def test_unknown_identifiers_rejected():
    cfg = EnsembleConfig("gue", 3, 1, 3)
    with pytest.raises(UnknownBoundError):
        run_suite(cfg, bounds=["nope"], chains=[])
    with pytest.raises(UnknownChainError):
        run_suite(cfg, bounds=[], chains=["nope"])


def test_emit_report_rejects_unknown_format(tmp_path):
    cfg = EnsembleConfig("gue", 3, 1, 3)
    rep = run_suite(cfg, bounds=[], chains=[])
    with pytest.raises(ValueError):
        emit_report(rep, "xml", tmp_path / "rep.xml")
