"""CLI subcommands, output formats and exit codes."""

import json

import numpy as np
import pytest

from numrad import cli, jsonio
from numrad.suite import CSV_HEADER, report_from_json

J = np.array([[0, 1], [0, 0]], dtype=complex)


@pytest.fixture
def jordan_file(tmp_path):
    path = tmp_path / "jordan.json"
    jsonio.save_matrix(J, path)
    return str(path)


def test_radius(jordan_file, capsys):
    code = cli.main(["radius", "--matrix", jordan_file])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["radius"] == pytest.approx(0.5, abs=1e-8)
    assert out["radius"] <= out["upper"] <= out["radius"] * (1 + out["tol"])


def test_radius_with_oracle(jordan_file, capsys):
    code = cli.main(["radius", "--matrix", jordan_file,
                     "--oracle-samples", "100", "--seed", "5"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["oracle"] <= out["radius"] + 1e-8
    assert out["oracle"] == pytest.approx(0.5, rel=1e-12)


def test_bound_single_mode(jordan_file, capsys):
    code = cli.main(["bound", "--matrix", jordan_file, "--bound", "kittaneh"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    (res,) = out["results"]
    assert res["rhs"] == pytest.approx(0.5)
    assert res["holds"] is True


def test_bound_result_keys_are_the_report_columns(jordan_file, capsys):
    assert cli.main(["bound", "--matrix", jordan_file, "--bound", "th2"]) == 0
    (res, _) = json.loads(capsys.readouterr().out)["results"]
    assert tuple(res) == CSV_HEADER[1:]


def test_bound_dual_modes_default(jordan_file, capsys):
    code = cli.main(["bound", "--matrix", jordan_file, "--bound", "th2", "--lambda", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["mode"] for r in out["results"]] == ["inequality-check", "explicit-certificate"]


def test_bound_mode_selection(jordan_file, capsys):
    code = cli.main(["bound", "--matrix", jordan_file, "--bound", "th5",
                     "--lambda", "1", "--mode", "certificate"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    (res,) = out["results"]
    assert res["mode"] == "explicit-certificate"


def test_bound_product_with_second_matrix(jordan_file, tmp_path, capsys):
    other = tmp_path / "eye.json"
    jsonio.save_matrix(np.eye(2), other)
    code = cli.main(["bound", "--matrix", jordan_file, "--matrix2", str(other),
                     "--bound", "dragomir"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["holds"] is True


def test_optimize(jordan_file, capsys):
    code = cli.main(["optimize", "--matrix", jordan_file, "--bound", "th4"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["infimum"] == pytest.approx(1.0 / 16.0, abs=1e-10)
    assert out["boundary"] == "lambda->0"
    assert out["lambda_star"] is None


def test_verify_writes_report_and_exits_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--ensemble", "gue", "--dim", "3", "--trials", "4",
                     "--seed", "7", "--out", str(out_path), "--format", "json"])
    assert code == 0
    rep = report_from_json(out_path.read_text())
    assert rep.violations == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_verify_byte_identical_reruns(tmp_path):
    args = ["verify", "--ensemble", "ginibre", "--dim", "3", "--trials", "4",
            "--seed", "123", "--format", "json"]
    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(path_a)]) == 0
    assert cli.main(args + ["--out", str(path_b)]) == 0
    assert path_a.read_bytes() == path_b.read_bytes()


def test_parser_is_reused_across_calls(tmp_path, capsys):
    # one parser serves every call of a process: a failed parse and the
    # defaults it hands out leave the next call's report as it was
    args = ["verify", "--ensemble", "normal", "--dim", "2", "--trials", "3", "--seed", "4",
            "--out", str(tmp_path / "report.json")]
    assert cli.main(args) == 0
    first = ((tmp_path / "report.json").read_bytes(), capsys.readouterr().out)
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--ensemble", "normal", "--lambda-grid", "1,x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.main(args) == 0
    assert ((tmp_path / "report.json").read_bytes(), capsys.readouterr().out) == first
    assert cli.build_parser() is cli.build_parser()


def test_verify_empty_lambda_grid_exits_two(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--ensemble", "gue", "--dim", "2", "--trials", "2",
                     "--seed", "0", "--lambda-grid", "", "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: empty lambda grid for bound ")
    assert not out_path.exists()


@pytest.mark.parametrize("grid, shown", [("nan", "nan"), ("inf", "inf"), ("-1", "-1.0")])
def test_verify_bad_grid_value_exits_two(tmp_path, capsys, grid, shown):
    # every grid value is checked, though no requested bound reads the grid
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--ensemble", "gue", "--dim", "2", "--trials", "2",
                     "--seed", "1", "--bounds", "kittaneh", "--chains", "",
                     "--lambda-grid", grid, "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == f"error: lam must be finite and >= 0, got {shown}\n"
    assert not out_path.exists()


def test_verify_subset_csv(tmp_path):
    out_path = tmp_path / "report.csv"
    code = cli.main(["verify", "--ensemble", "jordan", "--dim", "2", "--trials", "2",
                     "--seed", "0", "--bounds", "kittaneh,th4", "--chains",
                     "th4_elhaddad", "--lambda-grid", "0.5,2", "--out",
                     str(out_path), "--format", "csv"])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("trial,bound,mode,lambda")
    assert len(lines) == 1 + 2 * 3  # 2 trials x (kittaneh + th4 at 2 lambdas)


def test_verify_exit_one_on_violations(tmp_path, monkeypatch, capsys):
    import numrad.cli as cli_mod

    real_run_suite = cli_mod.run_suite

    def rigged(*args, **kwargs):
        rep = real_run_suite(*args, **kwargs)
        object.__setattr__(rep, "violations", 1)
        return rep

    monkeypatch.setattr(cli_mod, "run_suite", rigged)
    code = cli_mod.main(["verify", "--ensemble", "jordan", "--dim", "2", "--trials", "1",
                         "--seed", "0", "--bounds", "kittaneh", "--chains", "",
                         "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_missing_file_exits_two(capsys):
    code = cli.main(["radius", "--matrix", "/nonexistent/m.json"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_radius_zero_oracle_samples_exits_two(jordan_file, capsys):
    code = cli.main(["radius", "--matrix", jordan_file, "--oracle-samples", "0"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: samples must be ")


def test_radius_infinite_tol_exits_two(jordan_file, capsys):
    code = cli.main(["radius", "--matrix", jordan_file, "--tol", "inf"])
    assert code == 2
    assert capsys.readouterr().err == "error: tol must be finite and > 0, got inf\n"


def test_solver_failure_exits_two(tmp_path, monkeypatch, capsys):
    # exit 1 means violations found; a failed SVD is a refusal, as a bad argument is
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing)
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--ensemble", "ginibre", "--dim", "2", "--trials", "1",
                     "--seed", "0", "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: SVD failed: SVD did not converge\n"
    assert not out_path.exists()


def test_engine_eigensolver_failure_exits_two(jordan_file, monkeypatch, capsys):
    def failing(h):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    assert cli.main(["radius", "--matrix", jordan_file]) == 2
    assert capsys.readouterr().err == "error: eigensolver failed: Eigenvalues did not converge\n"


def test_verify_repeated_bound_exits_two(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(["verify", "--ensemble", "ginibre", "--dim", "2", "--trials", "2",
                     "--seed", "1", "--bounds", "th3,th3", "--out", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: bound 'th3' is requested more than once\n"
    assert not out_path.exists()


def test_radius_negative_seed_exits_two(jordan_file, capsys):
    code = cli.main(["radius", "--matrix", jordan_file, "--seed", "-1", "--oracle-samples", "4"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: seed must be ")


def test_unknown_bound_exits_two(jordan_file, capsys):
    code = cli.main(["bound", "--matrix", jordan_file, "--bound", "bogus"])
    assert code == 2


def test_bound_overflow_exits_two(tmp_path, capsys):
    path = tmp_path / "big.json"
    jsonio.save_matrix(1e6 * J, path)
    code = cli.main(["bound", "--matrix", str(path), "--bound", "th6", "--n", "15"])
    assert code == 2
    assert "th6" in capsys.readouterr().err


def test_bound_whose_every_engine_input_overflows_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.json"
    jsonio.save_matrix(1e200 * np.array([[0, 1], [1, 0]], dtype=complex), path)
    code = cli.main(["bound", "--matrix", str(path), "--bound", "dragomir"])
    assert code == 2
    assert capsys.readouterr().err == ("error: bound 'dragomir' with r=1.0, n=1, alpha=0.5: "
                                       "the right side or the w-power leaves the double range\n")


def test_optimize_has_no_closed_form_method(jordan_file, capsys):
    # "auto" reads the two end values; no second name runs the same code
    with pytest.raises(SystemExit) as exc:
        cli.main(["optimize", "--matrix", jordan_file, "--bound", "th4",
                  "--method", "closed-form"])
    assert exc.value.code == 2
    assert "invalid choice: 'closed-form'" in capsys.readouterr().err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--ensemble", "not-an-ensemble", "--dim", "3",
                  "--trials", "1", "--seed", "0", "--out", "x.json"])
    assert exc.value.code == 2


def test_malformed_matrix_file_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["radius", "--matrix", str(bad)]) == 2


def test_matrix_file_with_a_huge_dim_exits_two(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"dim": 1' + "0" * 3000 + ', "entries": [[1, 0]]}')
    assert cli.main(["radius", "--matrix", str(big)]) == 2
    assert capsys.readouterr().err == "error: matrix dim must be >= 1 and fit its 1 entries\n"


def test_matrix_file_not_an_object_exits_two(tmp_path, capsys):
    bad = tmp_path / "rows.json"
    bad.write_text("[[0, 200000], [0, 0]]")
    assert cli.main(["radius", "--matrix", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
