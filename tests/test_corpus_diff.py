"""`tools/corpus_diff.py` on hand-written corpora: its exit codes."""

import importlib
import json
import pathlib
import shutil

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"

REPORT = {
    "config": {"ensemble": "ginibre", "dim": 2, "trials": 1, "seed": 1},
    "bound_rows": [
        {"trial": 0, "bound": "th2", "mode": "inequality-check", "lambda": 0.5,
         "w_power": 1.25, "rhs": 2.5, "slack": 1.25, "holds": True},
        {"trial": 0, "bound": "th2", "mode": "inequality-check", "lambda": 0.5,  # a repeated lambda
         "w_power": 1.25, "rhs": 3.0, "slack": 1.75, "holds": True},
    ],
    "chain_rows": [{"trial": 0, "chain": "th2_dragomir", "holds": True}],
    "violations": 0,
    "tightness": [{"bound": "th2", "mode": "inequality-check", "rows": 2,
                   "mean_rel_slack": 0.5, "min_rel_slack": 0.5}],
}
CSV = ("trial,bound,mode,lambda,w_power,rhs,slack,holds\n"
       "0,th2,inequality-check,0.5,1.25,2.5,1.25,true\n")
RUNS = ("r json 0 0 violation(s) in 2 bound rows and 1 chain rows -> r.json | \n"
        'radius_m 0 {"radius":0.5,"upper":0.5,"tol":1e-10} | \n'
        "bad 2  | error: empty lambda grid\n")


@pytest.fixture
def corpus_diff(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("corpus_diff")


@pytest.fixture
def explain(corpus_diff, capsys):
    def run(rev, tree):
        code = corpus_diff.explain(str(rev), str(tree))
        return code, capsys.readouterr().out

    return run


def write(root, report=REPORT, csv=CSV, runs=RUNS):
    root.mkdir()
    (root / "r.json").write_text(json.dumps(report), encoding="utf-8")
    (root / "r.csv").write_text(csv, encoding="utf-8")
    (root / "runs.txt").write_text(runs, encoding="utf-8")
    return root


def test_identical_corpora_exit_zero(explain, tmp_path):
    rev = write(tmp_path / "rev")
    shutil.copytree(rev, tmp_path / "tree")
    code, out = explain(rev, tmp_path / "tree")
    assert code == 0
    assert "0 verdict changes" in out and "moved" not in out


def test_one_moved_float_exits_one(explain, tmp_path):
    moved = json.loads(json.dumps(REPORT))
    moved["bound_rows"][1]["rhs"] = 3.0000000000000004  # one ulp
    code, out = explain(write(tmp_path / "rev"), write(tmp_path / "tree", moved))
    assert code == 1
    assert "r.json bound_rows.rhs: 1 of 2 rows moved, largest 1 ulps, 1.5e-16 relative" in out
    assert "0 verdict changes" in out


def test_a_slack_moves_on_the_scale_of_its_row(explain, tmp_path):
    # a tight row: rhs falls two ulps, from one above w_power = 1.25 to one
    # below, so the slack rhs - w_power changes sign; on max(|rhs|, |w_power|)
    # that is a move of about 3.6e-16, where the slack's own size reads 2
    ulp = 2.0 ** -52
    sides = {}
    for side, rhs in (("rev", 1.25 + ulp), ("tree", 1.25 - ulp)):
        report = json.loads(json.dumps(REPORT))
        report["bound_rows"][0].update(rhs=rhs, slack=rhs - 1.25)
        report["tightness"][0]["min_rel_slack"] = (rhs - 1.25) / rhs
        csv = CSV.replace("2.5,1.25", f"{rhs!r},{rhs - 1.25!r}")
        sides[side] = write(tmp_path / side, report, csv)
    code, out = explain(sides["rev"], sides["tree"])
    assert code == 1
    relative = {line.split(": ")[0]: float(line.split(", ")[-2].split()[0])
                for line in out.splitlines() if "rows moved" in line}
    move = 2 * ulp / (1.25 + ulp)  # printed to two digits
    for column in ("r.json bound_rows.rhs", "r.json bound_rows.slack", "r.csv bound_rows.slack",
                   "whole corpus bound_rows.slack"):
        assert relative[column] == pytest.approx(move, rel=0.05, abs=0)
    # a rel_slack is already on that scale: its move is absolute
    assert relative["r.json tightness.min_rel_slack"] == pytest.approx(
        ulp / (1.25 + ulp) + ulp / 1.25, rel=0.05, abs=0)
    assert "0 verdict changes" in out


def test_one_flipped_holds_exits_three(explain, tmp_path):
    flipped = json.loads(json.dumps(REPORT))
    flipped["chain_rows"][0]["holds"] = False
    code, out = explain(write(tmp_path / "rev"), write(tmp_path / "tree", flipped))
    assert code == 3
    assert ("1 verdict changes\n"
            "  r.json chain_rows.holds ((0, 'th2_dragomir', 0),): true -> false") in out


def test_run_lines_are_matched_by_name(explain, tmp_path):
    runs = RUNS.replace('"radius":0.5', '"radius":0.25').replace("0 0 violation", "0 1 violation")
    code, out = explain(write(tmp_path / "rev"), write(tmp_path / "tree", runs=runs))
    assert code == 3
    assert "runs.txt radius: 1 of 1 rows moved" in out
    assert "runs.txt stdout ('r json',): \"0 violation(s)" in out


def test_usage_exits_two(corpus_diff, capsys):
    assert corpus_diff.main([]) == 2
    assert corpus_diff.main(["HEAD", "--explain"]) == 2
    assert "corpus_diff.py REV" in capsys.readouterr().err
