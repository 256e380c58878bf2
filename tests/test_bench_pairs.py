"""`tools/bench_pairs.py`'s per-metric figures on hand-made pairs: no run is started."""

import importlib
import pathlib
import subprocess

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
REV = [100.0, 104.0, 96.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0]  # median 100, IQR 3.5


@pytest.fixture
def summary(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a subprocess was started")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.syspath_prepend(str(TOOLS))
    return importlib.import_module("bench_pairs").summary


def test_the_figures_of_a_higher_is_better_metric(summary):
    tree = [r + 6.0 for r in REV]
    row = summary(REV, tree, "higher", 0.25)
    assert row == {"rev": 100.0, "tree": 106.0, "iqr": 3.5, "won": 10, "pairs": 10,
                   "worse": -0.06, "inside": True, "gain": True}


def test_nine_wins_and_a_tie_are_a_gain(summary):
    tree = [r + 6.0 for r in REV[:9]] + [REV[9]]  # the last pair a tie
    row = summary(REV, tree, "higher", 0.25)
    assert (row["won"], row["gain"]) == (9, True)


def test_ties_count_for_neither_side(summary):
    tree = [r + 6.0 for r in REV[:8]] + REV[8:]  # two ties: 8 wins of 10
    row = summary(REV, tree, "higher", 0.25)
    assert (row["won"], row["gain"]) == (8, False)
    assert summary(REV, REV, "higher", 0.25)["won"] == 0


def test_nine_in_ten_rounds_up(summary):
    rev = REV + [100.0, 100.0]
    ten = [r + 6.0 for r in rev[:10]] + rev[10:]  # 10 of 12 is below 9 in 10
    eleven = [r + 6.0 for r in rev[:11]] + rev[11:]
    assert not summary(rev, ten, "higher", 0.25)["gain"]
    assert summary(rev, eleven, "higher", 0.25)["gain"]


def test_a_median_move_within_the_iqr_is_no_gain(summary):
    for step, gain in ((3.5, False), (4.0, True)):  # REV's IQR is 3.5: the move must exceed it
        row = summary(REV, [r + step for r in REV], "higher", 0.25)
        assert (row["won"], row["gain"]) == (10, gain)


def test_lower_is_better(summary):
    faster = summary(REV, [r - 6.0 for r in REV], "lower", 0.25)
    assert (faster["won"], faster["worse"], faster["gain"]) == (10, -0.06, True)
    slower = summary(REV, [r + 30.0 for r in REV], "lower", 0.25)
    assert (slower["won"], slower["worse"], slower["inside"], slower["gain"]) == (0, 0.3, False, False)


def test_a_worse_median_inside_and_outside_its_bound(summary):
    assert summary(REV, [r - 25.0 for r in REV], "higher", 0.25)["inside"]
    assert not summary(REV, [r - 26.0 for r in REV], "higher", 0.25)["inside"]
