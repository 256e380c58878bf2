"""Shared JSON formats: matrix/vector round trips and float rendering."""

import json

import numpy as np
import pytest

from numrad import jsonio


def test_matrix_round_trip_exact(tmp_path):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    jsonio.save_matrix(m, path)
    back = jsonio.load_matrix(path)
    assert np.array_equal(m, back)  # 17 significant digits round-trip doubles


def test_matrix_dict_schema():
    d = jsonio.matrix_to_dict(np.array([[0, 1], [0, 0]], dtype=complex))
    assert d["dim"] == 2
    assert d["entries"] == [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]


def test_vector_round_trip():
    v = np.array([1 + 2j, -0.25j, 3.0])
    assert np.array_equal(jsonio.vector_from_dict(jsonio.vector_to_dict(v)), v)


def test_entry_count_validation():
    with pytest.raises(ValueError):
        jsonio.matrix_from_dict({"dim": 2, "entries": [[1, 0]]})
    with pytest.raises(ValueError):
        jsonio.vector_from_dict({"dim": 0, "entries": []})
    # dim * dim has 6001 digits, past Python's int-to-text limit: the message formats neither
    with pytest.raises(ValueError, match=r"^matrix dim must be >= 1 and fit its 1 entries$"):
        jsonio.matrix_from_dict({"dim": 10**3000, "entries": [[1, 0]]})


PAIRS4 = [[1, 0], [0, 0], [0, 0], [1, 0]]
# dims that are not JSON integers, and entries that are not pairs of numbers
BAD_DIMS = [{"dim": 2.5, "entries": PAIRS4}, {"dim": 2.0, "entries": PAIRS4},
            {"dim": "2", "entries": PAIRS4}, {"dim": True, "entries": [[1, 0]]}]
BAD_ENTRIES = [{"dim": 1, "entries": [[1, 2, 3]]}, {"dim": 1, "entries": [[1]]},
               {"dim": 1, "entries": [["1", 0]]}, {"dim": 1, "entries": [[True, 0]]},
               {"dim": 1, "entries": ["ab"]}]


@pytest.mark.parametrize("obj", [[[0, 200000], [0, 0]], {"dim": 2}, {"entries": []}, 3,
                                 {"dim": 1, "entries": 5}, {"dim": 1, "entries": [7]},
                                 *BAD_DIMS, *BAD_ENTRIES, {"dim": 1, "entries": [[10**400, 0]]}])
def test_matrix_from_dict_rejects_other_json(obj):
    with pytest.raises(ValueError, match="expected a matrix object"):
        jsonio.matrix_from_dict(obj)


@pytest.mark.parametrize("obj", [[1, 2], "x", {"dim": 1, "entries": 5}, {"dim": 1},
                                 {"dim": 1, "entries": [7]}, None,
                                 {"dim": 2.5, "entries": PAIRS4[:2]},
                                 {"dim": 2.0, "entries": PAIRS4[:2]},
                                 {"dim": "2", "entries": PAIRS4[:2]},
                                 {"dim": True, "entries": [[1, 0]]}, *BAD_ENTRIES])
def test_vector_from_dict_rejects_other_json(obj):
    with pytest.raises(ValueError, match="expected a vector object"):
        jsonio.vector_from_dict(obj)


def test_fmt_float_17_digits():
    third = 1.0 / 3.0
    assert jsonio.fmt_float(third) == "0.33333333333333331"
    assert float(jsonio.fmt_float(third)) == third
    assert jsonio.fmt_float(0.5) == "0.5"


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
def test_fmt_float_rejects_non_finite(x):
    with pytest.raises(ValueError):
        jsonio.fmt_float(x)
    with pytest.raises(ValueError):
        jsonio.dumps({"a": x})


def test_dumps_is_valid_json_and_deterministic():
    obj = {"a": 1, "b": [0.1, True, None, "x"], "c": {"d": 1e-300}}
    text = jsonio.dumps(obj)
    assert json.loads(text) == obj
    assert text == jsonio.dumps(obj)


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonio.dumps({"x": object()})
