"""Ensemble generator: structure per kind, determinism, config validation."""

import numpy as np
import pytest

from numrad import EnsembleConfig, InvalidConfigError, generate_ensemble


def test_jordan_is_the_shift_matrix():
    mats = generate_ensemble(EnsembleConfig("jordan", 2, 3, 123))
    expected = np.array([[0, 1], [0, 0]], dtype=complex)
    for m in mats:
        assert np.array_equal(m, expected)


def test_gue_hermitian_by_construction():
    mats = generate_ensemble(EnsembleConfig("gue", 4, 2, 42))
    for m in mats:
        assert np.linalg.norm(m - m.conj().T) <= 1e-15 * np.linalg.norm(m)


def test_nilpotent_strictly_upper_triangular():
    (m,) = generate_ensemble(EnsembleConfig("nilpotent", 5, 1, 7))
    assert np.allclose(np.tril(m), 0)
    assert np.any(m)


def test_normal_commutes_with_adjoint():
    (m,) = generate_ensemble(EnsembleConfig("normal", 4, 1, 9))
    comm = m @ m.conj().T - m.conj().T @ m
    assert np.linalg.norm(comm) <= 1e-12 * max(1.0, np.linalg.norm(m) ** 2)


def test_rank_one_has_single_singular_value():
    (m,) = generate_ensemble(EnsembleConfig("rank_one", 5, 1, 11))
    sv = np.linalg.svd(m, compute_uv=False)
    assert sv[0] > 0
    assert np.all(sv[1:] <= 1e-12 * sv[0])


def test_ginibre_entry_scale():
    mats = generate_ensemble(EnsembleConfig("ginibre", 8, 50, 1))
    second_moment = np.mean([np.mean(np.abs(m) ** 2) for m in mats])
    assert 0.8 < second_moment < 1.2  # standard complex Gaussian: E|z|^2 = 1


def test_identical_config_identical_stream():
    cfg = EnsembleConfig("ginibre", 3, 5, 31337)
    a = generate_ensemble(cfg)
    b = generate_ensemble(EnsembleConfig("ginibre", 3, 5, 31337))
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_trials_are_distinct_and_seed_sensitive():
    a, b = generate_ensemble(EnsembleConfig("ginibre", 3, 2, 1))
    assert not np.array_equal(a, b)
    (c,) = generate_ensemble(EnsembleConfig("ginibre", 3, 1, 2))
    assert not np.array_equal(a, c)


def test_neighbouring_seeds_share_no_matrix():
    # a key of seed XOR trial would give (42, t) and (43, t ^ 1) one stream
    a = generate_ensemble(EnsembleConfig("ginibre", 3, 50, 42))
    b = generate_ensemble(EnsembleConfig("ginibre", 3, 50, 43))
    assert not any(np.array_equal(x, y) for x in a for y in b)


def test_trial_order_irrelevant_to_content():
    # counter-based per-trial streams: trial k is the same matrix no matter
    # how many trials the config requests
    long = generate_ensemble(EnsembleConfig("gue", 4, 6, 99))
    short = generate_ensemble(EnsembleConfig("gue", 4, 3, 99))
    for x, y in zip(short, long):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("kwargs", [
    {"ensemble": "poisson", "dim": 3, "trials": 1, "seed": 0},
    {"ensemble": "gue", "dim": 1, "trials": 1, "seed": 0},
    {"ensemble": "gue", "dim": 3, "trials": 0, "seed": 0},
    {"ensemble": "gue", "dim": 3, "trials": 1, "seed": -1},
    {"ensemble": "gue", "dim": 3, "trials": 1, "seed": 2**64},
    {"ensemble": "ginibre", "dim": 2.0, "trials": 1, "seed": 0},
    {"ensemble": "ginibre", "dim": 2, "trials": 2.0, "seed": 0},
    {"ensemble": "ginibre", "dim": 2, "trials": 1, "seed": 1.0},
    {"ensemble": "ginibre", "dim": 2, "trials": True, "seed": 0},
    {"ensemble": "ginibre", "dim": "2", "trials": 1, "seed": 0},
    {"ensemble": "ginibre", "dim": None, "trials": 1, "seed": 0},
])
def test_invalid_configs(kwargs):
    with pytest.raises(InvalidConfigError):
        EnsembleConfig(**kwargs)


def test_numpy_integer_sizes_accepted():
    cfg = EnsembleConfig("gue", np.int64(3), np.int32(2), np.uint64(2**64 - 1))
    assert [m.shape for m in generate_ensemble(cfg)] == [(3, 3), (3, 3)]
