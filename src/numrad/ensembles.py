"""Seeded random-matrix ensembles.

Each trial draws from its own counter-based Philox stream keyed by the two
words (seed, trial index), so the matrix stream is bit-identical for a given
config no matter how trials are scheduled, and no two (seed, trial) pairs
share a stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .linalg import _integer

ENSEMBLES = ("ginibre", "gue", "nilpotent", "normal", "rank_one", "jordan")


@dataclass(frozen=True)
class EnsembleConfig:
    """dim >= 2, trials >= 1 and seed < 2^64 are Python or numpy integers (not
    a float or a bool), or InvalidConfigError."""

    ensemble: str
    dim: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.ensemble not in ENSEMBLES:
            raise InvalidConfigError(f"unknown ensemble {self.ensemble!r}; choose from {ENSEMBLES}")
        if not _integer(self.dim) or self.dim < 2:
            raise InvalidConfigError(f"dim must be an integer >= 2, got {self.dim}")
        if not _integer(self.trials) or self.trials < 1:
            raise InvalidConfigError(f"trials must be an integer >= 1, got {self.trials}")
        if not _integer(self.seed) or not 0 <= self.seed < 2**64:
            raise InvalidConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _ginibre(rng: np.random.Generator, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


def trial_matrix(config: EnsembleConfig, index: int) -> np.ndarray:
    """The ``index``-th matrix of the configured stream."""
    n = config.dim
    kind = config.ensemble
    if kind == "jordan":
        return np.eye(n, k=1, dtype=np.complex128)  # the shift matrix, every trial
    rng = _trial_rng(config.seed, index)
    if kind == "ginibre":
        return _ginibre(rng, n)
    if kind == "gue":
        g = _ginibre(rng, n)
        return (g + g.conj().T) / 2.0
    if kind == "nilpotent":
        return np.triu(_ginibre(rng, n), k=1)
    if kind == "normal":
        q, r = np.linalg.qr(_ginibre(rng, n))
        d = np.where(np.diagonal(r) == 0, 1.0, np.diagonal(r))
        u = q * (d / np.abs(d))[None, :]  # phase fix makes Q Haar-distributed
        eigs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        return (u * eigs) @ u.conj().T
    if kind == "rank_one":
        x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        return np.outer(x, y.conj())
    raise InvalidConfigError(kind)


def generate_ensemble(config: EnsembleConfig) -> list[np.ndarray]:
    """All ``config.trials`` matrices of the stream, in trial order."""
    return [trial_matrix(config, i) for i in range(config.trials)]
