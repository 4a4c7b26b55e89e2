"""Seeded random two-qubit states for property tests and the oracle suite,
and the one checked Poisson draw of every count simulator."""

from __future__ import annotations

import numpy as np

from .errors import PoissonLimitError
from .states import repair_density_matrix

#: The largest Poisson mean numpy's generator accepts (its POISSON_LAM_MAX).
POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def poisson(means, seed: int, lower: str) -> np.ndarray:
    """``default_rng(seed).poisson(means)``; a mean above the limit is a PoissonLimitError."""
    means = np.asarray(means, dtype=float)
    largest = float(means.max(initial=0.0))
    if largest > POISSON_MEAN_MAX:
        limit = f"the Poisson limit {POISSON_MEAN_MAX:.6g}"
        raise PoissonLimitError(f"largest mean count {largest:.6g} is above {limit}", lower)
    return np.random.default_rng(seed).poisson(means)


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random 4-component state vector."""
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return v / np.linalg.norm(v)


def random_density_matrix(
    rng: np.random.Generator,
    perturbation: float = 0.2,
    pure_admixture: float | None = None,
) -> np.ndarray:
    """Random two-qubit mixture around the maximally mixed state.

    A Gaussian random Hermitian perturbation of I/4 is projected to the
    physical cone (eigenvalue clip + renormalize) and mixed with a
    random pure state; the admixture weight defaults to uniform in
    [0, 1), which covers near-pure and near-maximally-mixed corners.
    """
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (h + h.conj().T) / 2
    base = repair_density_matrix(np.eye(4, dtype=complex) / 4 + perturbation * h)
    psi = random_pure_state(rng)
    w = rng.uniform() if pure_admixture is None else pure_admixture
    return (1 - w) * base + w * np.outer(psi, psi.conj())
