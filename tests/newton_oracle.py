"""The maximum-likelihood solver that ``tomography.ml_reconstruct`` replaced: the oracle
of its fast path.

The same damped Newton over the same factors, ranks and certificate, with
every step taken in the eigenbasis of the Hessian, the quadratic forms
built by two matmuls over the rotated trapezoid basis, the deviance formed
from the outer product of x, and the start decomposed three times (the
positivity test, the repair and the start basis).  ``_newton`` is looked
up at call time, so a test can wrap it as it wraps ``tomography._newton``.
"""

import math

import numpy as np

from ering import tomography
from ering.errors import ConvergenceError
from ering.states import repair_density_matrix


def quadratic_forms(projectors, basis):
    n, _, rank = basis.shape
    k = len(projectors)
    columns = basis.conj().transpose(1, 0, 2).reshape(4, n * rank)  # [c, (j, b)]
    mapped = (projectors.transpose(0, 2, 1) @ columns).reshape(k, 4, n, rank)  # [k, a, j, b]
    mapped = mapped.transpose(0, 2, 1, 3).reshape(k, n, 4 * rank)  # [k, j, (a, b)]
    return (basis.reshape(n, 4 * rank) @ mapped.transpose(0, 2, 1)).real


def _gram(x, basis):
    factor = (x @ basis.reshape(len(basis), -1)).reshape(4, -1)
    return factor @ factor.conj().T


def _deviance(x, flat, counts, pos):
    mu = flat @ np.outer(x, x).ravel()
    if np.any(mu[pos] <= 0):
        return math.inf
    return float(np.sum(mu - counts) - counts[pos] @ np.log(mu[pos] / counts[pos]))


def _newton(x, quad, counts, max_steps):
    pos = counts > 0
    n = len(x)
    flat = quad.reshape(len(quad), n * n)
    f = _deviance(x, flat, counts, pos)
    damping = 0.0
    for _ in range(max_steps):
        qx = quad @ x
        mu = qx @ x
        ratio = np.divide(counts, mu, out=np.zeros_like(mu), where=pos)
        curvature = np.divide(ratio, mu, out=np.zeros_like(mu), where=pos)
        grad = 2 * (1 - ratio) @ qx
        hess = 2 * ((1 - ratio) @ flat).reshape(n, n) + 4 * qx.T @ (curvature[:, None] * qx)
        evals, evecs = np.linalg.eigh(hess)
        g = evecs.T @ grad
        if evals[0] > 0 and g @ (g / evals) <= tomography._DECREMENT_TOL:
            final = x - evecs @ (g / evals)
            return (x if _deviance(final, flat, counts, pos) == math.inf else final), True
        scale = np.abs(evals).max()
        shift = max(0.0, -evals[0]) + 1e-12 * scale
        while True:
            step = -evecs @ (g / (evals + shift + damping * scale))
            f_new = _deviance(x + step, flat, counts, pos)
            if f_new <= f:
                break
            damping = max(10 * damping, 1e-6)
            if damping > 1e12:
                return x, False
        x, f = x + step, f_new
        damping /= 2
    return x, False


def _factor_solve(m, projectors, counts, rank, steps):
    eigs, vecs = np.linalg.eigh(m)
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    basis = vecs @ tomography._TRAPEZOID_BASES[rank]
    x = np.zeros(len(basis))
    x[:rank] = np.sqrt(np.maximum(eigs[:rank], 1e-9 * eigs[0]))
    x, converged = _newton(x, quadratic_forms(projectors, basis), counts, steps)
    m_rank = _gram(x, basis)
    return m_rank, converged and tomography._kkt_certified(m_rank, projectors, counts)


def ml_reconstruct(data):
    """The certified ML state of ``data``; raises ConvergenceError when no rank certifies."""
    projectors = tomography._settings_table(data.settings).projectors
    counts = data.counts
    try:
        rho_init = tomography.linear_reconstruct(data)
    except ValueError:
        rho_init = np.eye(4, dtype=complex) / 4
    positive = np.linalg.eigvalsh(rho_init)[0] > 0
    if not positive:
        rho_init = repair_density_matrix(rho_init)
    flux = counts.sum() / np.einsum("kab,ba->", projectors, rho_init).real
    exact_fit = positive and len(counts) == 16
    if exact_fit and tomography._kkt_certified(flux * rho_init, projectors, counts):
        return rho_init
    full, certified = _factor_solve(
        flux * rho_init, projectors, counts, 4, tomography._FULL_RANK_STEPS
    )
    m = full
    for rank in range(1, 5):
        if certified:
            break
        m, certified = _factor_solve(full, projectors, counts, rank, tomography._BOUNDARY_STEPS)
    if not certified:
        raise ConvergenceError("no rank of the likelihood optimum passed the KKT certificate")
    rho = (m + m.conj().T) / 2
    return rho / np.trace(rho).real
