"""Simulated 16-setting polarization tomography and state reconstruction.

Measurement settings are pairs of single-photon projectors drawn from
the standard polarization alphabet

    H = (1, 0)            V = (0, 1)
    D = (H + V)/sqrt(2)   A = (H - V)/sqrt(2)
    L = (H + iV)/sqrt(2)  R = (H - iV)/sqrt(2)

or a general elliptical projector ``E(Theta,Phi)`` with ket
cos(Theta/2)|H> + e^{i Phi} sin(Theta/2)|V> (Bloch angles, radians).

Reconstruction is offered two ways: linear inversion of the design matrix
(fast, but unphysical under noise) and the maximum-likelihood state of
James et al., PRA 64, 052312 (2001), over the factorization
rho = T T^dag / Tr(T T^dag), which is positive by construction.  The
unnormalized factor doubles as the joint flux estimate, so the Poisson
likelihood needs no separate normalization parameter, and neither method
reads the ``total_flux_estimate`` of the data: it is informational.

The likelihood is convex in M = T T^dag, and each mean count
mu_k = Tr(M P_k) is a quadratic form x^T Q_k x in the real parameters x
of T.  Every fit is one damped Newton solve with the exact Hessian over a
4 x r lower-trapezoidal T in the eigenbasis of a starting M, started at
the square roots of its r largest eigenvalues.  The first start is the
linear estimate rho_0 (repaired to be positive) at the data's own scale
M_0 = rho_0 sum_k n_k / sum_k Tr(rho_0 P_k), the likelihood-optimal flux
for that shape.  With exactly 16 settings a positive definite linear
estimate fits every count (mu_k = n_k) and is returned as soon as the
certificate below accepts it.  Otherwise the solve runs at r = 4 from M_0.
A result is accepted only if it passes the KKT certificate
lambda_min(sum_k (1 - n_k/mu_k) P_k) >= -tol: by convexity it is then the
global optimum.  An optimum on the rank boundary of the positive cone can
fail it at r = 4; the solve then runs at r = 1..4 from the r = 4 result,
and the first certified one is returned.  The per-settings tables
(projectors, design matrix, its rank and pseudo-inverse) are built once per
settings tuple and cached read-only.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import csvfile
from .errors import ConvergenceError, InputFormatError
from .states import PAULI_PAIRS, check_density_matrix, repair_density_matrix

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}

_ELLIPTICAL = re.compile(r"^E\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)$")


def projector_ket(label: str) -> np.ndarray:
    """Single-qubit ket for a projector label (H/V/D/A/L/R or E(Theta,Phi))."""
    if label in _KETS:
        return _KETS[label]
    match = _ELLIPTICAL.match(label)
    if match:
        theta, phi = float(match.group(1)), float(match.group(2))
        return np.array(
            [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex
        )
    raise ValueError(f"unknown projector label {label!r}")


@dataclass(frozen=True)
class TomoSetting:
    """One joint measurement: a rank-1 projector on each photon."""

    proj1: str
    proj2: str

    def pair_projector(self) -> np.ndarray:
        ket = np.kron(projector_ket(self.proj1), projector_ket(self.proj2))
        return np.outer(ket, ket.conj())


_STANDARD_ORDER = [
    ("H", "H"), ("H", "V"), ("V", "V"), ("V", "H"),
    ("R", "H"), ("R", "V"), ("D", "V"), ("D", "H"),
    ("D", "R"), ("D", "D"), ("R", "D"), ("H", "D"),
    ("V", "D"), ("V", "L"), ("H", "L"), ("R", "L"),
]


def standard_settings() -> list[TomoSetting]:
    """The standard informationally complete 16-projector set.

    The first four settings (HH, HV, VV, VH) form a complete basis whose
    summed counts estimate the per-setting flux.
    """
    return [TomoSetting(a, b) for a, b in _STANDARD_ORDER]


def _trapezoid_basis(rank: int) -> np.ndarray:
    """Real-coefficient basis of the 4 x rank lower-trapezoidal factors.

    The real diagonal comes first, then the real and imaginary parts below
    it, column by column: 8 rank - rank^2 elements, so a positive matrix of
    that rank has exactly one such factor with a positive diagonal.
    """
    slots = [(j, j, 1) for j in range(rank)]
    slots += [(i, j, c) for j in range(rank) for i in range(j + 1, 4) for c in (1, 1j)]
    basis = np.zeros((len(slots), 4, rank), dtype=complex)
    for k, (i, j, c) in enumerate(slots):
        basis[k, i, j] = c
    return basis


_TRAPEZOID_BASES = {rank: _trapezoid_basis(rank) for rank in range(1, 5)}


def _quadratic_forms(projectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Q[k] with Tr(A A^dag P_k) = x^T Q[k] x for the factor A = sum_j x_j basis[j].

    Q[k, i, j] = Re sum_{a,b} basis[i, a, b] (P_k^T conj(basis[j]))[a, b]: one
    matmul maps every conjugated basis factor through every P_k^T, a second
    contracts the result with the flattened basis.
    """
    n, _, rank = basis.shape
    k = len(projectors)
    columns = basis.conj().transpose(1, 0, 2).reshape(4, n * rank)  # [c, (j, b)]
    mapped = (projectors.transpose(0, 2, 1) @ columns).reshape(k, 4, n, rank)  # [k, a, j, b]
    mapped = mapped.transpose(0, 2, 1, 3).reshape(k, n, 4 * rank)  # [k, j, (a, b)]
    return (basis.reshape(n, 4 * rank) @ mapped.transpose(0, 2, 1)).real


@dataclass(frozen=True)
class _SettingsTable:
    """Everything reconstruction needs from a settings list; arrays are read-only."""

    projectors: np.ndarray  # (K, 4, 4)
    design: np.ndarray  # (K, 16), see design_matrix
    rank: int  # of the design matrix
    inverse: np.ndarray  # (16, K) pseudo-inverse of the design: least squares when K > 16


@functools.lru_cache(maxsize=64)
def _table_for_labels(labels: tuple[tuple[str, str], ...]) -> _SettingsTable:
    projectors = np.array([TomoSetting(a, b).pair_projector() for a, b in labels])
    projectors = projectors.reshape(len(labels), 4, 4)
    design = 0.25 * np.einsum("kab,jba->kj", projectors, PAULI_PAIRS).real
    rank = int(np.linalg.matrix_rank(design))
    table = _SettingsTable(projectors, design, rank, np.linalg.pinv(design))
    for array in (table.projectors, table.design, table.inverse):
        array.setflags(write=False)
    return table


def _settings_table(settings: list[TomoSetting]) -> _SettingsTable:
    return _table_for_labels(tuple((s.proj1, s.proj2) for s in settings))


def design_matrix(settings: list[TomoSetting]) -> np.ndarray:
    """Real matrix mapping two-qubit Pauli components to setting probabilities.

    Row k is Tr(P_k sigma_i x sigma_j)/4 over the 16 Pauli pairs; full
    column rank 16 means the settings are informationally complete.  The
    array is cached per settings tuple and read-only.
    """
    return _settings_table(settings).design


def design_condition_number(settings: list[TomoSetting]) -> float:
    return float(np.linalg.cond(design_matrix(settings)))


@dataclass
class TomoData:
    """Counts of one tomography run.

    ``total_flux_estimate`` is the recorded incident flux per setting (0 for
    unknown); it is informational, and no reconstruction reads it.
    """

    settings: list[TomoSetting]
    counts: np.ndarray
    total_flux_estimate: float

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=float)
        if len(self.settings) != len(self.counts):
            raise ValueError("settings and counts must have the same length")
        if not np.all(np.isfinite(self.counts)):
            raise InputFormatError("counts must be finite")
        if np.any(self.counts < 0):
            raise ValueError("counts must be nonnegative")


def expected_probabilities(rho: np.ndarray, settings: list[TomoSetting]) -> np.ndarray:
    """Tr(rho P_k) for every setting, against the cached pair projectors."""
    return np.einsum("kab,ba->k", _settings_table(settings).projectors, rho).real


def simulate_tomography(
    rho: np.ndarray,
    counts_per_setting: int,
    seed: int,
    settings: list[TomoSetting] | None = None,
) -> TomoData:
    """Poisson counts with mean counts_per_setting * Tr(rho P1 x P2).

    counts_per_setting is the incident pair flux per setting and is
    recorded as the total_flux_estimate of the data.  The measured
    counts average about a quarter of it over the standard settings
    (rank-1 projectors transmit 1/4 of the flux on average), so target
    a per-setting count level N by passing 4 N here.
    """
    if counts_per_setting <= 0:
        raise ValueError("counts_per_setting must be positive")
    rho = check_density_matrix(rho)
    if settings is None:
        settings = standard_settings()
    probs = np.clip(expected_probabilities(rho, settings), 0.0, None)
    rng = np.random.default_rng(seed)
    counts = rng.poisson(counts_per_setting * probs)
    return TomoData(settings, counts, float(counts_per_setting))


def exact_tomography_counts(
    rho: np.ndarray, counts_per_setting: float, settings: list[TomoSetting] | None = None
) -> TomoData:
    """Noise-free expected counts (real-valued), for inversion identities."""
    rho = check_density_matrix(rho)
    if settings is None:
        settings = standard_settings()
    probs = expected_probabilities(rho, settings)
    return TomoData(settings, counts_per_setting * probs, float(counts_per_setting))


_RANK_DEFICIENT = "design matrix is rank deficient; settings are not complete"


def linear_reconstruct(data: TomoData) -> np.ndarray:
    """Linear inversion of the design matrix.

    Returns a Hermitian, unit-trace matrix that reproduces the measured
    frequencies exactly (in the least-squares sense for more than 16
    settings); under Poisson noise it may have negative eigenvalues (check
    before treating it as a state).  The flux cancels in the trace
    normalization, so ``total_flux_estimate`` is not read.
    """
    table = _settings_table(data.settings)
    if table.rank < 16:
        raise ValueError(_RANK_DEFICIENT)
    rho = ((table.inverse @ data.counts) @ PAULI_PAIRS.reshape(16, 16)).reshape(4, 4) / 4
    rho = (rho + rho.conj().T) / 2
    trace = np.trace(rho).real
    if trace <= 0:
        raise ValueError(f"linear inversion produced trace {trace:.3e}")
    return rho / trace


_FULL_RANK_STEPS = 30  # Newton steps at rank 4 before the rank-boundary finish
_BOUNDARY_STEPS = 50  # Newton steps per rank of the finish
_DECREMENT_TOL = 1e-10  # Newton decrement g^T H^-1 g, in log-likelihood units
_KKT_TOL = 1e-8  # allowed negative eigenvalue of the likelihood gradient


def _gram(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    factor = (x @ basis.reshape(len(basis), -1)).reshape(4, -1)
    return factor @ factor.conj().T


def _deviance(x: np.ndarray, flat: np.ndarray, counts: np.ndarray, pos: np.ndarray) -> float:
    """Poisson deviance sum_k mu_k - n_k - n_k log(mu_k / n_k), flat = Q.reshape(K, n^2).

    This is the negative log-likelihood up to a constant, measured from the
    exact fit so that its rounding stays far below the Newton tolerance.
    """
    mu = flat @ np.outer(x, x).ravel()
    if np.any(mu[pos] <= 0):
        return math.inf
    return float(np.sum(mu - counts) - counts[pos] @ np.log(mu[pos] / counts[pos]))


def _newton(
    x: np.ndarray, quad: np.ndarray, counts: np.ndarray, max_steps: int
) -> tuple[np.ndarray, bool]:
    """Damped (Levenberg-Marquardt) Newton on the deviance of mu_k = x^T Q_k x.

    The Hessian is exact: 2 sum_k (1 - n_k/mu_k) Q_k + J^T diag(n/mu^2) J
    with J_k = 2 Q_k x.  Converged means a positive definite Hessian and a
    Newton decrement below _DECREMENT_TOL; the last Newton step is then
    taken unless it leaves the domain (a zero mean where counts are seen).
    Below that tolerance its gain is at the rounding level of the deviance,
    so it is not tested for descent.  The damping grows tenfold on a
    rejected step and halves on an accepted one.
    """
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
        if evals[0] > 0 and g @ (g / evals) <= _DECREMENT_TOL:
            final = x - evecs @ (g / evals)
            return (x if _deviance(final, flat, counts, pos) == math.inf else final), True
        scale = np.abs(evals).max()
        # the smallest shift that makes the damped Hessian positive definite
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


def _kkt_certified(m: np.ndarray, projectors: np.ndarray, counts: np.ndarray) -> bool:
    """Whether the likelihood gradient G = sum_k (1 - n_k/mu_k) P_k at m is >= 0.

    At a stationary point of a factor of m (G m = 0), G >= 0 (within
    _KKT_TOL) is the KKT condition of the convex problem over m >= 0, so m
    is the global optimum.
    """
    flat = projectors.reshape(len(projectors), 16)
    mu = (flat @ m.T.ravel()).real
    weights = 1 - np.divide(counts, mu, out=np.zeros_like(mu), where=counts > 0)
    gradient = (weights @ flat).reshape(4, 4)
    return bool(np.linalg.eigvalsh(gradient)[0] >= -_KKT_TOL)


def _factor_solve(
    m: np.ndarray, projectors: np.ndarray, counts: np.ndarray, rank: int, steps: int
) -> tuple[np.ndarray, bool]:
    """Newton on a 4 x rank factor spanned by the top-rank eigenvectors of m.

    In the eigenbasis the lower-trapezoidal factor starts at the square roots
    of the rank largest eigenvalues, far from the degenerate zero pivots that
    stall a fixed-basis factor near a rank-deficient optimum.  Returns the
    Gram matrix of the result and whether it passed the KKT certificate.
    """
    eigs, vecs = np.linalg.eigh(m)
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    basis = vecs @ _TRAPEZOID_BASES[rank]
    x = np.zeros(len(basis))
    x[:rank] = np.sqrt(np.maximum(eigs[:rank], 1e-9 * eigs[0]))
    x, converged = _newton(x, _quadratic_forms(projectors, basis), counts, steps)
    m_rank = _gram(x, basis)
    return m_rank, converged and _kkt_certified(m_rank, projectors, counts)


def ml_reconstruct(data: TomoData, seed: int = 0) -> np.ndarray:
    """Maximum-likelihood density matrix for a tomography data set.

    Minimizes the Poisson negative log-likelihood sum_k mu_k - n_k log mu_k,
    mu_k = Tr(T T^dag P_k) (T a 4 x r lower-trapezoidal factor in an
    eigenbasis; its trace is the joint flux estimate), by one damped Newton
    solve at rank 4 from the positivity-repaired linear estimate at the
    data's own flux scale, then, when that is not certified, at ranks 1..4
    from its result (see the module docstring).
    With exactly 16 settings a positive definite linear estimate fits every
    count and is returned once certified.
    The solve is deterministic and reads neither ``seed`` (accepted for
    compatibility) nor ``total_flux_estimate``.  The result always satisfies
    every density-matrix invariant.

    Raises ValueError for informationally incomplete settings or all-zero
    counts, and ConvergenceError when no rank passes the KKT certificate.
    """
    table = _settings_table(data.settings)
    if table.rank < 16:
        raise ValueError(_RANK_DEFICIENT)
    counts = data.counts
    if not counts.any():
        raise ValueError("all counts are zero; there is no likelihood to maximize")
    try:
        rho_init = linear_reconstruct(data)
    except ValueError:
        # complete settings whose linear estimate has trace <= 0
        rho_init = np.eye(4, dtype=complex) / 4
    positive = np.linalg.eigvalsh(rho_init)[0] > 0
    if not positive:
        rho_init = repair_density_matrix(rho_init)
    # the likelihood-optimal flux for this shape: sum_k mu_k = sum_k n_k
    flux = counts.sum() / np.einsum("kab,ba->", table.projectors, rho_init).real
    # a square design fits every count (mu_k = n_k), so a positive estimate is the optimum
    exact_fit = positive and len(counts) == 16
    if exact_fit and _kkt_certified(flux * rho_init, table.projectors, counts):
        return rho_init
    full, certified = _factor_solve(flux * rho_init, table.projectors, counts, 4, _FULL_RANK_STEPS)
    m = full
    for rank in range(1, 5):  # not certified at rank 4: the rank-boundary finish from full
        if certified:
            break
        m, certified = _factor_solve(full, table.projectors, counts, rank, _BOUNDARY_STEPS)
    if not certified:
        raise ConvergenceError("no rank of the likelihood optimum passed the KKT certificate")
    rho = (m + m.conj().T) / 2
    return rho / np.trace(rho).real


def _sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(rho)
    eigs = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(eigs)) @ vecs.conj().T


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2, in [0, 1]."""
    rho1 = check_density_matrix(rho1)
    rho2 = check_density_matrix(rho2)
    sq = _sqrtm_psd(rho1)
    inner = sq @ rho2 @ sq
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sum(np.sqrt(eigs)) ** 2)
    return min(1.0, max(0.0, value))


_TOMO_HEADER = ["setting_index", "proj1", "proj2", "counts"]


def tomo_data_to_csv(data: TomoData, path) -> None:
    """Write ``setting_index,proj1,proj2,counts`` rows."""
    rows = [
        (i, setting.proj1, setting.proj2, int(n) if float(n).is_integer() else float(n))
        for i, (setting, n) in enumerate(zip(data.settings, data.counts))
    ]
    comments = {"total_flux_estimate": data.total_flux_estimate}
    csvfile.write(path, _TOMO_HEADER, rows, comments, digits=17)


def tomo_data_from_csv(path) -> TomoData:
    """Parse a tomography CSV; raises InputFormatError with line numbers.

    ``setting_index`` must be the 0-based position of the row among the rows.
    """
    comments, rows = csvfile.read(path, _TOMO_HEADER, {"total_flux_estimate": 0.0})
    settings = []
    counts = []
    for position, (where, (index, proj1, proj2, n)) in enumerate(rows):
        if index != str(position):
            raise InputFormatError(f"{where}: setting_index must be {position}, got {index!r}")
        counts.append(csvfile.count(where, n))
        try:
            projector_ket(proj1)
            projector_ket(proj2)
        except ValueError as exc:
            raise InputFormatError(f"{where}: {exc}")
        settings.append(TomoSetting(proj1, proj2))
    return TomoData(settings, np.array(counts), comments["total_flux_estimate"])
