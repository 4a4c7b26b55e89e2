"""Simulated 16-setting polarization tomography and state reconstruction.

Measurement settings are pairs of single-photon projectors, each held as
its Bloch 4-vector b = (1, n): the letters H, V = (1, +-z), D, A = (1, +-x)
(H +- V over sqrt(2)) and L, R = (1, +-y) (H +- iV over sqrt(2)) exactly, and
``E(Theta,Phi)``, the projector onto cos(Theta/2)|H> + e^{i Phi} sin(Theta/2)|V>
(finite angles, radians), as ``states.bloch_vector(Theta, Phi)``.  Settings compile
into ``(3 K, 16)`` rows of ``states.measurement_rows``, as a Bell plan does; the
design matrix is their joint block: Tr(rho P_k) = design_k . r for the Pauli vector
r of rho and P_k = sum_i design_ki sigma_i.  The noise-free means are the rate model
``optics.mean_counts`` of ``optics.IDEAL_SOURCE`` over counts_per_setting seconds.

Reconstruction is offered two ways: linear inversion of the design matrix
(fast, but unphysical under noise) and the maximum-likelihood state of
James et al., PRA 64, 052312 (2001), over the factorization
rho = T T^dag / Tr(T T^dag), which is positive by construction.  The
unnormalized factor doubles as the joint flux estimate, so the Poisson
likelihood needs no separate normalization parameter, and neither method
reads the ``total_flux_estimate`` of the data: it is informational.

The likelihood is convex in M = T T^dag, and each mean count
mu_k = Tr(M P_k) = design_k . r(M) is a quadratic form x^T Q_k x in the real
parameters x of T.  Every fit is one damped Newton solve with the exact
Hessian over a 4 x r lower-trapezoidal T in the eigenbasis V of a starting
M, started at the square roots of its r largest eigenvalues.  Q_k is the
design row against the Pauli pairs rotated to that basis, V^dag sigma_i V,
times a real map cached per rank (``_newton`` describes the steps).  The first
start is the linear estimate rho_0 (repaired to be positive) at the data's own
scale M_0 = rho_0 sum_k n_k / sum_k design_k . r(rho_0), the likelihood-optimal
flux for that shape; one eigendecomposition of rho_0 gives its positivity,
its repair and the start basis.  With exactly 16 settings a positive
definite linear estimate fits every count (mu_k = n_k) and is returned as
soon as the certificate below accepts it.  Otherwise the solve runs at
r = 4 from M_0.  A result is accepted only if it passes the KKT certificate
lambda_min(G) >= -tol, G = sum_k (1 - n_k/mu_k) P_k = ((1 - n/mu) @ design) . sigma:
by convexity it is then the global optimum.  An optimum on the rank boundary of the
positive cone can fail it at r = 4; the solve then runs at r = 1..4 in the
eigenbasis of the r = 4 result, and the first certified one is returned.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np

from . import csvfile
from .errors import ConvergenceError, InputFormatError
from .sampling import poisson
# fidelity lives in states, next to the analysis record whose root factor it reads;
# it is imported here for perfbench, which times it as tomography.fidelity
from .states import (
    PAULI_PAIRS, analyse, bloch_vector, fidelity, measurement_rows, repaired_spectrum,
)

_ALPHABET = np.array(
    [[1, 0, 0, 1], [1, 0, 0, -1], [1, 1, 0, 0], [1, -1, 0, 0], [1, 0, 1, 0], [1, 0, -1, 0]],
    dtype=float,
)
_ALPHABET.setflags(write=False)

#: The exact Bloch 4-vectors (1, n) of the polarization alphabet, read-only rows.
_LETTERS = dict(zip("HVDALR", _ALPHABET))

_ELLIPTICAL = re.compile(r"E\(\s*([-+0-9.eE]+)\s*,\s*([-+0-9.eE]+)\s*\)")


def projector_bloch(label: str) -> np.ndarray:
    """Bloch 4-vector (1, n) of a projector label (H/V/D/A/L/R or E(Theta,Phi), angles finite)."""
    if label in _LETTERS:
        return _LETTERS[label]
    match = _ELLIPTICAL.fullmatch(label)
    if match:
        theta, phi = float(match.group(1)), float(match.group(2))
        if not (math.isfinite(theta) and math.isfinite(phi)):
            raise ValueError(f"projector label {label!r} has a non-finite angle")
        return bloch_vector(theta, phi)
    raise ValueError(f"unknown projector label {label!r}")


@dataclass(frozen=True)
class TomoSetting:
    """One joint measurement: a rank-1 projector on each photon; a bad label raises ValueError."""

    proj1: str
    proj2: str

    def __post_init__(self):
        projector_bloch(self.proj1)
        projector_bloch(self.proj2)


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


@functools.cache
def _form_map(rank: int) -> np.ndarray:
    """The real (32, n^2) map W of a rank: x^T Q x = Re Tr(T T^dag S) for Q = S W.

    T = sum_i x_i basis[i] over the rank's trapezoid basis, and S is a
    Pauli pair in the eigenbasis, its 16 complex entries viewed as 32 real
    ones.  Q[i, j] = Re sum_{c,a} S[c, a] w[(c, a), (i, j)] with
    w = sum_b basis[i, a, b] conj(basis[j, c, b]): the real part of an entry
    pairs with Re w, the imaginary part with -Im w.
    """
    basis = _TRAPEZOID_BASES[rank]
    w = np.einsum("iab,jcb->caij", basis, basis.conj()).reshape(16, -1)
    form_map = np.empty((32, w.shape[1]))
    form_map[0::2], form_map[1::2] = w.real, -w.imag
    form_map.setflags(write=False)
    return form_map


#: Row i is the Pauli pair sigma_i, row-major; Re(_PAULI_ROWS @ m.T.ravel()) is r(m).
_PAULI_ROWS = PAULI_PAIRS.reshape(16, 16)


def _quadratic_forms(design: np.ndarray, vecs: np.ndarray, rank: int) -> np.ndarray:
    """Q[k] with Tr(A A^dag P_k) = x^T Q[k] x for the factor A = vecs T(x) of a rank.

    T(x) = sum_j x_j _TRAPEZOID_BASES[rank][j].  One matmul takes the 16
    Pauli pairs to the eigenbasis, V^dag sigma_i V (row-major, (V^dag S V)_cd
    = sum_ab S_ab conj(V_ac) V_bd), and a second applies the cached real map
    of the rank; the design rows then weigh the 16 forms.
    """
    rotation = (vecs.conj()[:, None, :, None] * vecs[None, :, None, :]).reshape(16, 16)
    n = 8 * rank - rank * rank
    pauli_forms = (_PAULI_ROWS @ rotation).view(float) @ _form_map(rank)
    return (design @ pauli_forms).reshape(len(design), n, n)


@functools.lru_cache(maxsize=64)
def _table_for_labels(labels: tuple[tuple[str, str], ...]):
    """(design, rank, inverse, rows) of a settings list: the (K, 16) design matrix,
    its rank, its (16, K) pseudo-inverse (least squares when K > 16) and the
    (3 K, 16) rows whose joint block it is.  The arrays are read-only."""
    b = np.array([[projector_bloch(label) for label in pair] for pair in labels]).reshape(-1, 2, 4)
    rows = measurement_rows(b[:, 0], b[:, 1]).reshape(-1, 16)
    design = rows[: len(labels)]
    inverse = np.linalg.pinv(design)
    for array in (rows, design, inverse):
        array.setflags(write=False)
    return design, int(np.linalg.matrix_rank(design)), inverse, rows


def _settings_table(settings: list[TomoSetting]):
    return _table_for_labels(tuple((s.proj1, s.proj2) for s in settings))


def design_matrix(settings: list[TomoSetting]) -> np.ndarray:
    """Real matrix mapping two-qubit Pauli components to setting probabilities.

    Row k is Tr(P_k sigma_i x sigma_j)/4 over the 16 Pauli pairs; full
    column rank 16 means the settings are informationally complete.  The
    array is cached per settings tuple and read-only.
    """
    return _settings_table(settings)[0]


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


def exact_tomography_counts(
    rho: np.ndarray, counts_per_setting: float, settings: list[TomoSetting] | None = None
) -> TomoData:
    """Noise-free mean counts counts_per_setting * Tr(rho P1 x P2), clipped at 0.

    These are ``optics.mean_counts`` of ``IDEAL_SOURCE`` over counts_per_setting
    seconds, the means ``simulate_tomography`` draws about.
    """
    from .optics import IDEAL_SOURCE, check_duration, mean_counts  # a reconstruction runs without it

    check_duration("counts_per_setting", counts_per_setting)
    if settings is None:
        settings = standard_settings()
    rows = _settings_table(settings)[3]
    r = analyse(rho).pauli_vector
    means = mean_counts(r, rows, counts_per_setting, IDEAL_SOURCE, "counts_per_setting")
    return TomoData(settings, means, float(counts_per_setting))


def simulate_tomography(
    rho: np.ndarray,
    counts_per_setting: int,
    seed: int,
    settings: list[TomoSetting] | None = None,
) -> TomoData:
    """Poisson counts about the means of ``exact_tomography_counts``.  counts_per_setting,
    the pair flux per setting, is recorded as the data's total_flux_estimate; over the
    standard settings the counts average a quarter of it."""
    means = exact_tomography_counts(rho, counts_per_setting, settings)
    counts = poisson(means.counts, seed, "counts_per_setting")
    return TomoData(means.settings, counts, means.total_flux_estimate)


_RANK_DEFICIENT = "design matrix is rank deficient; settings are not complete"


def linear_reconstruct(data: TomoData) -> np.ndarray:
    """Linear inversion of the design matrix.

    Returns a Hermitian, unit-trace matrix that reproduces the measured
    frequencies exactly (in the least-squares sense for more than 16
    settings); under Poisson noise it may have negative eigenvalues (check
    before treating it as a state).  The flux cancels in the trace
    normalization, so ``total_flux_estimate`` is not read.
    """
    _, rank, inverse, _ = _settings_table(data.settings)
    if rank < 16:
        raise ValueError(_RANK_DEFICIENT)
    rho = ((inverse @ data.counts) @ _PAULI_ROWS).reshape(4, 4) / 4
    rho = (rho + rho.conj().T) / 2
    trace = np.trace(rho).real
    if trace <= 0:
        raise ValueError(f"linear inversion produced trace {trace:.3e}")
    return rho / trace


_FULL_RANK_STEPS = 30  # Newton steps at rank 4 before the rank-boundary finish
_BOUNDARY_STEPS = 200  # Newton steps per rank of the finish; a near-pure rank 3 can take 115
_DECREMENT_TOL = 1e-10  # Newton decrement g^T H^-1 g, in log-likelihood units
_KKT_TOL = 1e-8  # allowed negative eigenvalue of the likelihood gradient


def _gram(x: np.ndarray, vecs: np.ndarray, rank: int) -> np.ndarray:
    """The Gram matrix A A^dag of the factor A = vecs T(x) of ``_quadratic_forms``."""
    factor = vecs @ (x @ _TRAPEZOID_BASES[rank].reshape(len(x), -1)).reshape(4, rank)
    return factor @ factor.conj().T


def _deviance(
    x: np.ndarray, quad: np.ndarray, counts: np.ndarray, pos: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Poisson deviance sum_k mu_k - n_k - n_k log(mu_k / n_k) at x, with Q x and mu.

    This is the negative log-likelihood up to a constant, measured from the
    exact fit so that its rounding stays far below the Newton tolerance;
    it is inf where a mean is not positive but counts are seen.  The rows
    Q_k x and the means mu_k = x^T Q_k x are returned for the next step.
    """
    qx = (quad.reshape(-1, len(x)) @ x).reshape(len(quad), len(x))
    mu = qx @ x
    if np.any(mu[pos] <= 0):
        return math.inf, qx, mu
    return float(np.sum(mu - counts) - counts[pos] @ np.log(mu[pos] / counts[pos])), qx, mu


def _newton(
    x: np.ndarray, quad: np.ndarray, counts: np.ndarray, max_steps: int
) -> tuple[np.ndarray, bool]:
    """Damped Newton on the deviance of mu_k = x^T Q_k x.

    The Hessian is exact: 2 sum_k (1 - n_k/mu_k) Q_k + J^T diag(n/mu^2) J
    with J_k = 2 Q_k x.  While the damping is 0, a Hessian that passes
    ``np.linalg.cholesky`` (positive definite) gives the Newton step by one
    solve and the Newton decrement -grad . step.  Converged means a
    positive definite Hessian and a decrement below _DECREMENT_TOL; the
    last Newton step is then taken unless it leaves the domain (a zero mean
    where counts are seen).  Below that tolerance its gain is at the
    rounding level of the deviance, so it is not tested for descent.  An
    indefinite Hessian or a rejected Newton step falls back to a
    Levenberg-Marquardt step in the eigenbasis of the Hessian, shifted to be
    positive definite: a rejected step sets the damping to 1e-6 or grows it
    tenfold, and an accepted one halves it.  The Q x and mu of each
    accepted trial carry into the next step.
    """
    pos = counts > 0
    n = len(x)
    flat = quad.reshape(len(quad), n * n)
    f, qx, mu = _deviance(x, quad, counts, pos)
    damping = 0.0
    for _ in range(max_steps):
        ratio = np.divide(counts, mu, out=np.zeros_like(mu), where=pos)
        curvature = np.divide(ratio, mu, out=np.zeros_like(mu), where=pos)
        grad = 2 * (1 - ratio) @ qx
        hess = 2 * ((1 - ratio) @ flat).reshape(n, n) + 4 * qx.T @ (curvature[:, None] * qx)
        if damping == 0:
            try:
                np.linalg.cholesky(hess)
            except np.linalg.LinAlgError:
                pass
            else:
                step = -np.linalg.solve(hess, grad)
                if -grad @ step <= _DECREMENT_TOL:
                    return _last_step(x, step, quad, counts, pos), True
                trial = _deviance(x + step, quad, counts, pos)
                if trial[0] <= f:
                    x = x + step
                    f, qx, mu = trial
                    continue
                damping = 1e-6
        evals, evecs = np.linalg.eigh(hess)
        g = evecs.T @ grad
        if evals[0] > 0 and g @ (g / evals) <= _DECREMENT_TOL:
            return _last_step(x, -evecs @ (g / evals), quad, counts, pos), True
        scale = np.abs(evals).max()
        # the smallest shift that makes the damped Hessian positive definite
        shift = max(0.0, -evals[0]) + 1e-12 * scale
        while True:
            step = -evecs @ (g / (evals + shift + damping * scale))
            trial = _deviance(x + step, quad, counts, pos)
            if trial[0] <= f:
                break
            damping = max(10 * damping, 1e-6)
            if damping > 1e12:
                return x, False
        x = x + step
        f, qx, mu = trial
        damping /= 2
    return x, False


def _last_step(
    x: np.ndarray, step: np.ndarray, quad: np.ndarray, counts: np.ndarray, pos: np.ndarray
) -> np.ndarray:
    """x + step, or x where the step leaves the domain."""
    final = x + step
    return x if _deviance(final, quad, counts, pos)[0] == math.inf else final


def _kkt_certified(m: np.ndarray, design: np.ndarray, counts: np.ndarray) -> bool:
    """Whether the likelihood gradient G = sum_k (1 - n_k/mu_k) P_k at m is >= 0.

    mu = design @ r(m), and G is the Pauli pairs weighed by (1 - n/mu) @ design.
    At a stationary point of a factor of m (G m = 0), G >= 0 (within
    _KKT_TOL) is the KKT condition of the convex problem over m >= 0, so m
    is the global optimum.
    """
    mu = design @ (_PAULI_ROWS @ m.T.ravel()).real
    weights = 1 - np.divide(counts, mu, out=np.zeros_like(mu), where=counts > 0)
    gradient = ((weights @ design) @ _PAULI_ROWS).reshape(4, 4)
    return bool(np.linalg.eigvalsh(gradient)[0] >= -_KKT_TOL)


def _factor_solve(
    eigs: np.ndarray, vecs: np.ndarray, design: np.ndarray, counts: np.ndarray,
    rank: int, steps: int,
) -> tuple[np.ndarray, bool]:
    """Newton on a 4 x rank factor spanned by the top-rank eigenvectors of a start m.

    ``eigs, vecs`` are the ascending eigenvalues and eigenvectors of m.  In
    the eigenbasis the lower-trapezoidal factor starts at the square roots
    of the rank largest eigenvalues, far from the degenerate zero pivots
    that stall a fixed-basis factor near a rank-deficient optimum.  Returns
    the Gram matrix of the result and whether it passed the KKT certificate.
    """
    eigs, vecs = eigs[::-1], vecs[:, ::-1]
    x = np.zeros(8 * rank - rank * rank)
    x[:rank] = np.sqrt(np.maximum(eigs[:rank], 1e-9 * eigs[0]))
    x, converged = _newton(x, _quadratic_forms(design, vecs, rank), counts, steps)
    m_rank = _gram(x, vecs, rank)
    return m_rank, converged and _kkt_certified(m_rank, design, counts)


def ml_reconstruct(data: TomoData, seed: int = 0) -> np.ndarray:
    """Maximum-likelihood density matrix for a tomography data set.

    Minimizes the Poisson negative log-likelihood sum_k mu_k - n_k log mu_k,
    mu_k = Tr(T T^dag P_k) (T a 4 x r lower-trapezoidal factor in an
    eigenbasis; its trace is the joint flux estimate), by the certified
    Newton solves of the module docstring: a certified positive linear
    estimate of 16 settings, else rank 4 from it, else the rank finish.
    The solve is deterministic and reads neither ``seed`` (accepted for
    compatibility) nor ``total_flux_estimate``.  The result always satisfies
    every density-matrix invariant.

    Raises ValueError for informationally incomplete settings or all-zero
    counts, and ConvergenceError when no rank passes the KKT certificate.
    """
    design, rank, _, _ = _settings_table(data.settings)
    if rank < 16:
        raise ValueError(_RANK_DEFICIENT)
    counts = data.counts
    if not counts.any():
        raise ValueError("all counts are zero; there is no likelihood to maximize")
    try:
        rho_init = linear_reconstruct(data)
    except ValueError:
        # complete settings whose linear estimate has trace <= 0
        rho_init = np.eye(4, dtype=complex) / 4
    # one decomposition serves the positivity test, the repair and the rank-4 start
    eigs, vecs = repaired_spectrum(rho_init)
    positive = eigs[0] > 0
    if not positive:
        rho_init = (vecs * eigs) @ vecs.conj().T
    # the likelihood-optimal flux for this shape: sum_k mu_k = sum_k n_k
    flux = counts.sum() / (design @ (_PAULI_ROWS @ rho_init.T.ravel()).real).sum()
    # a square design fits every count (mu_k = n_k), so a positive estimate is the optimum
    exact_fit = positive and len(counts) == 16
    if exact_fit and _kkt_certified(flux * rho_init, design, counts):
        return rho_init
    m, certified = _factor_solve(flux * eigs, vecs, design, counts, 4, _FULL_RANK_STEPS)
    if not certified:  # the rank-boundary finish, in the eigenbasis of the rank-4 result
        eigs, vecs = np.linalg.eigh(m)
        for rank in range(1, 5):
            m, certified = _factor_solve(eigs, vecs, design, counts, rank, _BOUNDARY_STEPS)
            if certified:
                break
    if not certified:
        raise ConvergenceError("no rank of the likelihood optimum passed the KKT certificate")
    rho = (m + m.conj().T) / 2
    return rho / np.trace(rho).real


_TOMO_HEADER = ["setting_index", "proj1", "proj2", "counts"]


def tomo_data_to_csv(data: TomoData, path) -> None:
    """Write ``setting_index,proj1,proj2,counts`` rows."""
    rows = [
        (i, setting.proj1, setting.proj2, csvfile.count_cell(n))
        for i, (setting, n) in enumerate(zip(data.settings, data.counts.tolist()))
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
    for position, (line, (index, proj1, proj2, n)) in enumerate(rows):
        if index != str(position):
            raise csvfile.error(path, line, f"setting_index must be {position}, got {index!r}")
        counts.append(csvfile.count(path, line, n))
        try:
            settings.append(TomoSetting(proj1, proj2))
        except ValueError as exc:
            raise csvfile.error(path, line, str(exc)) from None
    return TomoData(settings, np.array(counts), comments["total_flux_estimate"])
