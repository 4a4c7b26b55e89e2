"""Simulated 16-setting polarization tomography and state reconstruction.

Measurement settings are pairs of single-photon projectors drawn from
the standard polarization alphabet

    H = (1, 0)            V = (0, 1)
    D = (H + V)/sqrt(2)   A = (H - V)/sqrt(2)
    L = (H + iV)/sqrt(2)  R = (H - iV)/sqrt(2)

or a general elliptical projector ``E(Theta,Phi)`` with ket
cos(Theta/2)|H> + e^{i Phi} sin(Theta/2)|V> (Bloch angles, radians).

Reconstruction is offered two ways: exact linear inversion of the
design matrix (fast, but unphysical under noise) and maximum-likelihood
fitting over the Cholesky-style factorization rho = T T^dag / Tr(T T^dag),
which is positive by construction.  The unnormalized factor doubles as
the joint flux estimate, so the Poisson likelihood needs no separate
normalization parameter.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, InputFormatError
from .states import check_density_matrix, repair_density_matrix

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


_PAULI1 = [
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]
_PAULI_PAIR = [np.kron(a, b) for a in _PAULI1 for b in _PAULI1]


def design_matrix(settings: list[TomoSetting]) -> np.ndarray:
    """Real matrix mapping two-qubit Pauli components to setting probabilities.

    Row k is Tr(P_k sigma_i x sigma_j)/4 over the 16 Pauli pairs; full
    column rank 16 means the settings are informationally complete.
    """
    rows = []
    for setting in settings:
        p = setting.pair_projector()
        rows.append([0.25 * np.trace(p @ g).real for g in _PAULI_PAIR])
    return np.array(rows)


def design_condition_number(settings: list[TomoSetting]) -> float:
    return float(np.linalg.cond(design_matrix(settings)))


@dataclass
class TomoData:
    """Counts of one tomography run."""

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
    rho = np.asarray(rho, dtype=complex)
    return np.array(
        [np.trace(rho @ s.pair_projector()).real for s in settings]
    )


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


def _flux_estimate(data: TomoData) -> float:
    labels = [(s.proj1, s.proj2) for s in data.settings]
    basis_group = {("H", "H"), ("H", "V"), ("V", "H"), ("V", "V")}
    if basis_group.issubset(set(labels)):
        flux = sum(
            data.counts[i] for i, lab in enumerate(labels) if lab in basis_group
        )
        if flux > 0:
            return float(flux)
    if data.total_flux_estimate > 0:
        return float(data.total_flux_estimate)
    raise ValueError("cannot estimate flux: no complete basis group and no estimate")


def linear_reconstruct(data: TomoData) -> np.ndarray:
    """Linear inversion of the design matrix.

    Returns a Hermitian, unit-trace matrix that reproduces the measured
    frequencies exactly; under Poisson noise it may have negative
    eigenvalues (check before treating it as a state).
    """
    m = design_matrix(data.settings)
    if np.linalg.matrix_rank(m) < 16:
        raise ValueError("design matrix is rank deficient; settings are not complete")
    probs = data.counts / _flux_estimate(data)
    if m.shape[0] == 16:
        s = np.linalg.solve(m, probs)
    else:
        s, *_ = np.linalg.lstsq(m, probs, rcond=None)
    rho = sum(si * gi for si, gi in zip(s, _PAULI_PAIR)) / 4
    rho = (rho + rho.conj().T) / 2
    trace = np.trace(rho).real
    if trace <= 0:
        raise ValueError(f"linear inversion produced trace {trace:.3e}")
    return rho / trace


_LOWER_SLOTS = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _factor_from_params(t: np.ndarray) -> np.ndarray:
    factor = np.zeros((4, 4), dtype=complex)
    factor[np.diag_indices(4)] = t[:4]
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        factor[r, c] = t[4 + 2 * i] + 1j * t[5 + 2 * i]
    return factor


def _params_from_factor(factor: np.ndarray) -> np.ndarray:
    t = np.zeros(16)
    t[:4] = np.diag(factor).real
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        t[4 + 2 * i] = factor[r, c].real
        t[5 + 2 * i] = factor[r, c].imag
    return t


def _neg_log_likelihood(t: np.ndarray, counts: np.ndarray, projs: np.ndarray):
    factor = _factor_from_params(t)
    m = factor @ factor.conj().T
    mu = np.einsum("ij,kji->k", m, projs).real
    mu_safe = np.clip(mu, 1e-12, None)
    nll = float(np.sum(mu) - np.sum(np.where(counts > 0, counts * np.log(mu_safe), 0.0)))
    coeff = np.where(counts > 0, counts / mu_safe, 0.0) - 1.0
    a = np.einsum("k,kij->ij", coeff, projs)
    w = a @ factor
    grad = np.zeros(16)
    grad[:4] = 2 * np.diag(w).real
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        grad[4 + 2 * i] = 2 * w[r, c].real
        grad[5 + 2 * i] = 2 * w[r, c].imag
    return nll, -grad


def ml_reconstruct(
    data: TomoData, seed: int = 0, n_starts: int = 3, max_iter: int = 500
) -> np.ndarray:
    """Maximum-likelihood density matrix for a tomography data set.

    Maximizes the Poisson likelihood of the counts over the positive
    factorization rho_tilde = T T^dag (T lower triangular, 16 real
    parameters; its trace is the joint flux estimate).  Starts from the
    positivity-repaired linear estimate plus seeded perturbations and
    keeps the best optimum.  The result always satisfies every
    density-matrix invariant.
    """
    projs = np.array([s.pair_projector() for s in data.settings])
    counts = np.asarray(data.counts, dtype=float)
    flux = _flux_estimate(data)
    try:
        rho_init = repair_density_matrix(linear_reconstruct(data))
    except ValueError:
        rho_init = np.eye(4, dtype=complex) / 4
    # tiny diagonal lift keeps the Cholesky factorization defined at the
    # boundary without visibly moving the start
    m0 = flux * (rho_init + 1e-12 * np.eye(4)) / (1 + 4e-12)
    t0 = _params_from_factor(np.linalg.cholesky(m0))
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(t0)
    best = None
    n_ok = 0
    for start in range(max(1, n_starts)):
        x0 = t0 if start == 0 else t0 + rng.normal(0, 0.05 * scale, 16)
        res = minimize(
            _neg_log_likelihood,
            x0,
            args=(counts, projs),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 1e-14},
        )
        if res.success:
            n_ok += 1
        if best is None or res.fun < best.fun:
            best = res
    if n_ok == 0:
        raise ConvergenceError(
            f"likelihood optimizer failed to converge in {n_starts} starts"
        )
    factor = _factor_from_params(best.x)
    rho = factor @ factor.conj().T
    rho = (rho + rho.conj().T) / 2
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


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def tomo_data_to_csv(data: TomoData, path) -> None:
    """Write ``setting_index,proj1,proj2,counts`` rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# total_flux_estimate {data.total_flux_estimate:.10g}\n")
        writer = csv.writer(fh)
        writer.writerow(["setting_index", "proj1", "proj2", "counts"])
        for i, (setting, n) in enumerate(zip(data.settings, data.counts)):
            value = int(n) if float(n).is_integer() else f"{n:.17g}"
            writer.writerow([i, setting.proj1, setting.proj2, value])


def tomo_data_from_csv(path) -> TomoData:
    """Parse a tomography CSV; raises InputFormatError with line numbers."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    flux = 0.0
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "total_flux_estimate":
                try:
                    flux = float(parts[1])
                except ValueError:
                    raise InputFormatError(f"{path}:{i + 1}: bad flux {parts[1]!r}")
            body_start = i + 1
        else:
            break
    if (
        body_start >= len(lines)
        or lines[body_start].strip() != "setting_index,proj1,proj2,counts"
    ):
        raise InputFormatError(
            f"{path}:{body_start + 1}: expected header 'setting_index,proj1,proj2,counts'"
        )
    settings = []
    counts = []
    for i, line in enumerate(lines[body_start + 1 :], start=body_start + 2):
        if not line.strip():
            continue
        parts = next(csv.reader([line]))
        if len(parts) != 4:
            raise InputFormatError(f"{path}:{i}: expected 4 fields, got {len(parts)}")
        try:
            n = float(parts[3])
        except ValueError as exc:
            raise InputFormatError(f"{path}:{i}: {exc}")
        if not math.isfinite(n):
            raise InputFormatError(f"{path}:{i}: non-finite counts {parts[3].strip()!r}")
        if n < 0:
            raise InputFormatError(f"{path}:{i}: negative counts {n}")
        try:
            projector_ket(parts[1].strip())
            projector_ket(parts[2].strip())
        except ValueError as exc:
            raise InputFormatError(f"{path}:{i}: {exc}")
        settings.append(TomoSetting(parts[1].strip(), parts[2].strip()))
        counts.append(n)
    return TomoData(settings, np.array(counts), flux)
