"""Two-qubit polarization state families as 4x4 density matrices.

Everything in this package works in the fixed product basis

    |HH>, |HV>, |VH>, |VV>

(first letter = photon 1, second = photon 2), and density matrices are
plain complex numpy arrays in that ordering.  A valid density matrix is
Hermitian, has unit trace and is positive semidefinite; ``check_density_matrix``
enforces those three invariants at the tolerances used throughout.  A matrix
that passes gets one ``Analysis`` record (``analyse``), cached by its content,
and every per-state number in this package is read from that record.  Every
probability Tr(rho E) is a row against the state's ``pauli_vector``, built by
``measurement_rows`` from the Bloch 4-vectors b = (1, n) of the analyzers.

The state families provided here are the phase-tunable Bell pairs, the
non-maximally entangled pairs produced by unbalancing the pump, Werner
states (singlet + white noise), the maximally entangled mixed states
(MEMS, maximum tangle at fixed linear entropy) and the Werner family
rotated by a nonlocal unitary that trades entanglement for the parameter
``a`` of its dominant eigenvector.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import csvfile
from .errors import InputFormatError

BASIS = ("HH", "HV", "VH", "VV")

HERMITIAN_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_EIGENVALUE_FLOOR = -1e-10
WEIGHT_SUM_ATOL = 1e-9


def _pauli_pairs() -> np.ndarray:
    paulis = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
    # pairs[4 i + j][(a, c), (b, d)] = paulis[i][a, b] paulis[j][c, d]
    pairs = (paulis[:, None, :, None, :, None] * paulis[None, :, None, :, None, :]).reshape(16, 4, 4)
    pairs.setflags(write=False)
    return pairs


#: The 16 two-qubit Pauli products sigma_i x sigma_j, i, j in (I, X, Y, Z),
#: at index 4 i + j in the basis above; read-only.
PAULI_PAIRS = _pauli_pairs()


def pauli_vector(ops: np.ndarray) -> np.ndarray:
    """Real Tr(op sigma_i x sigma_j), ``(..., 16)`` as in PAULI_PAIRS, of ``(..., 4, 4)`` ops.

    For Hermitian rho and E, Tr(rho E) = pauli_vector(E) . pauli_vector(rho) / 4.
    Each trace is summed over the diagonal of the product in row order, as ``np.trace`` rounds.
    """
    return np.einsum("...ab,kba->...ka", ops, PAULI_PAIRS).sum(-1).real


def bloch_vector(theta, phi) -> np.ndarray:
    """Bloch 4-vectors (1, sin T cos P, sin T sin P, cos T), ``(..., 4)``, of broadcast angles.

    The analyzer's projector is (b . sigma) / 2; a polarizer at theta is (2 theta, 0).
    """
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(1.0, st * np.cos(phi), st * np.sin(phi), np.cos(theta)), -1)


def measurement_rows(b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """``(3, K, 16)`` joint, arm-1 and arm-2 rows of the ``(K, 4)`` Bloch 4-vector pairs b1, b2.

    b1 x b2 / 4, b1 x e0 / 2 and e0 x b2 / 2 are the ``pauli_vector(E) / 4`` of
    E = P1 x P2, P1 x I and I x P2: a row's dot with the Pauli vector of rho is Tr(rho E).
    """
    two_e0 = np.broadcast_to([2.0, 0.0, 0.0, 0.0], np.shape(b1))  # twice the identity coordinate
    first, second = np.stack((b1, b1, two_e0)), np.stack((b2, two_e0, b2))
    return (first[..., :, None] * second[..., None, :]).reshape(3, -1, 16) / 4


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix and return it as a complex array.

    Raises ValueError unless the matrix is 4x4, finite, Hermitian and of unit
    trace within 1e-12, with no eigenvalue below -1e-10.  A passing verdict,
    the matrix's ``Analysis`` record (see ``analyse``), is cached by the
    matrix's bytes, so checking the same content again is a lookup; a changed
    matrix has new bytes and is checked afresh, and an invalid one is never
    cached, so it raises on every call.
    """
    rho = np.asarray(rho, dtype=complex)
    analyse(rho)
    return rho


def analyse(rho: np.ndarray) -> Analysis:
    """Validate ``rho`` as ``check_density_matrix`` does and return its cached record."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got shape {rho.shape}")
    return _check_entries(rho.tobytes())


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Partial transpose over the second qubit."""
    rho = np.asarray(rho, dtype=complex)
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


@dataclass(frozen=True, eq=False)
class Analysis:
    """The analysis of one valid density matrix, shared by every measure of it.

    ``eigenvalues``/``eigenvectors`` are the ``np.linalg.eigh`` pair of the
    positivity test.  The other values are computed on first use and are
    documented at their public views.  Every array here is read-only.
    """

    rho: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @functools.cached_property
    def square_root(self) -> np.ndarray:
        vecs = self.eigenvectors
        return _read_only((vecs * np.sqrt(_floored(self.eigenvalues))) @ vecs.conj().T)

    @functools.cached_property
    def concurrence(self) -> float:
        sq = self.square_root
        lams = np.linalg.svd(sq @ PAULI_PAIRS[10] @ sq.conj(), compute_uv=False)  # sy x sy
        return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))

    @functools.cached_property
    def linear_entropy(self) -> float:
        purity = np.trace(self.rho @ self.rho).real
        return float(min(1.0, max(0.0, (4 / 3) * (1 - purity))))

    @functools.cached_property
    def min_partial_transpose_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(partial_transpose(self.rho)).min())

    @functools.cached_property
    def pauli_vector(self) -> np.ndarray:
        return _read_only(pauli_vector(self.rho))

    @functools.cached_property
    def correlation_matrix(self) -> np.ndarray:
        return self.pauli_vector.reshape(4, 4)[1:, 1:]

    @functools.cached_property
    def correlation_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(map(_read_only, np.linalg.svd(self.correlation_matrix)))


#: Distinct valid matrices whose record ``analyse`` remembers.  The repeats
#: are the same matrix passing through the several measures of one
#: analysis, so a few recent matrices are enough.
_VERDICT_CACHE_SIZE = 32


@functools.lru_cache(maxsize=_VERDICT_CACHE_SIZE)
def _check_entries(data: bytes) -> Analysis:
    """The content checks of ``check_density_matrix`` on a 4x4 complex matrix's bytes."""
    rho = np.frombuffer(data, dtype=complex).reshape(4, 4)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > HERMITIAN_ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho) - 1.0) > TRACE_ATOL:
        raise ValueError(f"density matrix trace {np.trace(rho):.3e} is not 1 within 1e-12")
    eigs, vecs = np.linalg.eigh(rho)
    if eigs[0] < PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
    return Analysis(rho, _read_only(eigs), _read_only(vecs))


def _floored(eigs: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues, those at rounding level (<= 16 eps of the largest) set to 0."""
    return np.where(eigs > 16 * np.finfo(float).eps * abs(eigs[-1]), eigs, 0.0)


def fidelity(rho1: np.ndarray, rho2: np.ndarray) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2, in [0, 1].

    sqrt(rho1) is read from rho1's analysis record
    (``Analysis.square_root``), so a state that was already checked
    is not decomposed again.  Both square roots read ``_floored`` spectra, so
    a pure argument does not cost digits (sqrt(1e-17) would add 3e-9).
    """
    sq = analyse(rho1).square_root
    inner = sq @ check_density_matrix(rho2) @ sq
    return min(1.0, float(np.sum(np.sqrt(_floored(np.linalg.eigvalsh(inner)))) ** 2))


def repaired_spectrum(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the repaired Hermitian part of rho.

    The repair clips negative eigenvalues to zero and renormalizes the
    trace, so the smallest returned eigenvalue is positive exactly when
    rho is positive definite.  This is the only place where an unphysical
    matrix is silently made physical; use it for optimizer initialization,
    never for results.
    """
    rho = np.asarray(rho, dtype=complex)
    eigs, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    eigs = np.maximum(eigs, 0.0)
    total = eigs.sum()
    if total == 0.0:
        raise ValueError("cannot repair matrix with no positive eigenvalue")
    return eigs / total, vecs


def repair_density_matrix(rho: np.ndarray) -> np.ndarray:
    """The density matrix of ``repaired_spectrum``: negative eigenvalues
    clipped to zero and the trace renormalized."""
    eigs, vecs = repaired_spectrum(rho)
    return (vecs * eigs) @ vecs.conj().T


def check_pure_state(psi: np.ndarray) -> np.ndarray:
    """Validate a 4-component state vector (finite, unit norm within 1e-12)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise ValueError(f"pure state must have 4 amplitudes, got shape {psi.shape}")
    if not abs(np.vdot(psi, psi).real - 1.0) <= 1e-12:  # a NaN or infinite amplitude fails too
        if not np.isfinite(psi).all():
            raise ValueError(f"pure state amplitudes must be finite, got {psi.tolist()}")
        raise ValueError("pure state is not normalized within 1e-12")
    return psi


def projector(psi: np.ndarray) -> np.ndarray:
    """Rank-1 density matrix |psi><psi| of a normalized state vector."""
    psi = check_pure_state(psi)
    return np.outer(psi, psi.conj())


def bell_state(kind: str, phase: float = 0.0) -> np.ndarray:
    """Phase-tunable Bell pair.

    Parameters
    ----------
    kind : "phi" or "psi"
        "phi" gives (|HH> + e^{i phase}|VV>)/sqrt(2),
        "psi" gives (|HV> + e^{i phase}|VH>)/sqrt(2).
    phase : float
        Relative phase in radians.  phase = 0 and pi recover the four
        standard Bell states; ("psi", pi) is the singlet.
    """
    if not math.isfinite(phase):
        raise ValueError(f"Bell-pair phase must be finite, got {phase}")
    amp = np.exp(1j * float(phase)) / math.sqrt(2)
    if kind == "phi":
        return np.array([1 / math.sqrt(2), 0, 0, amp], dtype=complex)
    if kind == "psi":
        return np.array([0, 1 / math.sqrt(2), amp, 0], dtype=complex)
    raise ValueError(f"kind must be 'phi' or 'psi', got {kind!r}")


def singlet() -> np.ndarray:
    """The singlet state vector (|HV> - |VH>)/sqrt(2)."""
    return bell_state("psi", math.pi)


def nonmax_state(theta_p: float) -> np.ndarray:
    """Non-maximally entangled pair from a pump-waveplate rotation.

    Rotating the pump waveplate by theta_p unbalances the two emission
    cones, producing alpha|HH> + beta|VV> with amplitude ratio
    gamma = |alpha/beta| = cos^2(2 theta_p).  gamma falls monotonically
    from 1 (maximally entangled, theta_p=0) to 0 (product state |VV>,
    theta_p=pi/4).

    theta_p is in radians and must lie in [0, pi/4].
    """
    if not 0.0 <= theta_p <= math.pi / 4 + 1e-15:
        raise ValueError(
            f"theta_p must be in [0, pi/4] rad (0 to 45 deg), "
            f"got {theta_p:.5g} rad ({math.degrees(theta_p):.5g} deg)"
        )
    gamma = math.cos(2 * theta_p) ** 2
    norm = math.sqrt(1 + gamma**2)
    return np.array([gamma / norm, 0, 0, 1 / norm], dtype=complex)


def werner(p: float) -> np.ndarray:
    """Werner state: p * singlet projector + (1-p)/4 * identity.

    In the standard basis the matrix is diagonal (A, B, B, A) with
    A = (1-p)/4 and B = (1+p)/4, plus a real coupling C = -p/2 between
    |HV> and |VH>.  Requires 0 <= p <= 1.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"singlet weight p must be in [0, 1], got {p}")
    a = (1 - p) / 4
    b = (1 + p) / 4
    c = -p / 2
    rho = np.diag([a, b, b, a]).astype(complex)
    rho[1, 2] = c
    rho[2, 1] = c
    return rho


def mems_weight(p: float) -> float:
    """Diagonal weight g(p) of the MEMS family: p/2 for p >= 2/3, else 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"singlet weight p must be in [0, 1], got {p}")
    return p / 2 if p >= 2 / 3 else 1 / 3


def mems(p: float) -> np.ndarray:
    """Maximally entangled mixed state with singlet weight p.

    Diagonal (1-2g, g, g, 0) with g = mems_weight(p) and coupling -p/2
    between |HV> and |VH>.  These states carry the maximum tangle (p^2)
    achievable at their linear entropy.
    """
    g = mems_weight(p)
    rho = np.diag([1 - 2 * g, g, g, 0.0]).astype(complex)
    rho[1, 2] = -p / 2
    rho[2, 1] = -p / 2
    return rho


def tune_entanglement(fidelity: float, a: float) -> np.ndarray:
    """Werner mixture with its entangled eigenvector rotated to sqrt(a)|HH> + sqrt(1-a)|VV>.

    Returns ((1-F)/3) I + ((4F-1)/3) |psi><psi| where
    |psi> = sqrt(a)|HH> + sqrt(1-a)|VV>.  At a = 1/2 this is the Werner
    state of singlet fidelity F, werner((4F - 1)/3), up to a local rotation;
    raising a toward 1 removes the entanglement without changing the
    eigenvalues: the state is entangled exactly when F > 1/2 and
    a < (1 + sqrt(3(4F^2 - 1))/(4F - 1))/2.  Requires F in [1/4, 1], a in [1/2, 1].
    """
    if not 0.25 <= fidelity <= 1.0:
        raise ValueError(f"fidelity must be in [1/4, 1], got {fidelity}")
    if not 0.5 <= a <= 1.0:
        raise ValueError(f"a must be in [1/2, 1], got {a}")
    psi = np.array([math.sqrt(a), 0, 0, math.sqrt(1 - a)], dtype=complex)
    return ((1 - fidelity) / 3) * np.eye(4, dtype=complex) + (
        (4 * fidelity - 1) / 3
    ) * np.outer(psi, psi.conj())


def mix(components: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Convex mixture of density matrices.

    ``components`` is a list of (weight, rho) with nonnegative weights
    summing to 1 within 1e-9.  The result passes all density-matrix
    invariants.
    """
    if not components:
        raise ValueError("mix() requires at least one component")
    weights = [w for w, _ in components]
    if not all(0 <= w < math.inf for w in weights):  # NaN fails too
        raise ValueError(f"mixture weights must be finite and nonnegative, got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_ATOL:
        raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-9")
    out = np.zeros((4, 4), dtype=complex)
    for w, rho in components:
        out += w * check_density_matrix(rho)
    return out


# ---------------------------------------------------------------------------
# Serialization.  The on-disk format for every density matrix in this repo:
# {"basis": ["HH","HV","VH","VV"], "re": 4x4, "im": 4x4}, row-major.
# ---------------------------------------------------------------------------


def density_matrix_to_dict(rho: np.ndarray) -> dict:
    rho = np.asarray(rho, dtype=complex)
    return {
        "basis": list(BASIS),
        "re": rho.real.tolist(),
        "im": rho.imag.tolist(),
    }


def density_matrix_from_dict(obj: dict) -> np.ndarray:
    """Inverse of ``density_matrix_to_dict``; a malformed object is an InputFormatError."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"expected a JSON object, got {type(obj).__name__}")
    if obj.get("basis") != list(BASIS):
        raise InputFormatError(f"unexpected basis {obj.get('basis')}, want {list(BASIS)}")
    try:
        re, im = (np.array(obj[key], dtype=float) for key in ("re", "im"))
    except KeyError as exc:
        raise InputFormatError(f"missing {exc.args[0]!r}") from None
    except (TypeError, ValueError):
        raise InputFormatError("re and im entries must be numbers") from None
    if re.shape != (4, 4) or im.shape != (4, 4) or not np.isfinite([re, im]).all():
        raise InputFormatError("re and im must both be 4x4 arrays of finite numbers")
    return re + 1j * im


def save_density_matrix(rho: np.ndarray, path) -> None:
    csvfile.write_text(path, json.dumps(density_matrix_to_dict(rho), indent=2) + "\n")


def load_density_matrix(path) -> np.ndarray:
    return csvfile.read_json(path, density_matrix_from_dict)
