"""CHSH correlation functions, Bell-parameter evaluation and its maximum.

An analyzer direction is a unit vector n on the Bloch sphere; the one at
angles (Theta, Phi) is ``states.bloch_vector(Theta, Phi)[1:]``, and a
linear polarizer at theta is (Theta, Phi) = (2 theta, 0).  A CHSH setting
is one ``(4, 3)`` array of the rows a1, a1', a2, a2'.  Every correlation
comes from one 3x3 correlation matrix t_ij = Tr(rho sigma_i x sigma_j),
i, j in (x, y, z): the dichotomic observable of a direction is n . sigma, so

    P(n1, n2) = Tr(rho (n1 . sigma) x (n2 . sigma)) = n1^T T n2.

The CHSH combination is S = P(a1,a2) - P(a1,a2') + P(a1',a2) + P(a1',a2');
|S| <= 2 for local realism and <= 2 sqrt(2) always.

S is returned *signed* everywhere in this module so that the trace and
counts-based evaluations agree exactly; report abs(S) when comparing
against the classical bound.

The maximum |S| over all directions and the settings that reach it come
in closed form from the singular value decomposition of T
(``chsh_optimize``); the eigenvalue route of
``chsh_max_from_correlation_matrix`` is kept as an independent check of
the value.  T and its SVD are read from the state's cached analysis record
(``states.analyse``), so each is computed once per state.

Counts-based runs use linear polarizers.  The measured-counts layer
(``AnglePlan``, ``CountsTable``, the counts CSV and ``chsh_from_counts``)
lives in the numpy-free ``ering.counts``; this module re-exports it.  A
plan compiles once (``compile_plan``) into its setting labels and one
read-only matrix of rows against the Pauli vector of rho, built by
``states.measurement_rows`` from the Bloch 4-vector (Theta, Phi) = (2 theta, 0)
of each polarizer, so the joint and marginal detection probabilities of
all its settings are one matvec, which ``source.expected_coincidences``
turns into the mean counts of a run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .counts import (  # re-exported: the counts layer is part of this module's API
    STANDARD_PLAN, AnglePlan, CountsTable, angle_label, chsh_from_counts,
    correlation_from_counts, counts_from_csv, counts_to_csv,
)
from .states import analyse, bloch_vector, measurement_rows

TSIRELSON_BOUND = 2 * math.sqrt(2)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """The read-only 3x3 matrix t_ij = Tr(rho sigma_i x sigma_j): the xyz block of its Pauli vector.

    ``rho`` is validated first: a matrix that is not a density matrix raises ValueError.
    """
    return analyse(rho).correlation_matrix


def chsh(rho: np.ndarray, settings) -> float:
    """Signed CHSH parameter S of the ``(4, 3)`` unit vectors a1, a1', a2, a2' in ``settings``.

    The state is validated once; the four correlations are the 2x2 matrix
    ``n[:2] @ T @ n[2:].T``.  Raises ValueError for a wrong shape or a row
    whose squared norm is not within 1e-12 of 1 (a NaN row too).
    """
    n = np.asarray(settings, dtype=float)
    if n.shape != (4, 3):
        raise ValueError(f"CHSH settings must have shape (4, 3), got {n.shape}")
    norms = [x * x + y * y + z * z for x, y, z in n.tolist()]
    if not all(abs(q - 1.0) <= 1e-12 for q in norms):  # NaN fails too
        raise ValueError(f"CHSH settings must be unit vectors, got squared norms {norms}")
    (p11, p12), (p21, p22) = (n[:2] @ analyse(rho).correlation_matrix @ n[2:].T).tolist()
    s = p11 - p12 + p21 + p22
    if not abs(s) <= TSIRELSON_BOUND + 1e-9:  # NaN fails too
        raise ValueError(f"CHSH value {s} exceeds the quantum bound 2*sqrt(2)")
    return s


def chsh_max_from_correlation_matrix(rho: np.ndarray) -> float:
    """Certified maximum |S| over all settings: 2 sqrt(t1^2 + t2^2).

    t1^2, t2^2 are the two largest eigenvalues of T^T T with T the
    correlation matrix.  Used as the independent oracle for
    ``chsh_optimize``.
    """
    t = analyse(rho).correlation_matrix
    _, second, first = np.linalg.eigvalsh(t.T @ t).tolist()  # ascending
    return 2 * math.sqrt(max(0.0, first + second))


def chsh_optimal_family(p: float, b_diag: float | None = None) -> tuple[float, np.ndarray]:
    """Extremal |S| = 2 sqrt(2) p of the singlet-coupled diagonal family, and its settings.

    For any density matrix that is diagonal (A, B, B, D) with a real
    coupling -p/2 between |HV> and |VH>, the stationary equatorial
    settings below give |S| = 2 sqrt(2) p independently of the diagonal
    entries A, B, D.  The optional ``b_diag`` is validated against the
    family's positivity constraints (p/2 <= B <= 1/2).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"singlet weight p must be in [0, 1], got {p}")
    if b_diag is not None and not (p / 2 - 1e-12 <= b_diag <= 0.5 + 1e-12):
        raise ValueError(
            f"diagonal entry B={b_diag} incompatible with coupling p/2={p / 2}"
        )
    h, q = math.pi / 2, math.pi / 4
    settings = bloch_vector(np.array([-h, h, h, -h]), np.array([q, -q, h, 0.0]))[:, 1:]
    settings.setflags(write=False)
    return TSIRELSON_BOUND * p, settings


def chsh_optimize(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum |S| over all analyzer directions and settings that reach it.

    Closed form of Horodecki, Horodecki and Horodecki, Phys. Lett. A 200,
    340 (1995): with the correlation matrix T = U diag(s1, s2, s3) V^T,
    the settings a1' = u1, a1 = u2 and a2, a2' = cos t v1 +- sin t v2 with
    t = atan2(s2, s1) give S = 2 sqrt(s1^2 + s2^2), the maximum.
    Returns (max |S|, the read-only ``(4, 3)`` settings a1, a1', a2, a2').
    """
    u, sv, vt = analyse(rho).correlation_svd
    s1, s2, _ = sv.tolist()
    angle = math.atan2(s2, s1)
    c, s = math.cos(angle), math.sin(angle)
    settings = np.concatenate((u.T[1::-1], [[c, s], [c, -s]] @ vt[:2]))
    settings.setflags(write=False)
    return 2 * math.hypot(s1, s2), settings


# ---------------------------------------------------------------------------
# Compiled plans.  Polarizer angles are radians in the library and degrees
# in every file and CLI surface.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CompiledPlan:
    """Distinct joint settings compiled once into labels and measurement rows.

    ``labels`` are the canonical (theta1, theta2) degree labels in plan
    order; ``rows`` is the read-only ``(3 S, 16)`` stack of the S joint, the
    S arm-1 and the S arm-2 rows of ``states.measurement_rows`` for the
    polarizers' Bloch 4-vectors b = (1, sin 2 theta, 0, cos 2 theta).
    The rows take the Pauli vector of a state, not the state:
    ``source.expected_coincidences`` passes the cached vector of rho
    (``analyse(rho).pauli_vector``) depolarized in Pauli coordinates.
    """

    labels: tuple[tuple[str, str], ...]
    rows: np.ndarray

    def probabilities(self, pauli: np.ndarray) -> np.ndarray:
        """``(3, S)`` joint, arm-1 and arm-2 detection probabilities of the state whose
        16-component Pauli vector is ``pauli``, from one matvec."""
        return (self.rows @ pauli).reshape(3, -1)


#: Distinct settings tuples ``compile_plan`` remembers; figure 2 runs 37 one-setting plans.
_COMPILED_PLAN_CACHE_SIZE = 128


def compile_plan(plan: AnglePlan | list[tuple[float, float]]) -> CompiledPlan:
    """The compiled form of an AnglePlan's settings or of a list of (theta1, theta2) pairs.

    Raises ValueError if an angle is not finite or two settings share a label.
    """
    if isinstance(plan, AnglePlan):
        return _compile(plan.settings)
    return _compile(tuple((float(t1), float(t2)) for t1, t2 in plan))


@functools.lru_cache(maxsize=_COMPILED_PLAN_CACHE_SIZE)
def _compile(settings: tuple[tuple[float, float], ...]) -> CompiledPlan:
    for setting in settings:
        if not all(map(math.isfinite, setting)):
            raise ValueError(f"plan angles must be finite, got {setting}")
    labels = tuple((angle_label(t1), angle_label(t2)) for t1, t2 in settings)
    if len(set(labels)) != len(labels):
        raise ValueError("plan repeats a joint setting")
    b = bloch_vector(2 * np.array(settings, dtype=float).reshape(-1, 2), 0.0)  # (S, arm, 4)
    rows = measurement_rows(b[:, 0], b[:, 1]).reshape(-1, 16)
    rows.setflags(write=False)
    return CompiledPlan(labels, rows)
