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
lives in the numpy-free ``ering.counts``, and the coincidence model of a
run in ``ering.source``.  ``chsh_from_counts``, ``counts_from_csv`` and
``counts_to_csv`` are aliases here for the benchmark harness, resolved on
first use, so importing this module does not load ``ering.counts``.
"""

from __future__ import annotations

import math

import numpy as np

from .states import analyse, bloch_vector, check_singlet_weight

TSIRELSON_BOUND = 2 * math.sqrt(2)

#: The ``ering.counts`` names perfbench reads here.
_COUNTS_ALIASES = ("chsh_from_counts", "counts_from_csv", "counts_to_csv")


def __getattr__(name: str):
    """A counts alias, imported on first use and then kept in this module (PEP 562)."""
    if name not in _COUNTS_ALIASES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import counts

    value = globals()[name] = getattr(counts, name)
    return value


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


def chsh_optimal_family(p: float) -> tuple[float, np.ndarray]:
    """Extremal |S| = 2 sqrt(2) p of the singlet-coupled diagonal family, and its settings.

    For any density matrix that is diagonal (A, B, B, D) with a real
    coupling -p/2 between |HV> and |VH>, the stationary equatorial
    settings below give |S| = 2 sqrt(2) p independently of the diagonal
    entries A, B, D; ``states.check_singlet_weight`` checks p.
    """
    check_singlet_weight(p)
    h, q = math.pi / 2, math.pi / 4
    settings = bloch_vector(np.array([-h, h, h, -h]), np.array([q, -q, h, 0.0]))[:, 1:]
    settings.setflags(write=False)
    return TSIRELSON_BOUND * p, settings


def chsh_optimize(rho: np.ndarray) -> tuple[float, np.ndarray]:
    """Maximum |S| over all analyzer directions and settings that reach it.

    Closed form of Horodecki, Horodecki and Horodecki, Phys. Lett. A 200,
    340 (1995): with the correlation matrix T = U diag(s1, s2, s3) V^T,
    the settings a1' = u1, a1 = u2 and a2, a2' = c v1 +- s v2 with
    (c, s) = (s1, s2) / sqrt(s1^2 + s2^2) give S = 2 sqrt(s1^2 + s2^2), the maximum.
    Returns (max |S|, the read-only ``(4, 3)`` settings a1, a1', a2, a2').
    """
    u, sv, vt = analyse(rho).correlation_svd
    s1, s2, _ = sv.tolist()
    norm = math.hypot(s1, s2)
    c, s = (s1 / norm, s2 / norm) if norm else (1.0, 0.0)
    (u11, u12, _), (u21, u22, _), (u31, u32, _) = u.tolist()
    (x1, y1, z1), (x2, y2, z2), _ = vt.tolist()
    settings = np.array([
        [u12, u22, u32],
        [u11, u21, u31],
        [c * x1 + s * x2, c * y1 + s * y2, c * z1 + s * z2],
        [c * x1 - s * x2, c * y1 - s * y2, c * z1 - s * z2],
    ])
    settings.setflags(write=False)
    return 2 * norm, settings
