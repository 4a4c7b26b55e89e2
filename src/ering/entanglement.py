"""Entanglement and mixedness measures for two-qubit states.

Implements the Wootters concurrence/tangle, the linear entropy
S_L = (4/3)(1 - Tr rho^2), the positive-partial-transpose separability
test (exact for two qubits), the analytic tangle-vs-entropy frontier
curves of the Werner and MEMS families, and the nonlocality region
classification of both families.  The per-state measures are views of
the state's cached analysis record (``states.analyse``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .states import analyse

WERNER = "werner"
MEMS = "mems"


def concurrence(rho: np.ndarray) -> float:
    """Wootters concurrence C(rho) of a two-qubit density matrix.

    C = max(0, l1 - l2 - l3 - l4) where the l_i are the decreasing singular
    values of sqrt(rho) (sy x sy) sqrt(rho)*, the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).
    """
    return analyse(rho).concurrence


def tangle(rho: np.ndarray) -> float:
    """Tangle T = C(rho)^2; zero iff the state is separable."""
    return concurrence(rho) ** 2


def linear_entropy(rho: np.ndarray) -> float:
    """Linear entropy S_L = (4/3)(1 - Tr rho^2), clamped to [0, 1].

    Round-off puts Tr rho^2 of a rank-1 state a few ulps above 1.
    """
    return analyse(rho).linear_entropy


def is_separable_ppt(rho: np.ndarray) -> tuple[bool, float]:
    """Peres-Horodecki test, exact in 2x2.

    Returns (separable, negativity) where negativity is
    2 * max(0, -min eigenvalue of the partial transpose) and separability
    means the minimum eigenvalue is >= -1e-10.
    """
    min_eig = analyse(rho).min_partial_transpose_eigenvalue
    separable = min_eig >= -1e-10
    negativity = 2 * max(0.0, -min_eig)
    return separable, negativity


def tangle_curve(family: str, s_l: float) -> float:
    """Analytic tangle at a given linear entropy along a state family.

    Werner:  T = (1 - 3 sqrt(1 - S_L))^2 / 4 for S_L <= 8/9, else 0.
    MEMS:    T = (1 + sqrt(1 - (3/2) S_L))^2 / 4 for S_L <= 16/27,
             4/3 - (3/2) S_L for 16/27 < S_L <= 8/9, else 0.

    The MEMS branch is the frontier: no physical two-qubit state lies
    above it.
    """
    if not 0.0 <= s_l <= 1.0:
        raise ValueError(f"linear entropy must be in [0, 1], got {s_l}")
    if family == WERNER:
        if s_l >= 8 / 9:
            return 0.0
        return 0.25 * (1 - 3 * math.sqrt(1 - s_l)) ** 2
    if family == MEMS:
        if s_l <= 16 / 27:
            return 0.25 * (1 + math.sqrt(1 - 1.5 * s_l)) ** 2
        if s_l <= 8 / 9:
            return 4 / 3 - 1.5 * s_l
        return 0.0
    raise ValueError(f"family must be {WERNER!r} or {MEMS!r}, got {family!r}")


class Region(enum.Enum):
    """Nonlocality regions of the Werner/MEMS families."""

    VIOLATES_LOCAL_REALISM = "violates_local_realism"
    NONSEPARABLE_NO_CHSH_VIOLATION = "nonseparable_no_CHSH_violation"
    SEPARABLE_LOCAL = "separable_local"


@dataclass(frozen=True)
class NonlocalityClass:
    """Region assignment for a family member, with its S_L interval."""

    family: str
    region: Region
    s_l_interval: tuple[float, float]


# linear entropy of the MEMS with p = 1/sqrt(2): (8/3) p (1 - p)
_S_L_CHSH_BOUNDARY_MEMS = (8 / 3) * (1 / math.sqrt(2)) * (1 - 1 / math.sqrt(2))

#: Per family, (threshold, region, S_L interval) rows, highest threshold first:
#: a member lies in the first row whose threshold its p exceeds.
_REGIONS = {
    WERNER: (
        (1 / math.sqrt(2), Region.VIOLATES_LOCAL_REALISM, (0.0, 0.5)),
        (1 / 3, Region.NONSEPARABLE_NO_CHSH_VIOLATION, (0.5, 8 / 9)),
        (-math.inf, Region.SEPARABLE_LOCAL, (8 / 9, 1.0)),
    ),
    MEMS: (
        (1 / math.sqrt(2), Region.VIOLATES_LOCAL_REALISM, (0.0, _S_L_CHSH_BOUNDARY_MEMS)),
        (0.0, Region.NONSEPARABLE_NO_CHSH_VIOLATION, (_S_L_CHSH_BOUNDARY_MEMS, 8 / 9)),
        (-math.inf, Region.SEPARABLE_LOCAL, (8 / 9, 8 / 9)),
    ),
}


def classify(family: str, p: float) -> NonlocalityClass:
    """Nonlocality region of werner(p) or mems(p).

    Werner: CHSH violation for p > 1/sqrt(2) (S_L < 1/2), nonseparable
    without violation for 1/3 < p <= 1/sqrt(2) (1/2 <= S_L < 8/9),
    separable and local for p <= 1/3 (S_L >= 8/9).  MEMS: violation for
    p > 1/sqrt(2) (S_L < 0.552...), nonseparable without violation for
    0 < p <= 1/sqrt(2); only mems(0) = diag(1/3, 1/3, 1/3, 0) is separable,
    at the single point S_L = 8/9.  Both violation thresholds are strict:
    p = 1/sqrt(2) does not violate.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if family not in _REGIONS:
        raise ValueError(f"family must be {WERNER!r} or {MEMS!r}, got {family!r}")
    for threshold, region, s_l_interval in _REGIONS[family]:
        if p > threshold:
            return NonlocalityClass(family, region, s_l_interval)
