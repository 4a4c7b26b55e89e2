"""Patchwork synthesis: the E-ring state engineered sector by sector.

The source overlaps two SPDC emission cones (a direct cone carrying
|HH> and a mirror-retroreflected cone carrying |VV>) into a single
entanglement ring (E-ring).  Inserting optical elements over angular
sectors of the ring turns the nominally pure output into engineered
mixtures.  The treatments of a sector, in the order of ``TREATMENTS``
(each is one entry of ``_SECTOR_STATES``):

=================================  ============================  ==============================
treatment                          optics over the sector        sector state at pair phase phi
=================================  ============================  ==============================
``coherent``                       none                          (|HH> + e^{i phi}|VV>)/sqrt(2)
``decohered``                      glass-plate delay > tau_coh   (|HH><HH| + |VV><VV|)/2
``flipped_and_coherent``           half-wave flip on arm 2       (|HV> + e^{i phi}|VH>)/sqrt(2)
``flipped_and_decohered``          delay plate and flip          (|HV><HV| + |VH><VH|)/2
``reflected_blocked``              screen on the mirror cone     |HH><HH|
``flipped_and_reflected_blocked``  screen and flip               |HV><HV|
``blocked``                        opaque screen                 none: contributes nothing
=================================  ============================  ==============================

A recipe is a ``{treatment: weight}`` dict.  A weight is the detected
weight of the sectors given that treatment: their share of the pairs
that reach the detectors, not their share of the ring's angle.  The
synthesized state is the mixture of the sector states weighted by their
weights, renormalized over the non-blocked treatments.  The two shares
agree for the two-cone treatments; a one-cone treatment
(``reflected_blocked``, ``flipped_and_reflected_blocked``) passes about
half the pair flux per unit angle, so it needs about twice the angle for
the same detected weight.
``werner_partition`` and ``mems_partition`` are the recipes of the two
families, to be synthesized at phi = pi.

This module reads only ``ering.states``, so ``ering state werner|mems --via
patchwork`` loads none of the source's optics or counts.
"""

from __future__ import annotations

import math

import numpy as np

from .states import bell_state, check_singlet_weight, mems_weight, projector


def _diagonal(*weights: float) -> np.ndarray:
    return np.diag(np.array(weights, dtype=complex))


#: Treatment -> its sector state as a function of the pair phase phi
#: (None: the sector contributes nothing).  The module docstring tables them.
_SECTOR_STATES = {
    "coherent": lambda phi: projector(bell_state("phi", phi)),
    "decohered": lambda phi: _diagonal(0.5, 0, 0, 0.5),
    "flipped_and_coherent": lambda phi: projector(bell_state("psi", phi)),
    "flipped_and_decohered": lambda phi: _diagonal(0, 0.5, 0.5, 0),
    "reflected_blocked": lambda phi: _diagonal(1, 0, 0, 0),
    "flipped_and_reflected_blocked": lambda phi: _diagonal(0, 1, 0, 0),
    "blocked": None,
}

TREATMENTS = tuple(_SECTOR_STATES)


def synthesize(recipe: dict[str, float], phi: float) -> np.ndarray:
    """Detection-conditioned state of a ``{treatment: weight}`` recipe at pair phase phi.

    Mixture of the sector states weighted by their detected weights, summed
    in the recipe's order and renormalized over the non-blocked treatments.
    Raises ValueError for a non-finite phi, an unknown treatment, a
    negative or NaN weight, weights that do not sum to 1 within 1e-9, or a
    recipe that blocks everything.
    """
    if not math.isfinite(phi):
        raise ValueError(f"pair phase phi must be finite, got {phi}")
    for treatment, weight in recipe.items():
        if treatment not in _SECTOR_STATES:
            raise ValueError(f"unknown treatment {treatment!r}")
        if not weight >= 0:  # NaN fails too
            raise ValueError(f"treatment {treatment!r} has negative or NaN weight {weight}")
    weights = sum(recipe.values())
    if abs(weights - 1.0) > 1e-9:
        raise ValueError(f"recipe weights sum to {weights}, expected 1")
    detected = {t: weight for t, weight in recipe.items() if _SECTOR_STATES[t] is not None}
    total = sum(detected.values())
    if total <= 0.0:
        raise ValueError("all sectors are blocked; no state reaches the detectors")
    return sum(weight * _SECTOR_STATES[t](phi) for t, weight in detected.items()) / total


def werner_partition(p: float) -> dict[str, float]:
    """Three-sector recipe for werner(p), to be synthesized at phi = pi.

    Weight p stays coherent with the arm-2 flip (singlet); two weights of
    (1-p)/2 are time-delay decohered, one with and one without the flip,
    erasing all off-diagonal elements there; ``states.check_singlet_weight`` checks p.
    """
    check_singlet_weight(p)
    return {
        "flipped_and_coherent": p,
        "flipped_and_decohered": (1 - p) / 2,
        "decohered": (1 - p) / 2,
    }


def mems_partition(p: float) -> dict[str, float]:
    """Sector recipe for mems(p), to be synthesized at phi = pi.

    The |VV> channel is removed everywhere by blocking the retroreflected
    cone outside the singlet sector.  Weights are solved from the target
    matrix: singlet weight p, a direct-cone-only |HH> sector of weight
    1 - 2 g(p), and (for p < 2/3 only) a flipped decohered sector of
    weight 2/3 - p supplying the equal |HV>, |VH> diagonal terms.
    """
    g = mems_weight(p)
    return {
        "flipped_and_coherent": p,
        "reflected_blocked": 1 - 2 * g,
        "flipped_and_decohered": 2 * (g - p / 2),
    }
