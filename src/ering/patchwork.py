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

A sector's ``fraction`` is its detected weight: its share of the pairs
that reach the detectors, not its share of the ring's angle.  The
synthesized state is the mixture of the sector states weighted by their
fractions, renormalized over the non-blocked sectors.  The two shares
agree for the two-cone treatments; a one-cone treatment
(``reflected_blocked``, ``flipped_and_reflected_blocked``) passes about
half the pair flux per unit angle, so it needs about twice the angle for
the same detected weight.
``werner_partition`` and ``mems_partition`` are the sector recipes of the
two families, to be synthesized at phi = pi.

This module reads only ``ering.states``, so ``ering state werner|mems --via
patchwork`` loads none of the source's optics or counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import bell_state, mems_weight, projector


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


@dataclass(frozen=True)
class Sector:
    label: str
    fraction: float
    treatment: str


@dataclass(frozen=True)
class SectorPartition:
    """Angular sectors of the E-ring with their optical treatments."""

    sectors: tuple[Sector, ...]

    def __init__(self, sectors):
        object.__setattr__(self, "sectors", tuple(sectors))
        labels = [s.label for s in self.sectors]
        if len(set(labels)) != len(labels):
            raise ValueError("sector labels must be unique")
        for s in self.sectors:
            if not s.fraction >= 0:  # NaN fails too
                raise ValueError(f"sector {s.label!r} has negative or NaN fraction {s.fraction}")
            if s.treatment not in TREATMENTS:
                raise ValueError(f"unknown treatment {s.treatment!r}")
        total = sum(s.fraction for s in self.sectors)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sector fractions sum to {total}, expected 1")


def synthesize(partition: SectorPartition, phi: float) -> np.ndarray:
    """Detection-conditioned state of a patchwork partition at pair phase phi.

    Mixture of the per-sector states weighted by their detected weights
    ``Sector.fraction``, renormalized over the non-blocked sectors.  A
    non-finite phi raises ValueError.
    """
    if not math.isfinite(phi):
        raise ValueError(f"pair phase phi must be finite, got {phi}")
    total = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    for sector in partition.sectors:
        state = _SECTOR_STATES[sector.treatment]
        if state is None:
            continue
        rho += sector.fraction * state(phi)
        total += sector.fraction
    if total <= 0.0:
        raise ValueError("all sectors are blocked; no state reaches the detectors")
    return rho / total


def werner_partition(p: float) -> SectorPartition:
    """Three-sector recipe for werner(p), to be synthesized at phi = pi.

    Sector A (fraction p) stays coherent with the arm-2 flip (singlet);
    sectors B and C (each (1-p)/2) are time-delay decohered, B with and
    C without the flip, erasing all off-diagonal elements there.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"singlet weight p must be in [0, 1], got {p}")
    return SectorPartition(
        [
            Sector("A", p, "flipped_and_coherent"),
            Sector("B", (1 - p) / 2, "flipped_and_decohered"),
            Sector("C", (1 - p) / 2, "decohered"),
        ]
    )


def mems_partition(p: float) -> SectorPartition:
    """Sector recipe for mems(p), to be synthesized at phi = pi.

    The |VV> channel is removed everywhere by blocking the retroreflected
    cone outside the singlet sector.  Weights are solved from the target
    matrix: singlet fraction p, a direct-cone-only |HH> sector of weight
    1 - 2 g(p), and (for p < 2/3 only) a flipped decohered sector of
    weight 2/3 - p supplying the equal |HV>, |VH> diagonal terms.
    """
    g = mems_weight(p)
    return SectorPartition(
        [
            Sector("singlet", p, "flipped_and_coherent"),
            Sector("hh_product", 1 - 2 * g, "reflected_blocked"),
            Sector("hv_vh_decohered", 2 * (g - p / 2), "flipped_and_decohered"),
        ]
    )
