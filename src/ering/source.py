"""Simulation of the high-brightness E-ring photon-pair source.

The source overlaps two SPDC emission cones (a direct cone carrying
|HH> and a mirror-retroreflected cone carrying |VV>) into a single
entanglement ring (E-ring).  Inserting optical elements over angular
sectors of the ring turns the nominally pure output into engineered
mixtures ("patchwork" synthesis).  The treatments of a sector, in the
order of ``TREATMENTS`` (each is one entry of ``_SECTOR_STATES``):

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

Sector weights are detection-conditioned: the synthesized state is the
angular-fraction-weighted mixture over non-blocked sectors, renormalized.

The configuration (``SourceConfig``) and the closed-form optics, the
mirror-displacement phase control among them, live in the numpy-free
``ering.optics``; this module re-exports them.

Coincidence counting is batched: a plan compiles once (``compile_plan``)
into its labels and one matrix of rows against the Pauli vector of rho, so
the joint and partial-trace marginal probabilities of all its joint
settings come from one matvec.  The vector is the one cached in rho's
analysis record, depolarized in Pauli coordinates by the visibility v
(r_v = v r + (1-v) e_0).  One private mean computation serves both
simulators: ``expected_coincidences`` returns those noise-free mean counts
of the plan, and ``simulate_coincidences`` draws all counts about the same
array in one Poisson draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import CompiledPlan, compile_plan
from .counts import STANDARD_PLAN, AnglePlan, CountsTable
from .optics import (  # re-exported: the configuration and optics are part of this module's API
    COHERENCE_TIME_SCALE, CONFIG_KEYS, OU_MANDEL_VISIBILITY, SPEED_OF_LIGHT, PhaseGeometry,
    SourceConfig, coherence_time_from_bandwidth, config_from_dict, config_to_dict,
    config_with_overrides, detected_pair_rate, displacement_visibility, load_config,
    ou_mandel_fwhm, ou_mandel_scan, phase_from_displacement, ring_diameter, sector_area,
)
from .errors import PoissonLimitError
from .sampling import poisson
from .states import analyse, bell_state, mems_weight, projector

# ---------------------------------------------------------------------------
# Sector patchwork
# ---------------------------------------------------------------------------


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

    Mixture of per-sector states weighted by angular fraction,
    renormalized over the non-blocked sectors.  A non-finite phi raises ValueError.
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


# ---------------------------------------------------------------------------
# Coincidence counting
# ---------------------------------------------------------------------------


def apply_effective_visibility(rho: np.ndarray, visibility: float) -> np.ndarray:
    """Depolarize toward the maximally mixed state: v rho + (1-v) I/4.

    Every correlation function scales by v, so both the coincidence
    fringe visibility and the CHSH parameter of the simulated state are
    exactly v times their ideal values (a singlet at v reproduces a
    Werner state of weight v).  The mean counts apply the same map to the
    state's Pauli vector instead: r_v = v r + (1-v) e_0.
    """
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must be in [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    return visibility * rho + (1 - visibility) * np.eye(4, dtype=complex) / 4


def _check_duration(name: str, duration: float) -> None:
    if not math.isfinite(duration):
        raise ValueError(f"{name} must be finite, got {duration}")
    if duration <= 0:
        raise ValueError(f"{name} must be positive")


def _mean_counts(
    rho, plan, duration: float, config: SourceConfig
) -> tuple[CompiledPlan, np.ndarray]:
    """The compiled plan and the noise-free mean counts of its settings, in plan order."""
    r = analyse(rho).pauli_vector
    _check_duration("duration", duration)
    compiled = compile_plan(plan)
    # the singles rate of an arm: pair_rate * QE * sqrt(transmission) * marginal + dark_rate
    arm_rate = config.pair_rate * config.detector_qe * math.sqrt(config.transmission)
    pair_rate = detected_pair_rate(config)
    # means that could overflow are refused before numpy warns: the bound has every
    # probability at 1 (times 2 for rounding above 1), multiplied in the order used below
    peak_singles = arm_rate + config.dark_rate
    largest = (pair_rate + peak_singles * peak_singles * config.coincidence_window) * duration
    if not math.isfinite(2 * largest):
        raise PoissonLimitError("the mean counts overflow a float", "the duration or the pair rate")
    r_v = config.visibility * r
    r_v[0] += 1 - config.visibility
    probabilities = compiled.probabilities(r_v)
    singles1, singles2 = arm_rate * probabilities[1:] + config.dark_rate
    rates = pair_rate * probabilities[0] + singles1 * singles2 * config.coincidence_window
    # a null setting of a noiseless config can round to a rate of -1e-17
    return compiled, np.maximum(rates, 0.0) * duration


def expected_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
) -> CountsTable:
    """Noise-free mean coincidence counts of each joint polarizer setting.

    ``plan`` is a list of distinct (theta1, theta2) radian pairs (compared
    by canonical degree label) or an AnglePlan; ``duration`` is the
    integration time per setting.  The plan compiles once (``compile_plan``);
    the config's effective visibility v depolarizes the Pauli vector r of
    rho cached in its analysis record, r_v = v r + (1-v) e_0 (the vector of
    ``apply_effective_visibility(rho, v)``), and the probabilities are the
    compiled rows against r_v.  Every mean is (true-pair rate + singles1 *
    singles2 * coincidence_window) * duration.  Means that would overflow a
    float raise a ValueError (a ``PoissonLimitError``).
    """
    compiled, means = _mean_counts(rho, plan, duration, config)
    return CountsTable(dict(zip(compiled.labels, means.tolist())), duration)


def simulate_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
    seed: int,
) -> CountsTable:
    """One seeded Poisson draw about the means of ``expected_coincidences``."""
    compiled, means = _mean_counts(rho, plan, duration, config)
    counts = poisson(means, seed, "the duration or the pair rate")
    return CountsTable(dict(zip(compiled.labels, counts.tolist())), duration)


def simulate_bell_test(
    rho: np.ndarray,
    total_duration: float,
    config: SourceConfig,
    seed: int,
    plan: AnglePlan | None = None,
) -> tuple[CountsTable, AnglePlan]:
    """Full 16-setting CHSH run with the total time split evenly.

    Models the standard procedure of integrating for total_duration
    seconds over the whole measurement sequence, i.e. total/16 per joint
    setting (total/S for a plan whose S distinct settings are fewer).
    """
    if plan is None:
        plan = STANDARD_PLAN
    _check_duration("total_duration", total_duration)
    per_setting = total_duration / len(plan.settings)
    return simulate_coincidences(rho, plan, per_setting, config, seed), plan
