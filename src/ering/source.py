"""Simulation of the high-brightness E-ring photon-pair source: its coincidence counts.

The source overlaps two SPDC emission cones (a direct cone carrying
|HH> and a mirror-retroreflected cone carrying |VV>) into a single
entanglement ring (E-ring).  Sector synthesis of engineered mixtures
("patchwork": its seven sector treatments, and the Werner and MEMS
recipes as ``{treatment: weight}`` dicts) lives in ``ering.patchwork``,
which reads only ``ering.states``; ``synthesize``, ``werner_partition``
and ``mems_partition`` are aliases here, resolved on first use, for the
benchmark harness.

The configuration (``SourceConfig``) and the closed-form optics, the
mirror-displacement phase control among them, live in the numpy-free
``ering.optics``.

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

import functools
import math

import numpy as np

from .counts import STANDARD_PLAN, AnglePlan, CountsTable, angle_label
from .optics import (  # perfbench reads all but detected_pair_rate here
    SourceConfig, detected_pair_rate, displacement_visibility, ou_mandel_scan,
    phase_from_displacement,
)
from .errors import PoissonLimitError
from .sampling import poisson
from .states import analyse, bloch_vector, measurement_rows

#: The ``ering.patchwork`` names perfbench reads here.
_PATCHWORK_ALIASES = ("mems_partition", "synthesize", "werner_partition")


def __getattr__(name: str):
    """A patchwork alias, imported on first use and then kept in this module (PEP 562)."""
    if name not in _PATCHWORK_ALIASES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import patchwork

    value = globals()[name] = getattr(patchwork, name)
    return value


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


def compile_plan(plan: AnglePlan | list[tuple[float, float]]) -> tuple[tuple, np.ndarray]:
    """``(labels, rows)`` of an AnglePlan or of a list of (theta1, theta2) radian pairs.

    ``labels`` are the canonical (theta1, theta2) degree labels in plan
    order; ``rows`` is the read-only ``(3 S, 16)`` stack of the S joint, the
    S arm-1 and the S arm-2 rows of ``states.measurement_rows`` for the
    polarizers' Bloch 4-vectors b = (1, sin 2 theta, 0, cos 2 theta), so
    ``(rows @ r).reshape(3, -1)`` are the joint, arm-1 and arm-2 detection
    probabilities of the Pauli vector r.  Raises ValueError if an angle is not
    finite or two settings share a label.
    """
    if isinstance(plan, AnglePlan):
        return _compile(plan.settings)
    return _compile(tuple((float(t1), float(t2)) for t1, t2 in plan))


@functools.lru_cache(maxsize=128)  # distinct settings tuples; figure 2 runs 37 one-setting plans
def _compile(settings: tuple[tuple[float, float], ...]):
    for setting in settings:
        if not all(map(math.isfinite, setting)):
            raise ValueError(f"plan angles must be finite, got {setting}")
    labels = tuple((angle_label(t1), angle_label(t2)) for t1, t2 in settings)
    if len(set(labels)) != len(labels):
        raise ValueError("plan repeats a joint setting")
    b = bloch_vector(2 * np.array(settings, dtype=float).reshape(-1, 2), 0.0)  # (S, arm, 4)
    rows = measurement_rows(b[:, 0], b[:, 1]).reshape(-1, 16)
    rows.setflags(write=False)
    return labels, rows


def _mean_counts(rho, plan, duration: float, config: SourceConfig) -> tuple[tuple, np.ndarray]:
    """The setting labels and the noise-free mean counts of a plan, in plan order."""
    r = analyse(rho).pauli_vector
    _check_duration("duration", duration)
    labels, rows = compile_plan(plan)
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
    probabilities = (rows @ r_v).reshape(3, -1)
    singles1, singles2 = arm_rate * probabilities[1:] + config.dark_rate
    rates = pair_rate * probabilities[0] + singles1 * singles2 * config.coincidence_window
    # a null setting of a noiseless config can round to a rate of -1e-17
    return labels, np.maximum(rates, 0.0) * duration


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
    labels, means = _mean_counts(rho, plan, duration, config)
    return CountsTable(dict(zip(labels, means.tolist())), duration)


def simulate_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
    seed: int,
) -> CountsTable:
    """One seeded Poisson draw about the means of ``expected_coincidences``."""
    labels, means = _mean_counts(rho, plan, duration, config)
    counts = poisson(means, seed, "the duration or the pair rate")
    return CountsTable(dict(zip(labels, counts.tolist())), duration)


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
