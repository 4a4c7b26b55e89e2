"""Simulation of the high-brightness E-ring photon-pair source: its coincidence counts.

The source overlaps two SPDC emission cones (a direct cone carrying
|HH> and a mirror-retroreflected cone carrying |VV>) into a single
entanglement ring (E-ring).  Sector synthesis ("patchwork") lives in
``ering.patchwork``; ``synthesize``, ``werner_partition`` and
``mems_partition`` are aliases here, resolved on first use, for the
benchmark harness.  The configuration, the closed-form optics and the rate
model (``mean_counts``) live in the numpy-free ``ering.optics``.

A plan compiles once (``compile_plan``) into its labels and one matrix of
rows; ``expected_coincidences`` returns their ``mean_counts`` against rho's
cached Pauli vector, and ``simulate_coincidences`` draws all counts about
those means in one Poisson draw.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .counts import STANDARD_PLAN, AnglePlan, CountsTable, angle_label
from .optics import (  # perfbench reads all but check_duration and mean_counts here
    SourceConfig, check_duration, displacement_visibility, mean_counts, ou_mandel_scan,
    phase_from_displacement,
)
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
    Werner state of weight v).  ``optics.mean_counts`` applies it to r.
    """
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must be in [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    return visibility * rho + (1 - visibility) * np.eye(4, dtype=complex) / 4


def compile_plan(plan: AnglePlan | list[tuple[float, float]]) -> tuple[tuple, np.ndarray]:
    """``(labels, rows)`` of an AnglePlan or of a list of (theta1, theta2) radian pairs.

    ``labels`` are the canonical (theta1, theta2) degree labels in plan
    order; ``rows`` is the read-only ``(3 S, 16)`` stack of the S joint, the
    S arm-1 and the S arm-2 rows of ``states.measurement_rows`` for the
    polarizers' Bloch 4-vectors b = (1, sin 2 theta, 0, cos 2 theta).  Raises
    ValueError if an angle is not finite or two settings share a label.
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


#: The inputs a PoissonLimitError of a Bell run tells its caller to lower.
_MEANS_INPUTS = "the duration or the pair rate"


def _mean_counts(rho, plan, duration: float, config: SourceConfig) -> tuple[tuple, np.ndarray]:
    """The setting labels and the noise-free mean counts of a plan, in plan order."""
    r = analyse(rho).pauli_vector
    check_duration("duration", duration)
    labels, rows = compile_plan(plan)
    return labels, mean_counts(r, rows, duration, config, _MEANS_INPUTS)


def expected_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
) -> CountsTable:
    """Noise-free mean coincidence counts of each joint polarizer setting.

    ``plan`` is a list of distinct (theta1, theta2) radian pairs (compared
    by canonical degree label) or an AnglePlan; ``duration`` is the
    integration time per setting.  The means are ``optics.mean_counts`` of the
    compiled plan; means that would overflow a float raise a ValueError (a
    ``PoissonLimitError``).
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
    counts = poisson(means, seed, _MEANS_INPUTS)
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
    check_duration("total_duration", total_duration)
    per_setting = total_duration / len(plan.settings)
    return simulate_coincidences(rho, plan, per_setting, config, seed), plan
