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

Phase control: the pair phase phi is set by micrometric displacements of
the retroreflecting spherical mirror; ``phase_from_displacement`` ray
traces the single-arm interferometer (see docs/phase_geometry.md), and
``displacement_visibility`` models the spatial decoherence caused by the
lateral walk of the retroreflected cone on the crystal.

Coincidence counting is batched: a plan compiles once (``compile_plan``)
into its labels and one matrix of analyzer rows, so the joint and
partial-trace marginal probabilities of all its joint settings come from
one matvec with rho.  ``expected_coincidences`` turns them into the
noise-free mean counts of the plan, and ``simulate_coincidences`` draws
all counts about those means in one Poisson draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import csvfile
from .bell import STANDARD_PLAN, AnglePlan, CountsTable, compile_plan
from .errors import InputFormatError
from .states import bell_state, check_density_matrix, mems_weight, projector

SPEED_OF_LIGHT = 299792458.0

# Gaussian-spectrum coherence time as a multiple of wavelength^2/(c * bandwidth);
# calibrated so a 6 nm filter at 727.6 nm gives the measured 140 fs.
COHERENCE_TIME_SCALE = 140e-15 * SPEED_OF_LIGHT * 6e-9 / 727.6e-9**2

#: Fringe visibility of the Ou-Mandel scan (the measured interference contrast).
OU_MANDEL_VISIBILITY = 0.88

#: Bound kind of a config field -> its test, checked in this order after
#: the finite check; a failure reads "<field> must be <kind>".
_BOUNDS = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
}


def _quantity(default: float, key: str, bound: str):
    """A SourceConfig field with its config-file key and its bound kind."""
    return field(default=default, metadata={"key": key, "bound": bound})


@dataclass(frozen=True)
class SourceConfig:
    """Physical parameters of the source, SI units throughout.

    Each field carries its config-file key (lab notation) and its bound;
    every value must also be finite.  Defaults describe the degenerate
    727.6 nm configuration:

    ==================  ===================  ================================
    field               key                  quantity (default)
    ==================  ===================  ================================
    pump_wavelength     lambda_pump          pump wavelength (363.8 nm)
    wavelength          lambda               pair wavelength (727.6 nm)
    cone_aperture       alpha                cone aperture, rad (2.9 deg;
                                             1.4 deg for MEMS runs)
    mirror_radius       R                    mirror curvature radius (15 cm)
    focal_length        f                    lens focal length (15 cm)
    mask_diameter       mask_D               annular mask diameter (1.5 cm)
    mask_width          mask_delta           annular mask width (0.07 cm)
    iris_radius         iris_r               iris radius (0.75 mm)
    pair_rate           pair_rate            generated pairs per second (2e5)
    detector_qe         detector_qe          detector quantum efficiency (65 %)
    dark_rate           dark_rate            dark counts per second (50)
    filter_bandwidth    filter_bandwidth     interference filter (6 nm)
    coherence_time      tau_coh              coherence time (140 fs)
    pump_waist          pump_waist           pump waist (150 um)
    transmission        transmission         optical transmission (0.35)
    coincidence_window  coincidence_window   accidentals window (10 ns)
    visibility          visibility           effective visibility (1)
    ==================  ===================  ================================

    ``pump_wavelength`` (``lambda_pump``) and ``coherence_time``
    (``tau_coh``) are recorded only: they are validated and echoed in
    reports and manifests, but no computation reads them.  The coherence
    time used is ``coherence_time_from_bandwidth``, from
    ``filter_bandwidth``.
    """

    pump_wavelength: float = _quantity(363.8e-9, "lambda_pump", "positive")
    wavelength: float = _quantity(727.6e-9, "lambda", "positive")
    cone_aperture: float = _quantity(math.radians(2.9), "alpha", "nonnegative")
    mirror_radius: float = _quantity(0.15, "R", "positive")
    focal_length: float = _quantity(0.15, "f", "positive")
    mask_diameter: float = _quantity(1.5e-2, "mask_D", "positive")
    mask_width: float = _quantity(0.07e-2, "mask_delta", "positive")
    iris_radius: float = _quantity(0.75e-3, "iris_r", "nonnegative")
    pair_rate: float = _quantity(2e5, "pair_rate", "positive")
    detector_qe: float = _quantity(0.65, "detector_qe", "in (0, 1]")
    dark_rate: float = _quantity(50.0, "dark_rate", "nonnegative")
    filter_bandwidth: float = _quantity(6e-9, "filter_bandwidth", "positive")
    coherence_time: float = _quantity(140e-15, "tau_coh", "positive")
    pump_waist: float = _quantity(150e-6, "pump_waist", "positive")
    transmission: float = _quantity(0.35, "transmission", "in (0, 1]")
    coincidence_window: float = _quantity(10e-9, "coincidence_window", "nonnegative")
    visibility: float = _quantity(1.0, "visibility", "in [0, 1]")

    def __post_init__(self):
        quantities = fields(self)
        for f in quantities:
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for bound, holds in _BOUNDS.items():
            for f in quantities:
                if f.metadata["bound"] == bound and not holds(getattr(self, f.name)):
                    raise ValueError(f"{f.name} must be {bound}")


#: Config-file key -> dataclass field, in field order.
CONFIG_KEYS = {f.metadata["key"]: f.name for f in fields(SourceConfig)}


def config_to_dict(config: SourceConfig) -> dict:
    return {f.metadata["key"]: getattr(config, f.name) for f in fields(config)}


def config_from_dict(values: dict) -> SourceConfig:
    return config_with_overrides(SourceConfig(), values)


def load_config(path) -> SourceConfig:
    return csvfile.read_json(path, config_from_dict)


def config_with_overrides(config: SourceConfig, overrides: dict) -> SourceConfig:
    """Apply file-key overrides ({"alpha": 0.02, ...}) to a config.

    A non-object, an unknown key or a value that is not a real number (an
    int or a float, not a bool or a string) is an InputFormatError; a
    non-finite number is a ValueError of the config.
    """
    if not isinstance(overrides, dict):
        raise InputFormatError(f"expected a JSON object, got {type(overrides).__name__}")
    kwargs = {}
    for key, value in overrides.items():
        if key not in CONFIG_KEYS:
            raise InputFormatError(f"unknown config key {key!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InputFormatError(f"config key {key!r} needs a number, got {value!r}")
        try:
            kwargs[CONFIG_KEYS[key]] = float(value)
        except OverflowError:
            raise ValueError(f"{CONFIG_KEYS[key]} must be finite") from None
    return replace(config, **kwargs)


def ring_diameter(config: SourceConfig) -> float:
    """E-ring diameter 2 * alpha * f after the collimating lens."""
    return 2 * config.cone_aperture * config.focal_length


def sector_area(r: float, config: SourceConfig) -> float:
    """Selected E-ring area 2 D delta arcsin(r/D) for an iris of radius r."""
    d = config.mask_diameter
    if not 0 <= r <= d:  # NaN fails too
        raise ValueError(f"iris radius must be in [0, {d}], got {r}")
    return 2 * d * config.mask_width * math.asin(r / d)


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
    renormalized over the non-blocked sectors.
    """
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
# Mirror-displacement phase control (single-arm interferometer)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PhaseGeometry:
    """Ray-traced path lengths and pair phase for a mirror displacement.

    delta_d > 0 moves the mirror away from the crystal.  ``oa_prime`` is
    the pump leg (axis, one way), ``ob_prime`` and ``b_prime_c`` the two
    legs of the retroreflected pair ray at the cone aperture, and
    ``lateral_offset`` the radius OC at which the retroreflected cone
    lands back on the crystal plane (about 0.1 * delta_d).  ``phi`` is
    the signed, unwrapped pair phase
    (4 pi / lambda) * (2 OA' - (OB' + B'C)); phi(0) = 0.
    """

    delta_d: float
    oa_prime: float
    ob_prime: float
    b_prime_c: float
    lateral_offset: float
    phi: float


def _trace_reflected_ray(delta_d: float, radius: float, alpha: float) -> tuple[float, float, float]:
    """Exact planar trace of the cone ray: O -> mirror -> crystal plane.

    Returns (O->B' length, B'->C length, |OC| lateral offset).  The
    mirror is a sphere of radius R centered at (delta_d, 0); at
    delta_d = 0 every cone ray is radial and retraces itself.
    """
    u = np.array([math.cos(alpha), math.sin(alpha)])
    center = np.array([delta_d, 0.0])
    b = float(u @ center)
    t = b + math.sqrt(b * b + radius * radius - delta_d * delta_d)
    hit = t * u
    normal = (hit - center) / radius
    reflected = u - 2 * float(u @ normal) * normal
    if reflected[0] >= 0:
        raise ValueError("reflected ray does not return to the crystal plane")
    s = -hit[0] / reflected[0]
    landing = hit + s * reflected
    return t, s, abs(float(landing[1]))


def phase_from_displacement(delta_d: float, config: SourceConfig) -> PhaseGeometry:
    """Pair phase and path geometry for a mirror displacement delta_d.

    Valid for |delta_d| << R; raises for |delta_d| >= R/10.  The pump
    leg is OA' = R + delta_d; OB' uses the law of cosines in the
    triangle (crystal, mirror center, hit point); B'C comes from the
    explicit ray trace.  phi is returned signed and unwrapped so that it
    is odd and monotone in delta_d near the origin (|phi| reaches pi
    near 70 um at the default geometry).
    """
    r = config.mirror_radius
    if not abs(delta_d) < r / 10:  # NaN fails too
        raise ValueError(f"delta_d = {delta_d} outside modeled regime |delta_d| < R/10 = {r / 10}")
    alpha = config.cone_aperture
    oa_prime = r + delta_d
    ob_prime = math.sqrt(delta_d**2 + r**2 + 2 * r * delta_d * math.cos(alpha))
    _, b_prime_c, lateral = _trace_reflected_ray(delta_d, r, alpha)
    phi = 4 * math.pi / config.wavelength * (2 * oa_prime - (ob_prime + b_prime_c))
    return PhaseGeometry(delta_d, oa_prime, ob_prime, b_prime_c, lateral, phi)


def displacement_visibility(delta_d: float, config: SourceConfig) -> float:
    """Fringe visibility left after the spatial walk of the reflected cone.

    Gaussian overlap of the retroreflected annulus (radius OC, from the
    ray trace) with the active pump region; the width is calibrated to
    pump_waist/4 so that coherence is gone (V <= 0.25) by the observed
    600 um displacement while 100 um still gives V > 0.9.
    """
    if not math.isfinite(delta_d):
        raise ValueError(f"mirror displacement must be finite, got {delta_d}")
    if delta_d == 0.0:
        return 1.0
    _, _, lateral = _trace_reflected_ray(abs(delta_d), config.mirror_radius, config.cone_aperture)
    width = config.pump_waist / 4
    return float(math.exp(-((lateral / width) ** 2)))


# ---------------------------------------------------------------------------
# Coincidence counting
# ---------------------------------------------------------------------------


def apply_effective_visibility(rho: np.ndarray, visibility: float) -> np.ndarray:
    """Depolarize toward the maximally mixed state: v rho + (1-v) I/4.

    Every correlation function scales by v, so both the coincidence
    fringe visibility and the CHSH parameter of the simulated state are
    exactly v times their ideal values (a singlet at v reproduces a
    Werner state of weight v).
    """
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must be in [0, 1]")
    rho = np.asarray(rho, dtype=complex)
    return visibility * rho + (1 - visibility) * np.eye(4, dtype=complex) / 4


def detected_pair_rate(config: SourceConfig) -> float:
    """Coincidence rate before analyzers: pair_rate * QE^2 * transmission."""
    return config.pair_rate * config.detector_qe**2 * config.transmission


def _coincidences(probabilities, config: SourceConfig):
    """Rates from stacked (joint, arm-1 marginal, arm-2 marginal) probabilities."""
    # the singles rate of an arm: pair_rate * QE * sqrt(transmission) * marginal + dark_rate
    arm_rate = config.pair_rate * config.detector_qe * math.sqrt(config.transmission)
    singles1, singles2 = arm_rate * probabilities[1:] + config.dark_rate
    accidental = singles1 * singles2 * config.coincidence_window
    return detected_pair_rate(config) * probabilities[0] + accidental


def _check_duration(name: str, duration: float) -> None:
    if not math.isfinite(duration):
        raise ValueError(f"{name} must be finite, got {duration}")
    if duration <= 0:
        raise ValueError(f"{name} must be positive")


def expected_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
) -> CountsTable:
    """Noise-free mean coincidence counts of each joint polarizer setting.

    ``plan`` is a list of distinct (theta1, theta2) radian pairs (compared
    by canonical degree label) or an AnglePlan; ``duration`` is the
    integration time per setting.  The plan compiles once (``compile_plan``),
    the config's effective visibility is applied to rho, and every mean is
    (true-pair rate + singles1 * singles2 * coincidence_window) * duration.
    """
    rho = check_density_matrix(rho)
    _check_duration("duration", duration)
    compiled = compile_plan(plan)
    rho_v = apply_effective_visibility(rho, config.visibility)
    rates = _coincidences(compiled.probabilities(rho_v), config)
    # a null setting of a noiseless config can round to a rate of -1e-17
    means = np.maximum(rates, 0.0) * duration
    return CountsTable(dict(zip(compiled.labels, means.tolist())), duration)


def simulate_coincidences(
    rho: np.ndarray,
    plan: AnglePlan | list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
    seed: int,
) -> CountsTable:
    """One seeded Poisson draw about the means of ``expected_coincidences``."""
    means = expected_coincidences(rho, plan, duration, config)
    counts = np.random.default_rng(seed).poisson(list(means.entries.values()))
    return CountsTable(dict(zip(means.entries, counts.tolist())), duration)


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


# ---------------------------------------------------------------------------
# Ou-Mandel interference
# ---------------------------------------------------------------------------


def coherence_time_from_bandwidth(config: SourceConfig) -> float:
    """Gaussian-model coherence time of the filtered pairs.

    Proportional to wavelength^2 / (c * bandwidth); the scale constant is
    fixed once so the default 6 nm filter gives 140 fs.
    """
    return (
        COHERENCE_TIME_SCALE
        * config.wavelength**2
        / (SPEED_OF_LIGHT * config.filter_bandwidth)
    )


def ou_mandel_scan(phi: float, x_values, config: SourceConfig) -> list[tuple[float, float]]:
    """Normalized coincidence rate versus beam-splitter position x.

    C(x) = 1 - V cos(phi) exp(-(x/sigma)^2) with V = OU_MANDEL_VISIBILITY
    and sigma = c * tau / 2, where
    tau = coherence_time_from_bandwidth(config) is set by the filter
    bandwidth (the config's ``coherence_time`` is not read), and the factor
    2 is there because moving the splitter by x changes the path
    difference by 2x.  phi = 0 gives a dip, phi = pi a peak and
    phi = pi/2 a flat trace; far from x = 0 the rate is 1 for any phi.
    A non-finite phi or x raises ValueError.
    """
    if not math.isfinite(phi):
        raise ValueError(f"Ou-Mandel phase phi must be finite, got {phi}")
    sigma = SPEED_OF_LIGHT * coherence_time_from_bandwidth(config) / 2
    out = []
    for x in x_values:
        if not math.isfinite(x):
            raise ValueError(f"beam-splitter position x must be finite, got {x}")
        envelope = math.exp(-((x / sigma) ** 2))
        out.append((float(x), 1.0 - OU_MANDEL_VISIBILITY * math.cos(phi) * envelope))
    return out


def ou_mandel_fwhm(config: SourceConfig) -> float:
    """Predicted full width at half depth of the phi = 0 dip, in meters."""
    sigma = SPEED_OF_LIGHT * coherence_time_from_bandwidth(config) / 2
    return 2 * sigma * math.sqrt(math.log(2))
