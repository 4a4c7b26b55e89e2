"""Simulation of the high-brightness E-ring photon-pair source.

The source overlaps two SPDC emission cones (a direct cone carrying
|HH> and a mirror-retroreflected cone carrying |VV>) into a single
entanglement ring (E-ring).  Inserting optical elements over angular
sectors of the ring turns the nominally pure output into engineered
mixtures ("patchwork" synthesis):

* ``coherent``               - undisturbed sector, pure (|HH> + e^{i phi}|VV>)/sqrt(2)
* ``decohered``              - glass-plate time delay > coherence time,
                               classical mixture (|HH><HH| + |VV><VV|)/2
* ``flipped_and_coherent``   - half-wave flip on arm 2, pure (|HV> + e^{i phi}|VH>)/sqrt(2)
* ``flipped_and_decohered``  - both of the above, (|HV><HV| + |VH><VH|)/2
* ``reflected_blocked``      - opaque screen on the retroreflected cone,
                               only the direct cone survives: |HH><HH|
* ``flipped_and_reflected_blocked`` - screen plus arm-2 flip: |HV><HV|
* ``blocked``                - whole sector opaque, contributes nothing

Sector weights are detection-conditioned: the synthesized state is the
angular-fraction-weighted mixture over non-blocked sectors, renormalized.

Phase control: the pair phase phi is set by micrometric displacements of
the retroreflecting spherical mirror; ``phase_from_displacement`` ray
traces the single-arm interferometer (see docs/phase_geometry.md), and
``displacement_visibility`` models the spatial decoherence caused by the
lateral walk of the retroreflected cone on the crystal.

Coincidence counting is batched: one einsum kernel gives the joint and
partial-trace marginal probabilities of every joint analyzer setting of a
plan, and all counts come from one Poisson draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .bell import STANDARD_PLAN, AnglePlan, CountsTable, angle_label, polarizer_kets
from .bell import joint_detection_probability
from .errors import InputFormatError
from .states import bell_state, check_density_matrix, mems_weight, projector

SPEED_OF_LIGHT = 299792458.0

TREATMENT_COHERENT = "coherent"
TREATMENT_DECOHERED = "decohered"
TREATMENT_FLIPPED_COHERENT = "flipped_and_coherent"
TREATMENT_FLIPPED_DECOHERED = "flipped_and_decohered"
TREATMENT_REFLECTED_BLOCKED = "reflected_blocked"
TREATMENT_FLIPPED_REFLECTED_BLOCKED = "flipped_and_reflected_blocked"
TREATMENT_BLOCKED = "blocked"

TREATMENTS = (
    TREATMENT_COHERENT,
    TREATMENT_DECOHERED,
    TREATMENT_FLIPPED_COHERENT,
    TREATMENT_FLIPPED_DECOHERED,
    TREATMENT_REFLECTED_BLOCKED,
    TREATMENT_FLIPPED_REFLECTED_BLOCKED,
    TREATMENT_BLOCKED,
)

# Gaussian-spectrum coherence time as a multiple of wavelength^2/(c * bandwidth);
# calibrated so a 6 nm filter at 727.6 nm gives the measured 140 fs.
COHERENCE_TIME_SCALE = 140e-15 * SPEED_OF_LIGHT * 6e-9 / 727.6e-9**2


@dataclass(frozen=True)
class SourceConfig:
    """Physical parameters of the source, SI units throughout.

    Defaults describe the degenerate 727.6 nm configuration: 2.9 deg cone
    aperture (1.4 deg for MEMS runs), 15 cm mirror and lens, a 1.5 cm x
    0.07 cm annular mask, 2e5 generated pairs per second, 65 % detector
    quantum efficiency, 50 /s dark counts and a 6 nm filter giving a
    140 fs coherence time.

    ``pump_wavelength`` (``lambda_pump``) and ``coherence_time``
    (``tau_coh``) are recorded only: they are validated and echoed in
    reports and manifests, but no computation reads them.  The coherence
    time used is ``coherence_time_from_bandwidth``, from
    ``filter_bandwidth``.
    """

    pump_wavelength: float = 363.8e-9
    wavelength: float = 727.6e-9
    cone_aperture: float = math.radians(2.9)
    mirror_radius: float = 0.15
    focal_length: float = 0.15
    mask_diameter: float = 1.5e-2
    mask_width: float = 0.07e-2
    iris_radius: float = 0.75e-3
    pair_rate: float = 2e5
    detector_qe: float = 0.65
    dark_rate: float = 50.0
    filter_bandwidth: float = 6e-9
    coherence_time: float = 140e-15
    pump_waist: float = 150e-6
    transmission: float = 0.35
    coincidence_window: float = 10e-9
    visibility: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in (
            "pump_wavelength",
            "wavelength",
            "mirror_radius",
            "focal_length",
            "mask_diameter",
            "mask_width",
            "pair_rate",
            "filter_bandwidth",
            "coherence_time",
            "pump_waist",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("cone_aperture", "iris_radius", "dark_rate", "coincidence_window"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not 0 < self.detector_qe <= 1:
            raise ValueError("detector_qe must be in (0, 1]")
        if not 0 < self.transmission <= 1:
            raise ValueError("transmission must be in (0, 1]")
        if not 0 <= self.visibility <= 1:
            raise ValueError("visibility must be in [0, 1]")


#: Config-file key -> dataclass field.  File keys follow the lab notation
#: (lambda, alpha, R, f, ...); attributes spell the quantity out.
CONFIG_KEYS = {
    "lambda_pump": "pump_wavelength",
    "lambda": "wavelength",
    "alpha": "cone_aperture",
    "R": "mirror_radius",
    "f": "focal_length",
    "mask_D": "mask_diameter",
    "mask_delta": "mask_width",
    "iris_r": "iris_radius",
    "pair_rate": "pair_rate",
    "detector_qe": "detector_qe",
    "dark_rate": "dark_rate",
    "filter_bandwidth": "filter_bandwidth",
    "tau_coh": "coherence_time",
    "pump_waist": "pump_waist",
    "transmission": "transmission",
    "coincidence_window": "coincidence_window",
    "visibility": "visibility",
}

_FIELD_TO_KEY = {v: k for k, v in CONFIG_KEYS.items()}


def config_to_dict(config: SourceConfig) -> dict:
    return {_FIELD_TO_KEY[f.name]: getattr(config, f.name) for f in fields(config)}


def config_from_dict(values: dict) -> SourceConfig:
    return config_with_overrides(SourceConfig(), values)


def load_config(path) -> SourceConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            return config_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"{path}: bad JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
        except InputFormatError as exc:
            raise InputFormatError(f"{path}: {exc}") from None


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
    if r < 0 or r > d:
        raise ValueError(f"iris radius must be in [0, {d}], got {r}")
    return 2 * d * config.mask_width * math.asin(r / d)


# ---------------------------------------------------------------------------
# Sector patchwork
# ---------------------------------------------------------------------------


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
            if s.fraction < 0:
                raise ValueError(f"sector {s.label!r} has negative fraction")
            if s.treatment not in TREATMENTS:
                raise ValueError(f"unknown treatment {s.treatment!r}")
        total = sum(s.fraction for s in self.sectors)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"sector fractions sum to {total}, expected 1")


def _product_projector(index: int) -> np.ndarray:
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    return rho


def _sector_state(treatment: str, phi: float) -> np.ndarray:
    if treatment == TREATMENT_COHERENT:
        return projector(bell_state("phi", phi))
    if treatment == TREATMENT_FLIPPED_COHERENT:
        return projector(bell_state("psi", phi))
    if treatment == TREATMENT_DECOHERED:
        return (_product_projector(0) + _product_projector(3)) / 2
    if treatment == TREATMENT_FLIPPED_DECOHERED:
        return (_product_projector(1) + _product_projector(2)) / 2
    if treatment == TREATMENT_REFLECTED_BLOCKED:
        return _product_projector(0)
    if treatment == TREATMENT_FLIPPED_REFLECTED_BLOCKED:
        return _product_projector(1)
    raise ValueError(f"treatment {treatment!r} contributes no state")


def synthesize(partition: SectorPartition, phi: float) -> np.ndarray:
    """Detection-conditioned state of a patchwork partition at pair phase phi.

    Mixture of per-sector states weighted by angular fraction,
    renormalized over the non-blocked sectors.
    """
    total = 0.0
    rho = np.zeros((4, 4), dtype=complex)
    for sector in partition.sectors:
        if sector.treatment == TREATMENT_BLOCKED:
            continue
        rho += sector.fraction * _sector_state(sector.treatment, phi)
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
            Sector("A", p, TREATMENT_FLIPPED_COHERENT),
            Sector("B", (1 - p) / 2, TREATMENT_FLIPPED_DECOHERED),
            Sector("C", (1 - p) / 2, TREATMENT_DECOHERED),
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
            Sector("singlet", p, TREATMENT_FLIPPED_COHERENT),
            Sector("hh_product", 1 - 2 * g, TREATMENT_REFLECTED_BLOCKED),
            Sector("hv_vh_decohered", 2 * (g - p / 2), TREATMENT_FLIPPED_DECOHERED),
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
    if abs(delta_d) >= r / 10:
        raise ValueError(f"|delta_d| = {abs(delta_d)} outside modeled regime (< R/10 = {r / 10})")
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


def singles_rate(rho: np.ndarray, theta, arm: int, config: SourceConfig):
    """Single-detector rate behind one analyzer with dark counts; broadcasts over theta."""
    if arm not in (1, 2):
        raise ValueError(f"arm must be 1 or 2, got {arm!r}")
    ket = polarizer_kets(theta)
    rho = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2).real  # the kets are real
    trace_out = "...a,abcb,...c->..." if arm == 1 else "...b,abad,...d->..."  # the other arm
    marginal = np.einsum(trace_out, ket, rho, ket)
    arm_transmission = math.sqrt(config.transmission)
    rate = config.pair_rate * config.detector_qe * arm_transmission * marginal + config.dark_rate
    return float(rate) if np.ndim(rate) == 0 else rate


def expected_coincidence_rate(rho: np.ndarray, theta1, theta2, config: SourceConfig):
    """True-pair rate through the joint analyzers plus accidentals.

    Accidentals are singles1 * singles2 * coincidence_window.  The
    effective-visibility scalar of the config must already be applied to
    ``rho`` by the caller (``simulate_coincidences`` does this).
    Broadcasts over angle arrays; scalar angles give a float.
    """
    signal = detected_pair_rate(config) * joint_detection_probability(rho, theta1, theta2)
    accidental = (
        singles_rate(rho, theta1, 1, config)
        * singles_rate(rho, theta2, 2, config)
        * config.coincidence_window
    )
    return signal + accidental


def simulate_coincidences(
    rho: np.ndarray,
    plan: list[tuple[float, float]],
    duration: float,
    config: SourceConfig,
    seed: int,
) -> CountsTable:
    """Poisson coincidence counts for each joint polarizer setting.

    ``plan`` is a list of distinct (theta1, theta2) radian pairs (compared
    by canonical degree label); ``duration`` is the integration time per
    setting.  The config's effective visibility is applied to rho, the
    mean counts rate * duration of every setting are computed at once
    over the angle arrays, and all counts come from one Poisson draw,
    deterministically for a fixed seed.
    """
    rho = check_density_matrix(rho)
    if duration <= 0:
        raise ValueError("duration must be positive")
    labels = [(angle_label(t1), angle_label(t2)) for t1, t2 in plan]
    if len(set(labels)) != len(labels):
        raise ValueError("plan repeats a joint setting")
    rho_v = apply_effective_visibility(rho, config.visibility)
    theta1, theta2 = np.array(plan, dtype=float).reshape(-1, 2).T
    rates = expected_coincidence_rate(rho_v, theta1, theta2, config)
    # a null setting of a noiseless config can round to a rate of -1e-17
    counts = np.random.default_rng(seed).poisson(np.clip(rates, 0.0, None) * duration)
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
    setting.
    """
    if plan is None:
        plan = STANDARD_PLAN
    settings = plan.all_settings()
    per_setting = total_duration / len(settings)
    table = simulate_coincidences(rho, settings, per_setting, config, seed)
    return table, plan


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


def ou_mandel_scan(
    phi: float,
    x_values,
    config: SourceConfig,
    visibility: float = 0.88,
) -> list[tuple[float, float]]:
    """Normalized coincidence rate versus beam-splitter position x.

    C(x) = 1 - V cos(phi) exp(-(x/sigma)^2) with sigma = c * tau / 2, where
    tau = coherence_time_from_bandwidth(config) is set by the filter
    bandwidth (the config's ``coherence_time`` is not read), and the factor
    2 is there because moving the splitter by x changes the path
    difference by 2x.  phi = 0 gives a dip, phi = pi a peak and
    phi = pi/2 a flat trace; far from x = 0 the rate is 1 for any phi.
    """
    if not 0 <= visibility <= 1:
        raise ValueError("visibility must be in [0, 1]")
    sigma = SPEED_OF_LIGHT * coherence_time_from_bandwidth(config) / 2
    out = []
    for x in x_values:
        envelope = math.exp(-((x / sigma) ** 2))
        out.append((float(x), 1.0 - visibility * math.cos(phi) * envelope))
    return out


def ou_mandel_fwhm(config: SourceConfig) -> float:
    """Predicted full width at half depth of the phi = 0 dip, in meters."""
    sigma = SPEED_OF_LIGHT * coherence_time_from_bandwidth(config) / 2
    return 2 * sigma * math.sqrt(math.log(2))
