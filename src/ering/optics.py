"""The E-ring source's configuration (``SourceConfig``), its closed-form optics and
its rate model.

``mean_counts`` is the one noise-free mean model of every simulated count: a
Bell run takes it at the configured source, and tomography at ``IDEAL_SOURCE``.

Phase control: ``phase_from_displacement`` ray traces the single-arm
interferometer of the retroreflecting mirror (see docs/phase_geometry.md),
and ``displacement_visibility`` models the spatial decoherence caused by
the lateral walk of the retroreflected cone on the crystal.

Everything here is ``math`` and array operators, without numpy, so ``ering
source`` and a noise-free ``ering figure 3`` start without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from . import csvfile
from .errors import InputFormatError, PoissonLimitError

SPEED_OF_LIGHT = 299792458.0

# Gaussian-spectrum coherence time as a multiple of wavelength^2/(c * bandwidth);
# calibrated so a 6 nm filter at 727.6 nm gives the measured 140 fs.
COHERENCE_TIME_SCALE = 140e-15 * SPEED_OF_LIGHT * 6e-9 / 727.6e-9**2

#: Fringe visibility of the Ou-Mandel scan (the measured interference contrast).
OU_MANDEL_VISIBILITY = 0.88

#: Bound kind of a config field -> its test, checked in this order after
#: the finite check; a failure reads "<key> (<field>) must be <kind>".
_BOUNDS = {
    "positive": lambda v: v > 0,
    "nonnegative": lambda v: v >= 0,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "in [0, 1]": lambda v: 0 <= v <= 1,
    "in [0, pi/2)": lambda v: 0 <= v < math.pi / 2,
}


def _quantity(default: float, key: str, bound: str):
    """A SourceConfig field with its config-file key and its bound kind."""
    return field(default=default, metadata={"key": key, "bound": bound})


def _named(key: str, name: str) -> str:
    """How an error names a quantity: the key users type, then the field if it differs."""
    return key if key == name else f"{key} ({name})"


@dataclass(frozen=True)
class SourceConfig:
    """Physical parameters of the source, SI units throughout.

    Each field carries its config-file key (lab notation) and its bound;
    every value must also be finite.  An error names the key, then the
    field in parentheses where the two differ.  Defaults describe the
    degenerate 727.6 nm configuration:

    ==================  ===================  ================================
    field               key                  quantity (default)
    ==================  ===================  ================================
    pump_wavelength     lambda_pump          pump wavelength (363.8 nm)
    wavelength          lambda               pair wavelength (727.6 nm)
    cone_aperture       alpha                cone half-angle, rad (2.9 deg;
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
    cone_aperture: float = _quantity(math.radians(2.9), "alpha", "in [0, pi/2)")
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
                raise ValueError(f"{_named(f.metadata['key'], f.name)} must be finite")
        for bound, holds in _BOUNDS.items():
            for f in quantities:
                if f.metadata["bound"] == bound and not holds(getattr(self, f.name)):
                    raise ValueError(f"{_named(f.metadata['key'], f.name)} must be {bound}")


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
        try:
            kwargs[CONFIG_KEYS[key]] = csvfile.json_float(value)
        except TypeError:
            raise InputFormatError(f"config key {key!r} needs a number, got {value!r}") from None
        except OverflowError:
            raise ValueError(f"{_named(key, CONFIG_KEYS[key])} must be finite") from None
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


def detected_pair_rate(config: SourceConfig) -> float:
    """Coincidence rate before analyzers: pair_rate * QE^2 * transmission."""
    return config.pair_rate * config.detector_qe**2 * config.transmission


#: Unit pair rate, perfect detectors, no background: over N seconds the means of
#: ``mean_counts`` are N * max(Tr(rho P_k), 0), the flux-only model of tomography.
IDEAL_SOURCE = SourceConfig(
    pair_rate=1.0, detector_qe=1.0, transmission=1.0, dark_rate=0.0, coincidence_window=0.0
)


def check_duration(name: str, duration: float) -> None:
    """The one scale check of the simulators: ``duration`` must be finite and positive."""
    try:
        finite = math.isfinite(duration)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} must be finite, got an integer past the float range") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {duration}")
    if duration <= 0:
        raise ValueError(f"{name} must be positive")


def mean_counts(r, rows, duration: float, config: SourceConfig, lower: str):
    """Noise-free mean counts of the ``(3 S, 16)`` joint, arm-1 and arm-2 rows of
    ``states.measurement_rows`` against the Pauli vector r of rho: (true pairs of
    r_v = v r + (1-v) e_0, the vector of v rho + (1-v) I/4, plus accidentals) * duration,
    clipped at 0.  Means that would overflow a float raise a ``PoissonLimitError``
    that names ``lower``, the caller's inputs that set them."""
    arm_rate = config.pair_rate * config.detector_qe * math.sqrt(config.transmission)
    pair_rate = detected_pair_rate(config)
    # the bound has every probability at 1 (times 2 for rounding above 1), in the order used below
    peak_singles = arm_rate + config.dark_rate
    largest = (pair_rate + peak_singles * peak_singles * config.coincidence_window) * duration
    if not math.isfinite(2 * largest):
        raise PoissonLimitError("the mean counts overflow a float", lower)
    r_v = config.visibility * r
    r_v[0] += 1 - config.visibility
    probabilities = (rows @ r_v).reshape(3, -1)
    singles1, singles2 = arm_rate * probabilities[1:] + config.dark_rate
    rates = pair_rate * probabilities[0] + singles1 * singles2 * config.coincidence_window
    # a null setting of a noiseless config can round to a rate of -1e-17
    return rates.clip(0.0) * duration


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
    ux, uy = math.cos(alpha), math.sin(alpha)
    b = ux * delta_d  # u . center
    t = b + math.sqrt(b * b + radius * radius - delta_d * delta_d)
    hit_x, hit_y = t * ux, t * uy
    normal_x, normal_y = (hit_x - delta_d) / radius, hit_y / radius
    twice_cos = 2 * (ux * normal_x + uy * normal_y)
    reflected_x, reflected_y = ux - twice_cos * normal_x, uy - twice_cos * normal_y
    if reflected_x >= 0:
        raise ValueError("reflected ray does not return to the crystal plane")
    s = -hit_x / reflected_x
    return t, s, abs(hit_y + s * reflected_y)


def phase_from_displacement(delta_d: float, config: SourceConfig) -> PhaseGeometry:
    """Pair phase and path geometry for a mirror displacement delta_d.

    Valid for |delta_d| << R; raises for |delta_d| >= R/10.  The pump
    leg is OA' = R + delta_d; OB' uses the law of cosines in the
    triangle (crystal, mirror center, hit point); B'C comes from the
    explicit ray trace.  The three are near R and differ by about
    delta_d alpha^2, so phi is summed from small terms instead, with the
    incidence gamma on the mirror (docs/phase_geometry.md).  phi is signed
    and unwrapped so that it is odd and monotone in delta_d near the origin
    (|phi| reaches pi near 70 um at the default geometry).
    """
    r = config.mirror_radius
    if not abs(delta_d) < r / 10:  # NaN fails too
        raise ValueError(f"delta_d = {delta_d} outside modeled regime |delta_d| < R/10 = {r / 10}")
    alpha = config.cone_aperture
    oa_prime = r + delta_d
    ob_prime = math.sqrt(delta_d**2 + r**2 + 2 * r * delta_d * math.cos(alpha))
    _, b_prime_c, lateral = _trace_reflected_ray(delta_d, r, alpha)
    half, gamma = alpha / 2, math.asin(delta_d * math.sin(alpha) / r)
    ray = (  # OA' - B'C, its cosine differences written as products of sines
        2 * delta_d * math.cos(alpha) * math.sin(half + gamma) * math.sin(half - gamma)
        - 2 * r * math.cos(alpha) * math.sin(1.5 * gamma) * math.sin(gamma / 2)
        - oa_prime * math.sin(alpha) * math.sin(2 * gamma)
    ) / math.cos(alpha + 2 * gamma)
    pump = 4 * r * delta_d * math.sin(half) ** 2 / (oa_prime + ob_prime)  # OA' - OB'
    phi = 4 * math.pi / config.wavelength * (pump + ray)
    return PhaseGeometry(delta_d, oa_prime, ob_prime, b_prime_c, lateral, phi)


def displacement_visibility(delta_d: float, config: SourceConfig) -> float:
    """Fringe visibility left after the spatial walk of the reflected cone.

    Gaussian overlap of the retroreflected annulus (radius OC, from the
    ray trace) with the active pump region; the width is calibrated to
    pump_waist/4 so that coherence is gone (V <= 0.25) by the observed
    600 um displacement while 100 um still gives V > 0.9.  Like
    ``phase_from_displacement``, raises for |delta_d| >= R/10.
    """
    if not math.isfinite(delta_d):
        raise ValueError(f"mirror displacement must be finite, got {delta_d}")
    r = config.mirror_radius
    if not abs(delta_d) < r / 10:
        raise ValueError(f"delta_d = {delta_d} outside modeled regime |delta_d| < R/10 = {r / 10}")
    if delta_d == 0.0:
        return 1.0
    _, _, lateral = _trace_reflected_ray(abs(delta_d), r, config.cone_aperture)
    width = config.pump_waist / 4
    return float(math.exp(-((lateral / width) ** 2)))


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
