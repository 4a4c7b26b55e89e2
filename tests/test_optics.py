"""The numpy-free source configuration and optics (``ering.optics``).

The mirror ray trace was first written with numpy 2-vectors; that form is
kept here as the oracle of the ``math`` one.  numpy's 2-vector dot product
may round through a fused multiply-add (it does with OpenBLAS on x86-64),
so the two can differ in the last bits of the path lengths: the bounds
below are a few units in the last place of the mirror radius R, carried
through the phase and the visibility.
"""

import math

import numpy as np
import pytest

from ering import optics, source
from ering.optics import (
    SourceConfig,
    _trace_reflected_ray,
    displacement_visibility,
    phase_from_displacement,
)

CONFIGS = [
    SourceConfig(),
    SourceConfig(cone_aperture=math.radians(1.4)),
    SourceConfig(cone_aperture=0.0506, mirror_radius=0.3),
]

#: Largest difference from the oracle of a path length, in units of ulp(R)
#: (2 seen at the default geometry).
PATH_ULPS = 4


def numpy_trace(delta_d, radius, alpha):
    """The ray trace as written with numpy 2-vectors: the oracle."""
    u = np.array([math.cos(alpha), math.sin(alpha)])
    center = np.array([delta_d, 0.0])
    b = float(u @ center)
    t = b + math.sqrt(b * b + radius * radius - delta_d * delta_d)
    hit = t * u
    normal = (hit - center) / radius
    reflected = u - 2 * float(u @ normal) * normal
    s = -hit[0] / reflected[0]
    landing = hit + s * reflected
    return t, float(s), abs(float(landing[1]))


def displacement_grid(config):
    """1001 displacements across the modeled regime, with 0 and the edges just inside +-R/10."""
    edge = math.nextafter(config.mirror_radius / 10, 0.0)
    return [0.0, edge, -edge, *np.linspace(-edge, edge, 1001).tolist()]


@pytest.mark.parametrize("config", CONFIGS)
def test_ray_trace_matches_the_numpy_oracle(config):
    r, alpha = config.mirror_radius, config.cone_aperture
    tol = PATH_ULPS * math.ulp(r)
    for d in displacement_grid(config):
        for got, want in zip(_trace_reflected_ray(d, r, alpha), numpy_trace(d, r, alpha)):
            assert abs(got - want) <= tol, d


@pytest.mark.parametrize("config", CONFIGS)
def test_phase_and_visibility_match_the_numpy_oracle(config):
    r, alpha = config.mirror_radius, config.cone_aperture
    k = 4 * math.pi / config.wavelength
    width = config.pump_waist / 4
    for d in displacement_grid(config):
        geom = phase_from_displacement(d, config)
        _, b_prime_c, lateral = numpy_trace(d, r, alpha)
        ob_prime = math.sqrt(d**2 + r**2 + 2 * r * d * math.cos(alpha))
        phi = k * (2 * (r + d) - (ob_prime + b_prime_c))
        assert abs(geom.phi - phi) <= 2 * PATH_ULPS * k * math.ulp(r), d
        assert abs(geom.lateral_offset - lateral) <= PATH_ULPS * math.ulp(r), d
    for d in (*displacement_grid(config), r / 10, -r / 10):
        lateral = numpy_trace(abs(d), r, alpha)[2]
        v = 1.0 if d == 0 else math.exp(-((lateral / width) ** 2))
        # dV = 2 V lateral / width^2 * d(lateral), plus the rounding of V
        tol = 2 * v * lateral / width**2 * PATH_ULPS * math.ulp(r) + 2 * math.ulp(1.0)
        assert abs(displacement_visibility(d, config) - v) <= tol, d


def test_phase_at_the_published_displacement_is_unchanged():
    """The 60 um point of ``ering source`` is bit-identical to the numpy trace."""
    config = SourceConfig()
    assert _trace_reflected_ray(60e-6, 0.15, config.cone_aperture) == numpy_trace(
        60e-6, 0.15, config.cone_aperture
    )


def mpmath_phase(delta_d, config):
    """phi of the same ray trace at 50 digits, the path lengths subtracted as they stand."""
    import mpmath

    with mpmath.workdps(50):
        r, alpha, d = (mpmath.mpf(v) for v in (config.mirror_radius, config.cone_aperture, delta_d))
        ux, uy = mpmath.cos(alpha), mpmath.sin(alpha)
        t = ux * d + mpmath.sqrt((ux * d) ** 2 + r**2 - d**2)
        normal_x, normal_y = (t * ux - d) / r, t * uy / r
        reflected_x = ux - 2 * (ux * normal_x + uy * normal_y) * normal_x
        b_prime_c = -t * ux / reflected_x
        ob_prime = mpmath.sqrt(d**2 + r**2 + 2 * r * d * ux)
        return 4 * mpmath.pi / config.wavelength * (2 * (r + d) - (ob_prime + b_prime_c))


@pytest.mark.parametrize("config", CONFIGS)
def test_phase_keeps_its_digits_against_a_50_digit_trace(config):
    # subtracting the three lengths near R in doubles erred by up to 7e-9 rad here
    for d in [*np.linspace(-70e-6, 70e-6, 701).tolist(), *displacement_grid(config)[::10]]:
        want = mpmath_phase(d, config)
        got = phase_from_displacement(d, config).phi
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), d


def test_source_re_exports_the_optics():
    for name in ("SourceConfig", "config_with_overrides", "load_config", "ring_diameter",
                 "detected_pair_rate", "ou_mandel_scan", "phase_from_displacement",
                 "displacement_visibility", "coherence_time_from_bandwidth"):
        assert getattr(source, name) is getattr(optics, name)

