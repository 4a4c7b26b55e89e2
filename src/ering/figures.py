"""The data behind the paper's figures: one ``FIGURES`` entry per figure id.

An entry holds the CSV header, the grid as a function of the source
config, the point function, the parameters (each a flag of ``ering figure
<id>``: default, help, sign) and how it uses the config; adding a figure is
adding an entry.  ``figure_rows(fig_id, config, seed, **params)`` gives the
rows the CLI writes, and names the flag of a parameter of the wrong sign.
Point i of a grid draws from ``SeedSequence([seed, i]).generate_state(1)[0]``;
figure 3 is one curve, whose optional shot noise is one draw from ``seed``.
``default_config`` is the default ``SourceConfig``, at the measured
visibility 0.94 for the Bell-test figures 2, 4 and 12.  Figures 8 and 11,
the Werner and MEMS tomographies, read no config; the CLI only records one
in their manifest.  Importing this module loads no numpy.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple


class Figure(NamedTuple):
    header: tuple[str, ...]
    grid: Callable | None  # config -> (start, stop, num) of a linspace; None: one curve
    point: Callable  # (x, config, seed, **params) -> one row; of a curve (config, seed, **params)
    params: dict  # name -> (default, help, "positive" | "nonnegative" | None)
    means_flag: str  # the flag to lower when a mean count is above the Poisson limit
    config: str | None = "read"  # --config and --set; "bell test": also visibility 0.94; None


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """``np.linspace(start, stop, num)`` bit for bit, as Python floats, without numpy."""
    step = (stop - start) / (num - 1)
    return [start + i * step for i in range(num - 1)] + [stop]


def _phi_pi_coincidences(settings_deg, duration, config, seed) -> list:
    """Coincidences of the phi = pi Bell pair at each (theta1, theta2) in degrees."""
    from .source import simulate_coincidences
    from .states import bell_state, projector

    settings = [(math.radians(t1), math.radians(t2)) for t1, t2 in settings_deg]
    pair = projector(bell_state("phi", math.pi))
    table = simulate_coincidences(pair, settings, duration, config, seed)
    return [table.get(*setting) for setting in settings]


def _ou_mandel_curve(config, seed, phi, counts_per_point):
    from .optics import ou_mandel_scan

    curve = ou_mandel_scan(phi, _linspace(-100e-6, 100e-6, 101), config)
    if counts_per_point > 0:
        from .sampling import poisson

        noisy = poisson([counts_per_point * c for _, c in curve], seed, "counts_per_point")
        curve = [(x, n / counts_per_point) for (x, _), n in zip(curve, noisy.tolist())]
    return [(x * 1e6, c) for x, c in curve]


def _iris_point(r, config, seed, duration):
    from .optics import config_with_overrides, sector_area

    fraction = sector_area(r, config) / sector_area(config.mask_diameter, config)
    scaled = config_with_overrides(config, {"pair_rate": config.pair_rate * fraction})
    # the pair coincides as cos^2(theta1 + theta2): maximum at 180 deg, minimum at 90 deg
    n_max, n_min = _phi_pi_coincidences([(135.0, 45.0), (45.0, 45.0)], duration, scaled, seed)
    if n_max + n_min == 0:
        return r * 1e3, 0.0, 0.0
    return r * 1e3, (n_max - n_min) / (n_max + n_min), n_max / duration


def _tomography_point(family, p, config, seed, counts_per_setting):
    from . import states
    from .entanglement import linear_entropy, tangle, tangle_curve
    from .tomography import ml_reconstruct, simulate_tomography

    rec = ml_reconstruct(simulate_tomography(getattr(states, family)(p), counts_per_setting, seed))
    s_l = linear_entropy(rec)
    return s_l, tangle(rec), family, p, tangle_curve(family, s_l)


def _chsh_point(p, config, seed, duration):
    from .counts import chsh_from_counts
    from .source import simulate_bell_test
    from .states import werner

    s, sigma = chsh_from_counts(*simulate_bell_test(werner(p), duration, config, seed))
    return p, abs(s), sigma


_BELL_MEANS = "--duration or --set pair_rate="
_PER_POINT = {"duration": (1.0, "seconds per grid point", "positive")}

FIGURES = {
    "2": Figure(("theta1_deg", "coincidences"), lambda config: (45.0, 135.0, 37),
                lambda theta1, config, seed, duration:
                    (theta1, *_phi_pi_coincidences([(theta1, 45.0)], duration, config, seed)),
                _PER_POINT, _BELL_MEANS, "bell test"),
    "3": Figure(("x_um", "normalized_coincidence"), None, _ou_mandel_curve,
                {"phi": (0.0, "pair phase in radians", None),
                 "counts_per_point": (0, "shot-noise count level (0: off)", "nonnegative")},
                "--counts-per-point"),
    "4": Figure(("r_mm", "visibility", "rate_hz"),
                lambda config: (0.5e-3, config.mask_diameter, 20),
                _iris_point, _PER_POINT, _BELL_MEANS, "bell test"),
    **{fig_id: Figure(("S_L", "T", "family", "p", "T_curve"), lambda config: (0.05, 0.95, 13),
                      functools.partial(_tomography_point, family),
                      {"counts_per_setting": (40000, "pair flux per setting", "positive")},
                      "--counts-per-setting", None)
       for fig_id, family in (("8", "werner"), ("11", "mems"))},
    "12": Figure(("p", "abs_S", "sigma_S"), lambda config: (0.05, 1.0, 20), _chsh_point,
                 {"duration": (180.0, "seconds per run", "positive")}, _BELL_MEANS, "bell test"),
}


def default_config(fig_id: str):
    """The default ``SourceConfig``, at visibility 0.94 for a Bell-test figure."""
    from .optics import SourceConfig, config_with_overrides

    visibility = {"visibility": 0.94} if FIGURES[fig_id].config == "bell test" else {}
    return config_with_overrides(SourceConfig(), visibility)


def figure_rows(fig_id: str, config, seed: int, **params) -> list:
    """The CSV rows of figure ``fig_id``; a parameter left out takes its flag's default."""
    figure = FIGURES[fig_id]
    for name, (default, _, sign) in figure.params.items():
        value = params.setdefault(name, default)
        if sign == "positive" and not value > 0 or sign == "nonnegative" and not value >= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be {sign}")
    if figure.grid is None:
        return figure.point(config, seed, **params)
    import numpy as np

    grid = _linspace(*figure.grid(config))
    seeds = [int(np.random.SeedSequence([seed, i]).generate_state(1)[0]) for i in range(len(grid))]
    return [figure.point(x, config, point_seed, **params) for x, point_seed in zip(grid, seeds)]
