"""Measured coincidence counts of a CHSH run, and the Bell parameter from them.

Polarizer angles are radians in the library and degrees in every file and
CLI surface; a joint setting is keyed by the canonical degree labels of
its two angles (``angle_label``).  This module imports no numpy, so
``ering bell eval`` starts without it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from . import csvfile

#: Distinct angles whose label ``angle_label`` remembers; a Bell run uses a handful.
_ANGLE_LABEL_CACHE_SIZE = 256


@functools.lru_cache(maxsize=_ANGLE_LABEL_CACHE_SIZE)
def angle_label(theta: float) -> str:
    """Canonical degree label of a polarizer angle (period 180 degrees)."""
    deg = round(math.degrees(theta), 9) % 180.0
    return f"{deg:.10g}"


@dataclass(frozen=True)
class AnglePlan:
    """The four base polarizer angles of a CHSH run, in radians."""

    theta1: float
    theta1p: float
    theta2: float
    theta2p: float

    def base_pairs(self) -> list[tuple[float, float]]:
        return [
            (self.theta1, self.theta2),
            (self.theta1, self.theta2p),
            (self.theta1p, self.theta2),
            (self.theta1p, self.theta2p),
        ]

    @functools.cached_property
    def base_pair_keys(self) -> tuple[tuple[tuple[str, str], ...], ...]:
        """The counts keys of each base pair's four orthogonal combos, built once."""
        return tuple(_orthogonal_keys(t1, t2) for t1, t2 in self.base_pairs())

    @functools.cached_property
    def settings(self) -> tuple[tuple[float, float], ...]:
        """The distinct joint settings (at most 16), built once: each base pair and its combos."""
        out: dict[tuple[str, str], tuple[float, float]] = {}
        for (t1, t2), keys in zip(self.base_pairs(), self.base_pair_keys):
            for setting, key in zip(_orthogonal_combos(t1, t2), keys):
                out.setdefault(key, setting)
        return tuple(out.values())

    @functools.cached_property
    def _bloch_settings(self) -> tuple[tuple[float, float, float], ...]:
        angles = (self.theta1, self.theta1p, self.theta2, self.theta2p)
        if not all(map(math.isfinite, angles)):
            raise ValueError(f"plan angles must be finite, got {angles}")
        return tuple((math.sin(2 * t), 0.0, math.cos(2 * t)) for t in angles)

    def bloch_settings(self) -> tuple[tuple[float, float, float], ...]:
        """The CHSH settings of the plan for ``bell.chsh``: the unit vectors
        (sin 2 theta, 0, cos 2 theta) of a1, a1', a2, a2', built once."""
        return self._bloch_settings


#: The standard singlet test plan: theta1 = 0, theta1' = 45 deg,
#: theta2 = 22.5 deg, theta2' = 67.5 deg.
STANDARD_PLAN = AnglePlan(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


_COUNTS_HEADER = ["theta1_deg", "theta2_deg", "counts"]


def _orthogonal_combos(t1: float, t2: float) -> list[tuple[float, float]]:
    h = math.pi / 2
    return [(t1, t2), (t1 + h, t2 + h), (t1, t2 + h), (t1 + h, t2)]


def _orthogonal_keys(t1: float, t2: float) -> tuple[tuple[str, str], ...]:
    return tuple((angle_label(a), angle_label(b)) for a, b in _orthogonal_combos(t1, t2))


@dataclass
class CountsTable:
    """Coincidence counts keyed by canonical (theta1, theta2) degree labels.

    Measured tables hold integers; the noise-free mean counts of
    ``source.expected_coincidences`` are real values.
    """

    entries: dict[tuple[str, str], float] = field(default_factory=dict)
    duration: float = 1.0

    def get(self, theta1: float, theta2: float) -> float:
        return self.get_key((angle_label(theta1), angle_label(theta2)))

    def get_key(self, key: tuple[str, str]) -> float:
        """The counts of the joint setting with canonical labels ``key``."""
        if key not in self.entries:
            raise ValueError(f"counts table is missing the joint setting {key}")
        return self.entries[key]


def _correlation(counts: CountsTable, keys: tuple[tuple[str, str], ...]) -> tuple[float, float]:
    """Polarization correlation P of the base pair whose orthogonal-combo keys are ``keys``,
    and its Poisson variance.

    P = (C(t1,t2) + C(t1+90,t2+90) - C(t1,t2+90) - C(t1+90,t2)) / (sum of the four).
    """
    a, b, c, d = map(counts.get_key, keys)
    total = a + b + c + d
    if total == 0:
        raise ValueError(f"zero total counts for base pair ({keys[0][0]}, {keys[0][1]})")
    p = (a + b - c - d) / total
    try:
        var = ((1 - p) ** 2 * (a + b) + (1 + p) ** 2 * (c + d)) / total**2
    except OverflowError:  # an int total, or its square, past the float range
        var = math.inf
    if not math.isfinite(var):
        raise ValueError(
            f"counts too large for base pair ({keys[0][0]}, {keys[0][1]}): "
            "their total or its variance overflows a float"
        )
    return p, var


def chsh_from_counts(counts: CountsTable, plan: AnglePlan) -> tuple[float, float]:
    """Signed CHSH parameter and its 1-sigma Poisson error from counts.

    Every count is treated as an independent Poisson variable with
    variance equal to its value; the error is propagated to first order.
    The plan's counts keys are labelled once per plan, not per call.  A base
    pair whose total is zero, or whose variance overflows a float, is a ValueError.
    """
    (p11, v11), (p12, v12), (p21, v21), (p22, v22) = (
        _correlation(counts, keys) for keys in plan.base_pair_keys
    )
    s = p11 - p12 + p21 + p22
    sigma = math.sqrt(v11 + v12 + v21 + v22)
    return s, sigma


def counts_to_csv(counts: CountsTable, path) -> None:
    """Write ``theta1_deg,theta2_deg,counts`` rows, one per joint setting."""
    rows = [(l1, l2, csvfile.count_cell(n)) for (l1, l2), n in sorted(counts.entries.items())]
    csvfile.write(path, _COUNTS_HEADER, rows, {"duration_s": counts.duration})


def counts_from_csv(path) -> CountsTable:
    """Parse a counts CSV; raises InputFormatError with the offending line."""
    comments, rows = csvfile.read(path, _COUNTS_HEADER, {"duration_s": None})
    entries: dict[tuple[str, str], float] = {}
    for line, (t1, t2, n) in rows:
        key = (
            angle_label(math.radians(csvfile.number(path, line, t1, "angle"))),
            angle_label(math.radians(csvfile.number(path, line, t2, "angle"))),
        )
        n = csvfile.count(path, line, n)
        if key in entries:
            raise csvfile.error(path, line, f"duplicate setting {key}")
        entries[key] = int(n) if n.is_integer() else n
    return CountsTable(entries, comments["duration_s"])

