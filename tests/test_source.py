import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ering.bell import (
    STANDARD_PLAN,
    AnglePlan,
    angle_label,
    compile_plan,
    chsh_from_counts,
    correlation_from_counts,
    correlation_matrix,
)
from ering.errors import InputFormatError, PoissonLimitError
from ering.sampling import random_density_matrix
from ering.source import (
    COHERENCE_TIME_SCALE,
    CONFIG_KEYS,
    OU_MANDEL_VISIBILITY,
    Sector,
    SectorPartition,
    SourceConfig,
    TREATMENTS,
    apply_effective_visibility,
    coherence_time_from_bandwidth,
    config_from_dict,
    config_to_dict,
    config_with_overrides,
    detected_pair_rate,
    displacement_visibility,
    expected_coincidences,
    load_config,
    mems_partition,
    ou_mandel_fwhm,
    ou_mandel_scan,
    phase_from_displacement,
    ring_diameter,
    sector_area,
    simulate_bell_test,
    simulate_coincidences,
    synthesize,
    werner_partition,
)
from ering.states import (
    bell_state, bloch_vector, check_density_matrix, mems, pauli_vector, projector, singlet, werner,
)
from ering.tomography import exact_tomography_counts, simulate_tomography, standard_settings

CFG = SourceConfig()
MEMS_CFG = SourceConfig(cone_aperture=math.radians(1.4))
CLEAN_CFG = SourceConfig(dark_rate=0.0, coincidence_window=0.0)


# ---------------------------------------------------------------------------
# config and geometry
# ---------------------------------------------------------------------------


def test_config_defaults_match_apparatus():
    assert CFG.pump_wavelength == pytest.approx(363.8e-9)
    assert CFG.wavelength == pytest.approx(2 * CFG.pump_wavelength)
    assert CFG.detector_qe == 0.65


def test_config_validation():
    with pytest.raises(ValueError):
        SourceConfig(pair_rate=-1)
    with pytest.raises(ValueError):
        SourceConfig(detector_qe=1.5)
    with pytest.raises(ValueError):
        SourceConfig(visibility=-0.1)


def test_config_validation_checks_bound_kinds_in_order():
    # positive before nonnegative, whatever the declaration order
    with pytest.raises(ValueError, match="^pump_waist must be positive$"):
        SourceConfig(iris_radius=-1.0, pump_waist=0.0)
    with pytest.raises(ValueError, match=r"^transmission must be in \(0, 1\]$"):
        SourceConfig(visibility=2.0, transmission=2.0)


#: One out-of-range value per SourceConfig field and the message it raises.
OUT_OF_RANGE = {
    "pump_wavelength": (0.0, "pump_wavelength must be positive"),
    "wavelength": (-1e-9, "wavelength must be positive"),
    "cone_aperture": (-1e-3, "cone_aperture must be nonnegative"),
    "mirror_radius": (0.0, "mirror_radius must be positive"),
    "focal_length": (-0.15, "focal_length must be positive"),
    "mask_diameter": (0.0, "mask_diameter must be positive"),
    "mask_width": (-1e-4, "mask_width must be positive"),
    "iris_radius": (-1e-3, "iris_radius must be nonnegative"),
    "pair_rate": (0.0, "pair_rate must be positive"),
    "detector_qe": (0.0, "detector_qe must be in (0, 1]"),
    "dark_rate": (-1.0, "dark_rate must be nonnegative"),
    "filter_bandwidth": (0.0, "filter_bandwidth must be positive"),
    "coherence_time": (-1e-15, "coherence_time must be positive"),
    "pump_waist": (0.0, "pump_waist must be positive"),
    "transmission": (1.01, "transmission must be in (0, 1]"),
    "coincidence_window": (-1e-9, "coincidence_window must be nonnegative"),
    "visibility": (1.01, "visibility must be in [0, 1]"),
}


@pytest.mark.parametrize("name", [f.name for f in fields(SourceConfig)])
def test_config_bound_message_per_field(name):
    value, message = OUT_OF_RANGE[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SourceConfig(**{name: value})


def test_config_keys_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Source configuration")[1].split("\n#")[0]
    for key, name in CONFIG_KEYS.items():
        assert f"`{key}`" in section, key
        assert re.search(rf"^\s*{name}\s+{re.escape(key)}\s", SourceConfig.__doc__, re.M), name


def test_config_rejects_non_finite():
    for name in (f.name for f in fields(SourceConfig)):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SourceConfig(**{name: value})


def test_config_from_dict_applies_keys_over_defaults():
    cfg = config_from_dict({"alpha": math.radians(1.4), "pair_rate": 300000})
    assert cfg == config_with_overrides(CFG, {"alpha": math.radians(1.4), "pair_rate": 3e5})
    with pytest.raises(ValueError, match="pair_rate must be finite"):
        config_from_dict({"pair_rate": math.nan})
    with pytest.raises(ValueError, match="pair_rate must be finite"):
        config_from_dict({"pair_rate": 10**400})
    for value in ("3e5", True):
        with pytest.raises(InputFormatError, match="'pair_rate' needs a number"):
            config_from_dict({"pair_rate": value})


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "source.json"
    path.write_text(json.dumps(config_to_dict(MEMS_CFG), indent=2) + "\n")
    loaded = load_config(path)
    assert loaded == MEMS_CFG
    keys = set(json.loads(path.read_text()))
    assert {"lambda", "lambda_pump", "alpha", "R", "f", "mask_D", "mask_delta"} <= keys


def test_config_overrides():
    cfg = config_with_overrides(CFG, {"alpha": math.radians(1.4), "visibility": 0.9})
    assert cfg.cone_aperture == pytest.approx(math.radians(1.4))
    assert cfg.visibility == 0.9
    with pytest.raises(ValueError):
        config_with_overrides(CFG, {"bogus": 1})
    with pytest.raises(ValueError):
        config_from_dict({"nope": 2.0})
    assert config_from_dict(config_to_dict(CFG)) == CFG


def test_ring_diameter():
    d = ring_diameter(CFG)
    assert d == pytest.approx(2 * math.radians(2.9) * 0.15)
    assert abs(d - 1.5e-2) / 1.5e-2 < 0.02  # the mask matches the ring
    assert ring_diameter(SourceConfig(cone_aperture=0.0)) == 0.0
    assert ring_diameter(MEMS_CFG) == pytest.approx(7.33e-3, rel=1e-3)


def test_sector_area():
    assert sector_area(0.0, CFG) == 0.0
    d = CFG.mask_diameter
    assert sector_area(d, CFG) == pytest.approx(math.pi * d * CFG.mask_width)
    # printed formula at the Ou-Mandel iris radius
    got = sector_area(0.75e-3, CFG)
    assert got == pytest.approx(2 * d * CFG.mask_width * math.asin(0.05), abs=0)
    assert got == pytest.approx(1.0501e-6, rel=1e-3)
    with pytest.raises(ValueError):
        sector_area(d * 1.01, CFG)
    with pytest.raises(ValueError):
        sector_area(-1e-3, CFG)


# ---------------------------------------------------------------------------
# patchwork synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_coherent_sector():
    part = SectorPartition([Sector("all", 1.0, "coherent")])
    assert np.allclose(synthesize(part, math.pi), projector(bell_state("phi", math.pi)), atol=1e-15)


def test_synthesize_half_flipped_mixture():
    part = SectorPartition(
        [Sector("flipped", 0.5, "flipped_and_coherent"), Sector("plain", 0.5, "coherent")]
    )
    got = synthesize(part, math.pi)
    want = 0.5 * projector(bell_state("phi", math.pi)) + 0.5 * projector(singlet())
    assert np.allclose(got, want, atol=1e-15)


def test_synthesize_identity_recipe():
    # step two of the identity recipe: decohere everything
    part = SectorPartition(
        [
            Sector("flipped", 0.5, "flipped_and_decohered"),
            Sector("plain", 0.5, "decohered"),
        ]
    )
    assert np.array_equal(synthesize(part, math.pi), np.eye(4, dtype=complex) / 4)


def test_synthesize_renormalizes_over_blocked():
    part = SectorPartition(
        [Sector("open", 0.25, "flipped_and_coherent"), Sector("dark", 0.75, "blocked")]
    )
    assert np.allclose(synthesize(part, math.pi), projector(singlet()), atol=1e-15)


def test_synthesize_all_blocked_errors():
    part = SectorPartition([Sector("dark", 1.0, "blocked")])
    with pytest.raises(ValueError, match="blocked"):
        synthesize(part, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("partition", [werner_partition(0.5), mems_partition(0.5),
                                       SectorPartition([Sector("C", 1.0, "decohered")])])
def test_synthesize_rejects_a_non_finite_phi(partition, value):
    with pytest.raises(ValueError, match=f"phi must be finite, got {value}"):
        synthesize(partition, value)


def test_partition_validation():
    with pytest.raises(ValueError, match="unique"):
        SectorPartition([Sector("x", 0.5, "coherent"), Sector("x", 0.5, "decohered")])
    with pytest.raises(ValueError, match="sum"):
        SectorPartition([Sector("x", 0.5, "coherent")])
    with pytest.raises(ValueError, match="treatment"):
        SectorPartition([Sector("x", 1.0, "sideways")])
    with pytest.raises(ValueError, match="negative"):
        SectorPartition([Sector("x", -0.5, "coherent"), Sector("y", 1.5, "coherent")])


def test_werner_partition_grid():
    for p in np.linspace(0, 1, 101):
        got = synthesize(werner_partition(p), math.pi)
        assert np.abs(got - werner(p)).max() < 1e-12


def test_werner_partition_structure():
    part = werner_partition(0.47)
    by_label = {s.label: s for s in part.sectors}
    assert by_label["A"].fraction == pytest.approx(0.47)
    assert by_label["B"].fraction == by_label["C"].fraction
    assert by_label["A"].treatment == "flipped_and_coherent"


def test_werner_partition_limits():
    assert np.allclose(synthesize(werner_partition(1.0), math.pi), projector(singlet()), atol=1e-15)
    assert np.allclose(synthesize(werner_partition(0.0), math.pi), np.eye(4) / 4, atol=1e-15)


def test_mems_partition_grid():
    for p in np.linspace(0, 1, 101):
        got = synthesize(mems_partition(p), math.pi)
        assert np.abs(got - mems(p)).max() < 1e-12


def test_mems_partition_structure():
    # no sector may feed the |VV> channel, and the decohering plate is
    # only present below the g-branch point
    for p in (0.2, 0.45, 0.77, 0.9, 1.0):
        part = mems_partition(p)
        treatments = {s.treatment for s in part.sectors if s.fraction > 1e-12}
        assert "coherent" not in treatments and "decohered" not in treatments
        decohered_fraction = sum(
            s.fraction for s in part.sectors if s.treatment == "flipped_and_decohered"
        )
        if p >= 2 / 3:
            assert decohered_fraction == pytest.approx(0.0, abs=1e-12)
        else:
            assert decohered_fraction == pytest.approx(2 / 3 - p)


def test_synthesize_random_partitions_stay_physical(rng):
    active = [t for t in TREATMENTS if t != "blocked"]
    for _ in range(1000):
        n = rng.integers(1, 6)
        fractions = rng.dirichlet(np.ones(n))
        treatments = rng.choice(active, size=n)
        part = SectorPartition(
            [Sector(f"s{i}", fractions[i], treatments[i]) for i in range(n)]
        )
        rho = synthesize(part, rng.uniform(0, 2 * math.pi))
        check_density_matrix(rho)


# ---------------------------------------------------------------------------
# phase control
# ---------------------------------------------------------------------------


def test_phase_zero_displacement():
    geom = phase_from_displacement(0.0, CFG)
    assert geom.phi == 0.0
    assert geom.lateral_offset == 0.0
    assert geom.oa_prime == pytest.approx(CFG.mirror_radius)
    assert geom.ob_prime == pytest.approx(CFG.mirror_radius)
    assert geom.b_prime_c == pytest.approx(CFG.mirror_radius)


def test_phase_pi_transition_displacement():
    # scan |phi| for the pi crossing; must land within 25 % of 60 um
    lo, hi = 1e-6, 150e-6
    for _ in range(60):
        mid = (lo + hi) / 2
        if abs(phase_from_displacement(mid, CFG).phi) < math.pi:
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2
    assert 60e-6 * 0.75 <= crossing <= 60e-6 * 1.25


def test_phase_monotone_on_scan():
    grid = np.linspace(0, 100e-6, 51)
    phis = [abs(phase_from_displacement(d, CFG).phi) for d in grid]
    assert all(b > a for a, b in zip(phis, phis[1:]))


def test_phase_odd_in_displacement():
    for d in (20e-6, 60e-6, 100e-6):
        plus = phase_from_displacement(d, CFG).phi
        minus = phase_from_displacement(-d, CFG).phi
        assert abs(plus + minus) <= 0.05 * abs(plus)


def test_phase_lateral_offset_scale():
    geom = phase_from_displacement(100e-6, CFG)
    assert geom.lateral_offset == pytest.approx(0.1 * 100e-6, rel=0.05)


def test_phase_rejects_large_displacement():
    with pytest.raises(ValueError):
        phase_from_displacement(CFG.mirror_radius / 10, CFG)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_geometry_inputs_are_named(value):
    # inf passes the sign check and is named by the sum check
    with pytest.raises(ValueError, match=f"(fraction|sum to) {value}\\b"):
        SectorPartition([Sector("x", value, "coherent"), Sector("y", 0.5, "coherent")])
    with pytest.raises(ValueError, match=f"got {value}$"):
        sector_area(value, CFG)
    with pytest.raises(ValueError, match=f"must be finite, got {value}$"):
        displacement_visibility(value, CFG)
    with pytest.raises(ValueError, match=f"^delta_d = {value} outside"):
        phase_from_displacement(value, CFG)


def test_displacement_visibility_profile():
    assert displacement_visibility(0.0, CFG) == 1.0
    assert displacement_visibility(600e-6, CFG) <= 0.25
    v100 = displacement_visibility(100e-6, CFG)
    assert 0.9 < v100 < 1.0
    assert displacement_visibility(-100e-6, CFG) == pytest.approx(v100)


# ---------------------------------------------------------------------------
# coincidence simulation
# ---------------------------------------------------------------------------


def test_effective_visibility_scaling():
    rho = projector(singlet())
    out = apply_effective_visibility(rho, 0.94)
    assert out[1, 2] == pytest.approx(-0.47)
    assert np.allclose(out, werner(0.94))  # depolarized singlet is a Werner state
    check_density_matrix(out)
    assert np.allclose(apply_effective_visibility(rho, 1.0), rho)


def mean_rate(rho, theta1, theta2, config):
    """The noise-free coincidence rate of one joint setting, visibility applied."""
    return expected_coincidences(rho, [(theta1, theta2)], 1.0, config).get(theta1, theta2)


def test_singlet_parallel_analyzers_only_accidentals():
    rho = projector(singlet())
    rate = mean_rate(rho, 0.3, 0.3, CFG)
    accidental_only = mean_rate(rho, 0.3, 0.3, CLEAN_CFG)
    assert accidental_only == pytest.approx(0.0, abs=1e-9)
    assert rate < 50  # accidentals are tiny next to the ~3e4/s pair rate


def test_fringe_visibility_matches_configured_factor():
    cfg = SourceConfig(dark_rate=0.0, coincidence_window=0.0, visibility=0.94)
    rho = projector(singlet())  # the config's visibility is applied to it
    theta2 = math.pi / 4
    r_max = mean_rate(rho, theta2 + math.pi / 2, theta2, cfg)
    r_min = mean_rate(rho, theta2, theta2, cfg)
    v = (r_max - r_min) / (r_max + r_min)
    assert v == pytest.approx(0.94, abs=1e-12)


def test_full_ring_rate_exceeds_4khz():
    assert detected_pair_rate(CFG) > 4e3
    rho = projector(singlet())
    fringe_max = mean_rate(rho, math.pi / 2, 0.0, CFG)
    assert fringe_max > 4e3


def test_simulate_coincidences_deterministic():
    rho = werner(0.8)
    plan = list(STANDARD_PLAN.settings)
    t1 = simulate_coincidences(rho, plan, 1.0, CFG, seed=11)
    t2 = simulate_coincidences(rho, plan, 1.0, CFG, seed=11)
    t3 = simulate_coincidences(rho, plan, 1.0, CFG, seed=12)
    assert t1.entries == t2.entries
    assert t1.entries != t3.entries


def test_monte_carlo_converges_like_sqrt_duration():
    rho = werner(0.7)
    reference = {}
    for pair in STANDARD_PLAN.base_pairs():
        n1, n2 = bloch_vector(2 * np.array(pair), 0.0)[:, 1:]
        reference[pair] = n1 @ correlation_matrix(rho) @ n2
    errors = []
    for duration in (1.0, 100.0, 10_000.0):
        table = simulate_coincidences(
            rho, list(STANDARD_PLAN.settings), duration, CLEAN_CFG, seed=21
        )
        errs = [
            abs(correlation_from_counts(table, *pair)[0] - reference[pair])
            for pair in STANDARD_PLAN.base_pairs()
        ]
        errors.append(np.mean(errs))
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < errors[0] / 30


def test_simulate_bell_test_splits_duration():
    table, plan = simulate_bell_test(projector(singlet()), 160.0, CFG, seed=5)
    assert table.duration == pytest.approx(10.0)
    assert len(table.entries) == 16
    s, sigma = chsh_from_counts(table, plan)
    assert abs(s) == pytest.approx(2 * math.sqrt(2) * CFG.visibility, abs=5 * sigma)


# ---------------------------------------------------------------------------
# per-setting oracle for the batched coincidence kernel: one ket, one
# kron/outer projector and one trace per joint setting
# ---------------------------------------------------------------------------


def oracle_polarizer_ket(theta):
    return np.array([math.cos(theta), math.sin(theta)], dtype=complex)


def oracle_analyzer_projector(theta):
    ket = oracle_polarizer_ket(theta)
    return np.outer(ket, ket.conj())


def oracle_joint_probability(rho, theta1, theta2):
    op = np.kron(oracle_analyzer_projector(theta1), oracle_analyzer_projector(theta2))
    return float(np.real(np.trace(rho @ op)))


def oracle_singles_rate(rho, theta, arm, config):
    proj = oracle_analyzer_projector(theta)
    op = np.kron(proj, np.eye(2)) if arm == 1 else np.kron(np.eye(2), proj)
    marginal = float(np.real(np.trace(rho @ op)))
    arm_transmission = math.sqrt(config.transmission)
    return config.pair_rate * config.detector_qe * arm_transmission * marginal + config.dark_rate


def oracle_coincidence_rate(rho, theta1, theta2, config):
    signal = detected_pair_rate(config) * oracle_joint_probability(rho, theta1, theta2)
    accidental = (
        oracle_singles_rate(rho, theta1, 1, config)
        * oracle_singles_rate(rho, theta2, 2, config)
        * config.coincidence_window
    )
    return signal + accidental


def random_config(rng):
    return SourceConfig(
        dark_rate=float(rng.uniform(0.0, 500.0)),
        coincidence_window=float(rng.uniform(0.0, 50e-9)),
        visibility=float(rng.uniform(0.0, 1.0)),
    )


def test_batched_rates_match_per_setting_oracle(rng):
    # random dark rates and windows: the accidentals term checks both singles rates
    for _ in range(100):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        plan = [(float(a), float(b)) for a, b in rng.uniform(-4.0, 4.0, (int(rng.integers(1, 40)), 2))]
        duration = float(rng.uniform(0.1, 100.0))
        table = expected_coincidences(rho, plan, duration, cfg)
        rho_v = apply_effective_visibility(rho, cfg.visibility)
        for t1, t2 in plan:
            oracle = oracle_coincidence_rate(rho_v, t1, t2, cfg) * duration
            assert table.get(t1, t2) == pytest.approx(oracle, rel=1e-13)


def test_batched_tables_match_per_setting_poisson_draws(rng):
    for seed in range(40):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        plan = [(float(a), float(b)) for a, b in rng.uniform(-4.0, 4.0, (16, 2))]
        duration = float(rng.uniform(0.1, 100.0))
        table = simulate_coincidences(rho, plan, duration, cfg, seed)
        rho_v = apply_effective_visibility(rho, cfg.visibility)
        draws = np.random.default_rng(seed)
        expected = {
            (angle_label(t1), angle_label(t2)): int(
                draws.poisson(oracle_coincidence_rate(rho_v, t1, t2, cfg) * duration)
            )
            for t1, t2 in plan
        }
        assert table.entries == expected
        assert list(table.entries) == list(expected)


def test_simulate_coincidences_rejects_repeated_setting():
    rho = projector(singlet())
    with pytest.raises(ValueError, match="repeats"):
        simulate_coincidences(rho, [(0.0, 0.0), (math.pi, 0.0)], 1.0, SourceConfig(), 1)
    with pytest.raises(ValueError, match="repeats"):
        simulate_coincidences(rho, [(0.1, 0.2), (0.3, 0.4), (0.1, 0.2)], 1.0, SourceConfig(), 1)


def test_poisson_limit_is_named_before_the_draw():
    from ering.sampling import POISSON_MEAN_MAX, poisson

    rho = projector(singlet())
    with pytest.raises(ValueError, match=r"largest mean count \S+ is above .*; lower the duration"):
        simulate_coincidences(rho, STANDARD_PLAN, 1e300, CFG, 1)
    # the limit itself is numpy's: it draws, and the next float up is refused
    assert poisson([POISSON_MEAN_MAX], 1, "x").shape == (1,)
    with pytest.raises(ValueError, match="lower x$"):
        poisson([math.nextafter(POISSON_MEAN_MAX, math.inf)], 1, "x")
    assert poisson([], 1, "x").shape == (0,)


def test_in_range_draws_are_the_plain_generator_draws():
    means = expected_coincidences(werner(0.7), STANDARD_PLAN, 30.0, CFG)
    counts = simulate_coincidences(werner(0.7), STANDARD_PLAN, 30.0, CFG, 9)
    plain = np.random.default_rng(9).poisson(list(means.entries.values()))
    assert list(counts.entries.values()) == plain.tolist()


def test_noiseless_null_settings_count_zero():
    # rates that vanish exactly can round below zero; they must count 0, not raise
    grid = np.linspace(0.0, 3.0, 50)
    cases = [
        (projector(singlet()), [(t, t) for t in grid]),
        (projector(bell_state("phi", 0.0)), [(t, t + math.pi / 2) for t in grid]),
    ]
    for rho, plan in cases:
        table = simulate_coincidences(rho, plan, 1.0, CLEAN_CFG, seed=1)
        assert set(table.entries.values()) == {0}


class _MeanRng:
    """Stands in for a seeded Generator: the Poisson draw returns its means."""

    def poisson(self, lam):
        return np.asarray(lam, dtype=float)


def random_plan(rng):
    """Distinct random joint settings, as a list of pairs or as an AnglePlan."""
    if rng.random() < 0.3:
        return AnglePlan(*rng.uniform(-4.0, 4.0, 4))
    return [(float(a), float(b)) for a, b in rng.uniform(-4.0, 4.0, (int(rng.integers(1, 40)), 2))]


def test_compiled_plan_rates_match_per_setting_oracle(rng, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _MeanRng())
    for _ in range(60):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        plan = random_plan(rng)
        duration = float(rng.uniform(0.1, 100.0))
        settings = plan.settings if isinstance(plan, AnglePlan) else plan
        rho_v = apply_effective_visibility(rho, cfg.visibility)
        if isinstance(plan, AnglePlan):
            table, _ = simulate_bell_test(rho, duration * len(settings), cfg, 0, plan)
        else:
            table = simulate_coincidences(rho, plan, duration, cfg, 0)
        assert list(table.entries) == list(compile_plan(plan).labels)
        assert table.duration == pytest.approx(duration, rel=1e-15)
        for t1, t2 in settings:
            oracle = oracle_coincidence_rate(rho_v, t1, t2, cfg)
            assert table.get(t1, t2) / table.duration == pytest.approx(oracle, rel=1e-13)


def test_simulators_draw_about_the_noise_free_means(rng, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _MeanRng())
    for _ in range(30):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        plan = random_plan(rng)
        duration = float(rng.uniform(0.1, 100.0))
        drawn = simulate_coincidences(rho, plan, duration, cfg, 0)
        means = expected_coincidences(rho, plan, duration, cfg)
        assert list(drawn.entries) == list(means.entries)
        for key, mean in means.entries.items():
            assert drawn.entries[key].hex() == mean.hex()
        assert drawn.duration == means.duration
        flux = float(rng.uniform(1.0, 1e6))
        settings = standard_settings()[: int(rng.integers(1, 17))]
        drawn = simulate_tomography(rho, flux, 0, settings)
        means = exact_tomography_counts(rho, flux, settings)
        assert drawn.settings == means.settings
        assert drawn.counts.tobytes() == means.counts.tobytes()
        assert drawn.total_flux_estimate == means.total_flux_estimate


# ---------------------------------------------------------------------------
# the former mean route, the oracle of the means in Pauli coordinates: the
# depolarized 4x4 matrix, its Pauli vector, then the compiled rows
# ---------------------------------------------------------------------------


def depolarized_matrix_means(rho, plan, duration, config):
    """Mean counts through ``apply_effective_visibility`` and ``pauli_vector`` of its result."""
    rho_v = apply_effective_visibility(rho, config.visibility)
    joint, marginal1, marginal2 = compile_plan(plan).probabilities(pauli_vector(rho_v))
    arm_rate = config.pair_rate * config.detector_qe * math.sqrt(config.transmission)
    singles1 = arm_rate * marginal1 + config.dark_rate
    singles2 = arm_rate * marginal2 + config.dark_rate
    rates = detected_pair_rate(config) * joint + singles1 * singles2 * config.coincidence_window
    return np.maximum(rates, 0.0) * duration


#: Figure 2: analyzer 2 at 45 deg, analyzer 1 swept over 45..135 deg.
FIGURE_2_GRID = [(math.radians(t1), math.radians(45.0)) for t1 in np.arange(45.0, 135.0 + 1e-9, 2.5)]


def test_means_match_the_depolarized_matrix_route(rng):
    # the routes round differently: a few ulps of the larger means, so the
    # bound is relative to the largest mean of each table
    for _ in range(300):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        for plan in (STANDARD_PLAN, FIGURE_2_GRID):
            duration = float(rng.uniform(0.1, 100.0))
            means = expected_coincidences(rho, plan, duration, cfg)
            oracle = depolarized_matrix_means(rho, plan, duration, cfg)
            assert list(means.entries) == list(compile_plan(plan).labels)
            got = np.array(list(means.entries.values()))
            assert np.abs(got - oracle).max() <= 1e-15 * oracle.max()


def test_bell_runs_draw_about_the_depolarized_matrix_means(rng):
    for seed in range(200):
        rho = random_density_matrix(rng)
        cfg = random_config(rng)
        total = float(rng.uniform(1.0, 400.0))
        table, plan = simulate_bell_test(rho, total, cfg, seed)
        oracle = depolarized_matrix_means(rho, plan, total / len(plan.settings), cfg)
        draws = np.random.default_rng(seed).poisson(oracle).tolist()
        assert table.entries == dict(zip(compile_plan(plan).labels, draws))
        assert list(table.entries) == list(compile_plan(plan).labels)


@pytest.mark.parametrize(
    "config, duration", [(SourceConfig(pair_rate=1e300), 1.0), (CFG, 1e305)], ids=["rate", "duration"]
)
def test_overflowing_means_are_refused_before_the_draw(no_draw, config, duration):
    # the suite turns numpy's RuntimeWarning into an error: the overflow must not be reached
    message = "^the mean counts overflow a float; lower the duration or the pair rate$"
    for plan in (STANDARD_PLAN, FIGURE_2_GRID):
        with pytest.raises(PoissonLimitError, match=message):
            expected_coincidences(werner(0.8), plan, duration, config)
        with pytest.raises(PoissonLimitError, match=message):
            simulate_coincidences(werner(0.8), plan, duration, config, 1)
    with pytest.raises(PoissonLimitError, match=message):
        simulate_bell_test(werner(0.8), 16 * duration, config, 1)


def test_compiled_plan_is_shared_by_equal_settings():
    compiled = compile_plan(STANDARD_PLAN)
    assert compile_plan(list(STANDARD_PLAN.settings)) is compiled
    assert compile_plan(AnglePlan(0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)) is compiled
    assert len(compiled.labels) == 16
    assert compiled.rows.shape == (48, 16)


def test_plan_repeating_a_setting_raises_on_every_call():
    rho = projector(singlet())
    plan = [(0.1, 0.2), (0.3, 0.4), (0.1 + math.pi, 0.2)]
    for _ in range(3):
        with pytest.raises(ValueError, match="repeats"):
            simulate_coincidences(rho, plan, 1.0, CFG, 1)
        with pytest.raises(ValueError, match="repeats"):
            compile_plan(plan)


def test_forty_one_setting_plans_all_run():
    # figure 2 runs one single-setting plan per analyzer-1 angle
    rho = projector(bell_state("phi", math.pi))
    for k, theta1_deg in enumerate(np.linspace(0.0, 175.5, 40)):
        setting = (math.radians(float(theta1_deg)), math.radians(45.0))
        table = simulate_coincidences(rho, [setting], 1.0, CFG, k)
        expected = np.random.default_rng(k).poisson(oracle_coincidence_rate(
            apply_effective_visibility(rho, CFG.visibility), *setting, CFG
        ))
        assert table.entries == {(angle_label(setting[0]), angle_label(setting[1])): int(expected)}


@pytest.fixture
def no_draw(monkeypatch):
    def draw(seed):
        raise AssertionError("a generator was made before the inputs were checked")

    monkeypatch.setattr(np.random, "default_rng", draw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_simulation_inputs_are_named(no_draw, value):
    rho = werner(0.8)
    with pytest.raises(ValueError, match="plan angles must be finite"):
        simulate_coincidences(rho, [(0.1, 0.2), (value, 0.3)], 1.0, CFG, 1)
    with pytest.raises(ValueError, match="plan angles must be finite"):
        simulate_bell_test(rho, 16.0, CFG, 1, AnglePlan(0.0, 0.1, value, 0.2))
    with pytest.raises(ValueError, match="^duration must be finite"):
        simulate_coincidences(rho, [(0.1, 0.2)], value, CFG, 1)
    with pytest.raises(ValueError, match="^total_duration must be finite"):
        simulate_bell_test(rho, value, CFG, 1)
    with pytest.raises(ValueError, match="counts_per_setting must be finite"):
        simulate_tomography(rho, value, 1)
    with pytest.raises(ValueError, match="counts_per_setting must be finite"):
        exact_tomography_counts(rho, value)


# ---------------------------------------------------------------------------
# Ou-Mandel
# ---------------------------------------------------------------------------


def test_coherence_time_calibration():
    assert coherence_time_from_bandwidth(CFG) == pytest.approx(140e-15, rel=1e-9)
    wide = SourceConfig(filter_bandwidth=12e-9)
    assert coherence_time_from_bandwidth(wide) == pytest.approx(70e-15, rel=1e-9)
    assert COHERENCE_TIME_SCALE == pytest.approx(0.4756, rel=1e-3)


def test_ou_mandel_flat_at_quarter_phase():
    xs = np.linspace(-50e-6, 50e-6, 41)
    for x, c in ou_mandel_scan(math.pi / 2, xs, CFG):
        assert c == pytest.approx(1.0, abs=1e-12)


def test_ou_mandel_dip_and_peak():
    scan_dip = dict(ou_mandel_scan(0.0, [0.0, 1.0], CFG))
    scan_peak = dict(ou_mandel_scan(math.pi, [0.0, 1.0], CFG))
    assert OU_MANDEL_VISIBILITY == 0.88
    assert scan_dip[0.0] == pytest.approx(1 - 0.88)
    assert scan_peak[0.0] == pytest.approx(1 + 0.88)
    assert scan_dip[1.0] == pytest.approx(1.0)  # envelope long gone at 1 m


def test_ou_mandel_range_invariant():
    xs = np.linspace(-200e-6, 200e-6, 101)
    for phi in (0.0, 0.7, math.pi / 2, 2.0, math.pi):
        for _, c in ou_mandel_scan(phi, xs, CFG):
            assert 1 - 0.88 - 1e-12 <= c <= 1 + 0.88 + 1e-12


def test_ou_mandel_fwhm_prediction():
    width = ou_mandel_fwhm(CFG)
    assert abs(width - 35e-6) / 35e-6 < 0.20
    # the dip itself has that width: half depth at +- fwhm/2
    for x, c in ou_mandel_scan(0.0, [width / 2], CFG):
        assert c == pytest.approx(1 - 0.88 / 2, abs=1e-12)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_ou_mandel_scan_rejects_non_finite_inputs(value):
    with pytest.raises(ValueError, match=f"^Ou-Mandel phase phi must be finite, got {value}$"):
        ou_mandel_scan(value, [0.0, 1e-6], CFG)
    with pytest.raises(ValueError, match=f"^beam-splitter position x must be finite, got {value}$"):
        ou_mandel_scan(0.0, [0.0, value], CFG)
