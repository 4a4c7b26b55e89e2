"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -v -s`` to see
them).  Every tolerance is fixed here, not configurable."""

import math
import time

import numpy as np
import pytest

from ering.bell import chsh_max_from_correlation_matrix, chsh_optimal_family, chsh_optimize
from ering.counts import STANDARD_PLAN, chsh_from_counts
from ering.entanglement import (
    MEMS,
    WERNER,
    is_separable_ppt,
    linear_entropy,
    tangle,
    tangle_curve,
)
from ering.sampling import random_density_matrix
from ering.optics import (
    SourceConfig,
    displacement_visibility,
    ou_mandel_fwhm,
    ou_mandel_scan,
    phase_from_displacement,
)
from ering.patchwork import mems_partition, synthesize, werner_partition
from ering.source import simulate_bell_test
from ering.states import mems, projector, singlet, werner
from ering.tomography import fidelity, ml_reconstruct, simulate_tomography

SQ2 = math.sqrt(2)
P_GRID = np.linspace(0.0, 1.0, 101)


def test_criterion_1_werner_tangle_entropy_curve():
    t0 = time.monotonic()
    worst = 0.0
    for p in P_GRID:
        rho = werner(p)
        s_l = linear_entropy(rho)
        expected = 0.25 * (1 - 3 * math.sqrt(1 - s_l)) ** 2 if s_l < 8 / 9 else 0.0
        got = tangle(rho)
        worst = max(worst, abs(got - expected))
        assert abs(got - expected) < 1e-10
        assert abs(got - tangle_curve(WERNER, s_l)) < 1e-10
    assert tangle_curve(WERNER, 8 / 9) == 0.0
    assert tangle_curve(WERNER, 0.95) == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: Werner tangle-entropy curve, worst |dT|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_mems_curve_and_frontier():
    t0 = time.monotonic()
    for p in P_GRID:
        rho = mems(p)
        t = tangle(rho)
        assert abs(t - p * p) < 1e-10
        assert abs(t - tangle_curve(MEMS, linear_entropy(rho))) < 1e-10
    for s in np.linspace(0, 8 / 9, 500):
        assert tangle_curve(MEMS, s) >= tangle_curve(WERNER, s) - 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 2: MEMS tangle = p^2 on both branches, frontier dominates, {elapsed:.2f}s")


def test_criterion_3_variational_chsh_optimum():
    t0 = time.monotonic()
    worst = 0.0
    # the 2 sqrt(2) p closed form holds for all Werner p and for MEMS with
    # p >= 1/3 (below that the z-axis correlation 1 - 4g dominates)
    grids = [(werner, np.linspace(0, 1, 51)), (mems, np.linspace(1 / 3, 1, 51))]
    for build, grid in grids:
        for p in grid:
            rho = build(p)
            s_num, _ = chsh_optimize(rho)
            s_closed = chsh_optimal_family(p)[0]
            s_oracle = chsh_max_from_correlation_matrix(rho)
            worst = max(worst, abs(s_num - s_closed), abs(s_num - s_oracle))
            assert abs(s_num - 2 * SQ2 * p) < 1e-6
            assert abs(s_num - s_closed) < 1e-6
            assert abs(s_num - s_oracle) < 1e-6
            assert (s_num > 2 + 1e-9) == (p > 1 / SQ2)
    # strict threshold: p = 1/sqrt(2) itself does not violate
    s_at_threshold, _ = chsh_optimize(werner(1 / SQ2))
    assert s_at_threshold <= 2 + 1e-9
    boundary = mems(1 / SQ2)
    s_l, t = linear_entropy(boundary), tangle(boundary)
    assert round(s_l, 3) == 0.552
    assert round(t, 3) == 0.5
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(
        f"PASS criterion 3: CHSH optimum 2*sqrt(2)*p on both grids, worst dev={worst:.2e}, "
        f"MEMS threshold (S_L,T)=({s_l:.3f},{t:.3f}), {elapsed:.1f}s"
    )


def test_criterion_4_patchwork_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for p in P_GRID:
        dw = np.abs(synthesize(werner_partition(p), math.pi) - werner(p)).max()
        dm = np.abs(synthesize(mems_partition(p), math.pi) - mems(p)).max()
        worst = max(worst, dw, dm)
        assert dw < 1e-12 and dm < 1e-12
    # two-step identity recipe: flip half the pairs, then decohere everything
    step1 = {"flipped_and_coherent": 0.5, "coherent": 0.5}
    mixture = synthesize(step1, math.pi)
    assert mixture[0, 3] == pytest.approx(-0.25)  # the Bell-pair mixture
    step2 = {"flipped_and_decohered": 0.5, "decohered": 0.5}
    identity = synthesize(step2, math.pi)
    assert np.array_equal(identity, np.eye(4, dtype=complex) / 4)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 4: patchwork == closed forms, worst element dev={worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_bell_experiment_statistics():
    t0 = time.monotonic()
    v_eff = 0.904
    config = SourceConfig(dark_rate=0.0, coincidence_window=0.0, visibility=v_eff)
    table, plan = simulate_bell_test(projector(singlet()), 180.0, config, seed=0)
    s, sigma = chsh_from_counts(table, plan)
    s_abs = abs(s)
    ideal = 2 * SQ2 * v_eff
    assert abs(s_abs - ideal) <= 5 * sigma
    assert abs(s_abs - 2.5564) <= sigma  # the measured value, within 1 sigma
    assert 0.0026 / 3 <= sigma <= 0.0026 * 3
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(
        f"PASS criterion 5: |S|={s_abs:.4f} (target 2.5564), sigma_S={sigma:.4f} "
        f"(reference 0.0026), {elapsed:.1f}s"
    )


REFERENCE_STATES = [
    ("werner", 0.27, werner(0.27)),
    ("werner", 0.47, werner(0.47)),
    ("werner", 0.82, werner(0.82)),
    ("mems", 0.45, mems(0.45)),
    ("mems", 0.77, mems(0.77)),
]


def test_criterion_6_tomography_round_trip():
    t0 = time.monotonic()
    summary = []
    # flux 4e4 makes the *measured* average exactly 1e4 counts per setting
    # (the 16 standard projectors transmit 1/4 of the flux on average)
    flux = 40_000
    for name, p, rho in REFERENCE_STATES:
        n_good = 0
        worst_im = 0.0
        for seed in range(50):
            data = simulate_tomography(rho, flux, seed=seed)
            rec = ml_reconstruct(data, seed=seed)
            if fidelity(rec, rho) >= 0.99:
                n_good += 1
            worst_im = max(worst_im, float(np.abs(rec.imag).max()))
        assert n_good >= 45, f"{name}({p}): only {n_good}/50 seeds reached F >= 0.99"
        assert worst_im <= 0.03, f"{name}({p}): max |Im| = {worst_im}"
        summary.append(f"{name}({p}):{n_good}/50, maxIm={worst_im:.3f}")
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 6: tomography round trip [{'; '.join(summary)}], {elapsed:.0f}s")


def test_criterion_7_reconstructed_scatter_follows_curves():
    t0 = time.monotonic()
    cases = [
        (WERNER, werner, [0.27, 0.47, 0.6, 0.82, 0.95]),
        (MEMS, mems, [0.45, 0.6, 0.77, 0.9]),
    ]
    n_seeds = 8
    for family, build, ps in cases:
        for p in ps:
            rho = build(p)
            s_ls, ts = [], []
            for seed in range(n_seeds):
                data = simulate_tomography(rho, 10_000, seed=1000 + seed)
                rec = ml_reconstruct(data, seed=seed)
                s_l = linear_entropy(rec)
                t = tangle(rec)
                s_ls.append(s_l)
                ts.append(t)
                # no physical reconstruction may exceed the MEMS frontier
                assert t <= tangle_curve(MEMS, min(1.0, s_l)) + 1e-9
            mean_t = float(np.mean(ts))
            sigma_t = float(np.std(ts, ddof=1))
            curve = tangle_curve(family, min(1.0, float(np.mean(s_ls))))
            allowance = max(3 * sigma_t / math.sqrt(n_seeds), 0.01)
            assert abs(mean_t - curve) <= allowance, (
                f"{family}({p}): mean T={mean_t:.4f} vs curve {curve:.4f} "
                f"+- {allowance:.4f}"
            )
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 7: reconstructed (S_L, T) scatter follows both curves, {elapsed:.0f}s")


def test_criterion_8_phase_geometry():
    t0 = time.monotonic()
    config = SourceConfig()
    assert phase_from_displacement(0.0, config).phi == 0.0
    grid = np.linspace(0, 100e-6, 101)
    phis = [abs(phase_from_displacement(d, config).phi) for d in grid]
    assert all(b > a for a, b in zip(phis, phis[1:]))
    lo, hi = 1e-6, 150e-6
    for _ in range(60):
        mid = (lo + hi) / 2
        if abs(phase_from_displacement(mid, config).phi) < math.pi:
            lo = mid
        else:
            hi = mid
    crossing = (lo + hi) / 2
    assert 45e-6 <= crossing <= 75e-6  # 60 um +- 25 %
    v600 = displacement_visibility(600e-6, config)
    assert v600 <= 0.25
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 8: phi(0)=0, monotone, pi-transition at {crossing * 1e6:.1f} um, "
        f"V(600um)={v600:.3f}, {elapsed:.2f}s"
    )


def test_criterion_9_ou_mandel_model():
    t0 = time.monotonic()
    config = SourceConfig()
    width = ou_mandel_fwhm(config)
    assert abs(width - 35e-6) / 35e-6 <= 0.20
    xs = np.linspace(-100e-6, 100e-6, 101)
    flat = ou_mandel_scan(math.pi / 2, xs, config)
    assert max(abs(c - 1.0) for _, c in flat) < 1e-12
    # and the flat trace survives Poisson counting noise at 1e4 per point
    rng = np.random.default_rng(33)
    n = 10_000
    sampled = np.array([rng.poisson(n * c) / n for _, c in flat])
    assert np.all(np.abs(sampled - 1.0) <= 5 / math.sqrt(n))
    assert abs(sampled.mean() - 1.0) <= 5 / math.sqrt(n * len(xs))
    elapsed = time.monotonic() - t0
    print(
        f"PASS criterion 9: dip FWHM {width * 1e6:.1f} um (35 +- 20%), "
        f"phi=pi/2 trace flat, {elapsed:.2f}s"
    )


def test_criterion_10_oracle_triangle():
    t0 = time.monotonic()
    rng = np.random.default_rng(20240001)
    worst = 0.0
    for _ in range(1000):
        rho = random_density_matrix(rng)
        entangled = tangle(rho) > 1e-12
        separable, _ = is_separable_ppt(rho)
        assert entangled == (not separable)
        s_num, _ = chsh_optimize(rho)
        dev = abs(s_num - chsh_max_from_correlation_matrix(rho))
        worst = max(worst, dev)
        assert dev < 1e-6
    elapsed = time.monotonic() - t0
    print(
        f"PASS criterion 10: tangle<->PPT equivalence and optimizer==oracle on 1000 "
        f"states, worst dev={worst:.2e}, {elapsed:.0f}s"
    )
