import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize

from ering.bell import (
    AnglePlan,
    CountsTable,
    STANDARD_PLAN,
    angle_label,
    chsh,
    chsh_from_counts,
    chsh_max_from_correlation_matrix,
    chsh_optimal_family,
    chsh_optimize,
    compile_plan,
    correlation_from_counts,
    counts_from_csv,
    counts_to_csv,
    correlation_matrix,
)
from ering.errors import InputFormatError
from ering.entanglement import tangle
from ering.sampling import random_density_matrix, random_pure_state
from ering.source import SourceConfig, expected_coincidences
from ering.states import analyse, bloch_vector, mems, pauli_vector, projector, singlet, werner

SQ2 = math.sqrt(2)


def ideal_counts(rho, plan, flux):
    """Noise-free counts of a plan from an ideal source: flux * Tr(rho P1 x P2) per setting."""
    ideal = SourceConfig(
        pair_rate=flux, detector_qe=1.0, transmission=1.0, dark_rate=0.0, coincidence_window=0.0
    )
    return expected_coincidences(rho, plan, 1.0, ideal)


def random_family_state(rng):
    """Random diagonal (A, B, B, D) state with a real -p/2 coupling."""
    b = rng.uniform(0.0, 0.5)
    p = rng.uniform(0.0, min(1.0, 2 * b))
    rest = 1 - 2 * b
    a = rng.uniform(0.0, rest)
    rho = np.diag([a, b, b, rest - a]).astype(complex)
    rho[1, 2] = rho[2, 1] = -p / 2
    return rho, p, b


def unit(theta, phi):
    """The unit vector of the Bloch angles (Theta, Phi)."""
    return bloch_vector(theta, phi)[..., 1:]


def random_settings(rng):
    """Four random directions a1, a1', a2, a2' as a (4, 3) array."""
    return unit(rng.uniform(0, math.pi, 4), rng.uniform(-math.pi, math.pi, 4))


def correlation(rho, n1, n2):
    """P = n1^T T n2 = Tr(rho (n1 . sigma) x (n2 . sigma))."""
    return float(n1 @ correlation_matrix(rho) @ n2)


_PAULI_XYZ = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def kron_correlation_matrix(rho):
    """t_ij = Tr(rho sigma_i x sigma_j), one trace of a Kronecker product each."""
    rho = np.asarray(rho, dtype=complex)
    return np.array(
        [[np.trace(rho @ np.kron(si, sj)).real for sj in _PAULI_XYZ] for si in _PAULI_XYZ]
    )


# Independent trace leg: the observable n . sigma of a direction as a
# 2x2 matrix and P = Tr(rho O1 x O2) by an explicit Kronecker product.


def observable(n) -> np.ndarray:
    """2x2 Hermitian, traceless, unit-square observable n . sigma of a unit vector."""
    return sum(c * sigma for c, sigma in zip(n, _PAULI_XYZ))


def kron_correlation(rho, n1, n2):
    return float(np.trace(rho @ np.kron(observable(n1), observable(n2))).real)


def kron_chsh(rho, settings):
    a1, a1p, a2, a2p = settings
    return (
        kron_correlation(rho, a1, a2)
        - kron_correlation(rho, a1, a2p)
        + kron_correlation(rho, a1p, a2)
        + kron_correlation(rho, a1p, a2p)
    )


def oracle_states(rng, n):
    states = [random_density_matrix(rng) for _ in range(n)]
    states += [werner(p) for p in np.linspace(0, 1, 51)]
    states += [mems(p) for p in np.linspace(0, 1, 51)]
    return states


def test_observable_pauli_limits():
    assert np.allclose(observable(unit(0.0, 0.0)), np.diag([1, -1]))
    assert np.allclose(
        observable(unit(math.pi / 2, 0.0)), np.array([[0, 1], [1, 0]]), atol=1e-15
    )
    assert np.allclose(
        observable(unit(math.pi / 2, math.pi / 2)),
        np.array([[0, -1j], [1j, 0]]),
        atol=1e-15,
    )


def test_observable_algebra(rng):
    for _ in range(50):
        o = observable(unit(rng.uniform(-6, 6), rng.uniform(-6, 6)))
        assert np.allclose(o, o.conj().T)
        assert abs(np.trace(o)) < 1e-12
        assert np.allclose(o @ o, np.eye(2), atol=1e-12)


@given(theta=st.floats(-10, 10), phi=st.floats(-10, 10))
def test_bloch_setting_normalization_preserves_direction(theta, phi):
    # any finite (Theta, Phi) gives a row that passes chsh's unit-norm check
    n = unit(theta, phi)
    raw = np.array(
        [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
    )
    assert np.allclose(n, raw, atol=1e-9)
    assert abs(chsh(np.eye(4) / 4, np.stack([n] * 4))) <= 1e-15


def test_correlation_singlet_anticorrelated(rng):
    rho = projector(singlet())
    for _ in range(20):
        n = unit(rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi))
        assert correlation(rho, n, n) == pytest.approx(-1.0, abs=1e-12)


def test_correlation_werner_equatorial():
    n = unit(math.pi / 2, 0.0)
    for p in (0.0, 0.3, 0.7, 1.0):
        assert correlation(werner(p), n, n) == pytest.approx(-p, abs=1e-12)


def test_correlation_closed_form_for_family(rng):
    # Tr(rho O1 x O2) must reproduce
    # (1 - 4B) cos T1 cos T2 - p cos(F1 - F2) sin T1 sin T2
    for _ in range(1000):
        rho, p, b = random_family_state(rng)
        t1, t2 = rng.uniform(0, math.pi, 2)
        f1, f2 = rng.uniform(-math.pi, math.pi, 2)
        got = correlation(rho, unit(t1, f1), unit(t2, f2))
        want = (1 - 4 * b) * math.cos(t1) * math.cos(t2) - p * math.cos(
            f1 - f2
        ) * math.sin(t1) * math.sin(t2)
        assert abs(got - want) < 1e-10


def section_v_settings():
    return unit(np.array([0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4]), 0.0)


def test_chsh_singlet_known_settings():
    s = chsh(projector(singlet()), section_v_settings())
    # trace convention: the singlet extremum at these settings is negative
    assert s == pytest.approx(-2 * SQ2, abs=1e-12)
    assert abs(s) == pytest.approx(2 * SQ2, abs=1e-12)


def test_chsh_maximally_mixed_vanishes(rng):
    rho = np.eye(4, dtype=complex) / 4
    for _ in range(10):
        assert chsh(rho, random_settings(rng)) == pytest.approx(0.0, abs=1e-12)


def test_chsh_at_family_optimal_settings():
    # the quoted extremal settings; the trace evaluates to +2 sqrt(2) p there
    s_opt, settings = chsh_optimal_family(0.5)
    assert s_opt == pytest.approx(SQ2)
    assert chsh(werner(0.5), settings) == pytest.approx(SQ2, abs=1e-12)


def test_chsh_optimal_family_values():
    assert chsh_optimal_family(1.0)[0] == pytest.approx(2 * SQ2)
    assert chsh_optimal_family(1 / SQ2)[0] == pytest.approx(2.0)
    assert chsh_optimal_family(0.47)[0] == pytest.approx(2 * SQ2 * 0.47)


def test_chsh_optimal_family_independent_of_diagonal(rng):
    # |S| at the quoted settings depends only on the coupling weight p
    for _ in range(50):
        rho, p, b = random_family_state(rng)
        s_opt, settings = chsh_optimal_family(p, b)
        assert abs(chsh(rho, settings)) == pytest.approx(s_opt, abs=1e-10)


def test_chsh_optimal_family_validation():
    with pytest.raises(ValueError):
        chsh_optimal_family(1.2)
    with pytest.raises(ValueError):
        chsh_optimal_family(0.8, 0.1)  # B < p/2 breaks positivity


def test_chsh_optimize_singlet():
    s_max, settings = chsh_optimize(projector(singlet()))
    assert s_max == pytest.approx(2 * SQ2, abs=1e-9)
    assert abs(chsh(projector(singlet()), settings)) == pytest.approx(s_max, abs=1e-9)


def test_chsh_optimize_werner_and_mems():
    s_max, _ = chsh_optimize(werner(0.6))
    assert s_max == pytest.approx(2 * SQ2 * 0.6, abs=1e-6)
    s_max, _ = chsh_optimize(mems(0.8))
    assert s_max == pytest.approx(2 * SQ2 * 0.8, abs=1e-6)


def test_chsh_optimize_beats_random_settings(rng):
    rho = random_density_matrix(rng)
    s_max, _ = chsh_optimize(rho)
    for _ in range(10_000):
        assert abs(chsh(rho, random_settings(rng))) <= s_max + 1e-9


def test_chsh_optimize_matches_oracle_random(rng):
    for _ in range(25):
        rho = random_density_matrix(rng)
        s_max, _ = chsh_optimize(rho)
        assert s_max == pytest.approx(chsh_max_from_correlation_matrix(rho), abs=1e-6)


def test_chsh_optimize_stationary(rng):
    # central finite differences at the optimum must vanish along every tangent direction
    rho = werner(0.8)
    _, settings = chsh_optimize(rho)
    step = 1e-5
    for k in range(4):
        for tangent in np.linalg.svd(settings[k][None, :])[2][1:]:  # the plane normal to row k
            up, dn = settings.copy(), settings.copy()
            up[k] = math.cos(step) * settings[k] + math.sin(step) * tangent
            dn[k] = math.cos(step) * settings[k] - math.sin(step) * tangent
            deriv = (chsh(rho, up) - chsh(rho, dn)) / (2 * step)
            assert abs(deriv) <= 1e-4


# Independent variational leg: multi-start L-BFGS over the 8 Bloch angles,
# on a correlation matrix assembled from the Kronecker-trace oracle along x, y, z.

def correlation_matrix_from_axes(rho):
    axes = np.eye(3)
    return np.array([[kron_correlation(rho, si, sj) for sj in axes] for si in axes])


def _neg_s_squared(x, t):
    # S and its analytic gradient over the 8 angles; minimize -S^2
    us, dth, dph = [], [], []
    for k in range(4):
        st_, ct = math.sin(x[2 * k]), math.cos(x[2 * k])
        sp, cp = math.sin(x[2 * k + 1]), math.cos(x[2 * k + 1])
        us.append(np.array([st_ * cp, st_ * sp, ct]))
        dth.append(np.array([ct * cp, ct * sp, -st_]))
        dph.append(np.array([-st_ * sp, st_ * cp, 0.0]))
    u1, u1p, v2, v2p = us
    w1 = t @ (v2 - v2p)
    w1p = t @ (v2 + v2p)
    s = float(u1 @ w1 + u1p @ w1p)
    y = (u1 + u1p) @ t
    ym = (u1 - u1p) @ t
    ds = np.array(
        [
            dth[0] @ w1,
            dph[0] @ w1,
            dth[1] @ w1p,
            dph[1] @ w1p,
            y @ dth[2],
            y @ dph[2],
            -(ym @ dth[3]),
            -(ym @ dph[3]),
        ]
    )
    return -s * s, -2 * s * ds


def variational_chsh_max(t, n_starts=32, seed=0):
    """Best |S| of a seeded multi-start L-BFGS search over the 8 angles."""
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(n_starts):
        x0 = np.empty(8)
        x0[0::2] = rng.uniform(0.0, math.pi, 4)
        x0[1::2] = rng.uniform(-math.pi, math.pi, 4)
        res = minimize(
            _neg_s_squared,
            x0,
            args=(t,),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-15, "gtol": 1e-12},
        )
        best = min(best, res.fun)
    return math.sqrt(max(0.0, -best))


def test_chsh_optimize_matches_variational_search(rng):
    for i in range(25):
        rho = random_density_matrix(rng)
        s_var = variational_chsh_max(correlation_matrix_from_axes(rho), seed=i)
        s_max, _ = chsh_optimize(rho)
        assert s_max == pytest.approx(s_var, abs=1e-8)


def test_chsh_optimize_settings_reach_oracle():
    # the criterion-10 corpus, the family grids and the corner states
    rng = np.random.default_rng(20240001)
    states = [random_density_matrix(rng) for _ in range(1000)]
    states += [werner(p) for p in np.linspace(0, 1, 51)]
    states += [mems(p) for p in np.linspace(1 / 3, 1, 51)]
    hh = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
    states += [np.eye(4, dtype=complex) / 4, projector(singlet()), hh]
    for rho in states:
        s_max, settings = chsh_optimize(rho)
        assert abs(s_max - chsh_max_from_correlation_matrix(rho)) <= 1e-12
        assert abs(abs(chsh(rho, settings)) - s_max) <= 1e-12


def test_chsh_optimize_settings_reach_its_value_by_the_kron_leg():
    rng = np.random.default_rng(20240012)
    for rho in oracle_states(rng, 300):
        s_max, settings = chsh_optimize(rho)
        assert abs(abs(kron_chsh(rho, settings)) - s_max) <= 1e-12


def test_chsh_equals_sum_of_four_correlations(rng):
    for _ in range(50):
        rho = random_density_matrix(rng)
        settings = unit(rng.uniform(-math.pi, math.pi, 4), rng.uniform(-math.pi, math.pi, 4))
        a1, a1p, a2, a2p = settings
        expected = (
            correlation(rho, a1, a2)
            - correlation(rho, a1, a2p)
            + correlation(rho, a1p, a2)
            + correlation(rho, a1p, a2p)
        )
        assert abs(chsh(rho, settings) - expected) <= 1e-15


def test_correlation_matrix_is_bitwise_the_kron_loop():
    rng = np.random.default_rng(20240007)
    for rho in oracle_states(rng, 1000):
        assert np.array_equal(correlation_matrix(rho), kron_correlation_matrix(rho))


def test_correlation_and_chsh_match_kron_oracle():
    rng = np.random.default_rng(20240008)
    for rho in oracle_states(rng, 300):
        settings = random_settings(rng)
        a1, _, a2, _ = settings
        assert abs(correlation(rho, a1, a2) - kron_correlation(rho, a1, a2)) <= 1e-12
        assert abs(chsh(rho, settings) - kron_chsh(rho, settings)) <= 1e-12


def test_chsh_validates_the_state():
    bad = werner(0.8).copy()
    bad[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        chsh(bad, STANDARD_PLAN.bloch_settings())


def test_tsirelson_never_exceeded(rng):
    for _ in range(200):
        rho = random_density_matrix(rng)
        s_max, _ = chsh_optimize(rho)
        assert s_max <= 2 * SQ2 + 1e-9


def test_chsh_max_is_bitwise_the_sorted_eigenvalue_route():
    rng = np.random.default_rng(20240015)
    for rho in oracle_states(rng, 500):
        t = correlation_matrix(rho)
        eigs = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
        expected = float(2 * math.sqrt(max(0.0, eigs[0] + eigs[1])))
        assert chsh_max_from_correlation_matrix(rho) == expected


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("angle", ["theta", "phi"])
def test_bloch_setting_rejects_non_finite_angle(angle, value):
    # a setting built from a non-finite Bloch angle is a NaN row, which chsh refuses
    settings = unit(np.full(4, 0.5), np.full(4, 0.5))
    with np.errstate(invalid="ignore"):  # sin and cos of an infinite angle are NaN
        settings[1] = unit(**{"theta": 0.5, "phi": 0.5, angle: value})
    with pytest.raises(ValueError, match="must be unit vectors"):
        chsh(werner(0.8), settings)


@pytest.mark.parametrize(
    "settings, match",
    [
        (np.eye(3), r"must have shape \(4, 3\), got \(3, 3\)"),
        (np.vstack([np.eye(3), [[np.nan, 0.0, 1.0]]]), "must be unit vectors"),
        (np.vstack([np.eye(3), [[0.0, 0.0, 1.01]]]), "must be unit vectors"),
    ],
    ids=["shape-3x3", "nan-row", "norm-1.01"],
)
def test_chsh_rejects_settings_that_are_not_four_unit_vectors(settings, match):
    with pytest.raises(ValueError, match=match):
        chsh(werner(0.8), settings)


def test_chsh_settings_are_read_only_unit_vectors():
    rng = np.random.default_rng(20240012)
    for settings in (chsh_optimize(random_density_matrix(rng))[1], chsh_optimal_family(0.5)[1]):
        assert settings.shape == (4, 3) and not settings.flags.writeable
        assert np.all(np.abs(np.einsum("ij,ij->i", settings, settings) - 1.0) <= 1e-12)


def test_angle_plan_with_nan_has_no_bloch_settings():
    with pytest.raises(ValueError, match="finite"):
        AnglePlan(math.nan, 0.0, math.pi / 8, 3 * math.pi / 8).bloch_settings()


def test_chsh_rejects_a_nan_value(monkeypatch):
    rho = werner(0.8)
    # the record computes T on first use into its __dict__: inject a NaN T there
    monkeypatch.setitem(analyse(rho).__dict__, "correlation_matrix", np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="exceeds the quantum bound"):
        chsh(rho, STANDARD_PLAN.bloch_settings())


def test_correlation_matrix_of_an_invalid_matrix_raises():
    bad = werner(0.8)
    bad[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        correlation_matrix(bad)
    with pytest.raises(ValueError, match="4x4"):
        correlation_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        correlation_matrix(np.diag([0.6, 0.6, -0.1, -0.1]))


# ---------------------------------------------------------------------------
# counts path
# ---------------------------------------------------------------------------


def test_chsh_from_counts_ideal_singlet():
    table = ideal_counts(projector(singlet()), STANDARD_PLAN, flux=1e6)
    s, sigma = chsh_from_counts(table, STANDARD_PLAN)
    assert abs(s) == pytest.approx(2 * SQ2, abs=1e-12)
    assert sigma > 0


def test_chsh_from_counts_flat_table_is_zero():
    table = CountsTable(duration=1.0)
    for t1, t2 in STANDARD_PLAN.settings:
        table.set(t1, t2, 1000)
    s, _ = chsh_from_counts(table, STANDARD_PLAN)
    assert s == 0.0


def test_counts_equal_trace_evaluation(rng):
    # noiseless counts reproduce the density-matrix evaluation exactly
    for _ in range(25):
        rho = random_density_matrix(rng)
        plan = AnglePlan(*rng.uniform(0, math.pi, 4))
        table = ideal_counts(rho, plan, flux=1.0)
        s_counts, _ = chsh_from_counts(table, plan)
        s_trace = chsh(rho, plan.bloch_settings())
        assert s_counts == pytest.approx(s_trace, abs=1e-12)


def test_scaled_count_invariance():
    table = ideal_counts(werner(0.8), STANDARD_PLAN, flux=1e5)
    s1, sig1 = chsh_from_counts(table, STANDARD_PLAN)
    scaled = CountsTable({k: 4.0 * n for k, n in table.entries.items()}, table.duration)
    s2, sig2 = chsh_from_counts(scaled, STANDARD_PLAN)
    assert s2 == pytest.approx(s1, abs=1e-12)
    assert sig2 == pytest.approx(sig1 / 2.0, rel=1e-9)


def test_chsh_from_counts_missing_entry():
    table = ideal_counts(werner(0.8), STANDARD_PLAN, flux=1e5)
    del table.entries[("0", "22.5")]
    with pytest.raises(ValueError, match="missing"):
        chsh_from_counts(table, STANDARD_PLAN)


def test_chsh_from_counts_zero_denominator():
    table = CountsTable(duration=1.0)
    for t1, t2 in STANDARD_PLAN.settings:
        table.set(t1, t2, 0)
    with pytest.raises(ValueError, match="zero total"):
        chsh_from_counts(table, STANDARD_PLAN)


_RANDOM_PLANS = [AnglePlan(*a) for a in np.random.default_rng(20240021).uniform(-math.pi, math.pi, (4, 4))]


@pytest.mark.parametrize("plan", [STANDARD_PLAN, AnglePlan(0.0, 0.0, 0.0, 0.0), *_RANDOM_PLANS])
def test_chsh_from_counts_is_the_four_correlations(plan, rng):
    for k in range(20):
        table = CountsTable(duration=2.0)
        for t1, t2 in plan.settings:
            table.set(t1, t2, int(rng.integers(0, 5000)) if k % 2 else rng.uniform(0, 1e6))
        s, sigma = chsh_from_counts(table, plan)
        (p11, v11), (p12, v12), (p21, v21), (p22, v22) = (
            correlation_from_counts(table, t1, t2) for t1, t2 in plan.base_pairs()
        )
        assert s == p11 - p12 + p21 + p22
        assert sigma == math.sqrt(v11 + v12 + v21 + v22)


def test_chsh_from_counts_error_messages():
    table = ideal_counts(werner(0.8), STANDARD_PLAN, flux=1e5)
    n = table.entries.pop(("90", "112.5"))
    missing = re.escape("counts table is missing the joint setting ('90', '112.5')")
    with pytest.raises(ValueError, match=f"^{missing}$"):
        chsh_from_counts(table, STANDARD_PLAN)
    with pytest.raises(ValueError, match=f"^{missing}$"):
        correlation_from_counts(table, 0.0, math.pi / 8)
    table.entries[("90", "112.5")] = n
    for key in [("0", "67.5"), ("90", "157.5"), ("0", "157.5"), ("90", "67.5")]:
        table.entries[key] = 0
    with pytest.raises(ValueError, match=re.escape("zero total counts for base pair (0, 67.5)")):
        chsh_from_counts(table, STANDARD_PLAN)


def test_angle_labels_canonical():
    assert angle_label(math.radians(22.5)) == "22.5"
    assert angle_label(math.radians(22.5 + 180)) == "22.5"
    assert angle_label(0.0) == "0"


def test_all_settings_dedupes_and_covers():
    settings = STANDARD_PLAN.settings
    assert len(settings) == 16
    labels = {(angle_label(a), angle_label(b)) for a, b in settings}
    assert len(labels) == 16


def test_degenerate_plan_has_four_settings():
    settings = AnglePlan(0.0, 0.0, 0.0, 0.0).settings
    h = math.pi / 2
    assert settings == ((0.0, 0.0), (h, h), (0.0, h), (h, 0.0))


def test_plan_caches_are_read_only():
    plan = AnglePlan(0.1, 0.2, 0.3, 0.4)
    compiled = compile_plan(plan)
    assert not compiled.rows.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        compiled.rows[0, 0] = 1.0
    assert isinstance(plan.settings, tuple) and isinstance(compiled.labels, tuple)
    settings = plan.bloch_settings()
    assert plan.bloch_settings() is settings
    assert isinstance(settings, tuple) and all(isinstance(n, tuple) for n in settings)


def test_compiled_rows_give_joint_and_marginal_probabilities(rng):
    for _ in range(20):
        rho = random_density_matrix(rng)
        plan = AnglePlan(*rng.uniform(0, math.pi, 4))
        joint, arm1, arm2 = compile_plan(plan).probabilities(pauli_vector(rho))
        for k, (t1, t2) in enumerate(plan.settings):
            k1 = np.array([math.cos(t1), math.sin(t1)])
            k2 = np.array([math.cos(t2), math.sin(t2)])
            p1 = np.kron(np.outer(k1, k1), np.eye(2))
            p2 = np.kron(np.eye(2), np.outer(k2, k2))
            assert joint[k] == pytest.approx(np.trace(rho @ p1 @ p2).real, rel=1e-13, abs=1e-15)
            assert arm1[k] == pytest.approx(np.trace(rho @ p1).real, rel=1e-13)
            assert arm2[k] == pytest.approx(np.trace(rho @ p2).real, rel=1e-13)


def real_ravel_probabilities(settings, rho):
    """The former compiled route: real rows from the polarizer kets against rho.real raveled.

    Over the axes (a, b, c, d) of rho.reshape(2, 2, 2, 2), the joint row is
    k1 k2 k1 k2, the arm-1 row k1 delta k1 and the arm-2 row delta k2 delta k2.
    """
    rows = []
    for t1, t2 in settings:
        k1 = np.array([math.cos(t1), math.sin(t1)])
        k2 = np.array([math.cos(t2), math.sin(t2)])
        joint = np.einsum("a,b,c,d->abcd", k1, k2, k1, k2)
        arm1 = np.einsum("a,c,bd->abcd", k1, k1, np.eye(2))
        arm2 = np.einsum("ac,b,d->abcd", np.eye(2), k2, k2)
        rows.append([joint.ravel(), arm1.ravel(), arm2.ravel()])
    return np.einsum("skj,j->ks", np.array(rows), np.asarray(rho).real.ravel())


def test_compiled_rows_match_the_real_ravel_route(rng):
    for i in range(300):
        rho = random_density_matrix(rng)
        plan = STANDARD_PLAN if i % 3 == 0 else AnglePlan(*rng.uniform(0, math.pi, 4))
        got = compile_plan(plan).probabilities(pauli_vector(rho))
        assert np.abs(got - real_ravel_probabilities(plan.settings, rho)).max() <= 1e-15


def test_verstraete_wolf_bounds(rng):
    """2 sqrt(2) C <= S_max <= 2 sqrt(1 + C^2), equal to the upper bound for pure states.

    Verstraete and Wolf, PRL 89, 170401 (2002).  C comes from ``tangle``
    (the concurrence of Wootters' formula) and S_max from ``chsh_optimize``
    (the singular values of T), which share no code.
    """
    for _ in range(2000):
        rho = random_density_matrix(rng, perturbation=rng.uniform(0.0, 0.5))
        c = math.sqrt(tangle(rho))
        s_max, _ = chsh_optimize(rho)
        assert 2 * SQ2 * c <= s_max + 1e-12
        assert s_max <= 2 * math.sqrt(1 + c * c) + 1e-12
    for _ in range(200):
        rho = projector(random_pure_state(rng))
        c = math.sqrt(tangle(rho))
        assert abs(chsh_optimize(rho)[0] - 2 * math.sqrt(1 + c * c)) <= 1e-12


def test_counts_csv_round_trip(tmp_path):
    table = ideal_counts(werner(0.9), STANDARD_PLAN, flux=1e5)
    table = CountsTable({k: round(v) for k, v in table.entries.items()}, duration=42.0)
    path = tmp_path / "counts.csv"
    counts_to_csv(table, path)
    loaded = counts_from_csv(path)
    assert loaded.duration == 42.0
    assert loaded.entries == table.entries


def test_counts_csv_parse_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("# duration_s 1\ntheta1_deg,theta2_deg,counts\n0,22.5,12,99\n")
    with pytest.raises(InputFormatError, match="bad.csv:3"):
        counts_from_csv(bad)
    bad.write_text("# duration_s 1\nwrong,header\n")
    with pytest.raises(InputFormatError, match="bad.csv:2: expected header"):
        counts_from_csv(bad)
    bad.write_text("# duration_s 1\ntheta1_deg,theta2_deg,counts\n0,22.5,-5\n")
    with pytest.raises(InputFormatError, match="negative"):
        counts_from_csv(bad)


def test_joint_detection_probability_singlet():
    compiled = compile_plan([(0.3, 0.3), (0.0, math.pi / 2)])
    joint, _, _ = compiled.probabilities(pauli_vector(projector(singlet())))
    assert joint[0] == pytest.approx(0.0, abs=1e-12)
    assert joint[1] == pytest.approx(0.5)


def test_counts_csv_rejects_duplicate_setting(tmp_path):
    bad = tmp_path / "dup.csv"
    # 180 degrees is the same polarizer setting as 0
    bad.write_text("# duration_s 1\ntheta1_deg,theta2_deg,counts\n0,22.5,12\n180,22.5,40\n")
    with pytest.raises(InputFormatError, match="dup.csv:4: duplicate"):
        counts_from_csv(bad)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-2.5", "11.25 s", ""])
def test_counts_csv_rejects_bad_duration(tmp_path, value):
    bad = tmp_path / "dur.csv"
    bad.write_text(f"# run\n# duration_s {value}\ntheta1_deg,theta2_deg,counts\n0,22.5,12\n")
    with pytest.raises(InputFormatError, match="dur.csv:2: duration"):
        counts_from_csv(bad)


@pytest.mark.parametrize("comments", ["", "# duration 11.25\n", "# run\n# Duration_s 2\n"])
def test_counts_csv_requires_duration(tmp_path, comments):
    # a missing or misspelled key used to read as a 1 s run
    bad = tmp_path / "nodur.csv"
    bad.write_text(comments + "theta1_deg,theta2_deg,counts\n0,0,5\n")
    with pytest.raises(InputFormatError, match="nodur.csv: no '# duration_s <value>' line"):
        counts_from_csv(bad)


def test_counts_csv_rejects_repeated_comment_key(tmp_path):
    bad = tmp_path / "twice.csv"
    bad.write_text("# duration_s 2\n# run\n# duration_s 3\ntheta1_deg,theta2_deg,counts\n0,0,5\n")
    with pytest.raises(InputFormatError, match="twice.csv:3: duration_s is given twice"):
        counts_from_csv(bad)


def test_counts_table_set_rejects_nan():
    table = CountsTable()
    with pytest.raises(ValueError, match="finite"):
        table.set(0.0, 0.3, float("nan"))
    assert table.entries == {}


_DEGREES = st.integers(0, 1799).map(lambda k: k / 10)


@given(
    entries=st.dictionaries(
        st.tuples(_DEGREES, _DEGREES), st.integers(0, 10**12), min_size=1, max_size=20
    ),
    duration=st.integers(1, 10**7).map(lambda k: k / 100),
)
def test_counts_csv_write_read_identity(entries, duration):
    table = CountsTable(
        {(angle_label(math.radians(a)), angle_label(math.radians(b))): n for (a, b), n in entries.items()},
        duration,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        counts_to_csv(table, path)
        loaded = counts_from_csv(path)
    assert loaded.entries == table.entries
    assert loaded.duration == table.duration


@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=16),
    bad_row=st.integers(0, 15),
    value=st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "Infinity", "1e999"]),
)
def test_counts_csv_never_accepts_non_finite(counts, bad_row, value):
    rows = [f"0,{10 * k},{n}" for k, n in enumerate(counts)]
    k = bad_row % len(rows)
    rows[k] = f"0,{10 * k},{value}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        path.write_text("# duration_s 1\ntheta1_deg,theta2_deg,counts\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputFormatError, match=f"counts.csv:{k + 3}: non-finite"):
            counts_from_csv(path)


@pytest.mark.parametrize(
    "plan", [STANDARD_PLAN, AnglePlan(0.1, 0.9, 0.3, 1.2), AnglePlan(0.0, 0.0, 0.0, 0.0)]
)
def test_plan_labels_are_the_compiled_labels(plan):
    assert plan.labels == compile_plan(plan).labels


def test_bell_re_exports_the_counts_layer():
    from ering import bell, counts

    for name in ("angle_label", "AnglePlan", "STANDARD_PLAN", "CountsTable", "counts_to_csv",
                 "counts_from_csv", "correlation_from_counts", "chsh_from_counts"):
        assert getattr(bell, name) is getattr(counts, name)
