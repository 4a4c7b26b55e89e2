import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize

from ering import tomography
from ering.errors import InputFormatError
from ering.sampling import random_density_matrix
from ering.states import (
    bell_state,
    check_density_matrix,
    mems,
    projector,
    repair_density_matrix,
    singlet,
    werner,
)
from ering.tomography import (
    TomoData,
    TomoSetting,
    design_condition_number,
    design_matrix,
    exact_tomography_counts,
    expected_probabilities,
    fidelity,
    linear_reconstruct,
    ml_reconstruct,
    projector_ket,
    simulate_tomography,
    standard_settings,
    tomo_data_from_csv,
    tomo_data_to_csv,
)


def test_standard_settings_shape():
    settings = standard_settings()
    assert len(settings) == 16
    assert settings[0] == TomoSetting("H", "H")


def test_design_matrix_complete():
    m = design_matrix(standard_settings())
    assert np.linalg.matrix_rank(m) == 16
    assert design_condition_number(standard_settings()) == pytest.approx(9.749, rel=1e-3)


def test_projector_kets():
    assert np.allclose(projector_ket("H"), [1, 0])
    assert np.allclose(projector_ket("D"), np.array([1, 1]) / math.sqrt(2))
    assert np.allclose(projector_ket("L"), np.array([1, 1j]) / math.sqrt(2))
    # elliptical general form covers the alphabet
    assert np.allclose(projector_ket("E(1.5707963267948966,0)"), projector_ket("D"))
    assert np.allclose(
        projector_ket("E(1.5707963267948966,1.5707963267948966)"), projector_ket("L")
    )
    with pytest.raises(ValueError):
        projector_ket("Q")


def test_simulate_orthogonal_setting_gives_zero():
    rho = projector(np.array([1, 0, 0, 0], dtype=complex))
    settings = [TomoSetting("V", "H"), TomoSetting("V", "V")]
    data = simulate_tomography(rho, 10_000, seed=0, settings=settings)
    assert data.counts.sum() == 0


def test_simulate_maximally_mixed_quarter_probabilities():
    probs = expected_probabilities(np.eye(4, dtype=complex) / 4, standard_settings())
    assert np.allclose(probs, 0.25)


def test_simulate_deterministic_per_seed():
    d1 = simulate_tomography(werner(0.5), 1000, seed=7)
    d2 = simulate_tomography(werner(0.5), 1000, seed=7)
    d3 = simulate_tomography(werner(0.5), 1000, seed=8)
    assert np.array_equal(d1.counts, d2.counts)
    assert not np.array_equal(d1.counts, d3.counts)


def test_linear_reconstruct_exact_recovery():
    for rho in (werner(0.47), projector(bell_state("phi", math.pi))):
        data = exact_tomography_counts(rho, 1e4)
        assert np.abs(linear_reconstruct(data) - rho).max() < 1e-10


def test_linear_reconstruct_is_linear():
    # equal-flux tables: reconstruction commutes with convex combination
    d1 = exact_tomography_counts(werner(0.3), 1e4)
    d2 = exact_tomography_counts(mems(0.8), 1e4)
    lam = 0.3
    mixed = TomoData(d1.settings, lam * d1.counts + (1 - lam) * d2.counts, 1e4)
    got = linear_reconstruct(mixed)
    want = lam * linear_reconstruct(d1) + (1 - lam) * linear_reconstruct(d2)
    assert np.abs(got - want).max() < 1e-10


def test_linear_reconstruct_nonphysical_under_noise():
    # low-count singlet data must sometimes leave the physical cone,
    # which is what motivates the likelihood fit
    n_nonpsd = 0
    rho = projector(singlet())
    for seed in range(100):
        data = simulate_tomography(rho, 100, seed=seed)
        estimate = linear_reconstruct(data)
        assert np.allclose(estimate, estimate.conj().T)
        assert np.trace(estimate).real == pytest.approx(1.0)
        if np.linalg.eigvalsh(estimate).min() < -1e-10:
            n_nonpsd += 1
    assert n_nonpsd > 0


def test_ml_exact_counts_recovery():
    data = exact_tomography_counts(mems(0.77), 1e4)
    rec = ml_reconstruct(data, seed=0)
    assert fidelity(rec, mems(0.77)) >= 1 - 1e-8


def test_ml_noisy_recovery():
    data = simulate_tomography(werner(0.27), 10_000, seed=12)
    rec = ml_reconstruct(data, seed=0)
    assert fidelity(rec, werner(0.27)) >= 0.99


def test_ml_always_physical_on_adversarial_data():
    settings = standard_settings()
    for hot in (0, 5, 15):
        counts = np.zeros(16)
        counts[hot] = 50
        rec = ml_reconstruct(TomoData(settings, counts, 50.0), seed=1)
        check_density_matrix(rec)


def test_ml_deterministic():
    data = simulate_tomography(mems(0.45), 5000, seed=3)
    r1 = ml_reconstruct(data, seed=9)
    r2 = ml_reconstruct(data, seed=9)
    assert np.array_equal(r1, r2)


def test_ml_beats_projected_linear_start():
    # optimum likelihood must not be worse than the repaired linear start
    data = simulate_tomography(projector(singlet()), 200, seed=4)
    rec = ml_reconstruct(data, seed=0)
    start = repair_density_matrix(linear_reconstruct(data))
    flux = data.counts[:4].sum()  # HH, HV, VV, VH form a complete basis

    def loglike(rho):
        mu = np.clip(flux * expected_probabilities(rho, data.settings), 1e-12, None)
        return float(np.sum(data.counts * np.log(mu) - mu))

    assert loglike(rec) >= loglike(start) - 1e-6


def test_round_trip_median_infidelity_at_1e5():
    # 50 seeds per target state; median infidelity stays below 1e-3
    targets = [werner(0.27), werner(0.47), werner(0.82), mems(0.45), mems(0.77)]
    for rho in targets:
        infids = []
        for seed in range(50):
            data = simulate_tomography(rho, 100_000, seed=seed)
            rec = ml_reconstruct(data, seed=seed)
            infids.append(1 - fidelity(rec, rho))
        assert np.median(infids) < 1e-3


# ---------------------------------------------------------------------------
# Independent leg for ml_reconstruct: multi-start L-BFGS-B over the Cholesky
# parameters, the solver ml_reconstruct used before its Newton solve.
# ---------------------------------------------------------------------------

_LOWER_SLOTS = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def _factor_from_params(t):
    factor = np.zeros((4, 4), dtype=complex)
    factor[np.diag_indices(4)] = t[:4]
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        factor[r, c] = t[4 + 2 * i] + 1j * t[5 + 2 * i]
    return factor


def _params_from_factor(factor):
    t = np.zeros(16)
    t[:4] = np.diag(factor).real
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        t[4 + 2 * i] = factor[r, c].real
        t[5 + 2 * i] = factor[r, c].imag
    return t


def _neg_log_likelihood(t, counts, projs):
    factor = _factor_from_params(t)
    m = factor @ factor.conj().T
    mu = np.einsum("ij,kji->k", m, projs).real
    mu_safe = np.clip(mu, 1e-12, None)
    nll = float(np.sum(mu) - np.sum(np.where(counts > 0, counts * np.log(mu_safe), 0.0)))
    coeff = np.where(counts > 0, counts / mu_safe, 0.0) - 1.0
    w = np.einsum("k,kij->ij", coeff, projs) @ factor
    grad = np.zeros(16)
    grad[:4] = 2 * np.diag(w).real
    for i, (r, c) in enumerate(_LOWER_SLOTS):
        grad[4 + 2 * i] = 2 * w[r, c].real
        grad[5 + 2 * i] = 2 * w[r, c].imag
    return nll, -grad


def lbfgs_ml_oracle(data, n_starts=3, seed=0):
    """Best of n_starts L-BFGS-B runs from the repaired linear estimate and
    seeded perturbations of it; the failure flags are ignored, the best
    likelihood wins."""
    projs = np.array([s.pair_projector() for s in data.settings])
    counts = np.asarray(data.counts, dtype=float)
    flux = float(counts[:4].sum())
    rho_init = repair_density_matrix(linear_reconstruct(data))
    t0 = _params_from_factor(np.linalg.cholesky(flux * (rho_init + 1e-12 * np.eye(4)) / (1 + 4e-12)))
    rng = np.random.default_rng(seed)
    best = None
    for start in range(n_starts):
        x0 = t0 if start == 0 else t0 + rng.normal(0, 0.05 * np.linalg.norm(t0), 16)
        res = minimize(
            _neg_log_likelihood, x0, args=(counts, projs), jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    factor = _factor_from_params(best.x)
    rho = factor @ factor.conj().T
    return rho / np.trace(rho).real


def profile_nll(rho, data):
    """Poisson NLL of the counts under rho with the flux at its optimum
    N = sum n / sum p (log n! dropped)."""
    p = expected_probabilities(rho, data.settings)
    n = data.counts
    pos = n > 0
    return float(n.sum() - n[pos] @ np.log(n.sum() / p.sum() * p[pos]))


def kkt_residuals(rho, data):
    """(lambda_min(G), max |G rho|) for the likelihood gradient
    G = sum_k (1 - n_k/mu_k) P_k at the optimal flux: rho is the global ML
    state exactly when G >= 0 and G rho = 0."""
    p = expected_probabilities(rho, data.settings)
    mu = data.counts.sum() / p.sum() * p
    weights = 1 - np.divide(data.counts, mu, out=np.zeros_like(mu), where=data.counts > 0)
    g = sum(w * s.pair_projector() for w, s in zip(weights, data.settings))
    return float(np.linalg.eigvalsh(g)[0]), float(np.abs(g @ rho).max())


_HH = projector(np.array([1, 0, 0, 0], dtype=complex))
# Werner datasets at 40k flux whose rank-4 solve is not certified, with the
# parameter counts of the Newton solves that ml_reconstruct runs on them: the
# rank-4 solve (16), then the rank finish at r = 1 (7), 2 (12) and 3 (15)
RANK_FINISH = {(0.998, 1): [16, 7, 12], (0.999, 1): [16, 7, 12], (0.999, 14): [16, 7, 12, 15],
               (0.9999, 10): [16, 7, 12]}
ORACLE_CORPUS = (
    [(f"werner({p:.2f})", werner(p), 1) for p in np.linspace(0.05, 0.85, 5)]
    + [(f"mems({p:.2f})", mems(p), 2) for p in np.linspace(0.05, 0.85, 5)]
    + [(f"werner({p})", werner(p), 2) for p in (0.9, 0.99, 0.995, 0.999, 0.9999)]
    + [("HH", _HH, 4)]
    + [("singlet", projector(singlet()), seed) for seed in (1, 15, 21)]
    + [(f"werner({p})-seed{seed}-finish", werner(p), seed) for p, seed in RANK_FINISH]
)


@pytest.mark.parametrize(
    "rho,seed", [case[1:] for case in ORACLE_CORPUS], ids=[c[0] for c in ORACLE_CORPUS]
)
def test_ml_matches_lbfgs_oracle_and_kkt(rho, seed):
    data = simulate_tomography(rho, 40_000, seed=seed)
    rec = ml_reconstruct(data, seed=0)
    check_density_matrix(rec)
    assert profile_nll(rec, data) <= profile_nll(lbfgs_ml_oracle(data), data) + 1e-8
    lam_min, slack = kkt_residuals(rec, data)
    assert lam_min >= -1e-8
    assert slack <= 1e-8


def test_ml_equals_linear_on_exact_interior_counts():
    # a positive definite linear estimate of exact counts is already the optimum
    for rho in (werner(0.47), mems(0.3)):
        data = exact_tomography_counts(rho, 4e4)
        assert np.abs(ml_reconstruct(data) - linear_reconstruct(data)).max() < 1e-12


def einsum_quadratic_forms(projectors, basis):
    """Q[k, i, j] = Re Tr(basis[i] basis[j]^dag P_k) as one three-operand einsum."""
    return np.einsum("iab,jcb,kca->kij", basis, basis.conj(), projectors).real


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_quadratic_forms_match_einsum_oracle(rank, rng):
    projectors = np.array([s.pair_projector() for s in standard_settings()])
    for _ in range(3):
        unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        basis = unitary @ tomography._TRAPEZOID_BASES[rank]
        got = tomography._quadratic_forms(projectors, basis)
        assert np.abs(got - einsum_quadratic_forms(projectors, basis)).max() < 1e-13


def _count_newton_calls(monkeypatch):
    calls = []
    newton = tomography._newton

    def counted(x, *args):
        calls.append(len(x))
        return newton(x, *args)

    monkeypatch.setattr(tomography, "_newton", counted)
    return calls


@pytest.mark.parametrize("p,seed", [(0.27, 1), (0.47, 2), (0.6, 3)])
def test_ml_returns_positive_linear_estimate_on_square_data(p, seed, monkeypatch):
    # 16 settings and a positive definite linear estimate: every count is fit
    # exactly, so the certified estimate is returned without a Newton step
    data = simulate_tomography(werner(p), 40_000, seed=seed)
    linear = linear_reconstruct(data)
    assert np.linalg.eigvalsh(linear)[0] > 0
    calls = _count_newton_calls(monkeypatch)
    rec = ml_reconstruct(data)
    assert not calls
    assert np.abs(rec - linear).max() < 1e-12
    assert profile_nll(rec, data) <= profile_nll(lbfgs_ml_oracle(data), data) + 1e-8


@pytest.mark.parametrize("p,seed", list(RANK_FINISH))
def test_ml_rank_finish_runs_where_rank_4_is_not_certified(p, seed, monkeypatch):
    data = simulate_tomography(werner(p), 40_000, seed=seed)
    calls = _count_newton_calls(monkeypatch)
    rec = ml_reconstruct(data)
    assert calls == RANK_FINISH[p, seed]
    lam_min, slack = kkt_residuals(rec, data)
    assert lam_min >= -1e-8
    assert slack <= 1e-8


_BASIS_PAIRS = [("H", "V"), ("D", "A"), ("L", "R")]
_OVERCOMPLETE = [  # 36 settings, HH HV VH VV first
    TomoSetting(a, b) for b1 in _BASIS_PAIRS for b2 in _BASIS_PAIRS for a in b1 for b in b2
]


def test_ml_overcomplete_positive_estimate_runs_newton(monkeypatch):
    # least squares does not fit 36 counts exactly, so the solve still runs
    data = simulate_tomography(werner(0.47), 40_000, seed=1, settings=_OVERCOMPLETE)
    assert np.linalg.eigvalsh(linear_reconstruct(data))[0] > 0
    calls = _count_newton_calls(monkeypatch)
    rec = ml_reconstruct(data)
    assert calls
    assert profile_nll(rec, data) <= profile_nll(lbfgs_ml_oracle(data), data) + 1e-8
    lam_min, slack = kkt_residuals(rec, data)
    assert lam_min >= -1e-8
    assert slack <= 1e-8


_NO_HV_GROUP = [  # informationally complete, without the HH/HV/VH/VV group
    TomoSetting(a, b)
    for a in ("D", "L", "E(1,0.3)", "E(2,1.7)")
    for b in ("D", "L", "E(1,0.3)", "E(2,1.7)")
]


@pytest.mark.parametrize("seed, positive", [(1, True), (2, False), (3, False)])
def test_ml_ignores_flux_header(seed, positive):
    # the start is scaled by the counts, not by the header; a linear estimate
    # that is not positive sends the solve through Newton from that start
    data = simulate_tomography(werner(0.7), 40_000, seed=seed, settings=_NO_HV_GROUP)
    assert (np.linalg.eigvalsh(linear_reconstruct(data))[0] > 0) == positive
    want = ml_reconstruct(data)
    for factor in (0.1, 0.5, 10, 100):
        header = TomoData(data.settings, data.counts, factor * data.total_flux_estimate)
        assert np.abs(ml_reconstruct(header) - want).max() < 1e-12


@pytest.mark.parametrize("seed", [1, 15, 21])
def test_ml_converges_on_singlet_data(seed):
    # seeds on which the former three-start L-BFGS raised ConvergenceError
    data = simulate_tomography(projector(singlet()), 40_000, seed=seed)
    assert fidelity(ml_reconstruct(data), projector(singlet())) > 0.99


def test_ml_rejects_incomplete_settings():
    data = TomoData([TomoSetting("H", "H")], [5.0], 20.0)
    with pytest.raises(ValueError, match="not complete"):
        ml_reconstruct(data)
    with pytest.raises(ValueError, match="not complete"):
        linear_reconstruct(data)


def test_ml_rejects_all_zero_counts():
    with pytest.raises(ValueError, match="zero"):
        ml_reconstruct(TomoData(standard_settings(), np.zeros(16), 100.0))


def test_design_matrix_is_cached_read_only():
    m = design_matrix(standard_settings())
    assert m is design_matrix(standard_settings())
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_fidelity_basics(rng):
    rho = random_density_matrix(rng)
    sigma = random_density_matrix(rng)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-9)
    hh = projector(np.array([1, 0, 0, 0], dtype=complex))
    vv = projector(np.array([0, 0, 0, 1], dtype=complex))
    assert fidelity(hh, vv) == pytest.approx(0.0, abs=1e-12)


def test_fidelity_werner_to_singlet_closed_form():
    target = projector(singlet())
    for p in np.linspace(0, 1, 51):
        assert fidelity(werner(p), target) == pytest.approx((3 * p + 1) / 4, abs=1e-7)


def test_tomo_csv_round_trip(tmp_path):
    data = simulate_tomography(werner(0.47), 5000, seed=2)
    path = tmp_path / "tomo.csv"
    tomo_data_to_csv(data, path)
    loaded = tomo_data_from_csv(path)
    assert loaded.settings == data.settings
    assert np.allclose(loaded.counts, data.counts)
    assert loaded.total_flux_estimate == data.total_flux_estimate


def test_tomo_csv_elliptical_labels(tmp_path):
    settings = standard_settings()[:15] + [TomoSetting("E(0.7,0.3)", "H")]
    data = TomoData(settings, np.ones(16) * 10, 40.0)
    path = tmp_path / "tomo.csv"
    tomo_data_to_csv(data, path)
    loaded = tomo_data_from_csv(path)
    assert loaded.settings[-1] == TomoSetting("E(0.7,0.3)", "H")


def test_tomo_csv_parse_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("setting_index,proj1,proj2,counts\n0,H,H\n")
    with pytest.raises(InputFormatError, match="bad.csv:2"):
        tomo_data_from_csv(path)
    path.write_text("setting_index,proj1,proj2,counts\n0,H,Q,55\n")
    with pytest.raises(InputFormatError, match="bad.csv:2"):
        tomo_data_from_csv(path)
    path.write_text("setting_index,proj1,proj2,counts\n0,H,H,-3\n")
    with pytest.raises(InputFormatError, match="negative"):
        tomo_data_from_csv(path)
    path.write_text("nope\n")
    with pytest.raises(InputFormatError, match="header"):
        tomo_data_from_csv(path)


@pytest.mark.parametrize("index", ["x", "2", "0.0", "01", ""])
def test_tomo_csv_setting_index_is_row_position(tmp_path, index):
    path = tmp_path / "bad.csv"
    path.write_text(f"setting_index,proj1,proj2,counts\n0,H,H,5\n{index},H,V,7\n")
    with pytest.raises(InputFormatError, match=f"bad.csv:3: setting_index must be 1, got '{index}'"):
        tomo_data_from_csv(path)


def test_tomo_data_rejects_non_finite_counts():
    counts = np.full(16, 10.0)
    counts[3] = np.nan
    with pytest.raises(InputFormatError, match="finite"):
        TomoData(standard_settings(), counts, 40.0)


_LABELS = st.sampled_from(["H", "V", "D", "A", "L", "R"])


@given(
    rows=st.lists(
        st.tuples(_LABELS, _LABELS, st.floats(0, 1e9, allow_nan=False)), min_size=1, max_size=20
    ),
    flux=st.integers(0, 10**9),
)
def test_tomo_csv_write_read_identity(rows, flux):
    # repeated settings are legitimate in tomography data and must survive
    data = TomoData([TomoSetting(a, b) for a, b, _ in rows], [n for *_, n in rows], float(flux))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tomo.csv"
        tomo_data_to_csv(data, path)
        loaded = tomo_data_from_csv(path)
    assert loaded.settings == data.settings
    assert np.array_equal(loaded.counts, data.counts)
    assert loaded.total_flux_estimate == data.total_flux_estimate


@given(
    counts=st.lists(st.integers(0, 10**6), min_size=1, max_size=16),
    bad_row=st.integers(0, 15),
    value=st.sampled_from(["nan", "NaN", "inf", "+inf", "-inf", "Infinity", "1e999"]),
)
def test_tomo_csv_never_accepts_non_finite(counts, bad_row, value):
    rows = [f"{k},H,V,{n}" for k, n in enumerate(counts)]
    k = bad_row % len(rows)
    rows[k] = f"{k},H,H,{value}"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "tomo.csv"
        path.write_text("setting_index,proj1,proj2,counts\n" + "\n".join(rows) + "\n")
        with pytest.raises(InputFormatError, match=f"tomo.csv:{k + 2}: non-finite"):
            tomo_data_from_csv(path)
