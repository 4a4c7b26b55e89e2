import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize

from ering import states, tomography
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
    projector_bloch,
    simulate_tomography,
    standard_settings,
    tomo_data_from_csv,
    tomo_data_to_csv,
)
import newton_oracle
from test_states import record_corpus, sqrtm_psd


def test_standard_settings_shape():
    settings = standard_settings()
    assert len(settings) == 16
    assert settings[0] == TomoSetting("H", "H")


def test_design_matrix_complete():
    m = design_matrix(standard_settings())
    assert np.linalg.matrix_rank(m) == 16
    assert design_condition_number(standard_settings()) == pytest.approx(9.749, rel=1e-3)


_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


def oracle_ket(label):
    """Single-qubit ket of a projector label: the ket route the Bloch vectors replaced."""
    if label in _KETS:
        return _KETS[label]
    theta, phi = map(float, label[2:-1].split(","))
    return np.array([math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex)


def ket_projector(setting):
    """The pair projector |k><k| of k = ket1 x ket2: the oracle of the cached projector stack."""
    ket = np.kron(oracle_ket(setting.proj1), oracle_ket(setting.proj2))
    return np.outer(ket, ket.conj())


def test_projector_bloch_vectors():
    assert np.array_equal(projector_bloch("H"), [1, 0, 0, 1])
    assert np.array_equal(projector_bloch("D"), [1, 1, 0, 0])
    assert np.array_equal(projector_bloch("L"), [1, 0, 1, 0])
    # elliptical general form covers the alphabet
    assert np.allclose(projector_bloch("E(1.5707963267948966,0)"), projector_bloch("D"))
    assert np.allclose(
        projector_bloch("E(1.5707963267948966,1.5707963267948966)"), projector_bloch("L")
    )
    with pytest.raises(ValueError, match="^unknown projector label 'Q'$"):
        projector_bloch("Q")


@pytest.mark.parametrize("label", ["E(1e400,0)", "E(0,1e400)", "E(-1e400,0)", "E(0,-1e400)"])
def test_projector_bloch_rejects_non_finite_angles(label):
    with pytest.raises(ValueError, match=f"^projector label {re.escape(repr(label))} has a non-finite angle$"):
        projector_bloch(label)


@pytest.mark.parametrize("labels", [("Q", "H"), ("H", "E(1e400,0)"), ("h", "V")])
def test_tomo_setting_rejects_a_bad_label_when_built(labels):
    with pytest.raises(ValueError, match="projector label"):
        TomoSetting(*labels)


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
    projs = np.array([ket_projector(s) for s in data.settings])
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
    g = sum(w * ket_projector(s) for w, s in zip(weights, data.settings))
    return float(np.linalg.eigvalsh(g)[0]), float(np.abs(g @ rho).max())


_HH = projector(np.array([1, 0, 0, 0], dtype=complex))
# Werner datasets at 40k flux whose rank-4 solve is not certified, with the
# parameter counts of the Newton solves that ml_reconstruct runs on them: the
# rank-4 solve (16), then the rank finish at r = 1 (7), 2 (12) and 3 (15)
RANK_FINISH = {(0.998, 1): [16, 7, 12], (0.999, 1): [16, 7, 12], (0.999, 38): [16, 7, 12, 15],
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
    projectors = np.array([ket_projector(s) for s in standard_settings()])
    for _ in range(3):
        unitary, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        basis = unitary @ tomography._TRAPEZOID_BASES[rank]
        got = tomography._quadratic_forms(projectors, unitary, rank)
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


def _solve_log(monkeypatch, module):
    """Wrap ``module._newton``: per solve, its parameter count, Newton steps and deviance calls.

    The solve is deterministic, so its steps are the smallest step cap at
    which it returns what it returns uncapped.  A solve whose every first
    trial step is accepted calls the deviance once more than it takes steps.
    """
    log = []
    newton, deviance = module._newton, module._deviance
    calls = []

    def counted_deviance(*args):
        calls.append(None)
        return deviance(*args)

    def counted(x, quad, counts, max_steps):
        calls.clear()
        x_out, converged = newton(x, quad, counts, max_steps)
        evaluations = len(calls)
        for steps in range(max_steps + 1):
            capped, capped_converged = newton(x, quad, counts, steps)
            if capped_converged == converged and np.array_equal(capped, x_out):
                break
        log.append((len(x), steps, evaluations))
        return x_out, converged

    monkeypatch.setattr(module, "_deviance", counted_deviance)
    monkeypatch.setattr(module, "_newton", counted)
    return log


_FAST_PATH_CORPUS = [(*case, None) for case in ORACLE_CORPUS] + [
    ("overcomplete-werner(0.47)", werner(0.47), 1, _OVERCOMPLETE)
]


@pytest.mark.parametrize(
    "rho,seed,settings",
    [case[1:] for case in _FAST_PATH_CORPUS],
    ids=[c[0] for c in _FAST_PATH_CORPUS],
)
def test_ml_matches_the_eigh_step_oracle(rho, seed, settings, monkeypatch):
    # the Cholesky-step solver against the one it replaced: both certify (each
    # raises otherwise), the states agree, and each solve takes no more steps
    # in the new solver, up to the first solve in which the oracle rejects a
    # trial step.  Once a step is damped, the path turns on the last bits of
    # the iterate (the oracle's own step count moves by several under a
    # one-ulp change of its start), and so does the start of every later
    # solve, so from there on the solves are compared by their result alone.
    data = simulate_tomography(rho, 40_000, seed=seed, settings=settings)
    new_log = _solve_log(monkeypatch, tomography)
    old_log = _solve_log(monkeypatch, newton_oracle)
    rec = ml_reconstruct(data)
    want = newton_oracle.ml_reconstruct(data)
    assert np.abs(rec - want).max() <= 1e-8
    lam_min, slack = kkt_residuals(rec, data)
    assert lam_min >= -1e-8
    assert slack <= 1e-8
    undamped = [evaluations == 1 + steps for _, steps, evaluations in old_log]
    if all(undamped):
        assert len(new_log) == len(old_log)
    for clean, (n_old, steps_old, _), (n_new, steps_new, _) in zip(undamped, old_log, new_log):
        if not clean:
            break
        assert n_new == n_old
        assert steps_new <= steps_old


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


_PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def trace_loop_design(labels):
    """Tr(P_k sigma_i x sigma_j) / 4 by np.trace over ket projectors: the design's oracle."""
    rows = []
    for a, b in labels:
        p = ket_projector(TomoSetting(a, b))
        rows.append([np.trace(p @ np.kron(si, sj)).real / 4 for si in _PAULIS for sj in _PAULIS])
    return np.array(rows)


_LETTER_PAIRS = [(a, b) for a in "HVDALR" for b in "HVDALR"]


def random_elliptical_labels(rng, k=16):
    theta = rng.uniform(0, math.pi, (k, 2)).tolist()
    phi = rng.uniform(-math.pi, math.pi, (k, 2)).tolist()
    return [tuple(f"E({t!r},{f!r})" for t, f in zip(*pair)) for pair in zip(theta, phi)]


def mpmath_design(labels):
    """The joint rows b1 x b2 / 4 of E(Theta,Phi) labels at 40 digits, rounded once."""
    import mpmath

    def bloch(label):
        theta, phi = (mpmath.mpf(float(v)) for v in label[2:-1].split(","))  # the doubles, exactly
        st = mpmath.sin(theta)
        return [1, st * mpmath.cos(phi), st * mpmath.sin(phi), mpmath.cos(theta)]

    with mpmath.workdps(40):
        return np.array(
            [[float(x * y / 4) for x in bloch(a) for y in bloch(b)] for a, b in labels]
        )


def test_design_matrix_is_the_trace_loop(rng):
    # the letter rows are exact, and the oracle's 1/sqrt(2) kets round in the
    # last bits; on E labels the oracle's own rounding reaches 1.7e-16, so the
    # rows are held to 1e-16 of the 40-digit value and to 2.3e-16 of the oracle
    design = design_matrix([TomoSetting(a, b) for a, b in _LETTER_PAIRS])
    assert np.abs(design - trace_loop_design(_LETTER_PAIRS)).max() <= 2.3e-16
    for _ in range(50):
        labels = random_elliptical_labels(rng)
        design = design_matrix([TomoSetting(a, b) for a, b in labels])
        assert np.abs(design - trace_loop_design(labels)).max() <= 2.3e-16
        assert np.abs(design - mpmath_design(labels)).max() <= 1e-16


def test_letter_design_rows_are_exact():
    design = design_matrix([TomoSetting(a, b) for a, b in _LETTER_PAIRS])
    assert set(design.ravel().tolist()) <= {0.0, 0.25, -0.25}
    for row, (a, b) in zip(design, _LETTER_PAIRS):
        assert np.array_equal(row, np.kron(projector_bloch(a), projector_bloch(b)) / 4)


def test_projectors_from_the_design_match_ket_projectors(rng):
    for labels in [_LETTER_PAIRS] + [random_elliptical_labels(rng) for _ in range(20)]:
        settings = [TomoSetting(a, b) for a, b in labels]
        projectors = tomography._settings_table(settings).projectors
        oracle = np.array([ket_projector(s) for s in settings])
        assert np.abs(projectors - oracle).max() <= 1e-15


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


def eigh_fidelity(rho1, rho2):
    """Fidelity with sqrt(rho1) from its own eigh: the oracle of the cached-spectrum route."""
    rho1 = check_density_matrix(rho1)
    rho2 = check_density_matrix(rho2)
    sq = sqrtm_psd(rho1)
    inner = sq @ rho2 @ sq
    eigs = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    value = float(np.sum(np.sqrt(eigs)) ** 2)
    return min(1.0, max(0.0, value))


def test_fidelity_is_bitwise_the_eigh_oracle():
    corpus = record_corpus()
    assert len(corpus) > 900
    target = projector(singlet())
    for i, rho in enumerate(corpus):
        other = corpus[(7 * i + 3) % len(corpus)]
        for a, b in ((rho, target), (target, rho), (rho, other)):
            assert fidelity(a, b) == eigh_fidelity(a, b)


def test_fidelity_reuses_the_validation_eigendecomposition(monkeypatch):
    x = random_density_matrix(np.random.default_rng(20240014))
    target = projector(singlet())
    states._check_entries.cache_clear()
    decomposed = []

    def counting(real):
        def wrapper(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return real(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))
    check_density_matrix(x)
    first = fidelity(x, target)
    assert fidelity(x, target) == first
    assert sum(np.array_equal(m, x) for m in decomposed) == 1


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


def test_poisson_limit_names_counts_per_setting():
    with pytest.raises(ValueError, match=r"above the Poisson limit .*; lower counts_per_setting$"):
        simulate_tomography(werner(0.5), 10**20, 1)


def test_fidelity_lives_with_the_analysis_record():
    assert tomography.fidelity is states.fidelity
