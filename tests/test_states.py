import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ering import bell, entanglement, patchwork, states
from ering.bell import chsh, chsh_max_from_correlation_matrix, chsh_optimize, correlation_matrix
from ering.entanglement import is_separable_ppt, linear_entropy, tangle
from ering.errors import InputFormatError
from ering.sampling import random_density_matrix
from ering.states import (
    analyse,
    bell_state,
    check_density_matrix,
    density_matrix_from_dict,
    density_matrix_to_dict,
    mems,
    mems_weight,
    nonmax_state,
    partial_transpose,
    projector,
    singlet,
    tune_entanglement,
    fidelity,
    werner,
)
from test_bell import kron_correlation_matrix
from test_entanglement import eigvals_concurrence

SQ2 = math.sqrt(2)


def mix(components: list[tuple[float, np.ndarray]]) -> np.ndarray:
    """Convex mixture of density matrices.

    ``components`` is a list of (weight, rho) with nonnegative weights
    summing to 1 within 1e-9.  The result passes all density-matrix
    invariants.
    """
    if not components:
        raise ValueError("mix() requires at least one component")
    weights = [w for w, _ in components]
    if not all(0 <= w < math.inf for w in weights):  # NaN fails too
        raise ValueError(f"mixture weights must be finite and nonnegative, got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total}, expected 1 within 1e-9")
    out = np.zeros((4, 4), dtype=complex)
    for w, rho in components:
        out += w * check_density_matrix(rho)
    return out


def tuning_entanglement_bound(fid: float) -> float:
    """Oracle: the largest a below which ``tune_entanglement(F, a)`` is entangled.

    a_max = (1 + sqrt(3(4F^2 - 1)) / (4F - 1)) / 2, clamped to 1; states with
    F <= 1/2 are never entangled, signalled by 1/2.
    """
    if fid <= 0.5:
        return 0.5
    return min(0.5 * (1 + math.sqrt(3 * (4 * fid**2 - 1)) / (4 * fid - 1)), 1.0)


def test_bell_state_phi_zero():
    assert np.allclose(bell_state("phi", 0.0), np.array([1, 0, 0, 1]) / SQ2)


def test_bell_state_singlet():
    assert np.allclose(bell_state("psi", math.pi), np.array([0, 1, -1, 0]) / SQ2, atol=1e-15)
    assert np.allclose(singlet(), bell_state("psi", math.pi))


def test_bell_state_quarter_phase():
    assert np.allclose(bell_state("phi", math.pi / 2), np.array([1, 0, 0, 1j]) / SQ2, atol=1e-15)


def test_bell_state_recovers_four_bell_states():
    assert np.allclose(bell_state("phi", 0), np.array([1, 0, 0, 1]) / SQ2)
    assert np.allclose(bell_state("phi", math.pi), np.array([1, 0, 0, -1]) / SQ2, atol=1e-15)
    assert np.allclose(bell_state("psi", 0), np.array([0, 1, 1, 0]) / SQ2)


def test_bell_state_bad_kind():
    with pytest.raises(ValueError):
        bell_state("chi", 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["phi", "psi"])
def test_bell_state_rejects_a_non_finite_phase(kind, value):
    with pytest.raises(ValueError, match=f"phase must be finite, got {value}"):
        projector(bell_state(kind, value))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_pure_state_rejects_non_finite_amplitudes(value):
    psi = np.array([value, 0.0, 0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match=re.escape(f"finite, got {psi.tolist()}")):
        projector(psi)


def test_nonmax_endpoints():
    assert tangle(projector(nonmax_state(0.0))) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(nonmax_state(math.pi / 4), np.array([0, 0, 0, 1]), atol=1e-12)


def test_nonmax_half_ratio():
    # gamma = cos^2(pi/4) = 1/2, so amplitudes (1/2, 0, 0, 1) normalized
    expected = np.array([0.5, 0, 0, 1.0])
    expected /= np.linalg.norm(expected)
    assert np.allclose(nonmax_state(math.pi / 8), expected)


def test_nonmax_norm_and_monotone_ratio():
    thetas = np.linspace(0, math.pi / 4, 101)
    ratios = []
    for t in thetas:
        psi = nonmax_state(t)
        assert abs(np.vdot(psi, psi).real - 1) < 1e-12
        ratios.append(abs(psi[0] / psi[3]))
    assert all(a >= b - 1e-15 for a, b in zip(ratios, ratios[1:]))


def test_nonmax_out_of_range():
    with pytest.raises(ValueError):
        nonmax_state(-0.1)
    with pytest.raises(ValueError):
        nonmax_state(math.pi / 2)


def test_werner_limits():
    assert np.allclose(werner(0.0), np.eye(4) / 4)
    assert np.allclose(werner(1.0), projector(singlet()), atol=1e-15)


def test_werner_entries():
    rho = werner(0.82)
    assert np.allclose(np.diag(rho).real, [0.045, 0.455, 0.455, 0.045])
    assert rho[1, 2] == pytest.approx(-0.41)
    assert rho[2, 1] == pytest.approx(-0.41)


def test_werner_out_of_range():
    for bad in (-0.01, 1.01):
        with pytest.raises(ValueError):
            werner(bad)


SINGLET_WEIGHT_CALLERS = {
    "states.check_singlet_weight": states.check_singlet_weight,
    "states.werner": states.werner,
    "states.mems_weight": states.mems_weight,
    "patchwork.werner_partition": patchwork.werner_partition,
    "bell.chsh_optimal_family": bell.chsh_optimal_family,
    "entanglement.classify": lambda p: entanglement.classify(entanglement.WERNER, p),
}


@pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
@pytest.mark.parametrize("caller", SINGLET_WEIGHT_CALLERS)
def test_every_singlet_weight_is_refused_by_the_one_check(caller, p):
    with pytest.raises(ValueError, match=f"^singlet weight p must be in \\[0, 1\\], got {p}$"):
        SINGLET_WEIGHT_CALLERS[caller](p)


def test_werner_matches_explicit_mixture():
    # the closed-form matrix equals the literal mixture, element-wise
    for p in np.linspace(0, 1, 101):
        mixture = mix([(p, projector(singlet())), (1 - p, np.eye(4, dtype=complex) / 4)])
        assert np.allclose(werner(p), mixture, atol=1e-12)


def test_werner_from_fidelity_limits():
    # the Werner state of singlet fidelity F is werner((4F - 1)/3)
    assert np.allclose(werner((4 * 1.0 - 1) / 3), projector(singlet()), atol=1e-15)
    assert np.allclose(werner((4 * 0.25 - 1) / 3), np.eye(4) / 4)
    assert np.allclose(werner((4 * 0.625 - 1) / 3), werner(0.5))


def test_werner_fidelity_round_trip():
    for p in np.linspace(0, 1, 101):
        fid = (3 * p + 1) / 4
        assert np.trace(werner(p) @ projector(singlet())).real == pytest.approx(fid, abs=1e-12)
        assert np.allclose(werner((4 * fid - 1) / 3), werner(p), atol=1e-12)


def test_werner_from_fidelity_range():
    # a fidelity outside [1/4, 1] is a singlet weight outside [0, 1]
    for bad in (0.2, 1.1):
        with pytest.raises(ValueError):
            werner((4 * bad - 1) / 3)


def test_mems_weight_branches():
    assert mems_weight(1.0) == 0.5
    assert mems_weight(0.5) == pytest.approx(1 / 3)
    assert mems_weight(2 / 3) == pytest.approx(1 / 3)


def test_mems_singlet_limit():
    assert np.allclose(mems(1.0), projector(singlet()), atol=1e-15)


def test_mems_low_branch():
    rho = mems(0.5)
    assert np.allclose(np.diag(rho).real, [1 / 3, 1 / 3, 1 / 3, 0])
    assert rho[1, 2] == pytest.approx(-0.25)


def test_mems_high_branch():
    rho = mems(0.77)
    assert np.allclose(np.diag(rho).real, [0.23, 0.385, 0.385, 0])
    assert rho[1, 2] == pytest.approx(-0.385)


def test_mems_physical_on_grid():
    for p in np.linspace(0, 1, 101):
        check_density_matrix(mems(p))
        check_density_matrix(werner(p))


def test_mix_identity_case(rng):
    from ering.sampling import random_density_matrix

    rho = random_density_matrix(rng)
    assert np.allclose(mix([(1.0, rho)]), rho)


def test_mix_bell_pair_mixture():
    phi_m = projector(bell_state("phi", math.pi))
    psi_m = projector(singlet())
    out = mix([(0.5, phi_m), (0.5, psi_m)])
    expected = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    expected[0, 3] = expected[3, 0] = -0.25
    expected[1, 2] = expected[2, 1] = -0.25
    assert np.allclose(out, expected, atol=1e-15)


def test_mix_product_completeness():
    comps = []
    for i in range(4):
        v = np.zeros(4, dtype=complex)
        v[i] = 1
        comps.append((0.25, projector(v)))
    assert np.allclose(mix(comps), np.eye(4) / 4)


def test_mix_errors():
    rho = np.eye(4, dtype=complex) / 4
    with pytest.raises(ValueError):
        mix([])
    with pytest.raises(ValueError):
        mix([(0.7, rho), (0.2, rho)])
    with pytest.raises(ValueError):
        mix([(-0.5, rho), (1.5, rho)])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_mix_rejects_a_non_finite_weight(value):
    with pytest.raises(ValueError, match=f"{value}"):
        mix([(value, werner(0.5))])
    with pytest.raises(ValueError, match=f"{value}"):
        mix([(value, werner(0.5)), (1.0, werner(0.2))])


def test_tune_entanglement_balanced_is_maximal():
    rho = tune_entanglement(1.0, 0.5)
    assert tangle(rho) == pytest.approx(1.0, abs=1e-12)


def test_tune_entanglement_product_eigenvector_is_separable():
    for fid in (0.6, 0.85, 1.0):
        rho = tune_entanglement(fid, 1.0)
        separable, _ = is_separable_ppt(rho)
        assert separable
        assert tangle(rho) == pytest.approx(0.0, abs=1e-12)


def test_tune_entanglement_inside_bound_is_entangled():
    rho = tune_entanglement(0.85, 0.6)
    assert 0.6 < tuning_entanglement_bound(0.85)
    assert tangle(rho) > 0
    separable, _ = is_separable_ppt(rho)
    assert not separable


def test_tune_entanglement_spectrum_matches_werner():
    for fid in np.linspace(0.25, 1.0, 21):
        tuned = np.linalg.eigvalsh(tune_entanglement(fid, 0.5))
        reference = np.linalg.eigvalsh(werner((4 * fid - 1) / 3))
        assert np.allclose(np.sort(tuned), np.sort(reference), atol=1e-12)


def test_tuning_bound_values():
    assert tuning_entanglement_bound(1.0) == pytest.approx(1.0)
    assert tuning_entanglement_bound(0.5) == 0.5
    # direct formula evaluation at F = 0.75
    expected = 0.5 * (1 + math.sqrt(3 * (4 * 0.75**2 - 1)) / (4 * 0.75 - 1))
    assert expected == pytest.approx(0.9841229182759271)
    assert tuning_entanglement_bound(0.75) == pytest.approx(expected)
    # the oracle is the edge of the entangled region: no tangle at a_max, some just below it
    for fid in (0.6, 0.75, 0.9):
        a_max = tuning_entanglement_bound(fid)
        assert tangle(tune_entanglement(fid, a_max)) == pytest.approx(0.0, abs=1e-12)
        assert tangle(tune_entanglement(fid, a_max - 0.01)) > 1e-6


def test_tuning_bound_separates_entangled_region():
    # scan the concurrence across the bound; PPT is the second oracle
    for fid in (0.7, 0.85, 0.95):
        a_max = tuning_entanglement_bound(fid)
        for a in np.linspace(0.5, 1.0, 41):
            rho = tune_entanglement(fid, a)
            entangled = tangle(rho) > 1e-12
            separable, _ = is_separable_ppt(rho)
            assert entangled == (not separable)
            if a < a_max - 1e-9:
                assert entangled
            if a > a_max + 1e-9:
                assert not entangled


def test_check_density_matrix_rejects_bad_input():
    good = werner(0.5)
    with pytest.raises(ValueError):
        check_density_matrix(good[:3, :3])
    bad_herm = good.copy()
    bad_herm[0, 1] = 0.1
    with pytest.raises(ValueError):
        check_density_matrix(bad_herm)
    with pytest.raises(ValueError):
        check_density_matrix(good * 1.1)
    bad_psd = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    with pytest.raises(ValueError):
        check_density_matrix(bad_psd)


def test_check_density_matrix_hermitian_tolerance():
    good = werner(0.5)
    for eps, accepted in ((5e-13, True), (2e-12, False)):
        for entry in ((0, 1), (2, 3)):
            rho = good.copy()
            rho[entry] += eps * 1j  # |rho - rho^dag| reaches eps at (i, j) and (j, i)
            if accepted:
                check_density_matrix(rho)
            else:
                with pytest.raises(ValueError, match="Hermitian"):
                    check_density_matrix(rho)
    for value in (np.nan, np.inf, -np.inf, complex(0, np.inf)):
        for entry in ((0, 0), (0, 1), (3, 2)):
            rho = good.copy()
            rho[entry] = value
            with pytest.raises(ValueError):
                check_density_matrix(rho)


def _verdict(check, rho):
    """None if ``check`` accepts ``rho``, else the message of its ValueError."""
    try:
        check(rho)
    except ValueError as exc:
        return str(exc)
    return None


def test_check_density_matrix_rechecks_a_matrix_changed_after_passing():
    rho = werner(0.5)
    assert check_density_matrix(rho) is rho
    eigs = analyse(rho).eigenvalues
    rho[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrix(rho)
    rho[:] = werner(0.7)
    changed_eigs = analyse(rho).eigenvalues
    assert not np.array_equal(changed_eigs, eigs)
    assert np.array_equal(changed_eigs, np.linalg.eigh(werner(0.7))[0])


def test_analysis_holds_the_read_only_eigh_of_a_valid_matrix():
    rho = mems(0.6)
    record = analyse(rho)
    eigs, vecs = record.eigenvalues, record.eigenvectors
    expected_eigs, expected_vecs = np.linalg.eigh(rho)
    assert np.array_equal(eigs, expected_eigs) and np.array_equal(vecs, expected_vecs)
    arrays = [record.rho, eigs, vecs, record._root_factor, record.correlation_matrix]
    for array in arrays + list(record.correlation_svd):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    # the same content is a lookup: the same record, whatever the memory layout
    assert analyse(np.asfortranarray(rho)) is record
    with pytest.raises(ValueError, match="4x4"):
        analyse(np.eye(3) / 3)
    for _ in range(2):
        with pytest.raises(ValueError, match="negative eigenvalue"):
            analyse(np.diag([0.6, 0.6, -0.1, -0.1]))


def test_analysis_square_root_squares_back_to_the_state(rng):
    # the record holds sqrt(rho) as the factor F = V sqrt(lambda): F F^dagger = rho and
    # sqrt(rho) = F V^dagger
    for rho in [random_density_matrix(rng) for _ in range(50)] + [projector(singlet()), mems(0.2)]:
        record = analyse(rho)
        factor = record._root_factor
        assert np.allclose(factor @ factor.conj().T, rho, atol=1e-13)
        root = factor @ record.eigenvectors.conj().T
        assert np.allclose(root, root.conj().T, atol=1e-14)
        assert np.allclose(root @ root, rho, atol=1e-13)
        assert np.linalg.eigvalsh(root).min() > -1e-7


def _verdict_corpus(seed):
    """Seeded valid and invalid 4x4 matrices, each kind near its threshold."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(200):
        rho = random_density_matrix(rng, perturbation=rng.uniform(0.05, 0.5))
        out.append(rho)
        zeros = werner(rng.uniform(0, 1))
        zeros[zeros == 0] = complex(-0.0, -0.0)
        zeros.imag[np.diag_indices(4)] = -0.0
        out.append(zeros)
        skew = rho.copy()
        i, j = rng.choice(4, size=2, replace=False)
        skew[i, j] += 10.0 ** rng.uniform(-13, -2) * np.exp(2j * np.pi * rng.uniform())
        out.append(skew)
        out.append(rho * (1 + rng.choice([-1, 1]) * 10.0 ** rng.uniform(-13, -2)))
        u, v = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0].T
        out.append(rho + rng.uniform(0, 0.5) * (np.outer(u, u.conj()) - np.outer(v, v.conj())))
        broken = rho.copy()
        broken[tuple(rng.integers(4, size=2))] = rng.choice([np.nan, np.inf, complex(0, -np.inf)])
        out.append(broken)
    return out + [m.T for m in out[:: 7]]


def numpy_entry_checks(data):
    """The content checks as whole-array numpy passes: the oracle of ``states._check_entries``.

    Returns the ``eigh`` pair of a valid matrix; raises ValueError with the message of the
    first check an invalid one fails.
    """
    rho = np.frombuffer(data, dtype=complex).reshape(4, 4)
    if not np.isfinite(rho).all():
        raise ValueError("density matrix has non-finite entries")
    if np.abs(rho - rho.conj().T).max() > states.HERMITIAN_ATOL:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    if abs(np.trace(rho) - 1.0) > states.TRACE_ATOL:
        raise ValueError(f"density matrix trace {np.trace(rho):.3e} is not 1 within 1e-12")
    eigs, vecs = np.linalg.eigh(rho)
    if eigs[0] < states.PSD_EIGENVALUE_FLOOR:
        raise ValueError(f"density matrix has negative eigenvalue {eigs[0]:.3e}")
    return eigs, vecs


def _outcome(check, data):
    """The message of ``check``'s ValueError, or the bytes of its eigenvalues and eigenvectors."""
    try:
        eigs, vecs = check(data)
    except ValueError as exc:
        return str(exc)
    return eigs.tobytes(), vecs.tobytes()


def test_entry_checks_match_the_numpy_oracle():
    corpus = [np.array(m, dtype=complex, order="C").tobytes() for m in _verdict_corpus(5)]
    expected = [_outcome(numpy_entry_checks, data) for data in corpus]
    for kind in ("non-finite", "Hermitian", "trace", "negative"):
        assert any(type(v) is str and kind in v for v in expected), kind
    assert any(type(v) is tuple for v in expected)

    def uncached(data):
        record = states._check_entries.__wrapped__(data)
        return record.eigenvalues, record.eigenvectors

    assert [_outcome(uncached, data) for data in corpus] == expected


def test_entry_checks_of_huge_and_signed_zero_entries():
    # A defect past the float range is not Hermitian, and a non-finite entry is named
    # before it; the trace message keeps np.trace's signed zeros.
    huge = np.zeros((4, 4), dtype=complex)
    huge[0, 1] = complex(1.5e308, 1.5e308)
    zeros = np.diag([complex(-0.0, -0.0)] * 4)
    for rho in (huge, huge + np.diag([np.nan, 0, 0, 0]), np.diag([0.5, 0.5, 1e300, -1e300]), zeros):
        rho = rho.astype(complex)
        data = rho.tobytes()
        assert _outcome(states._check_entries.__wrapped__, data) == _outcome(numpy_entry_checks, data)
    with pytest.raises(ValueError, match=re.escape("trace 0.000e+00+0.000e+00j")):
        states._check_entries.__wrapped__(zeros.tobytes())


def test_cached_verdicts_match_the_uncached_checks():
    oracle = states._check_entries.__wrapped__
    corpus = _verdict_corpus(5)
    assert len(corpus) >= 1000 and not corpus[-1].flags.c_contiguous
    states._check_entries.cache_clear()
    expected = [_verdict(oracle, np.array(m, dtype=complex, order="C").tobytes()) for m in corpus]
    assert None in expected
    # Each matrix twice in a row: first on a cache that has not seen it, then warm.
    got = [(_verdict(check_density_matrix, m), _verdict(check_density_matrix, m)) for m in corpus]
    assert got == [(v, v) for v in expected]
    assert states._check_entries.cache_info().hits >= expected.count(None)


def _is_valid(rho):
    try:
        check_density_matrix(rho)
    except ValueError:
        return False
    return True


def record_corpus():
    """Valid states: those of ``_verdict_corpus(5)``, Werner/MEMS grids, random pure states."""
    rng = np.random.default_rng(20240013)
    corpus = [m for m in _verdict_corpus(5) if _is_valid(m)]
    grid = np.linspace(0, 1, 101)
    corpus += [werner(p) for p in grid] + [mems(p) for p in grid]
    for _ in range(200):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        corpus.append(projector(psi / np.linalg.norm(psi)))
    return corpus


def rounding_floor(eigs):
    """Ascending eigenvalues, each at most 16 eps times the largest one set to 0."""
    return np.where(eigs > 16 * np.finfo(float).eps * abs(eigs[-1]), eigs, 0.0)


def sqrtm_psd(rho):
    """sqrt(rho) from its own eigh: the oracle of the root ``Analysis._root_factor`` holds."""
    eigs, vecs = np.linalg.eigh(rho)
    return (vecs * np.sqrt(rounding_floor(eigs))) @ vecs.conj().T


def explicit_partial_transpose(rho):
    """<ij|rho^T2|kl> = <il|rho|kj>, entry by entry."""
    out = np.empty((4, 4), dtype=complex)
    for i, j, k, l in itertools.product(range(2), repeat=4):
        out[2 * i + j, 2 * k + l] = rho[2 * i + l, 2 * k + j]
    return out


def test_partial_transpose_involution(rng):
    rho = random_density_matrix(rng)
    assert np.allclose(partial_transpose(partial_transpose(rho)), rho)
    assert np.array_equal(partial_transpose(rho), explicit_partial_transpose(rho))


def sqrt_concurrence(rho):
    """Wootters' singular values of sqrt(rho) (sy x sy) sqrt(rho)*: the oracle of ``Analysis.concurrence``."""
    sq = sqrtm_psd(rho)
    lams = np.linalg.svd(sq @ states.PAULI_PAIRS[10] @ sq.conj(), compute_uv=False)
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def test_analysis_agrees_with_the_formulas_it_replaced():
    # Within 1e-14 of sqrtm_psd, Tr(rho rho), the Kronecker trace loop and sqrt_concurrence.
    # The purity Sum lambda^2 reads the triangle eigh reads, Tr(rho rho) both: where they
    # differ by d (validation passes d up to 1e-12) the entropies may differ by
    # (4/3) 2 sqrt(6) d < 7 d more.  T's SVD is its own np.linalg.svd, bit for bit.
    corpus = record_corpus()
    assert len(corpus) > 900
    for rho in corpus:
        record = analyse(rho)
        rho = np.asarray(rho, dtype=complex)
        defect = np.abs(rho - rho.conj().T).max()
        root = record._root_factor @ record.eigenvectors.conj().T
        assert np.abs(root - sqrtm_psd(rho)).max() <= 1e-14
        purity = np.trace(rho @ rho).real
        trace_route = min(1.0, max(0.0, (4 / 3) * (1 - purity)))
        assert abs(record.linear_entropy - trace_route) <= 1e-14 + 7 * defect
        min_eig = float(np.linalg.eigvalsh(explicit_partial_transpose(rho)).min())
        assert record.min_partial_transpose_eigenvalue == min_eig
        assert np.abs(record.correlation_matrix - kron_correlation_matrix(rho)).max() <= 1e-14
        svd = np.linalg.svd(record.correlation_matrix)
        for got, expected in zip(record.correlation_svd, svd, strict=True):
            assert np.array_equal(got, expected)
        assert abs(record.concurrence - sqrt_concurrence(rho)) <= 1e-14
        assert record.concurrence == pytest.approx(eigvals_concurrence(rho), abs=1e-7)


def test_one_record_serves_every_measure_of_a_state(monkeypatch):
    """Every np.linalg call over the benchmark's ``characterize`` item, in its order.

    rho is decomposed once (eigh); the concurrence and T take one SVD each, the
    PPT test and the CHSH oracle one eigvalsh each; nothing calls einsum, and a
    fidelity with a pure argument makes no np.linalg call at all.
    """
    x = random_density_matrix(np.random.default_rng(20240017))
    target = projector(singlet())
    states._check_entries.cache_clear()
    check_density_matrix(target)
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return real(*args, **kwargs)

        return wrapper

    for name in np.linalg.__all__:
        real = getattr(np.linalg, name)
        if callable(real) and not isinstance(real, type):
            monkeypatch.setattr(np.linalg, name, counting(name, real))
    monkeypatch.setattr(np, "einsum", counting("einsum", np.einsum))
    check_density_matrix(x)
    tangle(x)
    linear_entropy(x)
    is_separable_ppt(x)
    before = len(calls)
    fidelity(x, target)
    fidelity(target, x)
    assert len(calls) == before
    _, settings = chsh_optimize(x)
    t = correlation_matrix(x)
    chsh_max_from_correlation_matrix(x)
    chsh(x, settings)
    assert [name for name, _ in calls] == ["eigh", "svd", "eigvalsh", "svd", "eigvalsh"]
    assert np.array_equal(calls[0][1], x)
    assert np.array_equal(calls[3][1], t)


def test_invalid_matrix_raises_on_every_call():
    bad = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
    for _ in range(3):
        with pytest.raises(ValueError, match="negative eigenvalue -1.000e-01"):
            check_density_matrix(bad)


def test_repaired_spectrum_clips_and_renormalizes():
    dirty = np.diag([0.7, 0.4, -0.1, 0.0]).astype(complex)
    eigs, vecs = states.repaired_spectrum(dirty)
    assert eigs.tolist() == pytest.approx([0, 0, 0.4 / 1.1, 0.7 / 1.1], abs=1e-15)
    repaired = (vecs * eigs) @ vecs.conj().T
    check_density_matrix(repaired)
    assert np.allclose(np.diag(repaired).real, [0.7 / 1.1, 0.4 / 1.1, 0, 0])


def test_random_density_matrix_is_the_repaired_perturbation_mixed_with_a_pure_state():
    # the characterize benchmark's corpus stream (default_rng([3, 1])): every draw is bit-identical
    # to the route written out step by step
    from ering.sampling import random_pure_state

    drawn, rebuilt = np.random.default_rng([3, 1]), np.random.default_rng([3, 1])
    for _ in range(200):
        h = rebuilt.normal(size=(4, 4)) + 1j * rebuilt.normal(size=(4, 4))
        h = (h + h.conj().T) / 2
        eigs, vecs = states.repaired_spectrum(np.eye(4, dtype=complex) / 4 + 0.2 * h)
        base = (vecs * eigs) @ vecs.conj().T
        psi = random_pure_state(rebuilt)
        w = rebuilt.uniform()
        expected = (1 - w) * base + w * np.outer(psi, psi.conj())
        assert np.array_equal(random_density_matrix(drawn), expected)


def test_serialization_round_trip(tmp_path):
    rho = mems(0.45)
    path = tmp_path / "state.json"
    states.save_density_matrix(rho, path)
    loaded = states.load_density_matrix(path)
    assert np.allclose(loaded, rho, atol=1e-15)
    payload = json.loads(path.read_text())
    assert payload["basis"] == ["HH", "HV", "VH", "VV"]


def test_deserialization_rejects_wrong_basis():
    obj = density_matrix_to_dict(werner(0.3))
    obj["basis"] = ["VV", "VH", "HV", "HH"]
    with pytest.raises(ValueError):
        density_matrix_from_dict(obj)


@pytest.mark.parametrize(
    "entry, message",
    [("0.25", "entries must be numbers"), (True, "entries must be numbers"),
     (None, "entries must be numbers"), (10**400, "4x4 arrays of finite numbers")],
    ids=["string", "bool", "null", "int-past-the-float-range"],
)
def test_density_matrix_entries_are_json_numbers(entry, message):
    """An entry is a number as a config value is: an int or a float, not a bool or a
    string, and an int past the float range is not finite."""
    obj = density_matrix_to_dict(werner(0.3))
    assert np.array_equal(density_matrix_from_dict(obj), werner(0.3))
    obj["re"][0][0] = entry
    with pytest.raises(InputFormatError, match=message):
        density_matrix_from_dict(obj)
    obj["re"][0][0] = 1  # an int that a float holds is a number
    assert density_matrix_from_dict(obj)[0, 0] == 1.0


@given(
    p=st.floats(min_value=0, max_value=1),
    q=st.floats(min_value=0, max_value=1),
    lam=st.floats(min_value=0, max_value=1),
)
def test_mixtures_of_family_states_stay_physical(p, q, lam):
    rho = mix([(lam, werner(p)), (1 - lam, mems(q))])
    check_density_matrix(rho)


_SINGLE_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def test_pauli_pairs_are_the_kron_products():
    want = [np.kron(a, b) for a in _SINGLE_PAULIS for b in _SINGLE_PAULIS]
    assert states.PAULI_PAIRS.tobytes() == np.array(want).tobytes()


def test_polarizer_bloch_vectors():
    theta = np.linspace(-math.pi, math.pi, 37)
    b = states.bloch_vector(2 * theta, 0.0)
    assert b.shape == (37, 4)
    want = np.stack([np.ones_like(theta), np.sin(2 * theta), 0 * theta, np.cos(2 * theta)], -1)
    assert np.array_equal(b, want)
    for t, row in zip(theta, b):
        ket = np.array([math.cos(t), math.sin(t)])
        assert np.abs(np.einsum("i,iab->ab", row, _SINGLE_PAULIS) / 2 - np.outer(ket, ket)).max() <= 3e-16


def test_measurement_rows_are_the_pauli_rows_of_the_projectors(rng):
    b = states.bloch_vector(rng.uniform(0, math.pi, (50, 2)), rng.uniform(-math.pi, math.pi, (50, 2)))
    p1, p2 = np.moveaxis(np.einsum("kwi,iab->kwab", b, _SINGLE_PAULIS) / 2, 1, 0)
    eye = np.broadcast_to(np.eye(2), p1.shape)
    ops = [[np.kron(x, y) for x, y in zip(*pair)] for pair in ((p1, p2), (p1, eye), (eye, p2))]
    want = states.pauli_vector(np.array(ops)) / 4
    got = states.measurement_rows(b[:, 0], b[:, 1])
    assert got.shape == (3, 50, 16)
    assert np.abs(got - want).max() <= 2.3e-16
