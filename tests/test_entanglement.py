import math

import numpy as np
import pytest

from ering.entanglement import (
    MEMS,
    Region,
    WERNER,
    classify,
    concurrence,
    is_separable_ppt,
    linear_entropy,
    tangle,
    tangle_curve,
)
from ering.sampling import random_density_matrix, random_pure_state
from ering.states import PAULI_PAIRS, mems, projector, singlet, werner

INV_SQ2 = 1 / math.sqrt(2)


def test_tangle_singlet():
    assert tangle(projector(singlet())) == pytest.approx(1.0, abs=1e-12)


def test_tangle_separability_boundary():
    assert tangle(werner(1 / 3)) == pytest.approx(0.0, abs=1e-12)
    assert tangle(werner(1 / 3 + 1e-6)) > 0


def test_tangle_werner_closed_form():
    # concurrence of werner(p) is (3p-1)/2 above the boundary
    assert tangle(werner(0.82)) == pytest.approx(0.5329, abs=1e-12)
    for p in (0.4, 0.6, 0.9):
        assert concurrence(werner(p)) == pytest.approx((3 * p - 1) / 2, abs=1e-12)


def eigvals_concurrence(rho):
    """Wootters' route through the eigenvalues of rho (sy x sy) rho* (sy x sy): the oracle."""
    sy_sy = PAULI_PAIRS[10]
    evals = np.linalg.eigvals(rho @ sy_sy @ rho.conj() @ sy_sy).real
    lams = np.sqrt(np.clip(np.sort(evals)[::-1], 0.0, None))
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def test_concurrence_of_pure_states_is_2_abs_ad_minus_bc(rng):
    for _ in range(2000):
        psi = random_pure_state(rng)
        a, b, c, d = psi
        assert abs(concurrence(projector(psi)) - 2 * abs(a * d - b * c)) < 1e-13


def test_concurrence_matches_the_eigenvalue_route_on_mixed_states(rng):
    # the eigvals route itself is off by up to ~3e-8 near pure states
    for _ in range(1000):
        rho = random_density_matrix(rng)
        assert concurrence(rho) == pytest.approx(eigvals_concurrence(rho), abs=1e-7)


def test_linear_entropy_limits():
    assert linear_entropy(projector(singlet())) == pytest.approx(0.0, abs=1e-12)
    assert linear_entropy(np.eye(4, dtype=complex) / 4) == pytest.approx(1.0)


def test_linear_entropy_in_range_on_pure_projectors(rng):
    # Tr rho^2 of a rank-1 state rounds to a few ulps either side of 1
    for _ in range(1000):
        s_l = linear_entropy(projector(random_pure_state(rng)))
        assert 0.0 <= s_l <= 1.0
        assert s_l == pytest.approx(0.0, abs=1e-14)


def test_linear_entropy_werner():
    for p in np.linspace(0, 1, 51):
        assert linear_entropy(werner(p)) == pytest.approx(1 - p * p, abs=1e-12)


def test_ppt_regions():
    separable, _ = is_separable_ppt(werner(0.2))
    assert separable
    separable, neg = is_separable_ppt(werner(0.5))
    assert not separable
    assert neg > 0


def test_ppt_product_state():
    v = np.array([0, 1, 0, 0], dtype=complex)
    separable, neg = is_separable_ppt(projector(v))
    assert separable
    assert neg == 0.0


def test_tangle_curve_werner_endpoints():
    assert tangle_curve(WERNER, 0.0) == pytest.approx(1.0)
    assert tangle_curve(WERNER, 8 / 9) == pytest.approx(0.0, abs=1e-12)
    assert tangle_curve(WERNER, 0.95) == 0.0


def test_tangle_curve_mems_threshold_point():
    s_l = linear_entropy(mems(INV_SQ2))
    assert round(s_l, 3) == 0.552
    assert tangle_curve(MEMS, s_l) == pytest.approx(0.5, abs=1e-12)
    assert tangle(mems(INV_SQ2)) == pytest.approx(0.5, abs=1e-12)


def test_tangle_curve_domain():
    with pytest.raises(ValueError):
        tangle_curve(WERNER, -0.1)
    with pytest.raises(ValueError):
        tangle_curve(MEMS, 1.2)
    with pytest.raises(ValueError):
        tangle_curve("bell", 0.5)
    assert tangle_curve(MEMS, 0.93) == 0.0


def test_werner_curve_consistency_wootters_oracle():
    for p in np.linspace(0, 1, 101):
        rho = werner(p)
        assert abs(tangle(rho) - tangle_curve(WERNER, linear_entropy(rho))) < 1e-10


def test_mems_curve_consistency_both_branches():
    for p in np.linspace(0, 1, 101):
        rho = mems(p)
        t = tangle(rho)
        assert abs(t - p * p) < 1e-10
        assert abs(t - tangle_curve(MEMS, linear_entropy(rho))) < 1e-10


def test_mems_curve_dominates_werner_curve():
    for s in np.linspace(0, 8 / 9, 400):
        assert tangle_curve(WERNER, s) <= tangle_curve(MEMS, s) + 1e-12


def test_tangle_from_fidelity_form():
    for fid in np.linspace(0.25, 1, 101):
        expected = max(0.0, 2 * fid - 1) ** 2
        assert tangle(werner((4 * fid - 1) / 3)) == pytest.approx(expected, abs=1e-10)


def test_tangle_iff_npt_on_random_mixtures(rng):
    for _ in range(1000):
        rho = random_density_matrix(rng)
        entangled = tangle(rho) > 1e-12
        separable, _ = is_separable_ppt(rho)
        assert entangled == (not separable)


def test_classify_werner():
    cls = classify(WERNER, 0.9)
    assert cls.region is Region.VIOLATES_LOCAL_REALISM
    assert cls.s_l_interval == (0.0, 0.5)
    assert classify(WERNER, 0.5).region is Region.NONSEPARABLE_NO_CHSH_VIOLATION
    assert classify(WERNER, 0.2).region is Region.SEPARABLE_LOCAL
    assert classify(WERNER, 0.2).s_l_interval == (8 / 9, 1.0)


def test_classify_boundary_is_strict():
    # exactly p = 1/sqrt(2) sits on the non-violating side
    assert classify(WERNER, INV_SQ2).region is Region.NONSEPARABLE_NO_CHSH_VIOLATION
    assert classify(MEMS, INV_SQ2).region is Region.NONSEPARABLE_NO_CHSH_VIOLATION
    assert classify(MEMS, INV_SQ2 + 1e-9).region is Region.VIOLATES_LOCAL_REALISM


def test_classify_mems_has_no_separable_region():
    for p in np.linspace(0, 1, 101)[1:]:
        assert classify(MEMS, p).region is not Region.SEPARABLE_LOCAL


def test_classify_mems_at_zero_is_separable():
    # mems(0) = diag(1/3, 1/3, 1/3, 0): separable by tangle and by PPT
    rho = mems(0.0)
    assert tangle(rho) == pytest.approx(0.0, abs=1e-12)
    assert is_separable_ppt(rho)[0]
    cls = classify(MEMS, 0.0)
    assert cls.region is Region.SEPARABLE_LOCAL
    assert cls.s_l_interval == (8 / 9, 8 / 9)
    assert linear_entropy(rho) == pytest.approx(8 / 9, abs=1e-12)


def test_classify_mems_interval():
    cls = classify(MEMS, 0.9)
    assert cls.s_l_interval[0] == 0.0
    assert round(cls.s_l_interval[1], 3) == 0.552


def test_classify_range_errors():
    with pytest.raises(ValueError):
        classify(WERNER, 1.2)
    with pytest.raises(ValueError):
        classify("other", 0.5)
