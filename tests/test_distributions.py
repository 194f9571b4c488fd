"""Unit tests for the samplers, the analytic skew-normal CGF, and injection."""

import math

import numpy as np
import pytest

from cgf_outliers import (
    DataMatrix,
    LabeledDataset,
    SimulationSpec,
    SkewNormalParams,
    cgf_estimate,
    cgf_skew_normal_analytic,
    default_covariance,
    inject_outliers,
    sample_normal,
    sample_skew_normal,
    sample_student_t,
)
from cgf_outliers.distributions import _family_rows, _log_two_phi

# frozen oracle values (mpmath, 50 digits) for eta=(0.5,-1), alpha=(3,-2),
# sigma_mat = [[2.25, 0.36], [0.36, 0.64]] (i.e. sigma=(1.5,0.8), C12=0.3)
ORACLE_PARAMS = dict(
    eta=np.array([0.5, -1.0]),
    sigma_mat=np.array([[2.25, 0.36], [0.36, 0.64]]),
    alpha=np.array([3.0, -2.0]),
)
ORACLE_DELTA = np.array([0.5937923983920633, -0.272154849263029])
ORACLE_MEAN_OFFSET = np.array([0.890688597588095, -0.21772387941042323])
ORACLE_COV = np.array(
    [[1.4566738221265525, 0.5539241768135094], [0.5539241768135094, 0.5925963123344755]]
)
ORACLE_XI = np.array([0.4, -0.7])
ORACLE_CGF = 1.5254887516222677
ORACLE_CGF_CENTERED = 0.11680659699973348
LOG2PHI_M40 = -803.9152948331938
LOG2PHI_M36 = -651.8100804132384
LOG2PHI_8 = 0.6931471805599447  # ln 2 in the z -> +inf limit


def test_skew_params_derived_quantities():
    p = SkewNormalParams(**ORACLE_PARAMS)
    np.testing.assert_allclose(p.delta, ORACLE_DELTA, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.mean_vec - p.eta, ORACLE_MEAN_OFFSET, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.cov_mat, ORACLE_COV, rtol=0, atol=1e-14)
    np.testing.assert_allclose(p.sigma_diag, [1.5, 0.8], atol=1e-14)


def test_skew_params_validation():
    with pytest.raises(ValueError):
        SkewNormalParams(eta=[0.0], sigma_mat=[[1.0, 0.0], [0.0, 1.0]], alpha=[1.0, 1.0])
    with pytest.raises(ValueError):
        SkewNormalParams(eta=[0.0, 0.0], sigma_mat=[[1.0, 2.0], [2.0, 1.0]], alpha=[0.0, 0.0])


def test_analytic_cgf_oracle_values():
    p = SkewNormalParams(**ORACLE_PARAMS)
    assert abs(cgf_skew_normal_analytic(ORACLE_XI, p) - ORACLE_CGF) < 1e-13
    assert (
        abs(cgf_skew_normal_analytic(ORACLE_XI, p, centered=True) - ORACLE_CGF_CENTERED) < 1e-13
    )


def test_analytic_cgf_at_zero():
    p = SkewNormalParams(**ORACLE_PARAMS)
    assert cgf_skew_normal_analytic(np.zeros(2), p) == 0.0


def test_analytic_cgf_alpha_zero_is_gaussian():
    sigma = np.array([[1.5, 0.2], [0.2, 0.7]])
    p = SkewNormalParams(eta=[0.3, -0.4], sigma_mat=sigma, alpha=[0.0, 0.0])
    rng = np.random.default_rng(0)
    for _ in range(10):
        xi = rng.normal(size=2)
        want = 0.5 * float(xi @ sigma @ xi)
        got = cgf_skew_normal_analytic(xi, p, centered=True)
        assert abs(got - want) < 1e-12


def test_log_two_phi_tail_branches():
    assert abs(_log_two_phi(-40.0) - LOG2PHI_M40) < 1e-9 * abs(LOG2PHI_M40)
    assert abs(_log_two_phi(-36.0) - LOG2PHI_M36) < 1e-9 * abs(LOG2PHI_M36)
    assert abs(_log_two_phi(8.0) - LOG2PHI_8) < 1e-12
    # continuity across the branch switch at w = 25 (z = -25 sqrt 2)
    z_switch = -25.0 * math.sqrt(2.0)
    below = _log_two_phi(z_switch - 1e-9)
    above = _log_two_phi(z_switch + 1e-9)
    assert abs(below - above) < 1e-6 * abs(below)


def test_sampler_determinism():
    p = SkewNormalParams(**ORACLE_PARAMS)
    a = sample_skew_normal(p, 100, seed=5).values
    b = sample_skew_normal(p, 100, seed=5).values
    assert np.array_equal(a, b)
    a = sample_student_t(np.eye(3), 5.0, 100, seed=5).values
    b = sample_student_t(np.eye(3), 5.0, 100, seed=5).values
    assert np.array_equal(a, b)
    a = sample_normal(np.eye(3), 100, seed=5).values
    b = sample_normal(np.eye(3), 100, seed=5).values
    assert np.array_equal(a, b)


def test_skew_alpha_zero_delegates_to_normal_sampler():
    sigma = np.array([[1.5, 0.2], [0.2, 0.7]])
    p = SkewNormalParams(eta=[0.0, 0.0], sigma_mat=sigma, alpha=[0.0, 0.0])
    skew = sample_skew_normal(p, 200, seed=17).values
    normal = sample_normal(sigma, 200, seed=17).values
    assert np.array_equal(skew, normal)


def _random_skew_params(rng, n):
    # keep |delta_classical| away from 1 so the residual stays SPD
    while True:
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigvals = rng.uniform(0.3, 2.0, n)
        sigma = basis @ np.diag(eigvals) @ basis.T
        alpha = rng.uniform(-1.5, 1.5, n)
        eta = rng.uniform(-1.0, 1.0, n)
        try:
            p = SkewNormalParams(eta=eta, sigma_mat=sigma, alpha=alpha)
        except ValueError:
            continue
        if np.all(np.abs(math.sqrt(math.pi / 2) * p.delta) <= 0.9):
            return p


def test_skew_sampler_moments_match_analytic():
    rng = np.random.default_rng(31)
    cases = [(SkewNormalParams(**ORACLE_PARAMS), 1_000_000, 9)]
    for seed in (10, 11):
        cases.append((_random_skew_params(rng, 3), 200_000, seed))
    for p, T, seed in cases:
        sample = sample_skew_normal(p, T, seed=seed).values
        se_mean = np.sqrt(np.diag(p.cov_mat) / T)
        assert np.all(np.abs(sample.mean(axis=0) - p.mean_vec) <= 3 * se_mean)
        cov = np.cov(sample, rowvar=False, ddof=1)
        # crude SE for covariance entries of a near-Gaussian sample
        scale = np.sqrt(np.outer(np.diag(p.cov_mat), np.diag(p.cov_mat)))
        assert np.abs(cov - p.cov_mat).max() <= 4 * np.sqrt(2.0 / T) * scale.max()


def test_empirical_cgf_matches_analytic_within_mc_error():
    p = SkewNormalParams(**ORACLE_PARAMS)
    T = 200_000
    data = sample_skew_normal(p, T, seed=23)
    rng = np.random.default_rng(24)
    lam1 = float(np.linalg.eigvalsh(p.cov_mat)[-1])
    for _ in range(10):
        xi = rng.normal(size=2)
        xi *= rng.uniform(0.2, 1.5) / (np.linalg.norm(xi) * math.sqrt(lam1))
        r = float(np.linalg.norm(xi))
        theta = xi / r
        got = cgf_estimate(data, r, theta)
        want = cgf_skew_normal_analytic(xi, p)
        # delta method: Var[ln m_hat] ~ Var[Y]/(T m^2), Y = exp(xi'X)
        y = np.exp(data.values @ xi)
        se = y.std(ddof=1) / (math.sqrt(T) * y.mean())
        assert abs(got - want) <= 3 * se + 1e-10


def test_small_r_cgf_is_quadratic_in_covariance():
    # the leading correction is cubic in r with a skewness coefficient, so the
    # 1e-3 band at r = 0.01 calls for moderate shape parameters
    p = SkewNormalParams(
        eta=[0.5, -1.0], sigma_mat=[[2.25, 0.36], [0.36, 0.64]], alpha=[1.5, -1.0]
    )
    rng = np.random.default_rng(25)
    r = 0.01
    for _ in range(100):
        theta = rng.normal(size=2)
        theta /= np.linalg.norm(theta)
        got = cgf_skew_normal_analytic(r * theta, p, centered=True)
        want = 0.5 * r**2 * float(theta @ p.cov_mat @ theta)
        assert abs(got - want) <= 1e-3 * abs(want)


def test_student_t_large_nu_limit():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    T = 200_000
    cov = np.cov(sample_student_t(sigma, 1e6, T, seed=7).values, rowvar=False, ddof=1)
    assert np.abs(cov - sigma).max() <= 3 * np.sqrt(2.0 / T) * 2.0


def test_student_t_covariance_identity():
    T = 1_000_000
    cov = np.cov(sample_student_t(np.eye(2), 5.0, T, seed=6).values, rowvar=False, ddof=1)
    target = (5.0 / 3.0) * np.eye(2)
    # m4 = 9 m2^2 for t_5 marginals -> SE of a variance entry ~ sqrt(8) m2 / sqrt(T)
    se = math.sqrt(8.0) * (5.0 / 3.0) / math.sqrt(T)
    assert np.abs(cov - target).max() <= 5 * se


def test_student_t_marginal_kurtosis():
    from cgf_outliers import kurtosis

    d = sample_student_t(np.eye(1), 10.0, 1_000_000, seed=5)
    assert abs(kurtosis(d.values[:, 0]) - 4.0) < 0.2  # 3 + 6/(nu-4)


def test_student_t_rejects_small_nu():
    for nu in (2.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="nu must be finite and exceed 2"):
            sample_student_t(np.eye(2), nu, 10, seed=0)
    for nu in (1.5, float("inf")):
        with pytest.raises(ValueError, match="nu must be finite and exceed 2"):
            SimulationSpec(family="student_t", n=2, T=100, seed=0, sigma_mat=np.eye(2), nu=nu)


def test_simulation_spec_validation():
    with pytest.raises(ValueError):
        SimulationSpec(family="cauchy", n=2, T=100, seed=0)
    empty = "outlier block is empty: it needs T >= 10 and n >= 2"
    with pytest.raises(ValueError, match=empty):  # floor(0.1 * 9) = 0 outlier rows
        SimulationSpec(family="std_normal", n=4, T=9, seed=0)
    with pytest.raises(ValueError, match=empty):  # floor(0.5 * 1) = 0 outlier columns
        SimulationSpec(family="std_normal", n=1, T=100, seed=0)
    edge = SimulationSpec(family="std_normal", n=2, T=10, seed=0)
    assert edge.n_outlier_rows == 1 and edge.n_outlier_cols == 1
    with pytest.raises(ValueError):
        SimulationSpec(family="std_normal", n=2, T=100, seed=0, sigma_mat=2 * np.eye(2))
    with pytest.raises(ValueError):
        SimulationSpec(family="normal", n=2, T=100, seed=0)  # needs sigma_mat
    with pytest.raises(ValueError):
        SimulationSpec(family="normal", n=2, T=100, seed=0, sigma_mat=np.eye(2), nu=5.0)
    spec = SimulationSpec(family="std_normal", n=4, T=20, seed=0)
    assert spec.n_outlier_rows == 2 and spec.n_outlier_cols == 2


def test_inject_outliers_block_structure():
    spec = SimulationSpec(family="std_normal", n=4, T=20, seed=42)
    ds = inject_outliers(spec)
    assert isinstance(ds, LabeledDataset)
    assert ds.truth.sum() == 2

    # replay the generator to recover the pre-injection matrix and indices
    rng = np.random.default_rng(42)
    X = _family_rows(rng, "std_normal", np.eye(4), 20, None, None)
    rows = rng.choice(20, size=2, replace=False)
    cols = rng.choice(4, size=2, replace=False)
    diff = ds.data.values != X
    assert diff.sum() == 4  # 2 rows x 2 columns
    assert set(np.flatnonzero(diff.any(axis=1))) == set(rows)
    assert set(np.flatnonzero(diff.any(axis=0))) == set(cols)
    assert np.array_equal(np.flatnonzero(ds.truth), np.sort(rows))
    # everything outside the block is untouched, exactly
    mask = np.ones_like(diff)
    mask[np.ix_(rows, cols)] = False
    assert np.array_equal(ds.data.values[mask], X[mask])


def test_inject_outliers_scale_across_seeds():
    entries = []
    for seed in range(150):
        spec = SimulationSpec(family="std_normal", n=10, T=100, seed=seed)
        ds = inject_outliers(spec)
        rng = np.random.default_rng(seed)
        X = _family_rows(rng, "std_normal", np.eye(10), 100, None, None)
        changed = ds.data.values[ds.data.values != X]
        entries.append(changed)
    pooled = np.concatenate(entries)
    n = pooled.size  # 150 seeds x 10 rows x 5 cols
    var = pooled.var(ddof=1)
    se = 15.0 * math.sqrt(2.0 / (n - 1))
    assert abs(var - 15.0) <= 3 * se


def test_inject_outliers_deterministic():
    spec = SimulationSpec(family="std_normal", n=6, T=50, seed=9)
    a = inject_outliers(spec)
    b = inject_outliers(spec)
    assert np.array_equal(a.data.values, b.data.values)
    assert np.array_equal(a.truth, b.truth)


def test_inject_outliers_skew_draws_alpha_per_seed():
    sigma = default_covariance(4, seed=0)
    spec1 = SimulationSpec(family="skew_normal", n=4, T=50, seed=1, sigma_mat=sigma)
    spec2 = SimulationSpec(family="skew_normal", n=4, T=50, seed=2, sigma_mat=sigma)
    a, b = inject_outliers(spec1), inject_outliers(spec2)
    assert not np.array_equal(a.data.values, b.data.values)


def test_inject_outliers_student_t():
    spec = SimulationSpec(
        family="student_t", n=6, T=60, seed=3, sigma_mat=default_covariance(6, seed=0), nu=5.0
    )
    ds = inject_outliers(spec)
    assert ds.truth.sum() == 6
    assert ds.data.values.shape == (60, 6)


def test_default_covariance_spectrum():
    sigma = default_covariance(10, condition=20.0, seed=0)
    eigvals = np.linalg.eigvalsh(sigma)[::-1]
    np.testing.assert_allclose(eigvals, np.geomspace(1.0, 1.0 / 20.0, 10), atol=1e-12)
    assert np.abs(sigma - sigma.T).max() < 1e-15
    assert np.array_equal(sigma, default_covariance(10, condition=20.0, seed=0))
    one = default_covariance(1)
    assert one.shape == (1, 1) and one[0, 0] == 1.0
