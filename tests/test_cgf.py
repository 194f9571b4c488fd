"""Unit tests for the CGF estimator, radius rule, and multistart maximizer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgf_outliers import (
    ConvergenceError,
    DataMatrix,
    MultistartConfig,
    cgf_estimate,
    cgf_gradient,
    SimulationSpec,
    center,
    covariance_pca,
    default_covariance,
    inject_outliers,
    maximize_cgf,
    refine_direction,
    relative_variance,
    sample_unit_sphere,
    select_radius,
    unit_vector,
)
import cgf_outliers.cgf as cgf_module
from cgf_outliers.cgf import _ascend, _batch_cgf

# frozen high-precision constants (mpmath, 50 digits)
LN_COSH_1 = 0.4337808304830272
TANH_1 = 0.7615941559557649
RV_1_1_500 = 0.013746254627672361
RV_2_1_1000 = 0.01339953750828606
A_STAR = 1.59362426004004  # root of e^a (a - 2) = -2
ARGMIN_R_LAM1 = 1.2623883158679978  # sqrt(A_STAR)
MIN_EPS_T500 = 0.11114454201159389
RBAR_LAM1_T1000 = 1.842561221618849  # largest r with eps <= 0.1
RBAR_LAM4_T1000 = 0.9212806108094245  # scaling law: r proportional to 1/sqrt(lambda1)

TWO_POINT = DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
E1 = np.array([1.0, 0.0])


def test_cgf_two_point_ln_cosh():
    assert abs(cgf_estimate(TWO_POINT, 1.0, E1) - LN_COSH_1) < 1e-14


def test_cgf_single_row_is_linear():
    data = DataMatrix(np.array([[0.3, -0.2, 0.9]]))
    theta = unit_vector(np.array([1.0, 2.0, -1.0]))
    r = 2.5
    assert abs(cgf_estimate(data, r, theta) - r * float(theta @ data.values[0])) < 1e-12


def test_cgf_r_zero_and_negative():
    # r = 0 runs the kernel, which gives +0.0 exactly (max 0, exp 1, ln(T/T)).
    # The gradient keeps its own r = 0 branch: through the kernel, a column with
    # a negative weighted mean gives -0.0, while the branch gives plain zeros
    shifted = DataMatrix(np.array([[-1.0, 2.0], [-3.0, 1.0]]))
    for data in (TWO_POINT, shifted):
        for theta in (E1, -E1, np.array([-0.6, 0.8])):
            value = cgf_estimate(data, 0.0, theta)
            assert value == 0.0 and not np.signbit(value)
            grad = cgf_gradient(data, 0.0, theta)
            assert np.array_equal(grad, np.zeros(2)) and not np.signbit(grad).any()
    with pytest.raises(ValueError):
        cgf_estimate(TWO_POINT, -1.0, E1)


def test_cgf_overflow_safe_at_large_r():
    # naive exp(500) overflows; the log-sum-exp route must not
    val = cgf_estimate(TWO_POINT, 500.0, E1)
    assert math.isfinite(val)
    # dominated by the +x row: G -> r - ln 2 as r grows
    assert abs(val - (500.0 - math.log(2.0))) < 1e-12


def test_gradient_two_point_tanh():
    grad = cgf_gradient(TWO_POINT, 1.0, E1)
    np.testing.assert_allclose(grad, np.array([TANH_1, 0.0]), rtol=0, atol=1e-14)


def test_gradient_single_row():
    data = DataMatrix(np.array([[0.4, -1.2]]))
    grad = cgf_gradient(data, 3.0, unit_vector(np.array([1.0, 1.0])))
    np.testing.assert_allclose(grad, 3.0 * data.values[0], rtol=0, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(25):
        T = int(rng.integers(5, 60))
        n = int(rng.integers(2, 8))
        data = center(DataMatrix(rng.normal(size=(T, n))))
        r = float(rng.uniform(0.1, 5.0))
        theta = unit_vector(rng.normal(size=n))
        grad = cgf_gradient(data, r, theta)
        fd = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            fd[j] = (cgf_estimate(data, r, theta + e) - cgf_estimate(data, r, theta - e)) / (2 * h)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(grad))


def test_convexity_in_xi():
    # G as a function of xi = r theta is convex; check random midpoints
    rng = np.random.default_rng(9)
    for _ in range(50):
        data = center(DataMatrix(rng.normal(size=(20, 3))))

        def g(xi):
            r = np.linalg.norm(xi)
            if r == 0.0:
                return 0.0
            return cgf_estimate(data, r, xi / r)

        xi = rng.normal(size=3)
        zeta = rng.normal(size=3)
        gam = rng.uniform()
        mid = g(gam * xi + (1 - gam) * zeta)
        assert mid <= gam * g(xi) + (1 - gam) * g(zeta) + 1e-9


def test_relative_variance_values():
    assert abs(relative_variance(1.0, 1.0, 500) - RV_1_1_500) < 1e-15
    assert abs(relative_variance(2.0, 1.0, 1000) - RV_2_1_1000) < 1e-15


def test_relative_variance_is_u_shaped_in_r():
    lam, T = 2.0, 800
    rs = np.linspace(0.05, 3.0, 400)
    vals = np.array([relative_variance(r, lam, T) for r in rs])
    k = int(vals.argmin())
    assert 0 < k < len(rs) - 1
    assert np.all(np.diff(vals[: k + 1]) < 0)
    assert np.all(np.diff(vals[k:]) > 0)
    # the minimizing a = r^2 lambda1 sits at the analytic argmin
    assert abs(rs[k] ** 2 * lam - A_STAR) < 0.05


def test_curve_argmin_constant_is_the_root():
    # the radius rule reads a* as a literal; it must solve e^a (a - 2) + 2 = 0
    a = cgf_module._A_STAR
    assert abs(math.exp(a) * (a - 2.0) + 2.0) <= 1e-15
    assert abs(a - A_STAR) <= 1e-14


def test_relative_variance_overflows_to_inf():
    # e**a overflows a float past a ~ 709.78; the curve is +inf there, not an error
    assert relative_variance(100.0, 1.0, 500) == math.inf
    assert math.isfinite(relative_variance(26.0, 1.0, 500))
    with pytest.raises(ValueError):
        relative_variance(0.0, 1.0, 500)


def test_select_radius_feasible_case():
    sel = select_radius(1.0, 1000, 0.1)
    assert sel.feasible
    assert abs(sel.r_bar - RBAR_LAM1_T1000) < 1e-7
    assert sel.eps_achieved <= 0.1
    assert abs(math.sqrt(relative_variance(sel.r_bar, 1.0, 1000)) - 0.1) < 1e-7


def test_select_radius_scaling_law():
    sel = select_radius(4.0, 1000, 0.1)
    assert abs(sel.r_bar - RBAR_LAM4_T1000) < 1e-7
    assert abs(sel.r_bar - RBAR_LAM1_T1000 / 2.0) < 1e-7


def test_select_radius_infeasible_returns_argmin():
    sel = select_radius(1.0, 500, 0.1)
    assert not sel.feasible
    assert abs(sel.r_bar - ARGMIN_R_LAM1) < 1e-9
    assert abs(sel.eps_achieved - MIN_EPS_T500) < 1e-12
    assert sel.eps_achieved > 0.1


def test_select_radius_validates_inputs():
    with pytest.raises(ValueError):
        select_radius(0.0, 100, 0.1)
    with pytest.raises(ValueError):
        select_radius(1.0, 0, 0.1)
    with pytest.raises(ValueError):
        select_radius(1.0, 100, 1.5)


def test_sample_unit_sphere_norms_and_determinism():
    pts = sample_unit_sphere(7, 200, seed=1)
    assert pts.shape == (200, 7)
    assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12
    again = sample_unit_sphere(7, 200, seed=1)
    assert np.array_equal(pts, again)
    one_d = sample_unit_sphere(1, 50, seed=2)
    assert set(np.unique(one_d)) <= {-1.0, 1.0}


def test_maximize_two_point_symmetric():
    config = MultistartConfig(n_starts=20, seed=0)
    data = DataMatrix(np.array([[2.0, 1.0], [-2.0, -1.0]]))
    result = maximize_cgf(data, 1.5, config)
    x_hat = unit_vector(np.array([2.0, 1.0]))
    for theta in result.directions:
        assert abs(abs(float(theta @ x_hat)) - 1.0) < 1e-6
    # +/- theta attain the same value by symmetry of the two-point sample
    top = result.directions[0]
    assert abs(cgf_estimate(data, 1.5, top) - cgf_estimate(data, 1.5, -top)) < 1e-12


def test_maximize_one_dimensional_data():
    config = MultistartConfig(n_starts=8, seed=3)
    data = DataMatrix(np.array([[1.0], [2.0], [-0.5], [0.3]]))
    result = maximize_cgf(data, 1.0, config)
    for theta in result.directions:
        assert abs(abs(float(theta[0])) - 1.0) < 1e-12


def test_maximizer_result_invariants():
    rng = np.random.default_rng(8)
    data = center(DataMatrix(rng.normal(size=(100, 4))))
    config = MultistartConfig(n_starts=60, seed=8)
    result = maximize_cgf(data, 1.0, config)
    assert len(result) >= 1
    assert np.all(np.diff(result.cgf_values) <= 0)  # CGF-descending
    for i in range(len(result)):
        for j in range(i + 1, len(result)):
            cos = abs(float(result.directions[i] @ result.directions[j]))
            assert cos <= cgf_module._DEDUP_COS + 1e-12
    assert result.total_iterations >= config.n_starts  # every start makes an update
    assert result.ascent_violations == 0


def test_maximize_recovers_dominant_axis():
    rng = np.random.default_rng(12)
    data = center(DataMatrix(rng.multivariate_normal(np.zeros(2), np.diag([4.0, 1.0]), 5000)))
    result = maximize_cgf(data, 0.5, MultistartConfig(n_starts=40, seed=12))
    assert abs(float(result.directions[0] @ np.array([1.0, 0.0]))) >= 0.99


def test_maximize_is_deterministic():
    rng = np.random.default_rng(4)
    data = center(DataMatrix(rng.normal(size=(60, 3))))
    config = MultistartConfig(n_starts=30, seed=99)
    a = maximize_cgf(data, 1.2, config)
    b = maximize_cgf(data, 1.2, config)
    assert len(a) == len(b)
    for ta, tb in zip(a.directions, b.directions):
        assert np.array_equal(ta, tb)
    assert np.array_equal(a.cgf_values, b.cgf_values)


def test_results_do_not_depend_on_the_memory_layout():
    # users pass C-ordered arrays or DataMatrix, fit passes a view over an n x T copy
    rng = np.random.default_rng(12)
    X = center(DataMatrix(rng.standard_t(5, size=(300, 5)) * np.arange(1.0, 6.0))).values
    layouts = [np.ascontiguousarray(X), np.asfortranarray(X), DataMatrix(X),
               np.divide(X.T, 1.0, order="C").T]
    config = MultistartConfig(n_starts=40, seed=12)
    ref = maximize_cgf(layouts[0], 0.9, config)
    start = sample_unit_sphere(5, 1, seed=12)[0]
    ref_refine = refine_direction(layouts[0][:250], 0.9, start)
    for data in layouts[1:]:
        got = maximize_cgf(data, 0.9, config)
        assert np.array_equal(got.directions, ref.directions)
        assert np.array_equal(got.cgf_values, ref.cgf_values)
        assert (got.total_iterations, got.starts_converged, got.starts_merged) == (
            ref.total_iterations, ref.starts_converged, ref.starts_merged)
        if isinstance(data, DataMatrix):
            continue  # refine_direction takes arrays only
        theta, used, converged = refine_direction(data[:250], 0.9, start)
        assert np.array_equal(theta, ref_refine[0])
        assert (used, converged) == ref_refine[1:]


def test_batched_ascent_matches_per_start_runs(monkeypatch):
    # each start's trajectory is independent of the rest of the batch: a start
    # that is not merged lands where it lands alone (the arithmetic is not
    # bitwise identical, BLAS kernels differ by shape, so compare to the
    # convergence tolerance); a start run alone can never merge, and a merged
    # start's solo run must end on a maximum that the batch reached. At a
    # 1e-7 step tolerance two runs on one maximum of this sample stop up to
    # 2.1e-6 apart (slow contraction), so the tolerance is 1e-9
    monkeypatch.setattr(cgf_module, "_TOLERANCE", 1e-9)
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 3))
    X = X - X.mean(axis=0)
    starts = sample_unit_sphere(3, 12, seed=21)
    thetas, _, converged, merged, _, _ = _ascend(X, 1.0, starts)
    assert merged.sum() >= 6 and not (converged & merged).any()
    for k in range(12):
        tk, _, ck, mk, _, _ = _ascend(X, 1.0, starts[k : k + 1])
        assert ck[0] and not mk[0]
        if merged[k]:
            assert np.linalg.norm(thetas[converged] - tk[0], axis=1).min() < 1e-6
        else:
            assert converged[k] == ck[0]
            assert np.linalg.norm(thetas[k] - tk[0]) < 1e-6


def test_converged_points_satisfy_first_order_condition():
    rng = np.random.default_rng(6)
    tol = cgf_module._TOLERANCE
    data = center(DataMatrix(rng.normal(size=(80, 4))))
    result = maximize_cgf(data, 1.3, MultistartConfig(n_starts=30, seed=6))
    for theta in result.directions:
        grad = cgf_gradient(data, 1.3, theta)
        tangential = grad - (grad @ theta) * theta
        assert np.linalg.norm(tangential) <= 10 * tol * max(1.0, np.linalg.norm(grad))


def test_maximize_raises_when_nothing_converges(monkeypatch):
    rng = np.random.default_rng(2)
    data = center(DataMatrix(rng.normal(size=(50, 3))))
    config = MultistartConfig(n_starts=5, seed=2)
    monkeypatch.setattr(cgf_module, "_TOLERANCE", 1e-16)
    monkeypatch.setattr(cgf_module, "_MAX_ITERS", 2)
    with pytest.raises(ConvergenceError) as exc_info:
        maximize_cgf(data, 1.0, config)
    partial = exc_info.value.partial
    assert partial is not None
    assert len(partial.directions) == len(partial.cgf_values) == 5
    assert partial.starts_converged == 0
    # with no candidate, every start's value is evaluated
    np.testing.assert_array_equal(partial.cgf_values,
                                  _batch_cgf(data.values, 1.0, partial.directions))


def test_refine_direction_warm_start(monkeypatch):
    rng = np.random.default_rng(13)
    X = rng.normal(size=(60, 3))
    X = X - X.mean(axis=0)
    theta0 = unit_vector(np.array([1.0, 1.0, 1.0]))
    theta, iters, converged = refine_direction(X, 1.0, theta0)
    assert converged and iters >= 1
    assert abs(np.linalg.norm(theta) - 1.0) < 1e-12
    # unconverged refinement still returns the final iterate
    monkeypatch.setattr(cgf_module, "_MAX_ITERS", 1)
    theta1, iters1, converged1 = refine_direction(X, 1.0, theta0)
    assert not converged1 and iters1 == 1
    assert abs(np.linalg.norm(theta1) - 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(heavy=st.booleans(), T=st.integers(2, 200), n=st.integers(1, 8),
       r=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
def test_phi_never_lowers_the_cgf(heavy, T, n, r, seed):
    # Phi = grad F / ||grad F|| for the convex F = G + (r/2)||theta||^2 (module docstring)
    rng = np.random.default_rng(seed)
    if heavy:
        X = rng.standard_t(2.0, size=(T, n))
    else:
        X = rng.exponential(size=(T, n)) * rng.uniform(0.2, 2.0, n)
    data = DataMatrix(X)
    theta = sample_unit_sphere(n, 1, seed)[0]
    g = cgf_estimate(data, r, theta)
    phi = unit_vector(theta + cgf_gradient(data, r, theta) / r)
    assert cgf_estimate(data, r, phi) >= g - 1e-12 * max(1.0, abs(g))


def test_multistart_config_validation():
    with pytest.raises(ValueError):
        MultistartConfig(n_starts=0)


def test_unit_vector():
    v = unit_vector(np.array([3.0, 4.0]))
    np.testing.assert_allclose(v, [0.6, 0.8], atol=1e-15)
    with pytest.raises(ValueError):
        unit_vector(np.zeros(2))


def _skewed_data(seed: int, T: int = 400) -> DataMatrix:
    # independent exponential columns of unequal scale: skewed, with several CGF maxima
    rng = np.random.default_rng(seed)
    return center(DataMatrix(rng.exponential(size=(T, 3)) * np.array([1.5, 1.0, 0.6])))


def test_batch_cgf_matches_estimate_across_blocks():
    rng = np.random.default_rng(31)
    data = center(DataMatrix(rng.normal(size=(70, 4))))
    thetas = sample_unit_sphere(4, cgf_module._BLOCK + 44, seed=31)
    values = _batch_cgf(data.values, 1.7, thetas)
    expected = np.array([cgf_estimate(data, 1.7, th) for th in thetas])
    np.testing.assert_allclose(values, expected, rtol=0, atol=1e-12)


def test_maximize_with_more_starts_than_a_block(monkeypatch):
    rng = np.random.default_rng(17)
    data = center(DataMatrix(rng.normal(size=(90, 4)) * np.array([2.0, 1.0, 1.0, 0.5])))
    config = MultistartConfig(n_starts=cgf_module._BLOCK + 60, seed=17)
    blocked = maximize_cgf(data, 1.1, config)
    for theta, value in zip(blocked.directions, blocked.cgf_values):
        assert abs(value - cgf_estimate(data, 1.1, theta)) <= 1e-12
    monkeypatch.setattr(cgf_module, "_BLOCK", 4 * config.n_starts)
    whole = maximize_cgf(data, 1.1, config)
    assert len(whole) == len(blocked)
    assert whole.total_iterations == blocked.total_iterations
    assert whole.starts_merged == blocked.starts_merged > 0
    assert whole.starts_converged == blocked.starts_converged
    np.testing.assert_allclose(blocked.directions, whole.directions, rtol=0, atol=1e-12)
    np.testing.assert_allclose(blocked.cgf_values, whole.cgf_values, rtol=0, atol=1e-12)


def test_refine_satisfies_first_order_condition_and_ascends():
    tol, r = cgf_module._TOLERANCE, 1.2
    for seed in range(5):
        data = _skewed_data(seed)
        start = sample_unit_sphere(3, 1, seed=seed)[0]
        theta, used, converged = refine_direction(data.values, r, start)
        assert converged and used >= 1
        assert abs(np.linalg.norm(theta) - 1.0) < 1e-12
        grad = cgf_gradient(data, r, theta)
        tangential = grad - (grad @ theta) * theta
        assert np.linalg.norm(tangential) <= 10 * tol * np.linalg.norm(grad)
        assert cgf_estimate(data, r, theta) >= cgf_estimate(data, r, start)


def test_refine_reaches_the_fixed_step_maximum():
    for seed in range(5):
        data = _skewed_data(seed)
        start = sample_unit_sphere(3, 1, seed=100 + seed)
        theta, _, converged = refine_direction(data.values, 1.2, start[0])
        plain, _, plain_converged, _, _, _ = _ascend(data.values, 1.2, start)
        assert converged and plain_converged[0]
        assert abs(float(theta @ plain[0])) >= 1 - 1e-9

        # tracking: warm starts at the maxima of 8 solo starts, after dropping random rows
        maxima = [_ascend(data.values, 1.2, s[None, :])[0][0]
                  for s in sample_unit_sphere(3, 8, seed=100 + seed)]
        rng = np.random.default_rng(300 + seed)
        for theta0 in maxima:
            for frac in (0.01, 0.03, 0.1):
                shrunk = data.values[rng.random(data.n_obs) >= frac]
                theta, _, converged = refine_direction(shrunk, 1.2, theta0)
                plain, _, plain_converged, _, _, _ = _ascend(shrunk, 1.2, theta0[None, :])
                assert converged and plain_converged[0]
                assert abs(float(theta @ plain[0])) >= 1 - 1e-9


def test_refine_is_equivariant_under_row_permutation_and_rotation():
    for seed in range(5):
        data = _skewed_data(seed).values
        rng = np.random.default_rng(200 + seed)
        start = sample_unit_sphere(3, 1, seed=200 + seed)[0]
        theta, used, converged = refine_direction(data, 1.2, start)
        assert converged

        permuted, used_p, _ = refine_direction(data[rng.permutation(len(data))], 1.2, start)
        assert used_p == used
        assert np.abs(permuted - theta).max() <= 1e-12

        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated, used_r, _ = refine_direction(data @ rotation, 1.2, rotation.T @ start)
        assert used_r == used
        assert np.abs(rotation @ rotated - theta).max() <= 1e-12


def test_refine_rejects_a_nonpositive_radius():
    for r in (0.0, -1.0):
        with pytest.raises(ValueError):
            refine_direction(TWO_POINT.values, r, E1)


def test_refine_counts_every_kernel_call(monkeypatch):
    calls = []
    kernel = cgf_module._exp_shifted

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(cgf_module, "_exp_shifted", counted)
    for seed in range(5):
        data = _skewed_data(seed, T=120)
        calls.clear()
        _, used, _ = refine_direction(data.values, 1.5, sample_unit_sphere(3, 1, seed=seed)[0])
        assert used == len(calls)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(cgf_module, "_MAX_ITERS", 3)
            _, used, _ = refine_direction(data.values, 1.5, np.ones(3))
        assert used == len(calls) <= 3


def _solo_maxima(data: DataMatrix, r: float, config: MultistartConfig):
    # maximize_cgf without merging: each start ascends alone, then the same dedup
    X = data.values
    runs = [_ascend(X, r, s[None, :])
            for s in sample_unit_sphere(X.shape[1], config.n_starts, config.seed)]
    ends = np.array([run[0][0] for run in runs if run[2][0]])
    values = _batch_cgf(X, r, ends)
    kept: list[int] = []
    for i in np.argsort(-values, kind="stable"):
        if not kept or np.abs(ends[kept] @ ends[i]).max() <= cgf_module._DEDUP_COS:
            kept.append(int(i))
    return ends[kept], values[kept], sum(run[4] for run in runs)


def _experiment_data(family: str, seed: int, T: int = 500) -> tuple[DataMatrix, float]:
    # an n=30 simulation draw as the detector's ascent sees it: unit lambda1
    spec = SimulationSpec(family=family, n=30, T=T, seed=seed,
                          sigma_mat=default_covariance(30, 20.0, seed=0),
                          nu=5.0 if family == "student_t" else None)
    data = center(inject_outliers(spec).data)
    lambda1 = covariance_pca(data).lambda1
    r = select_radius(lambda1, T, 0.1).r_bar * math.sqrt(lambda1)
    return DataMatrix(data.values / math.sqrt(lambda1)), r


def test_merged_multistart_matches_solo_runs():
    rng = np.random.default_rng(41)
    datasets = [(_skewed_data(seed), 1.2, 60) for seed in range(5)]
    datasets.append((center(DataMatrix(rng.normal(size=(300, 4)))), 1.0, 60))
    datasets.append((center(DataMatrix(rng.standard_t(5, size=(300, 4)))), 0.8, 60))
    # merging must lose no maximum at the experiments' n=30, T=500 and 200 starts
    for family in ("normal", "student_t", "skew_normal"):
        for seed in (41, 42):
            datasets.append((*_experiment_data(family, seed), 200))
    for data, r, n_starts in datasets:
        config = MultistartConfig(n_starts=n_starts, seed=41)
        directions, values, solo_total = _solo_maxima(data, r, config)
        result = maximize_cgf(data, r, config)
        assert result.starts_merged > 0
        assert result.total_iterations < solo_total
        assert len(result) == len(directions)
        np.testing.assert_allclose(result.directions, directions, rtol=0, atol=1e-5)
        np.testing.assert_allclose(result.cgf_values, values, rtol=0, atol=1e-10)


def test_start_counts_partition_the_starts(monkeypatch):
    rng = np.random.default_rng(43)
    data = center(DataMatrix(rng.normal(size=(120, 4)) * np.array([1.5, 1.0, 1.0, 0.7])))
    for max_iters in (25, 10_000):
        monkeypatch.setattr(cgf_module, "_MAX_ITERS", max_iters)
        config = MultistartConfig(n_starts=80, seed=43)
        result = maximize_cgf(data, 1.1, config)
        starts = sample_unit_sphere(4, config.n_starts, config.seed)
        thetas, values, converged, merged, total, _ = _ascend(data.values, 1.1, starts)
        # G only at the converged starts, the candidates; NaN elsewhere
        np.testing.assert_array_equal(values[converged],
                                      _batch_cgf(data.values, 1.1, thetas[converged]))
        assert np.isnan(values[~converged]).all()
        unconverged = ~converged & ~merged
        assert total >= max_iters * unconverged.sum()  # each made max_iters updates
        assert result.starts_converged == converged.sum() >= len(result)
        assert result.starts_merged == merged.sum() > 0
        assert result.starts_converged + result.starts_merged + unconverged.sum() == 80
        assert result.total_iterations == total


def test_only_same_sign_starts_merge():
    # +-theta are different directions to the dedup (their CGF values differ in
    # general), so a start closing in on -x_hat must not merge into x_hat
    data = np.array([[2.0, 1.0], [-2.0, -1.0]])
    x_hat = unit_vector(data[0])
    turn = np.array([[math.cos(0.3), -math.sin(0.3)], [math.sin(0.3), math.cos(0.3)]])
    for sign in (1.0, -1.0):
        starts = np.array([x_hat, sign * (turn @ x_hat)])
        thetas, _, converged, merged, _, _ = _ascend(data, 1.5, starts)
        assert converged[0]
        assert merged[1] == (sign > 0)
        assert converged[1] == (sign < 0)
        if sign < 0:
            assert float(thetas[1] @ x_hat) < -1 + 1e-12


def _phi_step(data, r: float, theta: np.ndarray) -> float:
    # ||Phi(theta) - theta|| in float64, from the public gradient
    phi = unit_vector(theta + cgf_gradient(data, r, theta) / r)
    return float(np.linalg.norm(phi - theta))


def _kernel_calls(monkeypatch) -> list:
    # record (data dtype, rows) of every kernel call from here on
    calls: list = []
    kernel = cgf_module._exp_shifted

    def counted(Xt, r, thetas, out):
        calls.append((Xt.dtype.name, thetas.shape[0]))
        return kernel(Xt, r, thetas, out)

    monkeypatch.setattr(cgf_module, "_exp_shifted", counted)
    return calls


def _rows(calls: list, dtype: str) -> int:
    return sum(rows for name, rows in calls if name == dtype)


def test_maxima_are_certified_in_float64_at_detect_scale(monkeypatch):
    # most updates run in float32, yet every returned maximum is a float64
    # fixed point to the stopping tolerance, whatever the memory layout
    calls = _kernel_calls(monkeypatch)
    data, r = _experiment_data("normal", 7, T=2000)
    X = data.values
    config = MultistartConfig(n_starts=200, seed=7)
    ref = maximize_cgf(np.ascontiguousarray(X), r, config)
    assert _rows(calls, "float32") > _rows(calls, "float64")
    assert ref.ascent_violations == 0 and ref.starts_converged >= len(ref) > 1
    for theta in ref.directions:
        assert _phi_step(data, r, theta) <= cgf_module._TOLERANCE
    for layout in (np.asfortranarray(X), DataMatrix(X)):
        got = maximize_cgf(layout, r, config)
        assert (got.total_iterations, got.starts_converged, got.starts_merged) == (
            ref.total_iterations, ref.starts_converged, ref.starts_merged)
        assert np.array_equal(got.directions, ref.directions)


@pytest.mark.parametrize("switch", [cgf_module._SWITCH_STEP, 0.0], ids=["default", "no-step-switch"])
def test_no_start_stalls_in_float32_at_a_large_radius(monkeypatch, switch):
    # at switch 0 only the rise test ends a start's float32 phase; without it
    # starts at r 10 and 100 run float32 updates until _MAX_ITERS. Every start
    # must converge, on a float64 update, or merge
    monkeypatch.setattr(cgf_module, "_SWITCH_STEP", switch)
    calls = _kernel_calls(monkeypatch)
    data = center(DataMatrix(np.random.default_rng(5).normal(size=(400, 5))))
    for r in (10.0, 100.0):
        config = MultistartConfig(n_starts=40, seed=3)
        result = maximize_cgf(data, r, config)
        assert result.starts_converged + result.starts_merged == 40
        assert result.ascent_violations == 0
        for theta in result.directions:
            assert _phi_step(data, r, theta) <= cgf_module._TOLERANCE
        # alone, a start makes one kernel call per update, then the closing G
        for start in sample_unit_sphere(5, 8, seed=3):
            calls.clear()
            converged = _ascend(data.values, r, start[None, :])[2]
            assert converged[0]
            assert calls[0][0] == "float32" and calls[-2][0] == calls[-1][0] == "float64"
