"""Unit tests for the statistics layer: moments, MAD, kurtosis, covariance/PCA."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgf_outliers import (
    CovarianceSummary,
    DataMatrix,
    DegenerateInputError,
    center,
    covariance_pca,
    first_four_cumulants,
    kurtosis,
    median_and_mad,
)
from cgf_outliers.linalg_stats import _row_medians, _row_moments


def test_data_matrix_basic():
    m = DataMatrix(np.arange(6.0).reshape(3, 2))
    assert m.n_obs == 3 and m.n_var == 2
    assert not m.values.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        m.values[0, 0] = 99.0


def test_data_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DataMatrix(np.arange(3.0))
    with pytest.raises(ValueError):
        DataMatrix(np.empty((0, 2)))
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        DataMatrix(np.array([[1.0, np.inf]]))


def test_data_matrix_single_row_allowed():
    m = DataMatrix(np.array([[1.0, 2.0]]))
    assert m.n_obs == 1


def test_data_matrix_row_labels():
    m = DataMatrix(np.ones((2, 2)), row_labels=("2020-01-01", "2020-01-02"))
    assert m.row_labels == ("2020-01-01", "2020-01-02")
    with pytest.raises(ValueError):
        DataMatrix(np.ones((2, 2)), row_labels=("only-one",))


def test_center_zero_mean_and_mean_retained():
    rng = np.random.default_rng(0)
    raw = DataMatrix(rng.normal(3.0, 1.0, (50, 4)), row_labels=tuple(str(i) for i in range(50)))
    c = center(raw)
    assert np.abs(c.values.mean(axis=0)).max() < 1e-13
    np.testing.assert_allclose(c.values + raw.values.mean(axis=0), raw.values, atol=1e-12)
    assert c.row_labels == raw.row_labels


def test_covariance_hand_2x2():
    # build data whose sample covariance is exactly [[2,1],[1,2]]
    # rows chosen so column means are 0 and cross moments come out integral
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    cov = np.cov(x, rowvar=False, ddof=1)
    # scale rows to force the target matrix instead of fiddling by hand
    target = np.array([[2.0, 1.0], [1.0, 2.0]])
    L_t = np.linalg.cholesky(target)
    L_c = np.linalg.cholesky(cov)
    y = x @ np.linalg.inv(L_c).T @ L_t.T
    summary = covariance_pca(DataMatrix(y))
    np.testing.assert_allclose(summary.matrix, target, atol=1e-12)
    assert abs(summary.lambda1 - 3.0) < 1e-12
    pc1 = summary.pc1
    expected = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert min(np.abs(pc1 - expected).max(), np.abs(pc1 + expected).max()) < 1e-12


def test_covariance_divisor_is_t_minus_one():
    x = np.array([[0.0], [2.0]])
    summary = covariance_pca(DataMatrix(x))
    assert abs(summary.matrix[0, 0] - 2.0) < 1e-15  # ((0-1)^2 + (2-1)^2) / (2-1)


def test_covariance_needs_two_rows():
    with pytest.raises(ValueError):
        covariance_pca(DataMatrix(np.ones((1, 3))))


def test_eigendecomposition_reconstruction_random_spd():
    rng = np.random.default_rng(7)
    for n in (2, 5, 20, 100):
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigvals = rng.uniform(0.1, 10.0, n)
        sigma = basis @ np.diag(eigvals) @ basis.T
        data = rng.multivariate_normal(np.zeros(n), sigma, size=max(2 * n, 50))
        s = covariance_pca(DataMatrix(data))
        recon = s.eigenvectors @ np.diag(s.eigenvalues) @ s.eigenvectors.T
        assert np.abs(recon - s.matrix).max() <= 1e-8 * s.lambda1
        assert np.all(np.diff(s.eigenvalues) <= 1e-12)  # nonincreasing
        ortho = s.eigenvectors.T @ s.eigenvectors
        assert np.abs(ortho - np.eye(n)).max() < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_covariance_pca_is_eigh_of_an_exactly_symmetric_matrix(n):
    # the two-pass scatter times 1 / (T - 1) is np.cov's arithmetic, bit for bit, in
    # both layouts (F is the one center returns); its product is exactly symmetric and
    # eigh returns ascending eigenvalues, so neither a symmetrizing nor a sorting step is needed
    rng = np.random.default_rng(n)
    for T in (2, 3, 10, 100, 1000, 10_000):
        scale = rng.uniform(0.01, 100.0, n)
        for X in (rng.normal(size=(T, n)) * scale, rng.standard_t(3, size=(T, n)) * scale + 5.0):
            for layout in (X, np.asfortranarray(X)):
                cov = np.atleast_2d(np.cov(layout, rowvar=False, ddof=1))
                assert np.array_equal(covariance_pca(DataMatrix(layout)).matrix, cov), (T, n)
            s = covariance_pca(DataMatrix(X))
            assert np.array_equal(s.matrix, s.matrix.T)
            assert np.all(np.diff(s.eigenvalues) <= 0.0)
            assert np.array_equal(s.eigenvectors[:, 0], np.linalg.eigh(s.matrix)[1][:, -1])


def test_median_and_mad_hand_values():
    med, mad = median_and_mad([0.0, 1.0, 2.0, 3.0, 10.0])
    assert med == 2.0 and mad == 1.0


def test_median_even_length_mean_of_middle_two():
    med, mad = median_and_mad([1.0, 2.0, 3.0, 4.0])
    assert med == 2.5
    assert mad == 1.0  # deviations (1.5, .5, .5, 1.5) -> mean of .5 and 1.5


_VALUES = st.floats(min_value=-1e12, max_value=1e12, allow_nan=False)
_TIED = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 1.0, 3.0])  # few distinct values: many ties


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_VALUES, _TIED), min_size=1, max_size=60)
       | st.lists(_TIED, min_size=1, max_size=60))
@example([4.0])
@example([1.0, -1.0])
@example([0.0] * 6)
@example([-0.0, 1.0, -0.0])
def test_median_and_mad_equal_np_median_bit_for_bit(values):
    z = np.array(values)
    before = z.copy()
    med, mad = median_and_mad(z)
    want_med = float(np.median(z))
    assert np.array_equal(z, before)  # the input is not partitioned in place
    assert med == want_med
    assert mad == float(np.median(np.abs(z - want_med)))
    assert np.signbit(med) == np.signbit(want_med)  # a zero median is +0.0 as np.median's
    assert isinstance(med, float) and isinstance(mad, float)


def test_squared_moments_match_power_formulas():
    # the moments square the squares instead of calling pow: within 1e-13 of
    # the ** formulas, k3 and k4 relative to the size of the terms they cancel
    rng = np.random.default_rng(23)
    draws = [rng.normal(size=500), rng.standard_t(3, size=2000), rng.exponential(size=77),
             rng.uniform(-1e3, 1e3, size=10_000) + 5e3, rng.normal(size=3)]
    for z in draws:
        dev = z - z.mean()
        m2, m3, m4 = (np.mean(dev**2), np.mean(dev**3), np.mean(dev**4))
        assert abs(kurtosis(z) - m4 / m2**2) <= 1e-13 * (m4 / m2**2)
        k1, k2, k3, k4 = first_four_cumulants(z)
        assert k1 == z.mean() and k2 == m2
        assert abs(k3 - m3) <= 1e-13 * np.mean(np.abs(dev) ** 3)
        assert abs(k4 - (m4 - 3.0 * m2 * m2)) <= 1e-13 * (m4 + 3.0 * m2 * m2)


def test_moments_equal_the_np_mean_formulas_bit_for_bit():
    # the moments are np.mean's, so the formulas written with it give the same bits
    rng = np.random.default_rng(29)
    for size in range(2, 601):
        z = rng.standard_t(4, size=size) * rng.uniform(0.1, 10.0) + rng.uniform(-5.0, 5.0)
        dev = z - np.mean(z)
        sq = dev * dev
        m2, m3, m4 = float(np.mean(sq)), float(np.mean(sq * dev)), float(np.mean(sq * sq))
        assert kurtosis(z) == m4 / (m2 * m2)
        assert first_four_cumulants(z) == (float(np.mean(z)), m2, m3, m4 - 3.0 * m2 * m2)


def test_masked_row_kernels_equal_the_helpers_on_the_compacted_survivors():
    # the removal loop's case: many rows in one call, each with a partial mask.
    # The masked sums add zeros inside numpy's pairwise blocks, so the kurtosis
    # may move in the last bits; a full row's sums are the helper's, and the
    # medians are exact order statistics either way
    rng = np.random.default_rng(41)
    rows = 10
    for _ in range(30):
        T = int(rng.integers(4, 3_000))
        V = rng.standard_t(3, size=(rows, T)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(rows, 1))
        count = rng.integers(3, T + 1, size=rows)  # count == T leaves the row whole
        alive = rng.random((rows, T)).argsort(axis=1) < count[:, None]
        med = _row_medians(V, alive, count)
        mad = _row_medians(np.abs(V - med[:, None]), alive, count)
        _, kur = _row_moments(V, alive, count)
        for i in range(rows):
            survivors = V[i][alive[i]]
            assert (med[i], mad[i]) == median_and_mad(survivors)
            want = kurtosis(survivors)
            if count[i] == T:
                assert kur[i] == want
            assert abs(kur[i] - want) <= 1e-14 * want


def test_mad_translation_and_scale_equivariance():
    rng = np.random.default_rng(3)
    for _ in range(20):
        z = rng.normal(size=rng.integers(5, 40))
        a = rng.uniform(-5, 5)
        b = rng.uniform(-5, 5)
        _, mad0 = median_and_mad(z)
        _, mad1 = median_and_mad(a * z + b)
        assert abs(mad1 - abs(a) * mad0) < 1e-12 * max(1.0, mad0)


def test_kurtosis_hand_value():
    assert abs(kurtosis([-1.0, 0.0, 1.0]) - 1.5) < 1e-15


def test_kurtosis_gaussian_is_near_three():
    rng = np.random.default_rng(11)
    k = kurtosis(rng.standard_normal(200_000))
    assert abs(k - 3.0) < 0.05


def test_kurtosis_rejects_degenerate():
    with pytest.raises(DegenerateInputError):
        kurtosis(np.full(10, 3.0))
    with pytest.raises(ValueError):
        kurtosis([1.0])


@pytest.mark.parametrize("values, message", [
    ([], "empty vector"),
    ([1.0, np.nan, 2.0], "vector entries must be finite"),
    ([1.0, -np.inf], "vector entries must be finite"),
], ids=["empty", "nan", "inf"])
def test_input_checks_name_the_problem(values, message):
    with pytest.raises(ValueError) as err:
        kurtosis(values)
    assert (type(err.value), str(err.value)) == (ValueError, message)


def test_cumulants_constant_sequence():
    k1, k2, k3, k4 = first_four_cumulants(np.full(7, 4.25))
    assert (k1, k2, k3, k4) == (4.25, 0.0, 0.0, 0.0)


def test_cumulants_hand_case():
    # (-1, 0, 1): m2 = 2/3, m3 = 0, m4 = 2/3 -> k4 = 2/3 - 3*(4/9)
    k1, k2, k3, k4 = first_four_cumulants([-1.0, 0.0, 1.0])
    assert abs(k1) < 1e-15
    assert abs(k2 - 2.0 / 3.0) < 1e-15
    assert abs(k3) < 1e-15
    assert abs(k4 - (2.0 / 3.0 - 3.0 * (2.0 / 3.0) ** 2)) < 1e-15


def test_cumulant_shift_and_scale_laws():
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.normal(size=30)
        a = rng.uniform(0.5, 3.0)
        b = rng.uniform(-2.0, 2.0)
        base = first_four_cumulants(z)
        moved = first_four_cumulants(a * z + b)
        assert abs(moved[0] - (a * base[0] + b)) < 1e-12
        for j, (got, want) in enumerate(zip(moved[1:], base[1:]), start=2):
            assert abs(got - a**j * want) < 1e-10 * max(1.0, abs(want))


def test_covariance_summary_is_readonly():
    s = covariance_pca(DataMatrix(np.random.default_rng(0).normal(size=(20, 3))))
    assert isinstance(s, CovarianceSummary)
    for arr in (s.matrix, s.eigenvalues, s.eigenvectors):
        assert not arr.flags.writeable
