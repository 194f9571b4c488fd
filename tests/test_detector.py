"""Unit tests for the detection loop, q-scores, and the PCA baseline."""

from dataclasses import fields, replace

import numpy as np
import pytest

from cgf_outliers import (
    DataMatrix,
    DegenerateProjectionError,
    DetectionError,
    DetectionMethod,
    DetectorConfig,
    DirectionTrace,
    MultistartConfig,
    SimulationSpec,
    covariance_pca,
    center,
    detect,
    fit,
    inject_outliers,
    q_scores,
    remove,
    select_radius,
)


def test_q_scores_hand_values():
    np.testing.assert_array_equal(q_scores([-1.0, 0.0, 1.0]), [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(q_scores([0.0, 1.0, 2.0, 3.0, 10.0]), [2.0, 1.0, 0.0, 1.0, 8.0])


def test_q_scores_degenerate_and_short():
    with pytest.raises(DegenerateProjectionError):
        q_scores([5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        q_scores([1.0, 2.0])


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(beta=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(beta=3.0, target_eps=1.0)
    with pytest.raises(ValueError):
        DetectorConfig(beta=3.0, method="nonsense")
    cfg = DetectorConfig(beta=3.0, method="pca")
    assert cfg.method is DetectionMethod.PCA_BASELINE


def test_detect_requires_ten_rows():
    with pytest.raises(ValueError):
        detect(DataMatrix(np.random.default_rng(0).normal(size=(9, 2))), DetectorConfig(beta=3.0))


def test_quiet_cloud_yields_no_flags():
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((200, 2))
    cloud = cloud[np.abs(cloud).max(axis=1) < 4.0][:150]
    report = detect(DataMatrix(cloud), DetectorConfig(beta=10.0, multistart=MultistartConfig(n_starts=30, seed=1)))
    assert report.n_flagged == 0
    # threshold above every score means one scoring pass per direction
    for trace in report.directions_used:
        assert trace.removed == 0


def test_planted_extreme_row_is_flagged():
    rng = np.random.default_rng(2)
    cloud = rng.standard_normal((200, 2))
    cloud[57] = (20.0, 20.0)
    report = detect(
        DataMatrix(cloud), DetectorConfig(beta=5.0, multistart=MultistartConfig(n_starts=30, seed=2))
    )
    assert report.outlier_flags[57]


def test_detect_flags_planted_block():
    spec = SimulationSpec(family="std_normal", n=10, T=200, seed=3)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=60, seed=3))
    report = detect(ds.data, cfg)
    planted = np.flatnonzero(ds.truth)
    hit = report.outlier_flags[planted].mean()
    assert hit >= 0.8
    assert report.n_flagged < 200  # never everything


def test_report_consistency():
    spec = SimulationSpec(family="std_normal", n=8, T=150, seed=5)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=2.5, multistart=MultistartConfig(n_starts=40, seed=5))
    report = detect(ds.data, cfg)
    assert report.outlier_flags.shape == (150,)
    assert report.q_scores.shape == (150,)
    assert report.n_flagged == int(report.outlier_flags.sum())
    assert report.beta == 2.5
    assert len(report.directions_used) >= 1
    # flagged rows were scored above beta when they were removed
    assert np.all(report.q_scores[report.outlier_flags] > 2.5)
    # kurtosis traces fall strictly until the terminating entry
    for trace in report.directions_used:
        kur = trace.kurtosis_trace
        for a, b in zip(kur[:-2], kur[1:-1]):
            assert b < a
    # the radius comes from the original centered data, selected once
    lam1 = covariance_pca(center(ds.data)).lambda1
    assert report.r_used == select_radius(lam1, 150, 0.1).r_bar


def test_detect_is_deterministic():
    spec = SimulationSpec(family="std_normal", n=6, T=120, seed=7)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=40, seed=7))
    a = detect(ds.data, cfg)
    b = detect(ds.data, cfg)
    assert np.array_equal(a.outlier_flags, b.outlier_flags)
    assert np.array_equal(a.q_scores, b.q_scores, equal_nan=True)
    assert a.iterations_total == b.iterations_total


def test_location_shift_leaves_flags_unchanged():
    spec = SimulationSpec(family="std_normal", n=6, T=80, seed=4)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=2.5, multistart=MultistartConfig(n_starts=40, seed=4))
    base = detect(ds.data, cfg)
    shift = np.array([5.0, -3.0, 2.0, 0.0, 1.0, 9.0])
    moved = detect(DataMatrix(ds.data.values + shift), cfg)
    assert np.array_equal(base.outlier_flags, moved.outlier_flags)
    # centering absorbs the shift up to summation round-off
    assert np.nanmax(np.abs(base.q_scores - moved.q_scores)) < 1e-12


def test_global_scale_equivariance():
    # q-scores are scale-free and the radius scales as 1/sqrt(lambda1), but
    # the ascent trajectory is not scale-invariant (the unnormalized step
    # scales with the data), so the fixed points must be resolved tightly
    # before the 1e-9 q-score band holds
    spec = SimulationSpec(family="std_normal", n=6, T=80, seed=4)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(
        beta=2.5, multistart=MultistartConfig(n_starts=40, seed=4, tolerance=1e-11)
    )
    base = detect(ds.data, cfg)
    scaled = detect(DataMatrix(4.0 * ds.data.values), cfg)
    assert np.array_equal(base.outlier_flags, scaled.outlier_flags)
    assert np.nanmax(np.abs(base.q_scores - scaled.q_scores)) < 1e-9


def test_detection_error_when_everything_scores_above_beta():
    rng = np.random.default_rng(0)
    data = DataMatrix(rng.normal(size=(10, 2)))  # even length: every q > 0
    cfg = DetectorConfig(beta=1e-12, multistart=MultistartConfig(n_starts=10, seed=0))
    with pytest.raises(DetectionError):
        detect(data, cfg)


def test_zero_mad_direction_is_skipped_with_warning():
    # 1-D data forces the projection; most entries tie at the median, so the
    # MAD is zero while the variance is not
    x = np.array([0.0] * 7 + [100.0, -100.0, 90.0, -90.0, 50.0])[:, None]
    report = detect(
        DataMatrix(x), DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=20, seed=1))
    )
    assert any("zero MAD" in w for w in report.warnings)
    assert all(t.skipped for t in report.directions_used)
    assert report.n_flagged == 0


def test_pca_baseline_uses_single_direction():
    spec = SimulationSpec(family="std_normal", n=8, T=150, seed=6)
    ds = inject_outliers(spec)
    report = detect(ds.data, DetectorConfig(beta=3.0, method=DetectionMethod.PCA_BASELINE))
    assert report.method is DetectionMethod.PCA_BASELINE
    assert len(report.directions_used) == 1
    assert report.directions_used[0].cgf_value is None
    assert 0 < report.n_flagged < 150


def test_pca_baseline_detects_planted_block():
    hits = []
    for seed in range(3):
        spec = SimulationSpec(family="std_normal", n=10, T=200, seed=seed)
        ds = inject_outliers(spec)
        report = detect(ds.data, DetectorConfig(beta=3.0, method="pca"))
        hits.append(report.outlier_flags[ds.truth].mean())
    assert np.mean(hits) > 0.5


def test_flag_count_monotone_in_beta_on_average():
    # subset nesting can break under re-estimation; the count comparison is
    # the stable form of threshold monotonicity
    spec = SimulationSpec(family="std_normal", n=10, T=200, seed=8)
    ds = inject_outliers(spec)
    counts = []
    for beta in (2.0, 3.5, 6.0):
        cfg = DetectorConfig(beta=beta, multistart=MultistartConfig(n_starts=40, seed=8))
        counts.append(detect(ds.data, cfg).n_flagged)
    assert counts[0] >= counts[1] >= counts[2]


def test_nonconverged_refine_is_reported(monkeypatch):
    import cgf_outliers.detector as detector_module

    real = detector_module.refine_direction
    calls = []

    def first_fails(*args):
        theta, used, converged = real(*args)
        calls.append(used)
        return theta, used, converged and len(calls) > 1

    monkeypatch.setattr(detector_module, "refine_direction", first_fails)
    ds = inject_outliers(SimulationSpec(family="std_normal", n=4, T=100, seed=3))
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=20, seed=3))
    report = detect(ds.data, cfg)
    assert len(calls) >= 1
    expected = f"1 re-estimation(s) hit max_iters={cfg.multistart.max_iters} without converging"
    assert report.warnings.count(expected) == 1
    monkeypatch.setattr(detector_module, "refine_direction", real)
    assert not any("re-estimation" in w for w in detect(ds.data, cfg).warnings)


def _assert_same_report(a, b):
    assert np.array_equal(a.outlier_flags, b.outlier_flags)
    assert np.array_equal(np.isnan(a.q_scores), np.isnan(b.q_scores))
    assert np.array_equal(a.q_scores, b.q_scores, equal_nan=True)
    assert a.iterations_total == b.iterations_total
    assert a.warnings == b.warnings
    assert a.r_used == b.r_used
    assert (a.beta, a.method) == (b.beta, b.method)
    assert len(a.directions_used) == len(b.directions_used)
    for ta, tb in zip(a.directions_used, b.directions_used):
        for f in fields(DirectionTrace):
            va, vb = getattr(ta, f.name), getattr(tb, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name


def test_remove_on_one_fit_matches_detect_at_each_beta():
    # T=40 is far below what the 10% target needs, so the fit's infeasible
    # radius warning must open every report
    ds = inject_outliers(SimulationSpec(family="std_normal", n=4, T=40, seed=2))
    for method in ("maxcgf", "pca"):
        cfg = DetectorConfig(
            beta=3.0, method=method, multistart=MultistartConfig(n_starts=20, seed=2)
        )
        fitted = fit(ds.data, cfg)
        assert not fitted.radius.feasible
        for beta in (1.5, 2.5, 4.0):
            report = remove(fitted, beta)
            assert "unattainable" in report.warnings[0]
            assert report.n_flagged > 0
            _assert_same_report(report, detect(ds.data, replace(cfg, beta=beta)))
            _assert_same_report(report, remove(fitted, beta))
        with pytest.raises(ValueError):
            remove(fitted, 0.0)
