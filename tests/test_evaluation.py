"""Unit tests for ROC assembly, summary statistics, and the beta sweep."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from cgf_outliers import (
    DataMatrix,
    DetectionError,
    DetectorConfig,
    LabeledDataset,
    MultistartConfig,
    RocPoint,
    assemble_curve,
    confusion_rates,
    default_beta_grid,
    detect,
    roc_sweep,
)


def test_confusion_rates_hand_case():
    tpr, fpr = confusion_rates([1, 0, 1, 0, 0], [1, 1, 0, 0, 0])
    assert tpr == 0.5
    assert fpr == 1.0 / 3.0


def test_confusion_rates_extremes():
    truth = [1, 1, 0, 0]
    assert confusion_rates([1, 1, 0, 0], truth) == (1.0, 0.0)
    assert confusion_rates([0, 0, 0, 0], truth) == (0.0, 0.0)
    assert confusion_rates([1, 1, 1, 1], truth) == (1.0, 1.0)


def test_confusion_rates_validation():
    with pytest.raises(ValueError):
        confusion_rates([1, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        confusion_rates([1, 0, 1], [1, 1, 1])
    with pytest.raises(ValueError):
        confusion_rates([0, 0, 0], [0, 0, 0])


def test_roc_point_youden_j():
    assert RocPoint(1.0, 0.25, 0.75).youden_j == 0.5


def test_assemble_curve_hand_values():
    curve = assemble_curve([(1.0, 0.1, 0.7), (2.0, 0.3, 0.9)])
    assert abs(curve.auc - 0.86) <= 1e-15
    assert abs(curve.bcv - 0.6) <= 1e-15
    # in doubles 0.9 - 0.3 edges out 0.7 - 0.1, so the second point attains
    assert curve.beta_star == 2.0
    assert [p.beta for p in curve.points] == [1.0, 2.0]


def test_assemble_curve_perfect_and_diagonal():
    perfect = assemble_curve([(1.0, 0.0, 1.0)])
    assert perfect.auc == 1.0
    assert perfect.bcv == 1.0
    assert perfect.beta_star == 1.0

    diag = assemble_curve([(1.0, 0.25, 0.25), (2.0, 0.5, 0.5), (3.0, 0.75, 0.75)])
    assert diag.auc == 0.5
    assert diag.bcv == 0.0
    # chance-level points still attain the anchors' J = 0
    assert diag.beta_star == 1.0


def test_assemble_curve_empty_is_chance():
    curve = assemble_curve([])
    assert curve.points == ()
    assert curve.auc == 0.5
    assert curve.bcv == 0.0
    assert np.isnan(curve.beta_star)


def test_assemble_curve_order_and_duplicate_invariance():
    entries = [(1.0, 0.1, 0.7), (2.0, 0.3, 0.9), (3.0, 0.6, 0.95)]
    forward = assemble_curve(entries)
    shuffled = assemble_curve(entries[::-1])
    assert forward.auc == shuffled.auc
    assert [(p.fpr, p.tpr) for p in forward.points] == [(p.fpr, p.tpr) for p in shuffled.points]

    doubled = assemble_curve(entries + [entries[1]])
    assert doubled.auc == forward.auc


def test_assemble_curve_nan_beta_excluded_from_beta_star():
    curve = assemble_curve([(float("nan"), 0.0, 1.0), (5.0, 0.2, 0.4)])
    assert curve.bcv == 1.0
    assert np.isnan(curve.beta_star)


def test_assemble_curve_rejects_bad_rates():
    with pytest.raises(ValueError):
        assemble_curve([(1.0, -0.1, 0.5)])
    with pytest.raises(ValueError):
        assemble_curve([(1.0, 0.5, 1.2)])


def test_default_beta_grid():
    grid = default_beta_grid()
    assert len(grid) == 39
    assert grid[0] == 0.5
    assert grid[-1] == 10.0
    np.testing.assert_allclose(np.diff(grid), 0.25, rtol=0, atol=1e-12)

    short = default_beta_grid(1.0, 0.5, 2.0)
    np.testing.assert_allclose(short, [1.0, 1.5, 2.0], rtol=0, atol=0)

    with pytest.raises(ValueError):
        default_beta_grid(0.0, 0.25, 10.0)
    with pytest.raises(ValueError):
        default_beta_grid(0.5, -0.25, 10.0)
    with pytest.raises(ValueError):
        default_beta_grid(5.0, 0.25, 1.0)
    inf = float("inf")
    for bad in [(1.0, 1.0, inf), (inf, 1.0, inf), (1.0, inf, 3.0), (float("nan"), 1.0, 2.0)]:
        with pytest.raises(ValueError, match="lo, step and hi must be finite"):
            default_beta_grid(*bad)
    # the grid is counted before it is allocated: 9.5e12 points would need 69 TiB
    assert len(default_beta_grid(1.0, 1e-4, 1.9999)) == 10_000
    for oversized in [(1.0, 1e-4, 2.0), (0.5, 1e-12, 10.0), (1e-300, 1e-300, 1e300)]:
        with pytest.raises(ValueError, match="points, more than 10000"):
            default_beta_grid(*oversized)


def _planted_dataset(seed: int = 7) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((80, 4))
    truth = np.zeros(80, dtype=bool)
    truth[:6] = True
    x[:6] *= 12.0
    return LabeledDataset(DataMatrix(x), truth)


def _sweep_config() -> DetectorConfig:
    return DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=30, seed=3))


def _assert_stage_timings(curve) -> None:
    # one wall-clock figure per stage of the sweep: the shared fit and the removal loops
    assert [stage for stage, _ in curve.timings] == ["fit", "remove"]
    assert all(seconds >= 0.0 for _, seconds in curve.timings)


def test_roc_sweep_single_beta_matches_direct_detect():
    # one fit serves the whole grid: every point and every failure must be
    # what a direct detect at that beta gives
    dataset = _planted_dataset()
    grid = [1e-9, 2.0, 4.0, 6.0]
    for method in ("maxcgf", "pca"):
        config = replace(_sweep_config(), method=method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the failure is recorded, not warned
            curve = roc_sweep(dataset, method, grid, config)

        expected_points, expected_failures = [], []
        for beta in grid:
            try:
                report = detect(dataset.data, replace(config, beta=beta))
            except DetectionError as err:
                expected_failures.append((beta, str(err)))
                continue
            tpr, fpr = confusion_rates(report.outlier_flags, dataset.truth)
            expected_points.append((beta, fpr, tpr))
        assert curve.failures == tuple(expected_failures)
        assert [f[0] for f in curve.failures] == [1e-9]
        assert sorted((p.beta, p.fpr, p.tpr) for p in curve.points) == expected_points
        _assert_stage_timings(curve)


def test_roc_sweep_fits_once_per_dataset(monkeypatch):
    import cgf_outliers.detector as detector_module

    real = detector_module.maximize_cgf
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(detector_module, "maximize_cgf", counted)
    curve = roc_sweep(_planted_dataset(), "maxcgf", [2.0, 3.0, 4.0, 6.0], _sweep_config())
    assert len(curve.points) == 4
    assert len(calls) == 1


def test_roc_sweep_records_failures_without_warning():
    dataset = _planted_dataset()
    # a threshold below every q-score strips all rows and the run errors out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = roc_sweep(dataset, "maxcgf", [1e-9, 4.0], _sweep_config())
    assert len(curve.failures) == 1
    assert curve.failures[0] == (1e-9, "every remaining observation scored above beta; "
                                        "nothing would survive")
    assert len(curve.points) == 1
    assert curve.points[0].beta == 4.0


@pytest.mark.parametrize("method", ["maxcgf", "pca"])
def test_roc_sweep_with_every_beta_failing_has_no_points(method):
    # no flag vector is left to stack: the curve is the anchors alone
    grid = [1e-9, 2e-9]
    curve = roc_sweep(_planted_dataset(), method, grid, _sweep_config())
    assert curve.points == ()
    _assert_stage_timings(curve)  # the stages ran even though no beta completed
    assert [beta for beta, _ in curve.failures] == grid
    assert curve.auc == 0.5 and curve.bcv == 0.0
    assert np.isnan(curve.beta_star)


def test_roc_sweep_grid_validation():
    dataset = _planted_dataset()
    config = _sweep_config()
    with pytest.raises(ValueError):
        roc_sweep(dataset, "maxcgf", [], config)
    with pytest.raises(ValueError):
        roc_sweep(dataset, "maxcgf", [2.0, 2.0], config)
    with pytest.raises(ValueError):
        roc_sweep(dataset, "maxcgf", [3.0, 2.0], config)
    with pytest.raises(ValueError):
        roc_sweep(dataset, "bogus", [2.0], config)


def test_roc_sweep_pca_method():
    dataset = _planted_dataset()
    curve = roc_sweep(dataset, "pca", [3.0, 6.0], _sweep_config())
    assert len(curve.points) == 2
    assert 0.0 <= curve.auc <= 1.0
