"""Unit tests for ROC assembly, summary statistics, and the beta sweep."""

import numpy as np
import pytest

from cgf_outliers import (
    DataMatrix,
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


def _planted_dataset(seed: int = 7) -> LabeledDataset:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((80, 4))
    truth = np.zeros(80, dtype=bool)
    truth[:6] = True
    x[:6] *= 12.0
    return LabeledDataset(DataMatrix(x), truth)


def _sweep_config() -> DetectorConfig:
    return DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=30, seed=3))


def test_roc_sweep_single_beta_matches_direct_detect():
    dataset = _planted_dataset()
    config = _sweep_config()
    curve = roc_sweep(dataset, "maxcgf", [4.0], config)

    from dataclasses import replace

    report = detect(dataset.data, replace(config, beta=4.0))
    tpr, fpr = confusion_rates(report.outlier_flags, dataset.truth)
    assert len(curve.points) == 1
    assert curve.points[0].beta == 4.0
    assert curve.points[0].tpr == tpr
    assert curve.points[0].fpr == fpr
    assert len(curve.timings) == 1
    assert curve.timings[0][0] == 4.0
    assert curve.failures == ()


def test_roc_sweep_records_failures_with_warning():
    dataset = _planted_dataset()
    # a threshold below every q-score strips all rows and the run errors out
    with pytest.warns(UserWarning, match="failed"):
        curve = roc_sweep(dataset, "maxcgf", [1e-9, 4.0], _sweep_config())
    assert len(curve.failures) == 1
    assert curve.failures[0][0] == 1e-9
    assert len(curve.points) == 1
    assert curve.points[0].beta == 4.0


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
