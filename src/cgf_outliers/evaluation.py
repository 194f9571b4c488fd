"""ROC construction over a threshold grid: AUC, Youden's J, BCV, beta*.

The detector is fitted once per dataset and its removal loop run at every
beta, so curve differences reflect only the threshold. Empirical curves need
not be monotone (the iterative re-estimation can move mass around); points
are sorted by FPR and integrated by the trapezoid rule between the (0,0) and
(1,1) anchors, with no envelope repair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectionError, DetectionMethod, DetectorConfig, fit, remove_many
from .detector import detect  # noqa: F401  (unused; perfbench/tracer.py wraps evaluation.detect)
from .distributions import LabeledDataset

__all__ = [
    "RocPoint",
    "RocCurve",
    "confusion_rates",
    "assemble_curve",
    "default_beta_grid",
    "roc_sweep",
]


@dataclass(frozen=True, slots=True)  # slots: a sweep keeps one point per dataset and beta
class RocPoint:
    beta: float  # NaN for points not tied to a threshold
    fpr: float
    tpr: float

    @property
    def youden_j(self) -> float:
        return self.tpr - self.fpr


@dataclass(frozen=True, eq=False)
class RocCurve:
    """Swept operating points (FPR-ascending) with the derived summaries.

    bcv is the largest Youden's J over the curve, where the implicit (0,0)
    and (1,1) anchors contribute J = 0; beta_star is the smallest beta
    attaining it (NaN when only an anchor does). failures lists (beta,
    message) for grid points whose removal loop errored; timings lists one
    (beta, seconds) pair per completed beta. `remove_many` advances every
    unfinished beta by one pass per step and splits each step's wall clock
    equally among the betas it advanced, so a beta's seconds are its share of
    the steps it took part in. They exclude the fit the betas share.
    """

    points: tuple[RocPoint, ...]
    auc: float
    bcv: float
    beta_star: float
    failures: tuple[tuple[float, str], ...] = ()
    timings: tuple[tuple[float, float], ...] = ()


def confusion_rates(flags, truth) -> tuple[float, float]:
    """(TPR, FPR) of a flag vector against ground truth.

    TPR = flagged outliers / all outliers; FPR = flagged ordinary rows / all
    ordinary rows. The truth vector must contain both classes.
    """
    flags = np.asarray(flags, dtype=bool).ravel()
    truth = np.asarray(truth, dtype=bool).ravel()
    if flags.shape != truth.shape:
        raise ValueError("flags and truth must have equal length")
    pos = int(truth.sum())
    neg = truth.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("truth must contain both outliers and ordinary rows")
    tpr = float((flags & truth).sum()) / pos
    fpr = float((flags & ~truth).sum()) / neg
    return tpr, fpr


def assemble_curve(
    entries,
    failures: tuple[tuple[float, str], ...] = (),
    timings: tuple[tuple[float, float], ...] = (),
) -> RocCurve:
    """Build a RocCurve from (beta, fpr, tpr) triples.

    Sorts by (fpr, tpr), anchors at (0,0) and (1,1) for integration, and
    derives AUC / BCV / beta*. AUC is therefore invariant to the insertion
    order and to duplicate points (zero-width trapezoids).
    """
    points = tuple(
        RocPoint(float(b), float(f), float(t))
        for b, f, t in sorted(entries, key=lambda e: (e[1], e[2]))
    )
    for p in points:
        if not (0.0 <= p.fpr <= 1.0 and 0.0 <= p.tpr <= 1.0):
            raise ValueError(f"rates must lie in [0, 1], got {p}")

    xy = [(0.0, 0.0)] + [(p.fpr, p.tpr) for p in points] + [(1.0, 1.0)]
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(xy, xy[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0

    bcv = 0.0  # the anchors' J
    for p in points:
        if p.youden_j > bcv:
            bcv = p.youden_j
    attaining = [p.beta for p in points if p.youden_j == bcv and not np.isnan(p.beta)]
    beta_star = min(attaining) if attaining else float("nan")

    return RocCurve(
        points=points,
        auc=auc,
        bcv=bcv,
        beta_star=beta_star,
        failures=tuple(failures),
        timings=tuple(timings),
    )


def default_beta_grid(lo: float = 0.5, step: float = 0.25, hi: float = 10.0) -> np.ndarray:
    """Equally spaced thresholds lo, lo+step, ..., up to hi inclusive."""
    if not np.all(np.isfinite([lo, step, hi])):
        raise ValueError("lo, step and hi must be finite")
    if not (lo > 0 and step > 0 and hi >= lo):
        raise ValueError("need 0 < lo <= hi and step > 0")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def roc_sweep(
    dataset: LabeledDataset,
    method: DetectionMethod | str,
    beta_grid,
    base_config: DetectorConfig,
) -> RocCurve:
    """Fit once, run every beta's removal loop as a row of `remove_many`, and assemble the curve.

    Every beta reads the same fit, and `remove_many` gives each beta what
    `remove` gives it alone, so each point equals a direct `detect` at that
    beta. A beta whose removal loop raises a detection error is dropped from
    the curve and recorded only in RocCurve.failures; nothing is warned.
    """
    grid = [float(b) for b in np.asarray(beta_grid, dtype=float).ravel()]
    if not grid:
        raise ValueError("beta_grid must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta_grid must be strictly ascending")

    entries: list[tuple[float, float, float]] = []
    failures: list[tuple[float, str]] = []
    timings: list[tuple[float, float]] = []

    fitted = fit(dataset.data, replace(base_config, method=method))
    for beta, (result, seconds) in zip(grid, remove_many(fitted, grid)):
        if isinstance(result, DetectionError):
            failures.append((beta, str(result)))
            continue
        tpr, fpr = confusion_rates(result.outlier_flags, dataset.truth)
        entries.append((beta, fpr, tpr))
        timings.append((beta, seconds))

    return assemble_curve(entries, tuple(failures), tuple(timings))
