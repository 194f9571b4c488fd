"""ROC construction over a threshold grid: AUC, Youden's J, BCV, beta*.

The detector is fitted once per dataset and its removal loop run at every
beta, so curve differences reflect only the threshold. Empirical curves need
not be monotone (the iterative re-estimation can move mass around); points
are sorted by FPR and integrated by the trapezoid rule between the (0,0) and
(1,1) anchors, with no envelope repair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .detector import DetectionError, DetectionMethod, FitConfig, fit, remove_many
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
    message) for grid points whose removal loop errored; timings holds the
    wall-clock seconds of the sweep's two stages, (("fit", s), ("remove", s)):
    the one fit the betas share, and `remove_many`'s removal loops of them all.
    """

    points: tuple[RocPoint, ...]
    auc: float
    bcv: float
    beta_star: float
    failures: tuple[tuple[float, str], ...] = ()
    timings: tuple[tuple[str, float], ...] = ()


def confusion_rates(flags, truth) -> tuple[float, float]:
    """(TPR, FPR) of a flag vector against ground truth.

    TPR = flagged outliers / all outliers; FPR = flagged ordinary rows / all
    ordinary rows. The truth vector must contain both classes.
    """
    flags = np.asarray(flags, dtype=bool).ravel()
    truth = np.asarray(truth, dtype=bool).ravel()
    if flags.shape != truth.shape:
        raise ValueError("flags and truth must have equal length")
    [tpr], [fpr] = _rates(flags[None], truth)
    return tpr, fpr


def _rates(flags: np.ndarray, truth: np.ndarray) -> tuple[list[float], list[float]]:
    """The TPRs and FPRs of the rows of a k x T flag array against a length-T truth vector.

    Rows that flag equally many rows of a class share one float object: a
    sweep keeps every point.
    """
    pos = np.count_nonzero(truth)
    neg = truth.size - pos
    if pos == 0 or neg == 0:
        raise ValueError("truth must contain both outliers and ordinary rows")
    tp = np.count_nonzero(flags & truth, axis=1).tolist()
    fp = np.count_nonzero(flags & ~truth, axis=1).tolist()
    tpr, fpr = {c: c / pos for c in tp}, {c: c / neg for c in fp}
    return [tpr[c] for c in tp], [fpr[c] for c in fp]


def assemble_curve(
    entries,
    failures: tuple[tuple[float, str], ...] = (),
    timings: tuple[tuple[str, float], ...] = (),
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


# A sweep holds a B x T survivor mask and a B x T score array for its B betas,
# so a grid with more points than this is refused before anything is allocated.
_MAX_GRID_POINTS = 10_000


def default_beta_grid(lo: float = 0.5, step: float = 0.25, hi: float = 10.0) -> np.ndarray:
    """Equally spaced thresholds lo, lo+step, ..., up to hi inclusive, at most 10,000."""
    if not np.all(np.isfinite([lo, step, hi])):
        raise ValueError("lo, step and hi must be finite")
    if not (lo > 0 and step > 0 and hi >= lo):
        raise ValueError("need 0 < lo <= hi and step > 0")
    count = np.floor((hi - lo) / step + 1e-9) + 1  # inf if the quotient overflows
    if count > _MAX_GRID_POINTS:
        raise ValueError(f"the grid has {count:.6g} points, more than {_MAX_GRID_POINTS}")
    return lo + step * np.arange(int(count))


def roc_sweep(
    dataset: LabeledDataset,
    method: DetectionMethod | str,
    beta_grid,
    base_config: FitConfig = FitConfig(),
) -> RocCurve:
    """Fit once, run every beta's removal loop as a row of `remove_many`, and assemble the curve.

    It fits base_config with `method` in place of its own, and every beta reads
    that fit; `remove_many` gives each beta what `remove` gives it alone, so each
    point equals a direct `detect` at that beta. A beta whose removal loop raises
    a detection error is left off the curve and only recorded in RocCurve.failures.
    """
    grid = [float(b) for b in np.asarray(beta_grid, dtype=float).ravel()]
    if not grid:
        raise ValueError("beta_grid must be nonempty")
    if any(b2 <= b1 for b1, b2 in zip(grid, grid[1:])):
        raise ValueError("beta_grid must be strictly ascending")

    start = time.perf_counter()
    fitted = fit(dataset.data, replace(base_config, method=method))
    fitted_at = time.perf_counter()
    results = remove_many(fitted, grid)
    timings = (("fit", fitted_at - start), ("remove", time.perf_counter() - fitted_at))

    failures = [(beta, str(r)) for beta, r in zip(grid, results) if isinstance(r, DetectionError)]
    done = [(beta, r) for beta, r in zip(grid, results) if not isinstance(r, DetectionError)]
    # bool and (0, T) when every beta failed: _rates takes & of the stack
    stack = np.array([r.outlier_flags for _, r in done], dtype=bool).reshape(
        len(done), dataset.data.n_obs)
    tpr, fpr = _rates(stack, dataset.truth)
    entries = [(beta, f, t) for (beta, _), f, t in zip(done, fpr, tpr)]

    return assemble_curve(entries, tuple(failures), timings)
