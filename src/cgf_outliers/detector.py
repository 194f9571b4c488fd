"""Projection-pursuit outlier detection with a kurtosis-guarded removal loop.

Detection runs in two steps. `fit` does everything that does not depend on
the threshold beta: it centers the data once, picks the projection radius
from the relative-error rule, and pairs candidate directions (multistart CGF
maxima, or PC1 for the baseline) with the method's re-estimator. `remove`
then runs the removal loop at one beta, over the directions in
CGF-descending order. Each direction makes passes, and every pass takes the
same steps:

1. project the m surviving rows on the direction, giving Z; a direction is
   reached only while at least 3 rows survive;
2. take the kurtosis of Z; a constant projection ends the direction;
3. test it: the first pass skips a direction whose kurtosis is at most
   3 + 3 * sqrt(24 / m) (the normal value plus three standard errors), since
   it would only strip the normal tail beyond beta MADs; a later pass ends
   the direction unless the kurtosis fell strictly below the previous pass's;
4. score every row by q_t = |z_t - median(Z)| / MAD(Z) and remove the rows
   above beta; the direction ends if fewer than 3 rows remain, and is
   re-estimated on them otherwise, so every pass scores at least 3 rows.

A pass that removes nothing ends the direction, the first pass included,
since the rows it would re-estimate on are unchanged. Removals accumulate
across directions, and every row scored above beta is reported as an outlier
of the original matrix. `detect` is `remove(fit(data, config), config.beta)`;
a beta sweep fits once and removes once per beta.

The CGF ascent runs on the centered data divided by sqrt(lambda1), at radius
r * sqrt(lambda1): G and the q-scores are unchanged, and the ascent's path no
longer depends on the scale of the data.

The pca re-estimate is PC1 of the survivors' covariance, taken by `eigh` from
a centered scatter that one `remove` call keeps up to date: the fit computes
the rows' mean and scatter once, by two passes, and each pass downdates both
by the k rows it dropped at O(k n^2), instead of reading all m survivors.
Removing rows that dominate the scatter would cancel its digits, so once its
trace falls below 1e-3 of its value at the last two-pass computation, the
re-estimate computes mean and scatter again by two passes over the survivors.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import cgf
from .cgf import (
    MultistartConfig,
    RadiusSelection,
    maximize_cgf,
    refine_direction,
    select_radius,
)
from .linalg_stats import (
    DataMatrix,
    DegenerateInputError,
    _readonly,
    center,
    covariance_pca,
    kurtosis,
    median_and_mad,
)

__all__ = [
    "DetectionMethod",
    "DetectorConfig",
    "DirectionTrace",
    "DetectionReport",
    "FittedDetector",
    "DetectionError",
    "q_scores",
    "fit",
    "remove",
    "detect",
]

_GATE_SE = 3.0  # standard errors of the normal kurtosis above 3 a direction must reach
# A downdate subtracts terms of the size of the scatter it started from, so it
# errs by about 1e-16 of the trace at the last two-pass computation. The pca
# re-estimate recomputes once the trace falls below this share of that value,
# which keeps the error near 1e-12 of the current trace. Without it, dropping
# one row scaled by 1e6 moved q-scores by 1e-4, and one scaled by 1e8 changed flags.
_RECOMPUTE_BELOW = 1e-3


class DetectionError(RuntimeError):
    """The removal loop ate every remaining observation."""


class DetectionMethod(str, enum.Enum):
    """Which directions drive the removal loop."""

    MAX_CGF = "maxcgf"
    PCA_BASELINE = "pca"


@dataclass(frozen=True)
class DetectorConfig:
    beta: float
    target_eps: float = 0.1
    multistart: MultistartConfig = MultistartConfig()
    method: DetectionMethod = DetectionMethod.MAX_CGF

    def __post_init__(self) -> None:
        if not (0 < self.beta < math.inf):
            raise ValueError("beta must be positive and finite")
        if not (0.0 < self.target_eps < 1.0):
            raise ValueError("target_eps must lie in (0, 1)")
        object.__setattr__(self, "method", DetectionMethod(self.method))


@dataclass(eq=False)
class DirectionTrace:
    """What happened along one candidate direction.

    kurtosis_trace starts with the projection's kurtosis on the rows alive when
    the direction is reached and gains one entry per re-estimate. skipped means
    no row was removed along it, and then it was never re-estimated. note says
    why it ended early: "Gaussian projection" (the first kurtosis failed the
    gate), "no score above beta" (the first pass removed nothing) or "constant
    projection" (a pass, the first or a later one, had no kurtosis).
    """

    initial_direction: np.ndarray
    final_direction: np.ndarray
    cgf_value: float | None
    kurtosis_trace: list[float] = field(default_factory=list)
    removed: int = 0
    refine_iterations: int = 0
    note: str | None = None

    @property
    def skipped(self) -> bool:
        return self.removed == 0


@dataclass(eq=False)
class DetectionReport:
    """Flags on the original rows plus enough trace to explain them.

    q_scores holds each observation's last computed score: the score that
    removed it, or its score in the final surviving projection. Rows that were
    never scored keep NaN. outlier_flags is q_scores > beta.
    iterations_total counts every ascent map evaluation spent (multistart
    updates plus re-estimation kernel calls in float32 and float64,
    backtracking trials included; forming a Hessian is not a call; the PCA
    baseline counts one per re-estimation). r_used is the projection
    radius. A re-estimation that hits the refine's call limit (10,000)
    without converging keeps its last iterate; their number is reported in
    warnings.
    """

    outlier_flags: np.ndarray
    q_scores: np.ndarray
    directions_used: list[DirectionTrace]
    r_used: float
    iterations_total: int
    beta: float
    method: DetectionMethod
    warnings: list[str] = field(default_factory=list)

    @property
    def n_flagged(self) -> int:
        return int(self.outlier_flags.sum())


@dataclass(frozen=True, eq=False)
class FittedDetector:
    """The beta-free part of detection; `remove` reads it and never changes it.

    candidates are (direction, CGF value or None) in loop order. reestimator
    is called once per `remove` call and returns that call's re-estimate,
    which maps the surviving rows (at least 3), the rows the pass just
    dropped and a direction to (direction, evaluations, converged). The maxcgf
    re-estimate ignores the dropped rows. The pca one starts from the rows'
    mean and centered scatter, computed once by two passes, downdates both by
    each pass's dropped rows, and recomputes them by two passes once the
    scatter's trace falls below 1e-3 of its last two-pass value. iterations
    and warnings open every report.
    """

    method: DetectionMethod
    centered: DataMatrix
    radius: RadiusSelection
    candidates: tuple[tuple[np.ndarray, float | None], ...]
    reestimator: Callable[[], Callable[[np.ndarray, np.ndarray, np.ndarray],
                                      tuple[np.ndarray, int, bool]]]
    iterations: int
    warnings: tuple[str, ...]


def q_scores(z) -> np.ndarray:
    """Per-observation outlyingness |z_t - median| / MAD of a projection."""
    arr = np.asarray(z, dtype=float).ravel()
    if arr.size < 3:
        raise ValueError("q-scores need at least 3 observations")
    med, mad = median_and_mad(arr)
    if mad == 0.0:
        raise DegenerateInputError("projection has zero MAD")
    return np.abs(arr - med) / mad


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # deterministic representative of the +-v pair: largest-|entry| positive
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def _scaled_rows(Y: np.ndarray, scale: float) -> np.ndarray:
    # Y / scale as a T x n view over an n x T array: the CGF kernel's layout, made once
    return np.divide(Y.T, scale, order="C").T


def _centered_scatter(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the rows' mean and centered scatter (Y - mean)^T (Y - mean), by two passes
    mean = Y.mean(axis=0)
    dev = Y - mean
    return mean, dev.T @ dev


def _pc1_reestimate(mean: np.ndarray, scatter: np.ndarray):
    """One `remove` call's PCA re-estimate, starting from the fit rows' mean and scatter.

    Dropping the k rows G of m leaves m' = m - k; with D = G - mean and
    s = sum of D's rows, the survivors' scatter is scatter - D^T D - s s^T / m'
    and their mean is mean - s / m' (Chan, Golub & LeVeque, The American
    Statistician 37(3), 1983), at O(k n^2) where recomputing costs O(m n^2).
    The state describes the survivors only if it sees every pass that drops
    rows: `remove` re-estimates after each, except one that leaves fewer
    than 3 rows, after which it re-estimates no more.
    """
    last_trace = np.trace(scatter)  # at the last two-pass computation

    def reestimate(Y, dropped, theta):
        nonlocal mean, scatter, last_trace
        m = Y.shape[0]
        dev = dropped - mean
        s = dev.sum(axis=0)
        scatter = scatter - dev.T @ dev - np.outer(s, s) / m
        mean = mean - s / m
        if np.trace(scatter) < _RECOMPUTE_BELOW * last_trace:
            mean, scatter = _centered_scatter(Y)
            last_trace = np.trace(scatter)
        return _fix_sign(np.linalg.eigh(scatter / (m - 1))[1][:, -1]), 1, True

    return reestimate


def fit(data: DataMatrix, config: DetectorConfig) -> FittedDetector:
    """Center, select the radius, and pair the candidates with their re-estimator.

    maxcgf: multistart CGF maxima, re-estimated by a warm-started ascent.
    pca: PC1, re-estimated as PC1 of the cleaned rows from a downdated scatter.
    config.beta is not read.
    """
    T = data.n_obs
    if T < 10:
        raise ValueError("detection needs at least 10 observations")

    centered = center(data)
    cov = covariance_pca(centered)
    lambda1 = cov.lambda1
    if lambda1 <= 0:
        raise DegenerateInputError("data has no variance to project")
    r_sel = select_radius(lambda1, T, config.target_eps)
    r = r_sel.r_bar

    warnings: list[str] = []
    if not r_sel.feasible:
        warnings.append(
            f"target eps {config.target_eps:g} unattainable at T={T}; "
            f"using the variance-minimizing radius (eps {r_sel.eps_achieved:.4g})"
        )
    iterations = 0
    if config.method is DetectionMethod.MAX_CGF:
        scale = math.sqrt(lambda1)  # the ascent sees unit-lambda1 data at radius r * scale
        result = maximize_cgf(_scaled_rows(centered.values, scale), r * scale, config.multistart)
        candidates = tuple(
            (result.directions[k], float(result.cgf_values[k])) for k in range(len(result))
        )
        iterations = result.total_iterations
        if result.ascent_violations:
            warnings.append(
                f"{result.ascent_violations} ascent iterations decreased the objective"
            )

        def reestimate(Y, dropped, theta):
            return refine_direction(_scaled_rows(Y, scale), r * scale, theta)

        def reestimator():
            return reestimate

    else:
        candidates = ((_readonly(_fix_sign(cov.pc1)), None),)
        mean, scatter = (_readonly(a) for a in _centered_scatter(centered.values))

        def reestimator():
            return _pc1_reestimate(mean, scatter)

    return FittedDetector(config.method, centered, r_sel, candidates, reestimator, iterations,
                          tuple(warnings))


def remove(fitted: FittedDetector, beta: float) -> DetectionReport:
    """Run the removal loop at threshold beta; one fit serves any number of betas."""
    if not (0 < beta < math.inf):
        raise ValueError("beta must be positive and finite")
    warnings = list(fitted.warnings)
    nonconverged = 0
    reestimate = fitted.reestimator()

    scores = np.full(fitted.centered.n_obs, np.nan)
    alive = np.arange(scores.size)
    Y = fitted.centered.values
    traces: list[DirectionTrace] = []

    for theta0, cgf_value in fitted.candidates:
        if alive.size < 3:
            warnings.append(f"{alive.size} rows remain; "
                            f"stopping before direction {len(traces) + 1}")
            break
        trace = DirectionTrace(initial_direction=theta0, final_direction=theta0,
                               cgf_value=cgf_value)
        traces.append(trace)
        theta = theta0
        while True:  # one pass; pass 0 is the one before any row is removed
            z = Y @ theta
            try:
                kur = kurtosis(z)
            except ValueError:  # zero variance, or a non-finite direction
                trace.note = "constant projection"
                warnings.append(f"direction {len(traces)} ended: constant projection")
                break
            trace.kurtosis_trace.append(kur)
            if not trace.removed:
                if kur <= 3.0 + _GATE_SE * math.sqrt(24.0 / alive.size):
                    trace.note = "Gaussian projection"
                    break
            elif not kur < trace.kurtosis_trace[-2]:
                break  # kurtosis stopped falling: this direction is exhausted

            try:
                q = q_scores(z)
            except DegenerateInputError:
                trace.note = "zero MAD"
                warnings.append(f"direction {len(traces)} stopped: zero MAD projection")
                break
            scores[alive] = q

            out = q > beta  # strict: ties at beta stay
            if bool(out.all()):
                raise DetectionError(
                    "every remaining observation scored above beta; nothing would survive"
                )
            if not bool(out.any()):  # nothing changed to re-estimate on
                if not trace.removed:
                    trace.note = "no score above beta"
                break
            trace.removed += int(out.sum())
            dropped, Y, alive = Y[out], Y[~out], alive[~out]
            if alive.size < 3:
                trace.note = "too few rows to keep scoring"
                break

            theta, used, converged = reestimate(Y, dropped, theta)
            trace.refine_iterations += used
            nonconverged += not converged
            trace.final_direction = theta

    if nonconverged:
        warnings.append(
            f"{nonconverged} re-estimation(s) hit max_iters={cgf._MAX_ITERS} without converging"
        )
    return DetectionReport(
        outlier_flags=scores > beta,
        q_scores=scores,
        directions_used=traces,
        r_used=fitted.radius.r_bar,
        iterations_total=fitted.iterations + sum(t.refine_iterations for t in traces),
        beta=beta,
        method=fitted.method,
        warnings=warnings,
    )


def detect(data: DataMatrix, config: DetectorConfig) -> DetectionReport:
    """Fit and run the removal loop at config.beta in one call."""
    return remove(fit(data, config), config.beta)
