"""Projection-pursuit outlier detection with a kurtosis-guarded removal loop.

Detection runs in two steps. `fit` does everything that does not depend on
the threshold beta: it centers the data once, picks the projection radius
from the relative-error rule, and pairs candidate directions (multistart CGF
maxima, or PC1 for the baseline) with the method's re-estimator. `remove`
then runs the removal loop at one beta. For each direction, taken in
CGF-descending order, observations are scored by

    q_t = |z_t - median(Z)| / MAD(Z)

on the projection Z and removed while they exceed the threshold beta; after
each removal the direction is re-estimated on the surviving rows and the loop
continues only while the projection's kurtosis strictly decreases. Removals
accumulate across directions, and every removed row is reported as an outlier
of the original matrix. `detect` is `remove(fit(data, config), config.beta)`;
a beta sweep fits once and removes once per beta.
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

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
    "DegenerateProjectionError",
    "DetectionError",
    "q_scores",
    "fit",
    "remove",
    "detect",
]


class DegenerateProjectionError(ValueError):
    """A projection with MAD = 0 carries no outlyingness information."""


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
        if not (self.beta > 0):
            raise ValueError("beta must be positive")
        if not (0.0 < self.target_eps < 1.0):
            raise ValueError("target_eps must lie in (0, 1)")
        object.__setattr__(self, "method", DetectionMethod(self.method))


@dataclass(eq=False)
class DirectionTrace:
    """What happened along one candidate direction."""

    initial_direction: np.ndarray
    final_direction: np.ndarray
    cgf_value: float | None
    kurtosis_trace: list[float] = field(default_factory=list)
    removed: int = 0
    refine_iterations: int = 0
    skipped: bool = False
    note: str | None = None


@dataclass(eq=False)
class DetectionReport:
    """Flags on the original rows plus enough trace to explain them.

    q_scores holds each observation's last computed score: the score that
    removed it, or its score in the final surviving projection. Rows that were
    never scored (data exhausted before any scoring) keep NaN.
    iterations_total counts every ascent map evaluation spent (multistart
    updates plus re-estimation evaluations, rejected accelerated candidates
    included; the PCA baseline counts one per re-estimation). r_used is the
    projection radius. A re-estimation that hits max_iters without converging
    keeps its last iterate; their number is reported in warnings.
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

    candidates are (direction, CGF value or None) in loop order. reestimate
    maps (cleaned rows, direction) to (direction, evaluations, converged), or
    to None when too few rows remain. iterations and warnings open every report.
    """

    config: DetectorConfig
    centered: DataMatrix
    radius: RadiusSelection
    candidates: tuple[tuple[np.ndarray, float | None], ...]
    reestimate: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, int, bool] | None]
    iterations: int
    warnings: tuple[str, ...]


def q_scores(z) -> np.ndarray:
    """Per-observation outlyingness |z_t - median| / MAD of a projection."""
    arr = np.asarray(z, dtype=float).ravel()
    if arr.size < 3:
        raise ValueError("q-scores need at least 3 observations")
    med, mad = median_and_mad(arr)
    if mad == 0.0:
        raise DegenerateProjectionError("projection has zero MAD")
    return np.abs(arr - med) / mad


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # deterministic representative of the +-v pair: largest-|entry| positive
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def fit(data: DataMatrix, config: DetectorConfig) -> FittedDetector:
    """Center, select the radius, and pair the candidates with their re-estimator.

    maxcgf: multistart CGF maxima, re-estimated by a warm-started ascent.
    pca: PC1, re-estimated as PC1 of the cleaned rows. config.beta is not read.
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
    ms = config.multistart

    warnings: list[str] = []
    if not r_sel.feasible:
        warnings.append(
            f"target eps {config.target_eps:g} unattainable at T={T}; "
            f"using the variance-minimizing radius (eps {r_sel.eps_achieved:.4g})"
        )
    iterations = 0
    if config.method is DetectionMethod.MAX_CGF:
        result = maximize_cgf(centered, r, ms)
        candidates = tuple(
            (result.directions[k], float(result.cgf_values[k])) for k in range(len(result))
        )
        iterations = result.total_iterations
        if result.ascent_violations:
            warnings.append(
                f"{result.ascent_violations} ascent iterations decreased the objective"
            )

        def reestimate(Y, theta):
            return refine_direction(Y, r, theta, ms.tolerance, ms.max_iters)

    else:
        candidates = ((_readonly(_fix_sign(cov.pc1)), None),)

        def reestimate(Y, theta):
            if Y.shape[0] < 2:
                return None
            return _fix_sign(covariance_pca(DataMatrix(Y)).pc1), 1, True

    return FittedDetector(config, centered, r_sel, candidates, reestimate, iterations,
                          tuple(warnings))


def remove(fitted: FittedDetector, beta: float) -> DetectionReport:
    """Run the removal loop at threshold beta; one fit serves any number of betas."""
    if not (beta > 0):
        raise ValueError("beta must be positive")
    T = fitted.centered.n_obs
    warnings = list(fitted.warnings)
    iterations_total = fitted.iterations
    nonconverged = 0

    flags = np.zeros(T, dtype=bool)
    scores = np.full(T, np.nan)
    alive = np.arange(T)
    Y = fitted.centered.values
    traces: list[DirectionTrace] = []

    for theta0, cgf_value in fitted.candidates:
        if alive.size < 3:
            warnings.append(
                f"{alive.size} rows remain; stopping before direction {len(traces) + 1}"
            )
            break
        trace = DirectionTrace(
            initial_direction=theta0, final_direction=theta0, cgf_value=cgf_value
        )
        traces.append(trace)
        theta = theta0
        z = Y @ theta
        try:
            kur_prev = kurtosis(z)
        except DegenerateInputError:
            trace.skipped = True
            trace.note = "constant projection"
            warnings.append(f"direction {len(traces)} skipped: constant projection")
            continue
        trace.kurtosis_trace.append(kur_prev)

        while True:  # enters at least once (the i = 0 pass)
            try:
                q = q_scores(z)
            except DegenerateProjectionError:
                trace.note = "zero MAD"
                trace.skipped = not trace.removed
                warnings.append(f"direction {len(traces)} stopped: zero MAD projection")
                break
            scores[alive] = q

            out = q > beta  # strict: ties at beta stay
            if bool(out.all()):
                raise DetectionError(
                    "every remaining observation scored above beta; nothing would survive"
                )
            if bool(out.any()):
                flags[alive[out]] = True
                trace.removed += int(out.sum())
                keep = ~out
                Y = Y[keep]
                alive = alive[keep]

            step = fitted.reestimate(Y, theta)
            if step is None:
                trace.note = "too few rows to re-estimate"
                break
            theta, used, converged = step
            trace.refine_iterations += used
            iterations_total += used
            nonconverged += not converged
            trace.final_direction = theta

            z = Y @ theta
            try:
                kur = kurtosis(z)
            except (DegenerateInputError, ValueError):
                trace.note = "projection degenerated during the loop"
                warnings.append(f"direction {len(traces)} stopped: degenerate projection")
                break
            trace.kurtosis_trace.append(kur)
            if not (kur < kur_prev):
                break  # kurtosis stopped falling: this direction is exhausted
            kur_prev = kur
            if alive.size < 3:
                trace.note = "too few rows to keep scoring"
                break

    if nonconverged:
        warnings.append(
            f"{nonconverged} re-estimation(s) hit max_iters="
            f"{fitted.config.multistart.max_iters} without converging"
        )
    return DetectionReport(
        outlier_flags=flags,
        q_scores=scores,
        directions_used=traces,
        r_used=fitted.radius.r_bar,
        iterations_total=iterations_total,
        beta=beta,
        method=fitted.config.method,
        warnings=warnings,
    )


def detect(data: DataMatrix, config: DetectorConfig) -> DetectionReport:
    """Fit and run the removal loop at config.beta in one call."""
    return remove(fit(data, config), config.beta)
