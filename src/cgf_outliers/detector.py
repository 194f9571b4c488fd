"""Projection-pursuit outlier detection with a kurtosis-guarded removal loop.

The detector centers the data once, picks the projection radius from the
relative-error rule, and collects candidate directions (multistart CGF
maxima, or PC1 for the baseline). For each direction, taken in CGF-descending
order, observations are scored by

    q_t = |z_t - median(Z)| / MAD(Z)

on the projection Z and removed while they exceed the threshold beta; after
each removal the direction is re-estimated on the surviving rows and the loop
continues only while the projection's kurtosis strictly decreases. Removals
accumulate across directions, and every removed row is reported as an outlier
of the original matrix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .cgf import (
    MultistartConfig,
    maximize_cgf,
    refine_direction,
    select_radius,
)
from .linalg_stats import (
    DataMatrix,
    DegenerateInputError,
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
    "DegenerateProjectionError",
    "DetectionError",
    "q_scores",
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


def q_scores(z) -> np.ndarray:
    """Per-observation outlyingness |z_t - median| / MAD of a projection."""
    arr = np.asarray(z, dtype=float).ravel()
    if arr.size < 3:
        raise ValueError("q-scores need at least 3 observations")
    med, mad = median_and_mad(arr)
    if mad == 0.0:
        raise DegenerateProjectionError("projection has zero MAD")
    return np.abs(arr - med) / mad


def _pc1(values: np.ndarray) -> np.ndarray:
    cov = np.cov(values, rowvar=False, ddof=1)
    cov = 0.5 * (np.atleast_2d(cov) + np.atleast_2d(cov).T)
    eigvals, eigvecs = np.linalg.eigh(cov)
    v = eigvecs[:, -1]
    return _fix_sign(v)


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # deterministic representative of the +-v pair: largest-|entry| positive
    pivot = int(np.argmax(np.abs(v)))
    return -v if v[pivot] < 0 else v


def detect(data: DataMatrix, config: DetectorConfig) -> DetectionReport:
    """Run the full detection loop; see the module docstring for the scheme.

    The radius is selected once from the original centered data and reused
    throughout. Directions are re-estimated on cleaned data by a warm-started
    ascent (method maxcgf) or by PC1 of the cleaned rows (method pca).
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
    iterations_total = 0
    nonconverged = 0
    if config.method is DetectionMethod.MAX_CGF:
        result = maximize_cgf(centered, r, config.multistart)
        candidates = [
            (result.directions[k], float(result.cgf_values[k])) for k in range(len(result))
        ]
        iterations_total += result.total_iterations
        if result.ascent_violations:
            warnings.append(
                f"{result.ascent_violations} ascent iterations decreased the objective"
            )
    else:
        candidates = [(_fix_sign(cov.pc1), None)]

    flags = np.zeros(T, dtype=bool)
    scores = np.full(T, np.nan)
    alive = np.arange(T)
    Y = centered.values
    traces: list[DirectionTrace] = []

    for theta0, cgf_value in candidates:
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

            out = q > config.beta  # strict: ties at beta stay
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

            if config.method is DetectionMethod.MAX_CGF:
                theta, used, converged = refine_direction(
                    Y, r, theta, config.multistart.tolerance, config.multistart.max_iters
                )
                trace.refine_iterations += used
                iterations_total += used
                nonconverged += not converged
            else:
                if alive.size < 2:
                    trace.note = "too few rows to re-estimate"
                    break
                theta = _pc1(Y)
                trace.refine_iterations += 1
                iterations_total += 1
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
            f"{config.multistart.max_iters} without converging"
        )
    return DetectionReport(
        outlier_flags=flags,
        q_scores=scores,
        directions_used=traces,
        r_used=r,
        iterations_total=iterations_total,
        beta=config.beta,
        method=config.method,
        warnings=warnings,
    )
