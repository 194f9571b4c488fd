"""Projection-pursuit outlier detection with a kurtosis-guarded removal loop.

Detection runs in two steps. `fit` does everything that does not depend on
the threshold beta: it centers the data once, picks the projection radius
from the relative-error rule, and finds the candidate directions (multistart
CGF maxima, or PC1 for the baseline; PC1 comes with its re-estimator).
`remove` then runs the removal loop at one beta, over the directions in
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
   above beta. A max-CGF direction ends there: it makes one pass. A pca
   direction ends if fewer than 3 rows remain, and is re-estimated as PC1 of
   the survivors otherwise, so every pass scores at least 3 rows.

A max-CGF direction is not re-estimated on the survivors: a local ascent
from it does not stay at its maximum but climbs to an unrelated one, whose
passes then strip the bulk of the data. The later candidates are the
multistart's other maxima of the whole sample, and each is scored once.

A pass that removes nothing ends the direction, the first pass included:
a pca re-estimate would see the same rows. Removals accumulate across
directions, and every row scored above beta is reported as an outlier of the
original matrix. `detect` is `remove(fit(data, config), config.beta)`;
a beta sweep fits once and runs its betas' removal loops on that fit.

The CGF ascent runs on the centered data divided by sqrt(lambda1), at radius
r * sqrt(lambda1): G and the q-scores are unchanged, and the ascent's path no
longer depends on the scale of the data.

The pca re-estimate is PC1 of the survivors' centered scatter, which each
removal loop keeps up to date: the fit computes the rows' mean and scatter
once, by two passes, and each pass downdates both by the k rows it dropped
at O(k n^2), instead of reading all m survivors. Removing rows that dominate
the scatter would cancel its digits, so once its trace falls below 1e-3 of
its value at the last two-pass computation, the re-estimate computes mean
and scatter again by two passes over the survivors.

`remove_many` runs the loops of several betas in lockstep, and `remove` is
the same driver with one beta. A loop that needs a re-estimate pauses and
hands over the downdated scatter; once every unfinished loop has paused or
ended, one stacked solve computes all the PC1s they wait for. The solve
squares each trace-normalized scatter M until ||M||_F^2 >= 1 - 1e-13. For a
PSD M of trace 1 that is a lower bound on the top eigenvalue's share of the
trace, so the column of M with the largest diagonal is within about
sqrt(n) * 1e-13 of PC1. A scatter not certified within a fixed number of
squarings (lambda1 close to lambda2, or a zero trace) gets `eigh`'s PC1.
Every step of the solve acts on each matrix alone, so a beta's report is
the same bits whichever betas share its solves.
"""

from __future__ import annotations

import enum
import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .cgf import (
    MultistartConfig,
    RadiusSelection,
    maximize_cgf,
    refine_direction,  # noqa: F401 -- perfbench/tracer.py wraps this binding
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
    "remove_many",
    "detect",
]

_GATE_SE = 3.0  # standard errors of the normal kurtosis above 3 a direction must reach
# A downdate subtracts terms of the size of the scatter it started from, so it
# errs by about 1e-16 of the trace at the last two-pass computation. The pca
# re-estimate recomputes once the trace falls below this share of that value,
# which keeps the error near 1e-12 of the current trace. Without it, dropping
# one row scaled by 1e6 moved q-scores by 1e-4, and one scaled by 1e8 changed flags.
_RECOMPUTE_BELOW = 1e-3
# The PC1 solve's certificate: ||M||_F^2 of a trace-one PSD matrix bounds its
# top eigenvalue from below. Student-t re-estimates at n=30 need 6-17 squarings
# to reach it; a matrix still short of it after the cap goes to eigh.
_CERTIFIED = 1.0 - 1e-13
_SQUARINGS = 16


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
    the direction is reached and gains one entry per pca re-estimate, so a
    max-CGF direction has one entry; refine_iterations counts the pca
    re-estimates and is 0 for max-CGF. final_direction is the last
    re-estimate, or the initial direction. skipped means no row was removed
    along it. note says why it ended early: "Gaussian projection" (the first
    kurtosis failed the gate), "no score above beta" (the first pass removed
    nothing) or "constant projection" (a pass, the first or a later one, had
    no kurtosis).
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
    iterations_total is the fit's multistart updates for max-CGF and the
    number of PC1 re-estimates for the PCA baseline. r_used is the projection
    radius.
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
    is None for maxcgf, whose directions make one pass each. For pca it is
    called once per removal loop and returns that loop's re-estimate,
    reestimate(alive, dropped, theta) -> scatter. It maps the indices of the
    surviving rows of `centered` (at least 3), the rows the pass just dropped
    and the current direction to an n x n symmetric PSD matrix, the
    survivors' centered scatter; the loop's next direction is that matrix's
    PC1, from the batched solve. It starts from the rows' mean and centered
    scatter, computed once by two passes, downdates both by each pass's
    dropped rows, and recomputes them by two passes once the scatter's trace
    falls below 1e-3 of its last two-pass value. iterations and warnings open
    every report.
    """

    method: DetectionMethod
    centered: DataMatrix
    radius: RadiusSelection
    candidates: tuple[tuple[np.ndarray, float | None], ...]
    reestimator: Callable[[], Callable[[np.ndarray, np.ndarray, np.ndarray],
                                      np.ndarray]] | None
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


def _pc1_reestimate(values: np.ndarray, mean: np.ndarray, scatter: np.ndarray):
    """One removal loop's PCA re-estimate, starting from the fit rows' mean and scatter.

    values are the fit's centered rows, which the survivors' indices select.

    Dropping the k rows G of m leaves m' = m - k; with D = G - mean and
    s = sum of D's rows, the survivors' scatter is scatter - D^T D - s s^T / m'
    and their mean is mean - s / m' (Chan, Golub & LeVeque, The American
    Statistician 37(3), 1983), at O(k n^2) where recomputing costs O(m n^2).
    The state describes the survivors only if it sees every pass that drops
    rows: the loop re-estimates after each, except one that leaves fewer
    than 3 rows, after which it re-estimates no more.
    """
    last_trace = np.trace(scatter)  # at the last two-pass computation

    def reestimate(alive, dropped, theta):
        nonlocal mean, scatter, last_trace
        m = alive.size
        dev = dropped - mean
        s = dev.sum(axis=0)
        scatter = scatter - dev.T @ dev - np.outer(s, s) / m
        mean = mean - s / m
        if np.trace(scatter) < _RECOMPUTE_BELOW * last_trace:
            mean, scatter = _centered_scatter(values[alive])
            last_trace = np.trace(scatter)
        return scatter

    return reestimate


def _pc1(mats) -> np.ndarray:
    """Top eigenvector of each of B symmetric PSD n x n matrices, as (B, n) unit rows.

    Squares each trace-normalized M, M <- M^2 / trace(M^2), until
    ||M||_F^2 = sum mu_i^2 >= _CERTIFIED. The eigenvalues mu_i >= 0 sum to 1,
    so that sum is at most mu_1: M is within 1 - _CERTIFIED of mu_1 v v^T,
    and its column of largest diagonal within about sqrt(n) (1 - _CERTIFIED)
    of +-v. A matrix not certified after _SQUARINGS squarings (lambda1 close
    to lambda2, a zero trace) gets the last eigenvector of `np.linalg.eigh`.
    Each step acts on each matrix alone, so entry i ignores the others.
    """
    m = np.stack(mats)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero trace falls back
        m /= np.trace(m, axis1=1, axis2=2)[:, None, None]
        sq = np.empty_like(m)
        active = np.ones(len(m), dtype=bool)  # not yet certified; a certified M stays as it is
        for _ in range(_SQUARINGS):
            np.matmul(m, m, out=sq)
            norm2 = np.trace(sq, axis1=1, axis2=2)  # ||M||_F^2 of the symmetric M
            active &= ~(norm2 >= _CERTIFIED)
            if not active.any():
                break
            np.multiply(sq, (1.0 / norm2)[:, None, None], out=m, where=active[:, None, None])
        # M is symmetric, so its row of largest diagonal is that column
        rows = m[np.arange(len(m)), np.argmax(np.diagonal(m, axis1=1, axis2=2), axis=1)]
        out = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    if active.any():
        uncertified = np.stack([mats[i] for i in np.flatnonzero(active)])
        out[active] = np.linalg.eigh(uncertified)[1][..., -1]
    return out


def fit(data: DataMatrix, config: DetectorConfig) -> FittedDetector:
    """Center, select the radius, and find the candidates.

    maxcgf: multistart CGF maxima, each scored once, with no re-estimator.
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
    reestimator = None
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
    else:
        candidates = ((_readonly(_fix_sign(cov.pc1)), None),)
        mean, scatter = (_readonly(a) for a in _centered_scatter(centered.values))

        def reestimator():
            return _pc1_reestimate(centered.values, mean, scatter)

    return FittedDetector(config.method, centered, r_sel, candidates, reestimator, iterations,
                          tuple(warnings))


def _run(fitted: FittedDetector, beta: float):
    """The removal loop at one beta, as a generator that `remove_many` drives.

    After each pass that leaves a pca direction at least 3 rows, it yields the
    survivors' scatter from the re-estimator and is sent that scatter's PC1.
    It returns the report, or raises DetectionError. It keeps the survivors'
    indices, and gathers their rows again after a pause rather than hold them.
    """
    warnings = list(fitted.warnings)
    # max-CGF directions make one pass, whatever re-estimator the fit carries
    reestimate = None if fitted.method is DetectionMethod.MAX_CGF else fitted.reestimator()

    Y = fitted.centered.values
    scores = np.full(Y.shape[0], np.nan)
    alive = np.arange(scores.size)
    rows = Y  # Y[alive]
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
            z = rows @ theta
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
            alive = alive[~out]
            if alive.size < 3:
                trace.note = "too few rows to keep scoring"
                break
            if reestimate is None:  # a max-CGF direction makes one pass
                rows = Y[alive]
                break
            scatter = reestimate(alive, rows[out], theta)
            del z, q, out, rows  # a paused loop holds none of its pass's arrays
            theta = _fix_sign((yield scatter))
            trace.refine_iterations += 1
            trace.final_direction = theta
            rows = Y[alive]

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


def remove_many(fitted: FittedDetector,
                betas) -> list[tuple[DetectionReport | DetectionError, float]]:
    """Run the removal loops of several betas on one fit in lockstep.

    Each round resumes every unfinished loop until it next needs a PCA
    re-estimate, then computes all the PC1s they wait for in one stacked
    solve. Returns, per beta in order, its report or the DetectionError its
    loop raised, and its seconds: its own loop steps plus an equal share of
    each solve it joined.
    """
    betas = list(betas)
    if not all(0 < beta < math.inf for beta in betas):
        raise ValueError("beta must be positive and finite")
    runs = [_run(fitted, beta) for beta in betas]
    results: list = [None] * len(runs)
    seconds = [0.0] * len(runs)
    sent: list = [None] * len(runs)
    waiting = list(range(len(runs)))
    while waiting:
        paused, asked = [], []
        for i in waiting:
            start = time.perf_counter()
            try:
                asked.append(runs[i].send(sent[i]))
                paused.append(i)
            except StopIteration as done:
                results[i] = done.value
            except DetectionError as err:  # kept without its frames, which hold the loop's arrays
                results[i] = err.with_traceback(None)
            seconds[i] += time.perf_counter() - start
        if paused:
            start = time.perf_counter()
            solved = _pc1(asked)
            share = (time.perf_counter() - start) / len(paused)
            for i, direction in zip(paused, solved):
                sent[i] = direction
                seconds[i] += share
        waiting = paused
    return list(zip(results, seconds))


def remove(fitted: FittedDetector, beta: float) -> DetectionReport:
    """Run the removal loop at threshold beta: `remove_many` with that one beta."""
    [(result, _)] = remove_many(fitted, [beta])
    if isinstance(result, DetectionError):
        raise result
    return result


def detect(data: DataMatrix, config: DetectorConfig) -> DetectionReport:
    """Fit and run the removal loop at config.beta in one call."""
    return remove(fit(data, config), config.beta)
