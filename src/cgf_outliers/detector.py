"""Projection-pursuit outlier detection with a kurtosis-guarded removal loop.

Detection runs in two steps. `fit` reads a `FitConfig` and does everything
that does not depend on the threshold beta: it centers the data once, picks
the projection radius from the relative-error rule, and finds the candidate
directions (multistart CGF maxima, or PC1 for the baseline; PC1 comes with
the rows' mean and scatter, which its re-estimates downdate).
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

The CGF ascent reads the centered rows at radius r. Each of its decisions is
scale-free: steps are normalized gradients, the stop, merge and jump tests
compare unit directions, and r * X, hence G, is unchanged by scaling the data,
since r goes with 1 / sqrt(lambda1). So is its round-off while fourth powers stay
normal doubles: `fit` refuses centered rows whose largest magnitude is outside [2^-240, 2^240].

The pca re-estimate is PC1 of the survivors' centered scatter. The fit
computes the rows' mean and scatter once, by two passes; each removal loop
keeps its own copy, and each pass downdates both by the k rows it dropped
at O(k n^2), instead of reading all m survivors. Removing rows that dominate
the scatter would cancel its digits, so once its trace falls below 1e-3 of
its value at the last two-pass computation, the re-estimate computes mean
and scatter again by two passes over the survivors.

`remove_many` runs the loops of several betas as rows of one array program,
and `remove` is the same driver with one beta. The rows take the candidates
in turn. Each step makes one pass of every row still on candidate k, so a
max-CGF row makes one step per candidate; the first pass reads k's projection,
which all rows share, and a pca row's later passes project its re-estimate.
The pca states are arrays with one row per beta; a step downdates all its
re-estimated rows at once (`_downdate`), and their PC1s come from one stacked
solve by repeated squaring with a certificate (`_pc1`), or from `eigh` where
it does not certify. The kurtosis, medians and MADs are `linalg_stats`' row
kernels, the package's one implementation of them. A row's sums run along that
row alone, its median and MAD are exact order statistics, and the downdate and
the solve act on each row alone, so a beta's report is the same bits whichever
betas share its steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .cgf import (
    MultistartConfig,
    RadiusSelection,
    _BLOCK,
    maximize_cgf,
    refine_direction,  # noqa: F401 -- perfbench/tracer.py wraps this binding
    select_radius,
)
from .linalg_stats import (
    DataMatrix,
    DegenerateInputError,
    _centered_scatter,
    _readonly,
    _row_medians,
    _row_moments,
    center,
    covariance_pca,
    kurtosis,  # noqa: F401 -- perfbench/tracer.py wraps this binding
    median_and_mad,
)

__all__ = [
    "DetectionMethod",
    "FitConfig",
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
class FitConfig:
    """What `fit` reads; `DetectorConfig` adds the threshold beta that `detect` removes at."""

    target_eps: float = 0.1
    multistart: MultistartConfig = MultistartConfig()
    method: DetectionMethod = DetectionMethod.MAX_CGF

    def __post_init__(self) -> None:
        if not (0.0 < self.target_eps < 1.0):
            raise ValueError("target_eps must lie in (0, 1)")
        object.__setattr__(self, "method", DetectionMethod(self.method))


@dataclass(frozen=True, kw_only=True)
class DetectorConfig(FitConfig):
    beta: float

    def __post_init__(self) -> None:
        if not (0 < self.beta < math.inf):
            raise ValueError("beta must be positive and finite")
        super().__post_init__()


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

    candidates are (direction, CGF value or None) in loop order. mean and
    scatter are None for maxcgf, whose directions make one pass each. For pca
    they are the mean (n,) and centered scatter (n, n) of the rows of
    `centered`, computed once by two passes: every removal loop starts from
    them and keeps its own copy, downdated by each pass's dropped rows.
    iterations and warnings open every report.
    """

    method: DetectionMethod
    centered: DataMatrix
    radius: RadiusSelection
    candidates: tuple[tuple[np.ndarray, float | None], ...]
    mean: np.ndarray | None
    scatter: np.ndarray | None
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
    # deterministic representative of each +-v pair, v or its rows: largest-|entry| positive
    rows = np.atleast_2d(v)
    pivot = rows[np.arange(len(rows)), np.argmax(np.abs(rows), axis=1)]
    return np.where(pivot[:, None] < 0, -rows, rows).reshape(v.shape)


def _downdate(values: np.ndarray, state, rows: np.ndarray, alive: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Downdate the pca state of the loops `rows` by the rows their last pass dropped.

    state holds every loop's survivors' mean (B, n), centered scatter
    (B, n, n) and that scatter's trace at its last two-pass computation (B,),
    and is updated in place. alive and out are the P loops' survivor and
    dropped masks over `values`, the fit's centered rows.

    Dropping the k rows G of m leaves m' = m - k; with D = G - mean,
    s = sum of D's rows and u = s / sqrt(m'), the survivors' scatter is
    scatter - D^T D - u u^T and their mean is mean - s / m' (Chan, Golub &
    LeVeque, The American Statistician 37(3), 1983), at O(k n^2) where
    recomputing costs O(m n^2). The dropped rows of all P loops are gathered
    once, loop by loop, and each D^T D is one product over its loop's slice,
    the call a one-loop step makes on the same rows; every other operation
    acts on each loop alone. A state describes its survivors only if it sees
    every pass that drops rows: the loop re-estimates after each, except one
    that leaves fewer than 3 rows, after which it re-estimates no more.
    Returns the P updated scatters, whose PC1s are the loops' next directions.
    """
    means, scatters, last = state
    k = np.count_nonzero(out, axis=1)
    m = np.count_nonzero(alive, axis=1)
    mean = means[rows]
    # out's flat indices, row by row, wrap to the indices of the dropped rows in values
    dev = values.take(np.flatnonzero(out), axis=0, mode="wrap")
    ends = np.cumsum(k)
    starts = ends - k
    scatter = np.empty((len(rows),) + scatters.shape[1:])
    for lo, hi, mu, product in zip(starts.tolist(), ends.tolist(), mean, scatter):
        d = dev[lo:hi]
        d -= mu
        np.matmul(d.T, d.copy(), out=product)  # a copy: gemm, which beat syrk at n=30
    s = np.add.reduceat(dev, starts, axis=0)
    np.subtract(scatters[rows], scatter, out=scatter)
    u = s / np.sqrt(m)[:, None]
    scatter -= u[:, :, None] * u[:, None, :]
    mean -= s / m[:, None]
    trace = np.add.reduce(np.diagonal(scatter, axis1=1, axis2=2), axis=1)
    redo = trace < _RECOMPUTE_BELOW * last[rows]
    for i in np.flatnonzero(redo):  # the downdate could cancel: two passes over the survivors
        mean[i], scatter[i] = _centered_scatter(values[alive[i]])
        last[rows[i]] = np.trace(scatter[i])
    means[rows], scatters[rows] = mean, scatter
    return scatter


def _pc1(mats: np.ndarray) -> np.ndarray:
    """Top eigenvector of each of B symmetric PSD n x n matrices, as (B, n) unit rows.

    Squares each matrix A, starting from trace one, until M = A / trace(A)
    has ||M||_F^2 = trace(A^2) / trace(A)^2 = sum mu_i^2 >= _CERTIFIED. The
    eigenvalues mu_i >= 0 of M sum to 1, so that sum is at most mu_1: M is
    within 1 - _CERTIFIED of mu_1 v v^T, and its column of largest diagonal
    within about sqrt(n) (1 - _CERTIFIED) of +-v. That column is taken at the
    squaring that certifies A, and the later squarings run on the matrices
    not yet certified. Every third square is divided by its trace: three
    squarings from trace one leave a trace of at least 1 / n^7. A matrix not
    certified after _SQUARINGS squarings (lambda1 close to lambda2, a zero
    trace) gets the last eigenvector of `np.linalg.eigh`. Each step acts on
    each matrix alone, so entry i ignores the others.
    """
    left = np.arange(len(mats))  # the matrices not yet certified
    certified = np.zeros_like(mats)  # each matrix at the squaring that certified it
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero trace falls back
        a = mats / np.trace(mats, axis1=1, axis2=2)[:, None, None]
        bound = _CERTIFIED  # times trace(A)^2
        for step in range(_SQUARINGS):
            sq = a @ a
            norm2 = np.add.reduce(np.diagonal(sq, axis1=1, axis2=2), axis=1)  # trace(A^2)
            done = norm2 >= bound
            if done.any():
                certified[left[done]] = a[done]
                keep = ~done
                left, sq, norm2 = left[keep], sq[keep], norm2[keep]
                if not left.size:
                    break
            if step % 3 == 2:
                sq *= (1.0 / norm2)[:, None, None]
                bound = _CERTIFIED
            else:
                bound = _CERTIFIED * norm2 * norm2
            a = sq
        # A is symmetric, so its row of largest diagonal is that column
        diagonal = np.diagonal(certified, axis1=1, axis2=2)
        rows = certified[np.arange(len(mats)), np.argmax(diagonal, axis=1)]
        out = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    if left.size:
        out[left] = np.linalg.eigh(mats[left])[1][..., -1]
    return out


def fit(data: DataMatrix, config: FitConfig = FitConfig()) -> FittedDetector:
    """Center, select the radius, and find the candidates: the steps before any beta.

    maxcgf: multistart CGF maxima, each scored once.
    pca: PC1, and the rows' mean and scatter that its re-estimates downdate.
    Raises ValueError when the centered rows' largest magnitude is outside [2^-240, 2^240].
    """
    T = data.n_obs
    if T < 10:
        raise ValueError("detection needs at least 10 observations")

    centered = center(data)
    # A unit projection of a row is at most sqrt(n) s, s the largest magnitude, so the kurtosis
    # sums T terms of at most n^2 s^4: finite for s <= 2^240 while T n^2 < 2^64. s >= 2^-240 keeps
    # s^4 and m2^2 for m2 >= 2^-31 s^2 normal doubles. s = 0 is constant data, reported below.
    scale = max(centered.values.max(), -centered.values.min())
    if scale and not 2.0**-240 <= scale <= 2.0**240:
        raise ValueError(f"data scale {scale:.3g} is outside [2^-240, 2^240]; rescale the data")
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
    mean = scatter = None
    if config.method is DetectionMethod.MAX_CGF:
        result = maximize_cgf(centered.values, r, config.multistart)
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

    return FittedDetector(config.method, centered, r_sel, candidates, mean, scatter, iterations,
                          tuple(warnings))


def remove_many(fitted: FittedDetector, betas) -> list[DetectionReport | DetectionError]:
    """Run the removal loops of several betas on one fit, as rows of one array program.

    Row b is beta b's loop: a survivor mask and a score per row of the data.
    The rows take the candidates in turn, and every row that reaches candidate
    k runs its passes on it before any row moves on. Each step makes one pass
    of every row still on k: it tests all their kurtosis together, then takes
    the medians, MADs and q-scores of the rows that pass, and their PCA
    re-estimates share one PC1 solve. The pass that leaves a row fewer than 3
    survivors ends its loop there, warning "N rows remain; stopping before
    direction k + 2" when a candidate k + 1 exists. Returns, per beta in
    order, its report or the DetectionError its loop met.
    """
    betas = list(betas)
    if not all(0 < beta < math.inf for beta in betas):
        raise ValueError("beta must be positive and finite")
    Y, candidates = fitted.centered.values, fitted.candidates
    nb, T = len(betas), Y.shape[0]
    limit = np.array(betas, dtype=float)[:, None]
    alive = np.ones((nb, T), dtype=bool)
    count = np.full(nb, T)
    scores = np.full((nb, T), np.nan)
    pca = fitted.method is not DetectionMethod.MAX_CGF
    if pca:  # per row: the survivors' mean, scatter, and trace at its last two-pass computation
        state = (np.tile(fitted.mean, (nb, 1)), np.tile(fitted.scatter, (nb, 1, 1)),
                 np.full(nb, np.trace(fitted.scatter)))
    traces: list[list[DirectionTrace]] = [[] for _ in betas]
    warnings = [list(fitted.warnings) for _ in betas]
    errors: list[DetectionError | None] = [None] * nb
    running = list(range(nb))  # the rows that have not failed or run out of rows

    for k, (theta0, cgf_value) in enumerate(candidates):
        if not running:
            break
        if k % _BLOCK == 0:  # one product projects the next _BLOCK candidates, the multistart's block
            block = np.stack([c for c, _ in candidates[k:k + _BLOCK]]) @ Y.T
        for b in running:
            traces[b].append(DirectionTrace(initial_direction=theta0, final_direction=theta0,
                                            cgf_value=cgf_value))
        rows = np.array(running)  # the rows still on candidate k
        Z = np.broadcast_to(block[k % _BLOCK], (len(rows), T))
        while rows.size:  # each step makes one pass of every row on candidate k
            mask, m = alive[rows], count[rows]
            m2, kur = _row_moments(Z, mask, m)
            scored = []  # positions in rows of the rows that passed the test
            for i, b in enumerate(rows):
                trace = traces[b][-1]
                if not m2[i] > 0.0:  # zero variance, or a non-finite direction
                    trace.note = "constant projection"
                    warnings[b].append(f"direction {k + 1} ended: constant projection")
                    continue
                trace.kurtosis_trace.append(float(kur[i]))
                if not trace.removed:
                    if kur[i] <= 3.0 + _GATE_SE * math.sqrt(24.0 / m[i]):
                        trace.note = "Gaussian projection"
                        continue
                elif not kur[i] < trace.kurtosis_trace[-2]:
                    continue  # kurtosis stopped falling: this direction is exhausted
                scored.append(i)

            rows = rows[scored]
            if rows.size:
                Z, mask, m = Z[scored], mask[scored], m[scored]
                Z -= _row_medians(Z, mask, m)[:, None]
                dev = np.abs(Z, out=Z)
                mad = _row_medians(dev, mask, m)
                with np.errstate(divide="ignore", invalid="ignore"):  # zero-MAD rows stop below
                    q = np.divide(dev, mad[:, None], out=dev)
                mask &= (mad > 0.0)[:, None]
                out = mask & (q > limit[rows])  # strict: ties at beta stay
                removed = np.count_nonzero(out, axis=1)
                scores[rows] = np.where(mask, q, scores[rows])
                alive[rows] ^= out
                pending = []  # positions in rows of the loops to re-estimate
                for j, b in enumerate(rows):
                    trace = traces[b][-1]
                    if not mad[j] > 0.0:
                        trace.note = "zero MAD"
                        warnings[b].append(f"direction {k + 1} stopped: zero MAD projection")
                    elif removed[j] == m[j]:
                        errors[b] = DetectionError(
                            "every remaining observation scored above beta; nothing would survive")
                        running.remove(b)
                    elif not removed[j]:  # nothing changed to re-estimate on
                        if not trace.removed:
                            trace.note = "no score above beta"
                    else:
                        trace.removed += int(removed[j])
                        count[b] -= removed[j]
                        if count[b] < 3:
                            trace.note = "too few rows to keep scoring"
                            if k + 1 < len(candidates):
                                warnings[b].append(
                                    f"{count[b]} rows remain; stopping before direction {k + 2}")
                            running.remove(b)
                        elif pca:
                            pending.append(j)
                rows = rows[pending]
                if rows.size:
                    directions = _fix_sign(_pc1(_downdate(Y, state, rows, alive[rows],
                                                          out[pending])))
                    for b, direction in zip(rows.tolist(), directions):
                        traces[b][-1].refine_iterations += 1
                        traces[b][-1].final_direction = direction
                    Z = np.matmul(directions[:, None, :], Y.T)[:, 0]  # the same bits for any stack

    return [errors[b] or DetectionReport(
        outlier_flags=scores[b] > betas[b],
        q_scores=scores[b].copy(),
        directions_used=traces[b],
        r_used=fitted.radius.r_bar,
        iterations_total=fitted.iterations + sum(t.refine_iterations for t in traces[b]),
        beta=betas[b],
        method=fitted.method,
        warnings=warnings[b],
    ) for b in range(nb)]


def remove(fitted: FittedDetector, beta: float) -> DetectionReport:
    """Run the removal loop at threshold beta: `remove_many` with that one beta."""
    [result] = remove_many(fitted, [beta])
    if isinstance(result, DetectionError):
        raise result
    return result


def detect(data: DataMatrix, config: DetectorConfig) -> DetectionReport:
    """Fit and run the removal loop at config.beta in one call."""
    return remove(fit(data, config), config.beta)
