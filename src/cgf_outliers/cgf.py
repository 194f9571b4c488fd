"""Empirical cumulant generating function along projections, and its maximizers.

For a centered T x n matrix X and a direction theta on the unit sphere, the
sample CGF at radius r is

    G(r, theta) = ln( (1/T) * sum_t exp(r * theta . X_t) ),

evaluated with max-subtraction (log-sum-exp) so large exponents cannot
overflow. Its gradient in theta is r times the exponentially weighted mean of
the rows. One kernel serves every evaluation: it reads the data transposed,
as an n x T C-contiguous array X^T, and writes exp((r * Theta) X^T - rowmax)
in place into a caller-owned buffer W, from which the weighted row sums are
X^T W^T. Callers pass T x n rows; a view over an n x T C-contiguous array
(the layout `linalg_stats.center` returns, which `detector.fit` passes on) is
used without a copy, any other layout is transposed once per call.

Directions that locally maximize G over the unit sphere are found by the
generalized power method (Journee, Nesterov, Richtarik & Sepulchre, JMLR 11,
2010) restarted from the rows of largest norm: each iteration moves to the
normalized weighted row sum, the gradient's direction (the weight sum cancels):

    Psi(theta) = normalize(X^T w(theta)) = grad G / ||grad G||.

A start is a nonzero row normalized to x_t/|x_t|: as r grows, G tends to
r * max_t theta . X_t - ln T, largest exactly at the normalized largest row
(directions through data points, as in Stahel 1981, Donoho 1982 and Pena &
Prieto, JCGS 16(1), 2007). Rows tied in norm are ordered by their values, so
the starts do not depend on the order of the rows.

The multistart advances all active starts together, in blocks of at most 64
so the buffer stays 64 x T, and retires (merges) a start once it lies within
signed cosine 1 - 1e-4 of a converged start or of an active start of lower
index: from there both climb to the same maximum, which the dedup (|cosine|
0.995) would keep once (the clustering multistart of Rinnooy Kan & Timmer,
Math. Programming 39, 1987). A start stops at ||Psi(theta) - theta|| <=
1e-7, which bounds the sine of the angle between theta and grad G(theta), or
after 10,000 updates, and the multistart runs in float64. A converged start
returns theta with the G its kernel call computed, not the unevaluated Psi.

Psi converges only linearly, and near a flat maximum a start can crawl at a
fixed ratio for a hundred updates. So a start whose step d = Psi(theta) -
theta runs within cosine 0.99 of its previous plain step d_ and is shorter,
rho = ||d|| / ||d_|| < 1, jumps to normalize(theta + d / (1 - rho)), the end
of that geometric series of steps (Aitken's delta-squared, Proc. R. Soc.
Edinburgh 46, 1926), keeping Psi(theta) as its fallback. The next kernel
call evaluates G at the jump anyway: if G fell below G(theta) the start
moves to the fallback instead, and the step after a jump or a fallback is
always plain, since the ratio needs two plain steps.

G never falls along the points a start keeps. Psi never lowers G: G is
convex, so for unit theta (Cauchy-Schwarz)
G(Psi) >= G(theta) + grad G . (Psi - theta)
        = G(theta) + ||grad G|| - grad G . theta >= G(theta),
and the guard keeps a jump only if its G is at least G(theta).

The refine, which the detector no longer calls, is the same ascent from one
given start.

The projection radius is chosen from the closed-form relative variance of the
CGF estimator, which depends on r only through a = r**2 * lambda1: the error
curve is U-shaped with its minimum at a* ~ 1.59362 (the root of
e**a (a-2) = -2), so a requested relative error below the curve's minimum is
infeasible and the argmin radius is returned flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg_stats import DataMatrix, _readonly

__all__ = [
    "RadiusSelection",
    "MultistartConfig",
    "MaximizerResult",
    "ConvergenceError",
    "unit_vector",
    "cgf_estimate",
    "cgf_gradient",
    "relative_variance",
    "select_radius",
    "maximize_cgf",
    "refine_direction",
]

_ASCENT_SLACK = 1e-12  # relative G decrease counted as a violation
_TOLERANCE = 1e-7  # stop once Psi moves theta at most this
_MAX_ITERS = 10_000  # updates per ascent start
_DEDUP_COS = 0.995  # |cosine| above which a lower-valued maximum is a duplicate
_BLOCK = 64  # starts per kernel call in the multistart: a 64 x T buffer
_MERGE_COS = 1.0 - 1e-4  # signed cosine at which a multistart start has joined another's ascent
_AITKEN_COS = 0.99  # cosine between consecutive Psi steps above which a start extrapolates


class ConvergenceError(RuntimeError):
    """No ascent start converged within _MAX_ITERS. Carries partial results."""

    def __init__(self, message: str, partial: "MaximizerResult | None" = None):
        super().__init__(message)
        self.partial = partial


def unit_vector(v) -> np.ndarray:
    """Normalize v to unit Euclidean norm."""
    arr = np.asarray(v, dtype=float).ravel()
    norm = float(np.linalg.norm(arr))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("cannot normalize a zero or non-finite vector")
    return arr / norm


@dataclass(frozen=True)
class RadiusSelection:
    """Outcome of the radius rule.

    When ``feasible`` the returned radius is the largest one whose predicted
    relative error stays at or below ``target_eps``; otherwise ``r_bar`` sits
    at the error curve's minimum and ``eps_achieved`` reports that minimum.
    """

    r_bar: float
    lambda1: float
    target_eps: float
    feasible: bool
    eps_achieved: float


@dataclass(frozen=True)
class MultistartConfig:
    """Start at the n_starts largest nonzero rows (maximize_cgf); seed is accepted, not read."""

    n_starts: int = _BLOCK
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Distinct local maxima found by the multistart, CGF-descending.

    directions[k] is a unit row vector, the last point its start evaluated,
    whose angle to grad G has sine at most _TOLERANCE (module docstring);
    cgf_values[k] is the G of that last checked update, from the same kernel
    call. total_iterations sums updates, one kernel evaluation each, over
    every start, kept, dropped by the dedup or merged, and counts the
    evaluation of a rejected jump too; ascent_violations counts kept updates
    whose CGF fell beyond slack, relative 1e-12 (_ASCENT_SLACK), which Psi
    and the jump's guard rule out in exact arithmetic, so a nonzero count
    flags round-off or a broken kernel. A rejected jump is not kept, so never
    counts, and the last update of a merged or unconverged start is never
    evaluated, so not checked. Of the min(n_starts, nonzero rows) starts,
    starts_converged converged, starts_merged were retired on joining another
    start's ascent (maximize_cgf), and the rest hit _MAX_ITERS.
    """

    directions: np.ndarray
    cgf_values: np.ndarray
    total_iterations: int = 0
    ascent_violations: int = 0
    starts_converged: int = 0
    starts_merged: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "directions", _readonly(self.directions))
        object.__setattr__(self, "cgf_values", _readonly(self.cgf_values))

    def __len__(self) -> int:
        return self.directions.shape[0]


def _rows(data) -> np.ndarray:
    # a DataMatrix was checked when it was made; an array is checked here, not copied
    if isinstance(data, DataMatrix):
        return data.values
    X = np.asarray(data, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"data must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("data entries must be finite")
    return X


def _values_theta(data, theta) -> tuple[np.ndarray, np.ndarray]:
    X = _rows(data)
    th = np.asarray(theta, dtype=float).ravel()
    if th.shape[0] != X.shape[1]:
        raise ValueError(f"theta has length {th.shape[0]}, data has {X.shape[1]} columns")
    if not np.all(np.isfinite(th)):
        raise ValueError("theta entries must be finite")
    return X, th


def cgf_estimate(data: DataMatrix, r: float, theta) -> float:
    """Sample CGF ln((1/T) sum_t exp(r * theta . X_t)), log-sum-exp stabilized.

    ``theta`` is normally a unit direction but any finite vector is accepted
    (r simply scales it), which keeps finite-difference and convexity checks
    straightforward. ``r = 0`` returns exactly 0.
    """
    X, th = _values_theta(data, theta)
    if r < 0:
        raise ValueError("r must be nonnegative")
    return float(_batch_cgf(X, r, th[None, :])[0])


def cgf_gradient(data: DataMatrix, r: float, theta) -> np.ndarray:
    """Gradient of the sample CGF in theta: r times the exp-weighted row mean."""
    X, th = _values_theta(data, theta)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return np.zeros(X.shape[1])
    Xt = np.ascontiguousarray(X.T)
    w = np.empty((1, X.shape[0]))
    _, wsum = _exp_shifted(Xt, r, th[None, :], w)
    return r * (Xt @ w[0]) / wsum[0]


def relative_variance(r: float, lambda1: float, T: int) -> float:
    """Predicted squared relative error of the sample CGF.

    Returns (4/T) * (e**a - 1) / a**2 with a = r**2 * lambda1, the closed-form
    approximation of Var[G_hat] / E[G_hat]**2 for T draws whose largest
    covariance eigenvalue is lambda1; +inf once e**a overflows a float.
    """
    if not (r > 0):
        raise ValueError("r must be positive")
    if not (lambda1 > 0):
        raise ValueError("lambda1 must be positive")
    if T < 1:
        raise ValueError("T must be >= 1")
    return _error_sq(r * r * lambda1, T)


def _error_sq(a: float, T: int) -> float:
    # relative_variance in terms of a = r**2 * lambda1; +inf past the overflow knee
    try:
        return (4.0 / T) * math.expm1(a) / (a * a)
    except OverflowError:
        return math.inf


# argmin of the error curve (e**a - 1)/a**2: the root of e**a (a - 2) + 2 = 0
_A_STAR = 1.5936242600400399


def select_radius(lambda1: float, T: int, target_eps: float) -> RadiusSelection:
    """Pick the projection radius from the relative-error curve.

    The error eps(r) = sqrt(relative_variance(r, lambda1, T)) is U-shaped in
    a = r**2 * lambda1. The search starts at its argmin, and feasible says
    whether eps there is at most ``target_eps``. If so, the LARGEST radius
    with eps <= target_eps (the root on the increasing branch) is located by
    doubling + bisection to 1e-8 relative; larger radii weigh higher-order
    cumulants more, so the budget is spent. If not, no radius qualifies and
    the argmin radius is kept. Either way eps_achieved is eps at the radius
    returned: the attainable minimum when infeasible.
    """
    if not (lambda1 > 0):
        raise ValueError("lambda1 must be positive")
    if T < 2:
        raise ValueError("T must be >= 2")
    if not (0.0 < target_eps < 1.0):
        raise ValueError("target_eps must lie in (0, 1)")

    # if feasible, bracket and bisect the increasing-branch root: error(a) <= target < error(hi)
    target_sq = target_eps * target_eps
    a = _A_STAR
    feasible = _error_sq(a, T) <= target_sq
    if feasible:
        hi = 2.0 * a
        while _error_sq(hi, T) <= target_sq:
            a, hi = hi, 2.0 * hi
        while hi - a > 1e-8 * a:
            mid = 0.5 * (a + hi)
            if _error_sq(mid, T) <= target_sq:
                a = mid
            else:
                hi = mid
    return RadiusSelection(
        r_bar=math.sqrt(a / lambda1),
        lambda1=lambda1,
        target_eps=target_eps,
        feasible=feasible,
        eps_achieved=math.sqrt(_error_sq(a, T)),
    )


def _row_starts(Xt: np.ndarray, count: int) -> np.ndarray:
    """The min(count, nonzero rows) largest rows of the n x T ``Xt``, normalized, largest first.

    Norm ties are ordered by the rows' values, lexicographically, not by index.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", Xt, Xt))  # no T-sized temporary
    nonzero = np.flatnonzero(norms > 0.0)
    if nonzero.size == 0:
        raise ValueError("data has no nonzero row to start from")
    count = min(count, nonzero.size)
    # every row tied with the count-th largest norm competes for the last places
    cut = np.partition(norms[nonzero], nonzero.size - count)[nonzero.size - count]
    top = nonzero[norms[nonzero] >= cut]
    top = top[np.lexsort((*Xt[::-1, top], -norms[top]))[:count]]
    return (Xt[:, top] / norms[top]).T


def _exp_shifted(
    Xt: np.ndarray, r: float, thetas: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Write exp(r * thetas @ Xt - rowmax) into ``out``; return (G, rowsum).

    ``Xt`` is the data transposed, an n x T C-contiguous array, so the product
    streams each variable's T values; r scales the len(thetas) x n directions
    rather than the product. ``out`` is a caller-owned C-contiguous
    len(thetas) x T buffer, the one T-sized array every CGF value, gradient
    and ascent step is read from; callers take weighted row sums as
    ``Xt @ out.T`` and divide them by rowsum. G = rowmax + ln(rowsum / T) is
    the sample CGF at each direction, in the dtype of ``Xt``.
    """
    np.matmul(r * thetas, Xt, out=out)
    m = out.max(axis=1)
    out -= m[:, None]
    np.exp(out, out=out)
    wsum = out.sum(axis=1)
    return m + np.log(wsum / out.shape[1]), wsum


def _batch_cgf(X: np.ndarray, r: float, thetas: np.ndarray) -> np.ndarray:
    Xt = np.ascontiguousarray(X.T)
    values = np.empty(thetas.shape[0])
    buf = np.empty((min(_BLOCK, thetas.shape[0]), X.shape[0]))
    for lo in range(0, thetas.shape[0], _BLOCK):
        block = thetas[lo : lo + _BLOCK]
        values[lo : lo + block.shape[0]] = _exp_shifted(Xt, r, block, buf[: block.shape[0]])[0]
    return values


def _ascend(
    X: np.ndarray, r: float, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Normalized-gradient ascent (Psi, module docstring) from each row of ``starts``.

    ``X`` holds T x n rows, read through the kernel's n x T layout (module
    docstring). Returns (final thetas, G at each final theta, converged mask,
    merged mask, total updates, ascent violations); the merged mask is every
    start neither converged nor still active. Every iteration advances all
    active starts, _BLOCK at a time; rows are arithmetically independent, so
    a start that is never merged evaluates as it would alone. A start
    converges once Psi would move it at most _TOLERANCE, and keeps the point
    just evaluated with that kernel call's G. G is NaN at the other starts,
    which end at their unevaluated last Psi update; one still active after
    _MAX_ITERS updates is neither converged nor merged. After each iteration
    an active start is merged (retired, neither converged nor active) when
    its signed cosine with a converged start, or with an active start of
    lower index, is at least _MERGE_COS: it has joined that start's ascent.
    Total updates, one kernel evaluation each, include merged starts'.

    A start whose Psi step runs within cosine _AITKEN_COS of its previous
    plain step, and is shorter, jumps instead (module docstring). A jump
    whose G turns out below the G of the point it left is rejected: the start
    moves to that point's Psi update, and the rejected evaluation counts as
    an update but is not kept. A kept update whose G falls below the
    previous kept G by more than _ASCENT_SLACK, relative, counts as a
    violation.
    """
    Xt = np.ascontiguousarray(X.T)
    thetas = np.array(starts, dtype=float)
    n_starts, T = thetas.shape[0], X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    active = np.ones(n_starts, dtype=bool)
    last_g = np.full(n_starts, np.nan)
    last_step = np.full_like(thetas, np.nan)  # Psi(p) - p at each start's last kept p, or NaN
    jumped = np.zeros(n_starts, dtype=bool)  # thetas holds an unchecked jump, fallback its Psi(p)
    fallback = np.empty_like(thetas)
    total = violations = 0
    buf = np.empty((min(_BLOCK, n_starts), T))

    for _ in range(_MAX_ITERS):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        total += live.size
        for lo in range(0, live.size, _BLOCK):
            idx = live[lo : lo + _BLOCK]
            cur = thetas[idx]
            w = buf[: idx.size]
            g_here, _ = _exp_shifted(Xt, r, cur, w)

            prev, was_jump = last_g[idx], jumped[idx]
            back = was_jump & (g_here < prev)  # a jump that lowered G: take its fallback instead
            slack = _ASCENT_SLACK * np.maximum(1.0, np.abs(prev))
            violations += int(np.sum((g_here < prev - slack) & ~back))  # NaN compares False
            last_g[idx] = np.where(back, prev, g_here)

            # normalize(X^T w) = grad G / ||grad G||; a row whose sum is exactly zero stays put
            new = (Xt @ w.T).T
            norms = np.linalg.norm(new, axis=1, keepdims=True)
            new = np.where(norms == 0.0, cur, new / np.where(norms == 0.0, 1.0, norms))
            step = new - cur
            size = np.linalg.norm(step, axis=1)
            done = (size <= _TOLERANCE) & ~back

            # Aitken's delta-squared: a step parallel to the last plain one and shorter by the
            # ratio rho jumps to the limit of the geometric series, cur + step / (1 - rho)
            d_prev = last_step[idx]
            size_prev = np.linalg.norm(d_prev, axis=1)  # NaN: no plain step to compare with
            jump = ~(was_jump | done) & (size < size_prev)
            jump &= np.einsum("ij,ij->i", step, d_prev) >= _AITKEN_COS * size * size_prev
            j = np.flatnonzero(jump)
            fallback[idx[j]] = new[j]
            far = cur[j] + step[j] * (size_prev[j] / (size_prev[j] - size[j]))[:, None]
            new[j] = far / np.linalg.norm(far, axis=1, keepdims=True)
            new[back] = fallback[idx[back]]
            last_step[idx] = np.where(back[:, None], np.nan, step)  # no jump from a fallback
            jumped[idx] = jump

            thetas[idx[~done]] = new[~done]  # a converged start keeps the point G was taken at
            converged[idx[done]] = True
            active[idx[done]] = False

        live = np.flatnonzero(active)
        pool = np.flatnonzero(active | converged)
        anchors, ahead = thetas[pool].T, converged[pool]
        for lo in range(0, live.size, _BLOCK):
            idx = live[lo : lo + _BLOCK]
            near = (thetas[idx] @ anchors >= _MERGE_COS) & (ahead | (pool < idx[:, None]))
            active[idx[near.any(axis=1)]] = False

    thetas[jumped] = fallback[jumped]  # a start that stopped on an unchecked jump ends at its Psi
    g_final = np.where(converged, last_g, np.nan)  # G at each converged start's last point
    return thetas, g_final, converged, ~(converged | active), total, violations


def maximize_cgf(data: DataMatrix, r: float, config: MultistartConfig) -> MaximizerResult:
    """Multistart projected ascent of the sample CGF over the unit sphere.

    The starts are the config.n_starts largest nonzero rows, normalized, or
    all of them when there are fewer (module docstring). Each follows Psi,
    with its guarded jumps, until Psi would move it at most _TOLERANCE
    (1e-7), where it stays, or until it has made _MAX_ITERS (10,000)
    updates, or until it merges: within signed cosine _MERGE_COS (1 - 1e-4)
    of a converged start or an active start of lower index, it stops and
    counts as neither converged nor a candidate, though its updates count in
    total_iterations. The signed test keeps +-theta (different CGF values)
    apart, and no merge joins directions the dedup would keep. Converged
    points are ranked by CGF value and near-duplicates (|cosine| above
    _DEDUP_COS (0.995) with an already-kept, higher-valued direction) are
    discarded; for symmetric data the +-theta pair collapses to one
    representative. ``data`` is T x n in any memory layout; the result does
    not depend on the layout, nor the starts on the row order.

    Raises ValueError when the data are not 2-D or not finite, or every row
    is zero, and ConvergenceError (with partial results for every start)
    only when no start converges at all.
    """
    X = _rows(data)
    if not (r > 0):
        raise ValueError("r must be positive")
    Xt = np.ascontiguousarray(X.T)
    thetas, values, converged, merged, total, violations = _ascend(
        Xt.T, r, _row_starts(Xt, config.n_starts))
    counts = dict(total_iterations=total, ascent_violations=violations,
                  starts_converged=int(converged.sum()), starts_merged=int(merged.sum()))

    if not converged.any():
        partial = MaximizerResult(thetas, _batch_cgf(Xt.T, r, thetas), **counts)
        raise ConvergenceError(f"no start converged within {_MAX_ITERS} iterations", partial)

    cand = np.flatnonzero(converged)
    order = cand[np.argsort(-values[cand], kind="stable")]

    kept: list[int] = []
    for i in order:
        if not kept or np.abs(thetas[kept] @ thetas[i]).max() <= _DEDUP_COS:
            kept.append(int(i))

    return MaximizerResult(directions=thetas[kept], cgf_values=values[kept], **counts)


def refine_direction(values, r: float, theta) -> tuple[np.ndarray, int, bool]:
    """The ascent of maximize_cgf from the one start theta; the detector no longer calls it.

    It follows Psi and its guarded jumps with the same stop rule, _TOLERANCE
    (1e-7), and cap, _MAX_ITERS (10,000) updates, and returns (direction,
    updates, converged): the point the stop rule measured if converged, else
    the last Psi update.
    ``values`` are T x n rows, a DataMatrix or an array of any memory layout.
    """
    X, th = _values_theta(values, theta)
    if not (r > 0):
        raise ValueError("r must be positive")
    thetas, _, converged, _, updates, _ = _ascend(X, r, unit_vector(th)[None, :])
    return thetas[0], updates, bool(converged[0])
