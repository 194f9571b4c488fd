"""Empirical cumulant generating function along projections, and its maximizers.

For a centered T x n matrix X and a direction theta on the unit sphere, the
sample CGF at radius r is

    G(r, theta) = ln( (1/T) * sum_t exp(r * theta . X_t) ),

evaluated with max-subtraction (log-sum-exp) so large exponents cannot
overflow. Its gradient in theta is r times the exponentially weighted mean of
the rows. One kernel serves every evaluation: it reads the data transposed,
as an n x T C-contiguous array X^T, and writes exp((r * Theta) X^T - rowmax)
in place into a caller-owned buffer W, from which the weighted row sums are
X^T W^T. Callers pass T x n rows; a view over an n x T array (as
`detector.fit` makes) is used without a copy, any other layout is transposed
once per call.

Directions that locally maximize G over the unit sphere are found by a
fixed-step projected ascent restarted from the rows of largest norm; with
step 1/r the unnormalized update lands exactly on the weighted row mean, so
each iteration applies the map

    Phi(theta) = normalize(theta + weighted_row_mean(theta)).

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
Math. Programming 39, 1987). A start stops at ||Phi(theta) - theta|| <= 1e-7,
or after 10,000 updates, and the multistart runs in float64. Re-estimating
one maximum on changed data (the refine) is a Riemannian BFGS ascent on the
sphere with Armijo backtracking, each step capped at a few lengths of the
Phi step, or at twice a previous step along which G was concave. It runs on
a float32 copy of the data, whose kernel calls cost about half as much,
until the Phi step is at most 1e-3. It then certifies the maximum in
float64 with Riemannian Newton steps, down to a step of 1e-13, within
10,000 kernel calls in all, and returns Phi(theta).

Phi never lowers G. F(theta) = G(theta) + (r/2) ||theta||^2 is convex
because G is, and Phi(theta) = grad F / ||grad F||, so for unit theta
F(Phi) >= F(theta) + grad F . (Phi - theta) >= F(theta) (Cauchy-Schwarz);
F - G is constant on the sphere. This is the generalized power method of
Journee, Nesterov, Richtarik & Sepulchre (JMLR 11, 2010).

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
_TOLERANCE = 1e-7  # an ascent stops once ||Phi(theta) - theta|| is at most this
_SWITCH = 1e-3  # the refine leaves its float32 copy once ||Phi(theta) - theta|| is at most this
_CERTIFIED = 1e-13  # the refine returns once a float64 ||Phi(theta) - theta|| is at most this
_CHORD = 0.1  # a Newton step that shrinks the Phi step at least this much keeps its Hessian
_MAX_ITERS = 10_000  # updates per multistart start, kernel calls per refine
_DEDUP_COS = 0.995  # |cosine| above which a lower-valued maximum is a duplicate
_BLOCK = 64  # starts per kernel call in the multistart: a 64 x T buffer
_MERGE_COS = 1.0 - 1e-4  # signed cosine at which a multistart start has joined another's ascent
_STEP_CAP = 5.0  # refine step bound in Phi steps; larger bounds reach other maxima more often
_ARMIJO = 1e-4  # sufficient-increase constant of the refine's backtracking


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

    directions[k] is a unit row vector and cgf_values[k] its sample CGF.
    total_iterations sums updates over every start, kept, dropped by the dedup
    or merged; ascent_violations counts iterations whose CGF decreased beyond
    slack, relative 1e-12 (_ASCENT_SLACK), which Phi rules out in exact
    arithmetic (module docstring), so a nonzero count flags round-off or a
    broken kernel; the last step of a merged or unconverged start is not
    checked. Of the min(n_starts, nonzero rows) starts, starts_converged
    converged, starts_merged were retired on joining another start's ascent
    (maximize_cgf), and the rest hit _MAX_ITERS.
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
    return data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=float)


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
    norms = np.sqrt((Xt * Xt).sum(axis=0))
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


def _batch_cgf(
    X: np.ndarray, r: float, thetas: np.ndarray, buf: np.ndarray | None = None
) -> np.ndarray:
    # buf, when given, is a kernel buffer with at least min(_BLOCK, len(thetas)) rows
    Xt = np.ascontiguousarray(X.T)
    values = np.empty(thetas.shape[0])
    if buf is None:
        buf = np.empty((min(_BLOCK, thetas.shape[0]), X.shape[0]))
    for lo in range(0, thetas.shape[0], _BLOCK):
        block = thetas[lo : lo + _BLOCK]
        values[lo : lo + block.shape[0]] = _exp_shifted(Xt, r, block, buf[: block.shape[0]])[0]
    return values


def _fixed_step(cur: np.ndarray, step: np.ndarray) -> np.ndarray:
    # Phi on each row: normalize(cur + step); a row whose sum is exactly zero stays put
    new = cur + step
    norms = np.linalg.norm(new, axis=1, keepdims=True)
    stalled = norms == 0.0
    return np.where(stalled, cur, new / np.where(stalled, 1.0, norms))


def _ascend(
    X: np.ndarray, r: float, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Fixed-step projected ascent from each row of ``starts``.

    ``X`` holds T x n rows, read through the kernel's n x T layout (module
    docstring). Returns (final thetas, G at each final theta, converged mask,
    merged mask, total updates, ascent violations); the merged mask is every
    start neither converged nor still active. G is NaN at the starts
    that did not converge. Every iteration advances all
    active starts, _BLOCK at a time; rows are arithmetically independent, so
    a start that is never merged evaluates as it would alone. A start stops
    once an update moves it at most _TOLERANCE; one still active after
    _MAX_ITERS updates is neither converged nor merged. After each iteration
    an active start is merged (retired, neither converged nor active) when
    its signed cosine with a converged start, or with an active start of
    lower index, is at least _MERGE_COS: it has joined that start's ascent.
    Total updates include those of merged starts.

    An update whose G falls below the previous update's G by more than
    _ASCENT_SLACK, relative, counts as a violation.
    """
    Xt = np.ascontiguousarray(X.T)
    thetas = np.array(starts, dtype=float)
    n_starts, T = thetas.shape[0], X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    active = np.ones(n_starts, dtype=bool)
    last_g = np.full(n_starts, np.nan)
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
            g_here, wsum = _exp_shifted(Xt, r, cur, w)

            prev = last_g[idx]
            slack = _ASCENT_SLACK * np.maximum(1.0, np.abs(prev))
            violations += int(np.sum(g_here < prev - slack))  # NaN compares False
            last_g[idx] = g_here

            new = _fixed_step(cur, (Xt @ w.T).T / wsum[:, None])
            done = np.linalg.norm(new - cur, axis=1) <= _TOLERANCE
            thetas[idx] = new
            converged[idx[done]] = True
            active[idx[done]] = False

        live = np.flatnonzero(active)
        pool = np.flatnonzero(active | converged)
        anchors, ahead = thetas[pool].T, converged[pool]
        for lo in range(0, live.size, _BLOCK):
            idx = live[lo : lo + _BLOCK]
            near = (thetas[idx] @ anchors >= _MERGE_COS) & (ahead | (pool < idx[:, None]))
            active[idx[near.any(axis=1)]] = False

    # G at the candidates, closing their ascent check
    g_final = np.full(n_starts, np.nan)
    g_final[converged] = _batch_cgf(Xt.T, r, thetas[converged], buf)
    slack = _ASCENT_SLACK * np.maximum(1.0, np.abs(last_g))
    violations += int(np.sum(g_final < last_g - slack))  # NaN on either side compares False

    return thetas, g_final, converged, ~(converged | active), total, violations


def maximize_cgf(data: DataMatrix, r: float, config: MultistartConfig) -> MaximizerResult:
    """Multistart projected ascent of the sample CGF over the unit sphere.

    The starts are the config.n_starts largest nonzero rows, normalized, or
    all of them when there are fewer (module docstring). Each follows the
    fixed-step update until an update moves it at most _TOLERANCE (1e-7) or
    it has made _MAX_ITERS (10,000) updates, or until it merges: within
    signed cosine _MERGE_COS (1 - 1e-4) of a converged start or an active
    start of lower index, it stops and counts as neither converged nor a
    candidate, though its updates count in total_iterations. The signed test
    keeps +-theta (different CGF values) apart, and no merge joins directions
    the dedup would keep. Converged points are ranked by CGF value and
    near-duplicates (|cosine| above _DEDUP_COS (0.995) with an already-kept,
    higher-valued direction) are discarded; for symmetric data the +-theta
    pair collapses to one representative. ``data`` is T x n in any memory
    layout; the result does not depend on the layout, nor the starts on the
    row order.

    Raises ValueError when every row is zero, and ConvergenceError (with
    partial results for every start) only when no start converges at all.
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


def refine_direction(values: np.ndarray, r: float, theta) -> tuple[np.ndarray, int, bool]:
    """Single warm-started ascent run from theta; the detector no longer calls it.

    Every trial point costs one kernel call, which gives G, the weighted row
    mean mu, the Riemannian gradient r(mu - (theta . mu) theta) and Phi
    (module docstring). The run has two phases.

    Explore, on a float32 copy of the data: Riemannian BFGS ascent of G on
    the unit sphere (Absil, Mahony & Sepulchre, Optimization Algorithms on
    Matrix Manifolds, 2008, ch. 4 and 8; Huang, Gallivan & Absil, SIAM J.
    Optim. 25(3), 2015). The step d = H grad, projected onto the tangent
    space, starts from H = I/r, the fixed step's scale. Its length is capped
    at _STEP_CAP * ||Phi(theta) - theta||, or at twice the previous step if G
    was concave along that one: the cap keeps most runs at the maximum the
    plain map reaches, and the doubling lets a run cross a flat maximum,
    where the Phi step is tiny, in few steps. The step is halved along the
    retraction normalize(theta + t d) until G rises by the Armijo margin.
    When d is no ascent direction, H restarts at I/r; when halving drives
    t ||d|| below _TOLERANCE, H restarts and the plain Phi step is taken. H
    takes the rank-2 BFGS update from the step and gradient change projected
    onto the new tangent space, skipped without positive curvature. The
    phase ends once ||Phi(theta) - theta|| <= _SWITCH (1e-3).

    Certify, on the float64 data from the same point: Riemannian Newton
    steps (Absil et al., ch. 6). With P = I - theta theta^T and Sigma_w the
    weighted covariance of the rows, the tangent Newton step d solves
    (r (theta . mu) P - r^2 P Sigma_w P) d = grad. Sigma_w is a syrk of the
    float64 data scaled by sqrt(w), from the kernel's weights w: no kernel
    call, but as costly as about five at n = 30, so a Hessian serves the
    next step too while its step shrinks the Phi step at least tenfold
    (_CHORD). The step is taken when the float64 Phi step at
    normalize(theta + d) is shorter. When the tangent Hessian is not
    negative definite (Cholesky fails), or the Newton step is not shorter,
    the BFGS step above is taken on the float64 data instead; after a
    failed Cholesky no Hessian is formed until the Phi step has halved. The
    run returns Phi(theta) at the first float64 ||Phi(theta) - theta|| <=
    _CERTIFIED (1e-13). Once a float64 step of at most _TOLERANCE (1e-7) has
    been reached (converged), it also returns at the first Newton step that
    is not shorter: the float64 floor. The Phi step understates the
    distance to a flat maximum, where Phi contracts slowly: at a step of
    1e-11 a refine was still 1.8e-10 from its maximum.

    Returns (direction, kernel calls used, converged); calls in either
    precision and backtracking trials count. A run that reaches _MAX_ITERS
    (10,000) calls keeps the Phi step of its last accepted point, and is
    converged if it reached _TOLERANCE in float64 on the way: the caller is
    tracking a local maximum across small data changes, where that is the
    best available estimate. ``values`` are T x n rows, an array of any
    memory layout; a view over an n x T array is not copied.
    """
    if not (r > 0):
        raise ValueError("r must be positive")
    Xt = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    Xt32 = Xt.astype(np.float32)
    scaled = np.empty_like(Xt)
    data, buf = Xt32, np.empty((1, Xt.shape[1]), np.float32)

    def evaluate(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
        g, wsum = _exp_shifted(data, r, th[None, :].astype(data.dtype), buf)
        mu = (data @ buf[0]).astype(float) / wsum[0]
        v = th + mu  # Phi(th) = v / ||v||, or th where v is exactly zero
        norm = math.sqrt(v @ v)
        return float(g[0]), r * (mu - (th @ mu) * th), v / norm if norm > 0.0 else th, mu

    def hessian(th: np.ndarray, mu: np.ndarray) -> np.ndarray | None:
        # -Hess on the tangent space plus th th^T, from the float64 weights in buf;
        # None unless it is positive definite, that is, unless G is concave at th
        w = buf[0]
        np.multiply(Xt, np.sqrt(w), out=scaled)
        cov = (scaled @ scaled.T) / w.sum() - np.outer(mu, mu)
        P = np.eye(th.shape[0]) - np.outer(th, th)
        M = r * (th @ mu) * P - r * r * (P @ cov @ P) + np.outer(th, th)
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return None
        return M

    theta = unit_vector(theta)
    g, grad, phi, mu = evaluate(theta)
    used = 1
    H = fresh = np.eye(theta.shape[0]) / r
    radius, converged = 0.0, False
    M, hessian_below = None, math.inf
    while True:
        step = float(np.linalg.norm(phi - theta))
        certify = data is Xt
        converged = converged or (certify and step <= _TOLERANCE)
        if (certify and step <= _CERTIFIED) or used >= _MAX_ITERS:
            return phi, used, converged
        if not (certify or step > _SWITCH):  # a NaN step (float32 overflow) switches too
            data, buf = Xt, np.empty((1, Xt.shape[1]))
            g, grad, phi, mu = evaluate(theta)
            used += 1
            continue

        if certify and M is None and step < hessian_below:
            M = hessian(theta, mu)
            if M is None:  # not concave here: no Hessian until the step has halved
                hessian_below = 0.5 * step
        d = None if M is None else np.linalg.solve(M, grad)
        if d is not None:
            t, d_norm = 1.0, float(np.linalg.norm(d))
            trial = theta + d
            trial /= np.linalg.norm(trial)
            g_new, grad_new, phi_new, mu_new = evaluate(trial)
            used += 1
            new_step = float(np.linalg.norm(phi_new - trial))
            if not new_step <= _CHORD * step:  # the next step re-forms the Hessian
                M = None
            if not new_step < step:
                if converged or used >= _MAX_ITERS:  # the float64 floor, or out of calls
                    return phi, used, converged
                d = None
        if d is None:
            d = H @ grad
            d -= (theta @ d) * theta
            slope = float(grad @ d)
            if not slope > 0.0:
                H = fresh
                d = grad / r
                slope = float(grad @ d)
            d_norm = float(np.linalg.norm(d))
            t = min(1.0, max(_STEP_CAP * step, radius) / d_norm) if d_norm > 0.0 else 0.0
            while t * d_norm >= _TOLERANCE:
                trial = theta + t * d
                trial /= np.linalg.norm(trial)
                g_new, grad_new, phi_new, mu_new = evaluate(trial)
                used += 1
                if g_new >= g + _ARMIJO * t * slope:
                    break
                if used >= _MAX_ITERS:
                    return phi, used, converged
                t *= 0.5
            else:  # no step above _TOLERANCE ascends: the plain map, curvature dropped
                theta, H, radius = phi, fresh, 0.0
                g, grad, phi, mu = evaluate(theta)
                used += 1
                continue

        s = (trial @ theta) * trial - theta  # trial - theta, projected at trial
        y = grad - (trial @ grad) * trial - grad_new  # gradient change of -G
        sy = float(s @ y)
        radius = 0.0
        if sy > 0.0:  # G is concave along the step: the next one may be twice as long
            radius = 2.0 * t * d_norm
            Hy = H @ y
            half = np.outer(s, (0.5 * (1.0 + (y @ Hy) / sy) * s - Hy) / sy)
            H = H + half + half.T  # the inverse BFGS update, symmetric rank 2
        theta, g, grad, phi, mu = trial, g_new, grad_new, phi_new, mu_new
