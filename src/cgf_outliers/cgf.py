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
fixed-step projected ascent restarted from many random points; with step 1/r
the unnormalized update lands exactly on the weighted row mean, so each
iteration applies the map

    Phi(theta) = normalize(theta + weighted_row_mean(theta)).

The multistart advances all active starts together, in blocks of at most 64
so the buffer stays 64 x T, and retires (merges) a start once it lies within
signed cosine 1 - 1e-4 of a converged start or of an active start of lower
index: from there both climb to the same maximum, which the dedup (|cosine|
0.995) would keep once (the clustering multistart of Rinnooy Kan & Timmer,
Math. Programming 39, 1987). Re-estimating one maximum on changed data (the
refine) is a Riemannian BFGS ascent on the sphere with Armijo backtracking,
each step capped at a few lengths of the Phi step, or at twice a previous
step along which G was concave. Both stop at ||Phi(theta) - theta|| <= 1e-7,
or after 10,000 updates (kernel calls for the refine), and return Phi(theta).

The multistart splits its precision: cheap iterations in low precision, the
result certified in high precision (Higham & Mary, Acta Numerica 31, 2022).
A start's updates run the same kernel on a float32 copy of the data until one
moves it at most the switch step 3e-2, or raises G by no more than float32
round-off; its later updates read the float64 data, and only a float64 update
can stop it. Far from a maximum a float32 step serves as well as a float64
one, and a float32 kernel row costs about 60% of a float64 row. Near a
maximum Phi is a contraction, so the float64 updates shrink the float32 error
along with the step, and the stopping test certifies a float64 fixed point.
The float32 sums depend on the row order, so the switch step is a correctness
constant: permuting the rows of the equivariance test's data moved q-scores
by up to 9e-8 with the switch at 1e-3, and by 2e-10 at 3e-2. Thetas are
float64 throughout.

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
    "sample_unit_sphere",
    "maximize_cgf",
    "refine_direction",
]

_ASCENT_SLACK = 1e-12  # relative G decrease counted as a violation between float64 values
_COARSE_SLACK = 1e-5  # the same when either value is float32
_TOLERANCE = 1e-7  # an ascent stops once ||Phi(theta) - theta|| is at most this
_MAX_ITERS = 10_000  # updates per multistart start, kernel calls per refine
_DEDUP_COS = 0.995  # |cosine| above which a lower-valued maximum is a duplicate
_BLOCK = 64  # starts per kernel call in the multistart: a 64 x T buffer
_SWITCH_STEP = 3e-2  # a multistart start's updates run in float64 once one moves it at most this
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
    """n_starts random unit vectors drawn from seed; maximize_cgf fixes the rest."""

    n_starts: int = 1000
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
    slack, which Phi rules out in exact arithmetic (module docstring), so a
    nonzero count flags round-off or a broken kernel. The slack is relative:
    1e-12 (_ASCENT_SLACK) between two float64 G values, 1e-5 (_COARSE_SLACK)
    when either was computed in float32; the last step of a merged or
    unconverged start is checked only when no start converged. Of the
    n_starts starts, starts_converged converged, starts_merged were retired on
    joining another start's ascent (maximize_cgf), and the rest hit _MAX_ITERS.
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


def sample_unit_sphere(n: int, count: int, seed: int) -> np.ndarray:
    """count x n starting directions, uniform on the sphere (normalized normals)."""
    if n < 1 or count < 1:
        raise ValueError("n and count must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, n))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):  # essentially unreachable; keeps the math safe
        bad = norms < 1e-12
        v[bad] = rng.standard_normal((int(bad.sum()), n))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None]


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
    that did not converge, unless none did. Every iteration advances all
    active starts, _BLOCK at a time; rows are arithmetically independent, so
    a start that is never merged evaluates as it would alone. A start's
    updates read a float32 copy of the data until one moves it at most
    _SWITCH_STEP, or raises G by no more than the float32 slack; from then on
    they read the float64 data, and only a float64 update can stop it at
    _TOLERANCE. A start still active after _MAX_ITERS updates is neither
    converged nor merged. Thetas are float64 throughout. After each iteration
    an active start is merged (retired, neither converged nor active) when
    its signed cosine with a converged start, or with an active start of
    lower index, is at least _MERGE_COS: it has joined that start's ascent.
    Total updates include those of merged starts.

    An update whose G falls below the previous update's G by more than the
    slack counts as a violation: _ASCENT_SLACK relative when both values are
    float64, _COARSE_SLACK when either is float32.
    """
    Xt = np.ascontiguousarray(X.T)
    thetas = np.array(starts, dtype=float)
    n_starts, T = thetas.shape[0], X.shape[0]
    converged = np.zeros(n_starts, dtype=bool)
    active = np.ones(n_starts, dtype=bool)
    coarse = np.ones(n_starts, dtype=bool)
    last_g = np.full(n_starts, np.nan)
    last_slack = np.full(n_starts, _ASCENT_SLACK)  # relative slack of the dtype last_g came from
    total = violations = 0
    rows = min(_BLOCK, n_starts)
    buf = np.empty((rows, T))
    kernels = {True: (Xt.astype(np.float32), np.empty((rows, T), np.float32), _COARSE_SLACK),
               False: (Xt, buf, _ASCENT_SLACK)}

    for _ in range(_MAX_ITERS):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        total += live.size
        for low, group in ((True, live[coarse[live]]), (False, live[~coarse[live]])):
            Xk, kbuf, rel = kernels[low]
            for lo in range(0, group.size, _BLOCK):
                idx = group[lo : lo + _BLOCK]
                cur = thetas[idx]
                w = kbuf[: idx.size]
                g_here, wsum = _exp_shifted(Xk, r, cur.astype(Xk.dtype), w)

                prev = last_g[idx]
                slack = np.maximum(last_slack[idx], rel) * np.maximum(1.0, np.abs(prev))
                violations += int(np.sum(g_here < prev - slack))  # NaN compares False
                last_g[idx], last_slack[idx] = g_here, rel

                new = _fixed_step(cur, (Xk @ w.T).T / wsum[:, None])
                delta = np.linalg.norm(new - cur, axis=1)
                thetas[idx] = new
                if low:  # switch at a short step, or where float32 no longer sees G rise
                    coarse[idx[(delta <= _SWITCH_STEP) | (g_here <= prev + slack)]] = False
                    continue
                done = delta <= _TOLERANCE
                converged[idx[done]] = True
                active[idx[done]] = False

        live = np.flatnonzero(active)
        pool = np.flatnonzero(active | converged)
        anchors, ahead = thetas[pool].T, converged[pool]
        for lo in range(0, live.size, _BLOCK):
            idx = live[lo : lo + _BLOCK]
            near = (thetas[idx] @ anchors >= _MERGE_COS) & (ahead | (pool < idx[:, None]))
            active[idx[near.any(axis=1)]] = False

    # G at the candidates (every start when none converged), closing their ascent check
    ends = converged if converged.any() else np.ones(n_starts, dtype=bool)
    g_final = np.full(n_starts, np.nan)
    g_final[ends] = _batch_cgf(Xt.T, r, thetas[ends], buf)
    slack = last_slack * np.maximum(1.0, np.abs(last_g))
    violations += int(np.sum(g_final < last_g - slack))  # NaN on either side compares False

    return thetas, g_final, converged, ~(converged | active), total, violations


def maximize_cgf(data: DataMatrix, r: float, config: MultistartConfig) -> MaximizerResult:
    """Multistart projected ascent of the sample CGF over the unit sphere.

    Starts are drawn from ``config.seed``; each follows the fixed-step update,
    in float32 while far from a maximum (module docstring), until a float64
    update moves it at most _TOLERANCE (1e-7) or it has made _MAX_ITERS
    (10,000) updates, or until it merges: within signed cosine _MERGE_COS
    (1 - 1e-4) of a converged start or an active start of lower index, it
    stops and counts as neither converged nor a candidate, though its updates
    count in total_iterations. The signed test keeps +-theta (different CGF
    values) apart, and no merge joins directions the dedup would keep.
    Converged points are ranked by CGF value and near-duplicates (|cosine|
    above _DEDUP_COS (0.995) with an already-kept, higher-valued direction)
    are discarded; most starts land on the same handful of maxima, and for
    symmetric data the +-theta pair collapses to one representative.
    ``data`` is T x n in any memory layout; the result does not depend on the
    layout.

    Raises ConvergenceError (with partial results for all n_starts starts
    attached) only when no start converges at all.
    """
    X = _rows(data)
    if not (r > 0):
        raise ValueError("r must be positive")
    starts = sample_unit_sphere(X.shape[1], config.n_starts, config.seed)
    thetas, values, converged, merged, total, violations = _ascend(X, r, starts)
    counts = dict(total_iterations=total, ascent_violations=violations,
                  starts_converged=int(converged.sum()), starts_merged=int(merged.sum()))

    if not converged.any():
        partial = MaximizerResult(directions=thetas, cgf_values=values, **counts)
        raise ConvergenceError(f"no start converged within {_MAX_ITERS} iterations", partial)

    cand = np.flatnonzero(converged)
    order = cand[np.argsort(-values[cand], kind="stable")]

    kept: list[int] = []
    for i in order:
        if not kept or np.abs(thetas[kept] @ thetas[i]).max() <= _DEDUP_COS:
            kept.append(int(i))

    return MaximizerResult(directions=thetas[kept], cgf_values=values[kept], **counts)


def refine_direction(values: np.ndarray, r: float, theta) -> tuple[np.ndarray, int, bool]:
    """Single warm-started ascent run used to track a maximum on shrinking data.

    Riemannian BFGS ascent of G on the unit sphere (Absil, Mahony & Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008, ch. 4 and 8; Huang,
    Gallivan & Absil, SIAM J. Optim. 25(3), 2015). Each trial point costs one
    kernel call, which gives G, the Riemannian gradient r(mu - (theta . mu)
    theta) of the weighted row mean mu, and Phi (module docstring). The step
    d = H grad, projected onto the tangent space, starts from H = I/r, the
    fixed step's scale. Its length is capped at _STEP_CAP * ||Phi(theta) -
    theta||, or at twice the previous step if G was concave along that one:
    the cap keeps most runs at the maximum the plain map reaches, and the
    doubling lets a run cross a flat maximum, where the Phi step is tiny, in
    few steps. The step is halved along the retraction normalize(theta + t d)
    until G rises by the Armijo margin. When d is no ascent direction, or
    halving drives t ||d|| below _TOLERANCE, H restarts at I/r; in the
    second case the plain Phi step is taken. H takes the rank-2 BFGS update
    from the step and gradient change projected onto the new tangent space,
    skipped without positive curvature. Stops when ||Phi(theta) - theta|| <=
    _TOLERANCE (1e-7) and returns Phi(theta).

    Returns (direction, kernel calls used, converged); backtracking trials
    count as calls. A run that reaches _MAX_ITERS (10,000) calls keeps the
    Phi step of its last accepted point: the caller is tracking a local
    maximum across small data changes, where that is the best available
    estimate. ``values`` are T x n rows, an array of any memory layout; a view
    over an n x T array is not copied.
    """
    if not (r > 0):
        raise ValueError("r must be positive")
    Xt = np.ascontiguousarray(np.asarray(values, dtype=float).T)
    buf = np.empty((1, Xt.shape[1]))

    def evaluate(th: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        g, wsum = _exp_shifted(Xt, r, th[None, :], buf)
        mu = (Xt @ buf[0]) / wsum[0]
        v = th + mu  # Phi(th) = v / ||v||, or th where v is exactly zero
        norm = math.sqrt(v @ v)
        return float(g[0]), r * (mu - (th @ mu) * th), v / norm if norm > 0.0 else th

    theta = unit_vector(theta)
    g, grad, phi = evaluate(theta)
    used = 1
    H = fresh = np.eye(theta.shape[0]) / r
    radius = 0.0
    while True:
        step = float(np.linalg.norm(phi - theta))
        if step <= _TOLERANCE:
            return phi, used, True
        if used >= _MAX_ITERS:
            return phi, used, False

        d = H @ grad
        d -= (theta @ d) * theta
        slope = float(grad @ d)
        if not slope > 0.0:
            H = fresh
            d = grad / r
            slope = float(grad @ d)
        d_norm = float(np.linalg.norm(d))
        t = min(1.0, max(_STEP_CAP * step, radius) / d_norm)
        while t * d_norm >= _TOLERANCE:
            trial = theta + t * d
            trial /= np.linalg.norm(trial)
            g_new, grad_new, phi_new = evaluate(trial)
            used += 1
            if g_new >= g + _ARMIJO * t * slope:
                break
            if used >= _MAX_ITERS:
                return phi, used, False
            t *= 0.5
        else:  # no step above _TOLERANCE ascends: the plain map, curvature dropped
            theta, H, radius = phi, fresh, 0.0
            g, grad, phi = evaluate(theta)
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
        theta, g, grad, phi = trial, g_new, grad_new, phi_new
