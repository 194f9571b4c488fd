"""Empirical cumulant generating function along projections, and its maximizers.

For a centered T x n matrix X and a direction theta on the unit sphere, the
sample CGF at radius r is

    G(r, theta) = ln( (1/T) * sum_t exp(r * theta . X_t) ),

evaluated with max-subtraction (log-sum-exp) so large exponents cannot
overflow. Its gradient in theta is r times the exponentially weighted mean of
the rows. One kernel serves every evaluation: it writes
exp(r * Theta X^T - rowmax) in place into a caller-owned buffer.

Directions that locally maximize G over the unit sphere are found by a
fixed-step projected ascent restarted from many random points; with step 1/r
the unnormalized update lands exactly on the weighted row mean, so each
iteration applies the map

    Phi(theta) = normalize(theta + weighted_row_mean(theta)).

The multistart advances all active starts together, in blocks of at most 256
so the buffer stays 256 x T. Re-estimating one maximum on changed data (the
refine) accelerates Phi by Anderson mixing (Walker & Ni, SIAM J. Numer. Anal.
49(4), 2011), keeping a mixed candidate only if G does not drop. Both stop at
||Phi(theta) - theta|| <= tolerance and return Phi(theta).

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

# A direction is just a unit-norm 1-D float array; the alias documents intent.
UnitDirection = np.ndarray

_ASCENT_SLACK = 1e-12
_BLOCK = 256  # starts per kernel call in the multistart
_ANDERSON_DEPTH = 5  # residual differences kept by the refine
_RIDGE = 1e-8  # Tikhonov weight of the mixing least squares, relative to its trace


class ConvergenceError(RuntimeError):
    """No ascent start converged within max_iters. Carries partial results."""

    def __init__(self, message: str, partial: "MaximizerResult | None" = None):
        super().__init__(message)
        self.partial = partial


def unit_vector(v) -> UnitDirection:
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
    """Knobs for the multistart ascent.

    n_starts random unit vectors; iteration stops when the update moves less
    than `tolerance` in Euclidean norm or after max_iters updates; converged
    points closer than `dedup_cos` in |cosine| to a better one are dropped.
    """

    n_starts: int = 1000
    tolerance: float = 1e-7
    max_iters: int = 10_000
    seed: int = 0
    dedup_cos: float = 0.995

    def __post_init__(self) -> None:
        if self.n_starts < 1:
            raise ValueError("n_starts must be >= 1")
        if not (self.tolerance > 0):
            raise ValueError("tolerance must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (0.0 < self.dedup_cos < 1.0):
            raise ValueError("dedup_cos must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class MaximizerResult:
    """Distinct local maxima found by the multistart, CGF-descending.

    directions[k] is a unit row vector, cgf_values[k] its sample CGF, and
    iteration_counts[k] the updates its winning start used. total_iterations
    sums updates over every start (kept or not); ascent_violations counts
    iterations whose CGF decreased beyond slack (the fixed 1/r step does not
    guarantee monotone ascent in theory, so violations are reported rather
    than repaired).
    """

    directions: np.ndarray
    cgf_values: np.ndarray
    iteration_counts: np.ndarray
    total_iterations: int = 0
    ascent_violations: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "directions", _readonly(self.directions))
        object.__setattr__(self, "cgf_values", _readonly(self.cgf_values))
        counts = np.array(self.iteration_counts, dtype=int, copy=True)
        counts.setflags(write=False)
        object.__setattr__(self, "iteration_counts", counts)

    def __len__(self) -> int:
        return self.directions.shape[0]


def _values_theta(data, theta) -> tuple[np.ndarray, np.ndarray]:
    X = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=float)
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
    if r == 0.0:
        return 0.0
    return float(_batch_cgf(X, r, th[None, :])[0])


def cgf_gradient(data: DataMatrix, r: float, theta) -> np.ndarray:
    """Gradient of the sample CGF in theta: r times the exp-weighted row mean."""
    X, th = _values_theta(data, theta)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0.0:
        return np.zeros(X.shape[1])
    w = np.empty((1, X.shape[0]))
    _, wsum = _exp_shifted(X, r, th[None, :], w)
    return r * (w[0] @ X) / wsum[0]


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


def _curve_argmin() -> float:
    # stationarity of (e**a - 1)/a**2: e**a (a - 2) + 2 = 0, bracketed in [1, 2]
    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) * (mid - 2.0) + 2.0 < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)


_A_STAR = _curve_argmin()  # ~1.5936242600400400


def select_radius(lambda1: float, T: int, target_eps: float) -> RadiusSelection:
    """Pick the projection radius from the relative-error curve.

    The error eps(r) = sqrt(relative_variance(r, lambda1, T)) is U-shaped in
    a = r**2 * lambda1. If its minimum is at or below ``target_eps``, the
    LARGEST radius with eps <= target_eps (the root on the increasing branch)
    is returned, located by doubling + bisection to 1e-8 relative; larger
    radii weigh higher-order cumulants more, so the budget is spent. If the
    minimum exceeds the target no radius qualifies: the argmin radius is
    returned with feasible=False and eps_achieved reporting the attainable
    minimum.
    """
    if not (lambda1 > 0):
        raise ValueError("lambda1 must be positive")
    if T < 2:
        raise ValueError("T must be >= 2")
    if not (0.0 < target_eps < 1.0):
        raise ValueError("target_eps must lie in (0, 1)")

    target_sq = target_eps * target_eps
    eps_min_sq = _error_sq(_A_STAR, T)
    if eps_min_sq > target_sq:
        return RadiusSelection(
            r_bar=math.sqrt(_A_STAR / lambda1),
            lambda1=lambda1,
            target_eps=target_eps,
            feasible=False,
            eps_achieved=math.sqrt(eps_min_sq),
        )

    # bracket the increasing-branch root: error(lo) <= target < error(hi)
    lo = _A_STAR
    hi = 2.0 * _A_STAR
    while _error_sq(hi, T) <= target_sq:
        lo = hi
        hi *= 2.0
    while hi - lo > 1e-8 * lo:
        mid = 0.5 * (lo + hi)
        if _error_sq(mid, T) <= target_sq:
            lo = mid
        else:
            hi = mid
    # lo keeps error <= target, so the feasibility invariant holds exactly
    return RadiusSelection(
        r_bar=math.sqrt(lo / lambda1),
        lambda1=lambda1,
        target_eps=target_eps,
        feasible=True,
        eps_achieved=math.sqrt(_error_sq(lo, T)),
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
    X: np.ndarray, r: float, thetas: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Write exp(r * thetas @ X.T - rowmax) into ``out``; return (rowmax, rowsum).

    ``out`` is a caller-owned C-contiguous len(thetas) x T buffer, the one
    T-sized array every CGF value, gradient and ascent step is read from.
    """
    np.matmul(thetas, X.T, out=out)
    out *= r
    m = out.max(axis=1)
    out -= m[:, None]
    np.exp(out, out=out)
    return m, out.sum(axis=1)


def _batch_cgf(X: np.ndarray, r: float, thetas: np.ndarray) -> np.ndarray:
    values = np.empty(thetas.shape[0])
    buf = np.empty((min(_BLOCK, thetas.shape[0]), X.shape[0]))
    for lo in range(0, thetas.shape[0], _BLOCK):
        block = thetas[lo : lo + _BLOCK]
        m, wsum = _exp_shifted(X, r, block, buf[: block.shape[0]])
        values[lo : lo + block.shape[0]] = m + np.log(wsum / X.shape[0])
    return values


def _fixed_step(cur: np.ndarray, step: np.ndarray) -> np.ndarray:
    # Phi on each row: normalize(cur + step); a row whose sum is exactly zero stays put
    new = cur + step
    norms = np.linalg.norm(new, axis=1, keepdims=True)
    stalled = norms == 0.0
    return np.where(stalled, cur, new / np.where(stalled, 1.0, norms))


def _ascend(
    X: np.ndarray,
    r: float,
    starts: np.ndarray,
    tolerance: float,
    max_iters: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Fixed-step projected ascent from each row of ``starts``.

    Returns (final thetas, per-start update counts, converged mask, total
    updates, ascent violations). Every iteration advances all active starts,
    _BLOCK at a time; rows are arithmetically independent, so the batch
    evaluates as a per-start loop would.
    """
    thetas = np.array(starts, dtype=float)
    n_starts = thetas.shape[0]
    iters = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)
    active = np.ones(n_starts, dtype=bool)
    last_g = np.full(n_starts, np.nan)
    violations = 0
    buf = np.empty((min(_BLOCK, n_starts), X.shape[0]))

    for _ in range(max_iters):
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        for lo in range(0, live.size, _BLOCK):
            idx = live[lo : lo + _BLOCK]
            cur = thetas[idx]
            w = buf[: idx.size]
            m, wsum = _exp_shifted(X, r, cur, w)

            g_here = m + np.log(wsum / X.shape[0])
            prev = last_g[idx]
            seen = ~np.isnan(prev)
            slack = _ASCENT_SLACK * np.maximum(1.0, np.abs(prev[seen]))
            violations += int(np.sum(g_here[seen] < prev[seen] - slack))
            last_g[idx] = g_here

            new = _fixed_step(cur, (w @ X) / wsum[:, None])
            delta = np.linalg.norm(new - cur, axis=1)
            thetas[idx] = new
            iters[idx] += 1
            done = delta <= tolerance
            converged[idx[done]] = True
            active[idx[done]] = False

    # close the ascent check on the accepted iterates
    idx = np.flatnonzero(~np.isnan(last_g))
    if idx.size:
        g_final = _batch_cgf(X, r, thetas[idx])
        slack = _ASCENT_SLACK * np.maximum(1.0, np.abs(last_g[idx]))
        violations += int(np.sum(g_final < last_g[idx] - slack))

    return thetas, iters, converged, int(iters.sum()), violations


def maximize_cgf(data: DataMatrix, r: float, config: MultistartConfig) -> MaximizerResult:
    """Multistart projected ascent of the sample CGF over the unit sphere.

    Starts are drawn from ``config.seed``; each follows the fixed-step update
    until it moves less than ``config.tolerance`` or hits ``max_iters``.
    Converged points are ranked by CGF value and near-duplicates (|cosine|
    above ``dedup_cos`` with an already-kept, higher-valued direction) are
    discarded; most starts land on the same handful of maxima, and for
    symmetric data the +-theta pair collapses to one representative.

    Raises ConvergenceError (with partial results attached) only when no
    start converges at all.
    """
    X = data.values if isinstance(data, DataMatrix) else np.asarray(data, dtype=float)
    if not (r > 0):
        raise ValueError("r must be positive")
    starts = sample_unit_sphere(X.shape[1], config.n_starts, config.seed)
    thetas, iters, converged, total, violations = _ascend(
        X, r, starts, config.tolerance, config.max_iters
    )

    if not converged.any():
        values = _batch_cgf(X, r, thetas)
        partial = MaximizerResult(
            directions=thetas,
            cgf_values=values,
            iteration_counts=iters,
            total_iterations=total,
            ascent_violations=violations,
        )
        raise ConvergenceError(
            f"no start converged within {config.max_iters} iterations", partial
        )

    cand = np.flatnonzero(converged)
    values = _batch_cgf(X, r, thetas[cand])
    order = cand[np.argsort(-values, kind="stable")]
    value_of = dict(zip(cand.tolist(), values.tolist()))

    kept: list[int] = []
    for i in order:
        theta_i = thetas[i]
        if all(abs(float(theta_i @ thetas[k])) <= config.dedup_cos for k in kept):
            kept.append(int(i))

    return MaximizerResult(
        directions=thetas[kept],
        cgf_values=np.array([value_of[k] for k in kept]),
        iteration_counts=iters[kept],
        total_iterations=total,
        ascent_violations=violations,
    )


def refine_direction(
    values: np.ndarray,
    r: float,
    theta,
    tolerance: float = 1e-7,
    max_iters: int = 10_000,
) -> tuple[np.ndarray, int, bool]:
    """Single warm-started ascent run used to track a maximum on shrinking data.

    Anderson-accelerated iteration of the multistart's map Phi (module
    docstring). A candidate that lowers G by more than the ascent slack is
    dropped for the plain Phi step and the mixing history is cleared. Stops
    when ||Phi(theta) - theta|| <= tolerance and returns Phi(theta).

    Returns (direction, Phi evaluations used, converged); rejected candidates
    count as evaluations. A run that exhausts max_iters keeps its last Phi
    step: the caller is tracking a local maximum across small data changes,
    where that is the best available estimate.
    """
    X = np.asarray(values, dtype=float)
    buf = np.empty((1, X.shape[0]))

    def evaluate(th: np.ndarray) -> tuple[float, np.ndarray]:
        m, wsum = _exp_shifted(X, r, th, buf)
        return float(m[0] + np.log(wsum[0] / X.shape[0])), _fixed_step(th, (buf @ X) / wsum[0])

    theta = unit_vector(theta)[None, :]
    g, phi = evaluate(theta)
    used = 1
    hist = np.empty((0, 2 * theta.shape[1]))  # last _ANDERSON_DEPTH + 1 rows [residual, Phi]
    while True:
        res = phi - theta
        if np.linalg.norm(res) <= tolerance:
            return phi[0], used, True
        if used >= max_iters:
            return phi[0], used, False
        hist = np.vstack([hist[-_ANDERSON_DEPTH:], np.hstack([res, phi])])

        cand = _anderson_mix(hist)
        if cand is not None:
            g_cand, phi_cand = evaluate(cand)
            used += 1
            if g_cand >= g - _ASCENT_SLACK * max(1.0, abs(g)):
                theta, g, phi = cand, g_cand, phi_cand
                continue
            if used >= max_iters:
                return phi[0], used, False
            hist = hist[-1:]
        theta = phi
        g, phi = evaluate(theta)
        used += 1


def _anderson_mix(hist: np.ndarray) -> np.ndarray | None:
    """Normalized Anderson candidate from rows [residual, Phi], newest last; or None.

    The weights fit the newest residual by the residual differences in least
    squares with a small ridge (regularized nonlinear acceleration, Scieur,
    d'Aspremont & Bach, NeurIPS 2016), which bounds how far round-off in
    nearly parallel differences can move them.
    """
    n = hist.shape[1] // 2
    diffs = hist[1:] - hist[:-1]
    gram = diffs[:, :n] @ diffs[:, :n].T
    scale = float(np.trace(gram))
    if not (scale > 0.0 and np.isfinite(scale)):  # a single row, or no movement
        return None
    gram.flat[:: len(gram) + 1] += _RIDGE * scale
    gamma = np.linalg.solve(gram, diffs[:, :n] @ hist[-1, :n])
    cand = hist[-1, n:] - gamma @ diffs[:, n:]
    norm = float(np.linalg.norm(cand))
    if not (norm > 0.0 and np.isfinite(norm)):
        return None
    return (cand / norm)[None, :]
