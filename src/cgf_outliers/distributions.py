"""Samplers for the four market models and the outlier-injection protocol.

Families: standard normal, correlated normal, multivariate skew-normal
(Azzalini type, location eta, scale matrix Sigma, shape alpha), and
multivariate Student-t. The skew-normal exposes its analytic CGF so the
empirical estimator can be validated against a closed form.

Outlier injection follows one fixed protocol: it plants a k x m block drawn
from the same family with the scale matrix multiplied by 15 into
k = floor(0.1 T) randomly chosen rows and m = floor(0.5 n) randomly chosen
columns of an ordinary sample, and labels the chosen rows as ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg_stats import DataMatrix, _readonly

__all__ = [
    "SkewNormalParams",
    "SimulationSpec",
    "LabeledDataset",
    "FAMILIES",
    "sample_normal",
    "sample_skew_normal",
    "cgf_skew_normal_analytic",
    "sample_student_t",
    "inject_outliers",
    "default_covariance",
]

FAMILIES = ("std_normal", "normal", "skew_normal", "student_t")

_HALF_PI = math.pi / 2.0
_OUTLIER_SCALE = 15.0  # the block's scale matrix is this multiple of Sigma
_OUTLIER_ROW_FRAC = 0.1  # the block has floor(this * T) rows
_OUTLIER_COL_FRAC = 0.5  # and floor(this * n) columns


def _check_spd(sigma: np.ndarray, what: str) -> np.ndarray:
    """Validate symmetry, return the lower Cholesky factor (raises on non-SPD)."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.all(np.isfinite(sigma)):
        raise ValueError(f"{what} must be finite")
    scale = np.abs(sigma).max()
    if scale > 0 and np.abs(sigma - sigma.T).max() > 1e-12 * scale:
        raise ValueError(f"{what} must be symmetric")
    try:
        return np.linalg.cholesky(0.5 * (sigma + sigma.T))
    except np.linalg.LinAlgError as err:
        raise ValueError(f"{what} is not positive definite") from err


@dataclass(frozen=True, eq=False)
class SkewNormalParams:
    """Location eta, SPD scale matrix Sigma, and shape alpha, with the derived
    quantities used everywhere: sigma_diag (sqrt of the diagonal), the
    correlation-form matrix C, the skewness vector delta, and the analytic
    mean/covariance of the distribution.

    delta here is C alpha / sqrt((pi/2) (1 + alpha' C alpha)), which absorbs
    the sqrt(2/pi) of the classical Azzalini convention: the mean offset is
    plainly diag(sigma) delta and the covariance Sigma - diag(sigma) delta
    delta' diag(sigma).
    """

    eta: np.ndarray
    sigma_mat: np.ndarray
    alpha: np.ndarray
    sigma_diag: np.ndarray = field(init=False)
    corr_mat: np.ndarray = field(init=False)
    delta: np.ndarray = field(init=False)
    mean_vec: np.ndarray = field(init=False)
    cov_mat: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        eta = np.asarray(self.eta, dtype=float).ravel()
        alpha = np.asarray(self.alpha, dtype=float).ravel()
        sigma = np.asarray(self.sigma_mat, dtype=float)
        _check_spd(sigma, "sigma_mat")
        n = sigma.shape[0]
        if eta.shape != (n,) or alpha.shape != (n,):
            raise ValueError("eta, alpha and sigma_mat dimensions disagree")

        sig = np.sqrt(np.diag(sigma))
        corr = sigma / np.outer(sig, sig)
        quad = float(alpha @ corr @ alpha)
        delta = (corr @ alpha) / math.sqrt(_HALF_PI * (1.0 + quad))
        # the sampler needs |sqrt(pi/2) delta_j| < 1 strictly
        if np.any(np.abs(math.sqrt(_HALF_PI) * delta) >= 1.0):
            raise ValueError("alpha yields a degenerate skewness (|delta| at the boundary)")
        offset = sig * delta
        cov = sigma - np.outer(offset, offset)
        _check_spd(cov, "implied covariance")

        object.__setattr__(self, "eta", _readonly(eta))
        object.__setattr__(self, "sigma_mat", _readonly(sigma))
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "sigma_diag", _readonly(sig))
        object.__setattr__(self, "corr_mat", _readonly(corr))
        object.__setattr__(self, "delta", _readonly(delta))
        object.__setattr__(self, "mean_vec", _readonly(eta + offset))
        object.__setattr__(self, "cov_mat", _readonly(cov))

    @property
    def n_var(self) -> int:
        return self.sigma_mat.shape[0]


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A data matrix plus the ground-truth outlier indicator per row."""

    data: DataMatrix
    truth: np.ndarray

    def __post_init__(self) -> None:
        truth = np.array(self.truth, dtype=bool, copy=True)
        if truth.shape != (self.data.n_obs,):
            raise ValueError("truth must have one entry per data row")
        truth.setflags(write=False)
        object.__setattr__(self, "truth", truth)


@dataclass(frozen=True, eq=False)
class SimulationSpec:
    """Recipe for one labeled synthetic dataset.

    ``sigma_mat`` may be omitted for the std_normal family (identity is
    implied); the skew_normal shape alpha is drawn per run, uniformly from
    ``alpha_range``. The outlier block (module docstring) has
    floor(0.1 * T) rows and floor(0.5 * n) columns, so T >= 10 and n >= 2.
    """

    family: str
    n: int
    T: int
    seed: int
    sigma_mat: np.ndarray | None = None
    nu: float | None = None
    alpha_range: tuple[float, float] = (-1.0, 4.0)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.n_outlier_rows < 1 or self.n_outlier_cols < 1:
            raise ValueError(
                f"outlier block is empty: it needs T >= {math.ceil(1 / _OUTLIER_ROW_FRAC)} "
                f"and n >= {math.ceil(1 / _OUTLIER_COL_FRAC)}, got T={self.T}, n={self.n}"
            )

        if self.family == "std_normal":
            if self.sigma_mat is None:
                object.__setattr__(self, "sigma_mat", np.eye(self.n))
            elif not np.array_equal(np.asarray(self.sigma_mat, dtype=float), np.eye(self.n)):
                raise ValueError("std_normal uses the identity covariance")
        elif self.sigma_mat is None:
            raise ValueError(f"family {self.family!r} needs an explicit sigma_mat")
        sigma = np.asarray(self.sigma_mat, dtype=float)
        if sigma.shape != (self.n, self.n):
            raise ValueError(f"sigma_mat must be {self.n} x {self.n}")
        _check_spd(sigma, "sigma_mat")
        object.__setattr__(self, "sigma_mat", _readonly(sigma))

        if self.family == "student_t":
            if self.nu is None:
                raise ValueError("student_t needs nu")
            if not (2 < self.nu < math.inf):
                raise ValueError("nu must be finite and exceed 2")
        elif self.nu is not None:
            raise ValueError("nu only applies to student_t")

        lo, hi = self.alpha_range
        if not (0 < hi - lo < math.inf):
            raise ValueError("alpha_range must be increasing with a finite width")

    @property
    def n_outlier_rows(self) -> int:
        return int(math.floor(_OUTLIER_ROW_FRAC * self.T))

    @property
    def n_outlier_cols(self) -> int:
        return int(math.floor(_OUTLIER_COL_FRAC * self.n))


def _normal_rows(rng: np.random.Generator, chol_lower: np.ndarray, T: int) -> np.ndarray:
    z = rng.standard_normal((T, chol_lower.shape[0]))
    return z @ chol_lower.T


def sample_normal(sigma_mat, T: int, seed: int) -> DataMatrix:
    """T i.i.d. rows from N(0, Sigma) via the lower Cholesky factor."""
    if T < 1:
        raise ValueError("T must be >= 1")
    chol = _check_spd(sigma_mat, "sigma_mat")
    rng = np.random.default_rng(seed)
    return DataMatrix(_normal_rows(rng, chol, T))


def _skew_rows(rng: np.random.Generator, params: SkewNormalParams, T: int) -> np.ndarray:
    delta_a = math.sqrt(_HALF_PI) * params.delta  # classical-convention skewness
    if np.all(delta_a == 0.0):
        # zero shape collapses to the normal case; reuse that sampler exactly
        chol = np.linalg.cholesky(params.sigma_mat)
        return params.eta + _normal_rows(rng, chol, T)
    resid = params.corr_mat - np.outer(delta_a, delta_a)
    try:
        chol = np.linalg.cholesky(0.5 * (resid + resid.T))
    except np.linalg.LinAlgError as err:
        raise ValueError("skewness too extreme for the given correlation matrix") from err
    w0 = np.abs(rng.standard_normal(T))
    u = w0[:, None] * delta_a + _normal_rows(rng, chol, T)
    return params.eta + params.sigma_diag * u


def sample_skew_normal(params: SkewNormalParams, T: int, seed: int) -> DataMatrix:
    """T i.i.d. skew-normal rows.

    Uses the augmentation representation: with delta_a = sqrt(pi/2) * delta,
    the standardized coordinate is u = delta_a |w0| + v where w0 is a scalar
    standard normal and v ~ N(0, C - delta_a delta_a') independently; then
    X = eta + diag(sigma) u has exactly the target law, as the moment and CGF
    validation tests confirm against the analytic formulas.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    rng = np.random.default_rng(seed)
    return DataMatrix(_skew_rows(rng, params, T))


def _log_two_phi(z: float) -> float:
    """ln(2 Phi(z)) for scalar z, stable over the whole real line."""
    w = -z / math.sqrt(2.0)  # ln 2 Phi(z) = ln erfc(w)
    if w <= 25.0:
        return math.log(math.erfc(w))
    # continued asymptotic series; erfc underflows past ~26.6 but its log is benign
    inv = 1.0 / (2.0 * w * w)
    series = 1.0 + inv * (-1.0 + inv * (3.0 + inv * (-15.0 + inv * 105.0)))
    return -w * w - math.log(w * math.sqrt(math.pi)) + math.log(series)


def cgf_skew_normal_analytic(xi, params: SkewNormalParams, centered: bool = False) -> float:
    """Closed-form CGF of the skew-normal at xi.

    G(xi) = xi'eta + xi'Sigma xi / 2 + ln(2 Phi(sqrt(pi/2) delta' diag(sigma) xi));
    with ``centered`` the CGF of X - E[X] is returned instead (subtract
    xi'mean_vec). Phi is evaluated through erfc to better than 1e-12 absolute.
    """
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape != (params.n_var,):
        raise ValueError("xi must have length n")
    z = math.sqrt(_HALF_PI) * float(params.delta @ (params.sigma_diag * xi))
    val = float(xi @ params.eta) + 0.5 * float(xi @ params.sigma_mat @ xi) + _log_two_phi(z)
    if centered:
        val -= float(xi @ params.mean_vec)
    return val


def _student_rows(
    rng: np.random.Generator, chol_lower: np.ndarray, nu: float, T: int
) -> np.ndarray:
    z = _normal_rows(rng, chol_lower, T)
    w = rng.chisquare(nu, T)
    return z / np.sqrt(w / nu)[:, None]


def sample_student_t(sigma_mat, nu: float, T: int, seed: int) -> DataMatrix:
    """T i.i.d. rows from St(0, Sigma, nu): N(0, Sigma) over sqrt(chi2_nu / nu).

    The covariance is (nu / (nu - 2)) Sigma, hence the nu > 2 requirement.
    """
    if not (2 < nu < math.inf):
        raise ValueError("nu must be finite and exceed 2")
    if T < 1:
        raise ValueError("T must be >= 1")
    chol = _check_spd(sigma_mat, "sigma_mat")
    rng = np.random.default_rng(seed)
    return DataMatrix(_student_rows(rng, chol, nu, T))


def _family_rows(
    rng: np.random.Generator,
    family: str,
    sigma: np.ndarray,
    T: int,
    alpha: np.ndarray | None,
    nu: float | None,
) -> np.ndarray:
    if family in ("std_normal", "normal"):
        return _normal_rows(rng, _check_spd(sigma, "sigma_mat"), T)
    if family == "skew_normal":
        params = SkewNormalParams(np.zeros(sigma.shape[0]), sigma, alpha)
        return _skew_rows(rng, params, T)
    if family == "student_t":
        return _student_rows(rng, _check_spd(sigma, "sigma_mat"), nu, T)
    raise ValueError(f"unknown family {family!r}")


def inject_outliers(spec: SimulationSpec) -> LabeledDataset:
    """Draw an ordinary sample and overwrite a random block with scaled-up draws.

    The block reuses the family's own parameters (same alpha / nu) with
    15 * Sigma restricted to the selected columns; one shared row set spans
    all selected columns. Entries outside the block are exactly the ordinary
    draws. Deterministic per spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    alpha = rng.uniform(*spec.alpha_range, spec.n) if spec.family == "skew_normal" else None

    X = _family_rows(rng, spec.family, spec.sigma_mat, spec.T, alpha, spec.nu)
    rows = rng.choice(spec.T, size=spec.n_outlier_rows, replace=False)
    cols = rng.choice(spec.n, size=spec.n_outlier_cols, replace=False)

    sigma_sub = _OUTLIER_SCALE * spec.sigma_mat[np.ix_(cols, cols)]
    alpha_sub = None if alpha is None else alpha[cols]
    block = _family_rows(
        rng, spec.family, sigma_sub, spec.n_outlier_rows, alpha_sub, spec.nu
    )

    X[rows[:, None], cols[None, :]] = block
    truth = np.zeros(spec.T, dtype=bool)
    truth[rows] = True
    return LabeledDataset(DataMatrix(X), truth)


def default_covariance(n: int, condition: float = 20.0, seed: int = 0) -> np.ndarray:
    """Synthetic SPD covariance with eigenvalues geometric from 1 down to
    1/condition, in a random orthogonal basis. Stands in for a market
    covariance when none is supplied."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (condition >= 1.0):
        raise ValueError("condition must be >= 1")
    eigvals = np.geomspace(1.0, 1.0 / condition, n)
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))  # fix the factorization's sign ambiguity
    cov = (q * eigvals) @ q.T
    return 0.5 * (cov + cov.T)
