"""Observation matrices, descriptive statistics, and covariance/PCA helpers.

Conventions used throughout the package:

* data matrices are T x n, rows are observations, columns are variables;
* the sample covariance uses divisor T - 1;
* the median of an even-length vector is the mean of the two central order
  statistics;
* the MAD is the raw median absolute deviation (no normal-consistency factor);
* kurtosis is the population (biased, non-excess) estimator m4 / m2**2.

The median, MAD and kurtosis are implemented once, by the row kernels that the
detector's removal loop runs on many masked rows; `median_and_mad` and
`kurtosis` are their one-row case. The two-pass mean and centered scatter are
implemented once as well, by `_centered_scatter`, for `covariance_pca` and the
detector's PCA state. `center` returns a T x n view of an n x T C-contiguous
array, the layout that the CGF kernel and the removal loop's projections read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DataMatrix",
    "CovarianceSummary",
    "DegenerateInputError",
    "center",
    "covariance_pca",
    "median_and_mad",
    "kurtosis",
    "first_four_cumulants",
]


class DegenerateInputError(ValueError):
    """Raised when a statistic is undefined on the given input (e.g. zero variance)."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DataMatrix:
    """A T x n matrix of observations with optional per-row labels.

    Attributes
    ----------
    values : ndarray, shape (T, n)
        Finite float entries; stored read-only.
    row_labels : tuple of str, optional
        One identifier per row (dates for return series, indices otherwise).
    """

    values: np.ndarray
    row_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"values must be at least 1 x 1, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", _readonly(arr))
        if self.row_labels is not None:
            labels = tuple(str(lab) for lab in self.row_labels)
            if len(labels) != arr.shape[0]:
                raise ValueError(
                    f"row_labels has {len(labels)} entries for {arr.shape[0]} rows"
                )
            object.__setattr__(self, "row_labels", labels)

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_var(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class CovarianceSummary:
    """Sample covariance matrix with its full symmetric eigendecomposition.

    ``eigenvalues`` are nonincreasing and ``eigenvectors[:, k]`` is the unit
    eigenvector for ``eigenvalues[k]``; column 0 is PC1.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _readonly(self.matrix))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "eigenvectors", _readonly(self.eigenvectors))

    @property
    def lambda1(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def pc1(self) -> np.ndarray:
        return self.eigenvectors[:, 0]


def center(data: DataMatrix) -> DataMatrix:
    """Subtract each column's sample mean; the values view an n x T C-contiguous array."""
    mean = data.values.mean(axis=0)[:, None]  # subtracted from the transpose, written once
    return DataMatrix(np.subtract(data.values.T, mean, order="C").T, row_labels=data.row_labels)


def _centered_scatter(Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the rows' mean and centered scatter (Y - mean)^T (Y - mean), by two passes
    mean = Y.mean(axis=0)
    dev = Y - mean
    return mean, dev.T @ dev


def covariance_pca(data: DataMatrix) -> CovarianceSummary:
    """Sample covariance (divisor T - 1) and its eigendecomposition.

    Degenerate inputs (constant columns, singular covariance) are allowed;
    eigenvalues may then touch zero up to round-off.
    """
    if data.n_obs < 2:
        raise ValueError("covariance needs at least 2 observations")
    cov = _centered_scatter(data.values)[1] * np.true_divide(1, data.n_obs - 1)  # np.cov's bits
    eigvals, eigvecs = np.linalg.eigh(cov)  # ascending
    return CovarianceSummary(cov, eigvals[::-1], eigvecs[:, ::-1])


def _as_vector(z) -> np.ndarray:
    arr = np.asarray(z, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("empty vector")
    if not np.all(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    return arr


def _row_moments(Z: np.ndarray, alive, count):
    """Per row of Z, the survivors' second moment m2 and kurtosis m4 / m2**2.

    alive masks Z's entries and count is each row's number of survivors; both
    broadcast against the rows, so True and Z's width make every entry alive.
    Entries outside `alive` count as zeros, and every sum runs along its row's
    contiguous axis, so a row's bits do not depend on the other rows.
    """
    dev = Z * alive
    dev -= (np.add.reduce(dev, axis=1) / count)[:, None]
    dev *= alive
    sq = dev * dev
    m2 = np.add.reduce(sq, axis=1) / count
    sq *= sq
    with np.errstate(divide="ignore", invalid="ignore"):  # the caller handles m2 == 0
        return m2, np.add.reduce(sq, axis=1) / count / (m2 * m2)


def _row_medians(V: np.ndarray, alive, count) -> np.ndarray:
    """Per row of V, the median of its entries where `alive` holds.

    One sort of every row, with the other entries at +inf, gives each row's
    exact order statistics; np.median's arithmetic, adding 0.0 as its sum does,
    takes the median from them. It beat a partition of each row's compact
    survivors at one row and T=10,000 as well as on 39-beta sweeps.
    """
    W = np.where(alive, V, np.inf)
    W.sort(axis=1)
    rows = np.arange(len(W))
    lo, hi = W[rows, (count - 1) // 2], W[rows, count // 2]
    return np.where(count % 2 == 1, hi, (lo + hi) / 2.0) + 0.0


def median_and_mad(z) -> tuple[float, float]:
    """Median and raw median absolute deviation of a vector.

    No consistency factor is applied to the MAD; a constant vector yields
    mad = 0 and the caller must handle that case.
    """
    row = _as_vector(z)[None]  # the row kernels' one-row case, every entry alive
    med = _row_medians(row, True, row.size)
    return float(med[0]), float(_row_medians(np.abs(row - med), True, row.size)[0])


def kurtosis(z) -> float:
    """Population non-excess kurtosis m4 / m2**2 (about 3 for a normal sample)."""
    row = _as_vector(z)[None]  # the row kernels' one-row case, every entry alive
    if row.size < 2:
        raise ValueError("kurtosis needs at least 2 observations")
    [m2], [kur] = _row_moments(row, True, row.size)
    if m2 == 0.0:
        raise DegenerateInputError("kurtosis undefined for zero-variance input")
    return float(kur)


def first_four_cumulants(z) -> tuple[float, float, float, float]:
    """(k1, k2, k3, k4) from population central moments: k4 = m4 - 3*m2**2."""
    arr = _as_vector(z)
    k1 = float(arr.mean())
    dev = arr - k1
    sq = dev * dev
    m2 = float(sq.mean())
    m3 = float((sq * dev).mean())
    m4 = float((sq * sq).mean())
    return k1, m2, m3, m4 - 3.0 * m2 * m2
