"""CSV and JSON plumbing: price tables, returns, labels, ROC files, reports.

All files are UTF-8 with a header row and '.' decimals. Floats are written
with repr(), which round-trips exactly through float(), so a file written
from an array parses back bit-identical and rewriting it reproduces the same
bytes. Dated tables put the date in the first column, ISO 8601.

Price, data and covariance tables are read by one parser: blank lines are
skipped, and a missing, malformed or non-finite (nan, inf) cell is rejected
with an error that names the file, its row and its column. A covariance
table has no header; its columns are named '1', '2', ... by position.
"""

from __future__ import annotations

import csv
import datetime as _dt
import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg_stats import DataMatrix, _readonly
from .distributions import LabeledDataset

__all__ = [
    "PriceTable",
    "read_price_csv",
    "compute_returns",
    "label_by_crisis",
    "write_data_csv",
    "read_data_csv",
    "read_cov_csv",
    "write_labels_csv",
    "read_labels_csv",
    "write_roc_csv",
    "write_json",
    "jsonify",
]

RETURN_KINDS = ("linear", "log")


def _parse_iso(text: str, where: str) -> _dt.date:
    try:
        return _dt.date.fromisoformat(text)
    except ValueError as err:
        raise ValueError(f"{where}: bad ISO date {text!r}") from err


@dataclass(frozen=True, eq=False)
class PriceTable:
    """Daily price panel: strictly increasing dates, positive prices."""

    dates: tuple[str, ...]
    prices: np.ndarray
    tickers: tuple[str, ...]

    def __post_init__(self) -> None:
        dates = tuple(str(d) for d in self.dates)
        tickers = tuple(str(t) for t in self.tickers)
        prices = np.array(self.prices, dtype=float, copy=True)
        if prices.ndim != 2:
            raise ValueError("prices must be a 2-D array")
        if prices.shape != (len(dates), len(tickers)):
            raise ValueError("prices shape must be (len(dates), len(tickers))")
        if len(tickers) == 0 or len(dates) == 0:
            raise ValueError("need at least one date and one ticker")
        parsed = [_parse_iso(d, f"date row {i + 1}") for i, d in enumerate(dates)]
        for earlier, later in zip(parsed, parsed[1:]):
            if later <= earlier:
                raise ValueError(f"dates must be strictly increasing, saw {earlier} then {later}")
        if not np.all(np.isfinite(prices)):
            raise ValueError("prices must be finite")
        if np.any(prices <= 0):
            t, j = map(int, np.argwhere(prices <= 0)[0])
            raise ValueError(
                f"nonpositive price at row {t + 1}, column {tickers[j]!r}: {prices[t, j]}"
            )
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "tickers", tickers)
        object.__setattr__(self, "prices", _readonly(prices))


def _read_table(path, check_header=None, headerless=False):
    """Parse a CSV of numbers under a header row whose first column may be 'date'.

    Returns (column names, dates or None, values, file row of each value row);
    blank lines are skipped. check_header(header) may reject the header first.
    A headerless table's first row is data, its columns named by position.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    if headerless:
        rows.insert(0, [str(j + 1) for j in range(len(rows[0]))])
    header = rows[0]
    if check_header is not None:
        check_header(header)
    dated = bool(header) and header[0].strip().lower() == "date"
    names = [h.strip() for h in header[dated:]]
    if not names:
        raise ValueError(f"{path}: no variable columns in header {header!r}")
    body = [(lineno, row) for lineno, row in enumerate(rows[1:], start=1 if headerless else 2)
            if any(cell.strip() for cell in row)]
    if not body:
        raise ValueError(f"{path}: no data rows")
    values = np.empty((len(body), len(names)))
    for i, (lineno, row) in enumerate(body):
        if len(row) != len(header):
            raise ValueError(
                f"{path} row {lineno}: expected {len(header)} fields, got {len(row)}"
            )
        for j, cell in enumerate(row[dated:]):
            cell = cell.strip()
            try:
                values[i, j] = value = float(cell)
            except ValueError:
                problem = f"bad number {cell!r}" if cell else "missing value"
            else:
                if math.isfinite(value):
                    continue
                problem = f"non-finite number {cell!r}"
            raise ValueError(f"{path} row {lineno}, column {names[j]!r}: {problem}")
    dates = tuple(row[0].strip() for _, row in body) if dated else None
    return names, dates, values, [lineno for lineno, _ in body]


def read_price_csv(path) -> PriceTable:
    """Parse a prices CSV: header ``date,TICK1,...``; errors carry row/column."""

    def check_header(header):
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise ValueError(f"{path}: header must be 'date,<ticker>,...', got {header!r}")

    tickers, dates, prices, lines = _read_table(path, check_header)
    if np.any(prices <= 0):
        t, j = map(int, np.argwhere(prices <= 0)[0])
        raise ValueError(
            f"{path} row {lines[t]}, column {tickers[j]!r}: nonpositive price {prices[t, j]}"
        )
    return PriceTable(dates, prices, tickers)


def compute_returns(prices: PriceTable, kind: str = "linear") -> DataMatrix:
    """Per-period returns, one row fewer than prices, dated by the later day.

    linear: P_t / P_{t-1} - 1; log: ln(P_t / P_{t-1}).
    """
    if kind not in RETURN_KINDS:
        raise ValueError(f"kind must be one of {RETURN_KINDS}, got {kind!r}")
    if len(prices.dates) < 2:
        raise ValueError("need at least two price rows to form returns")
    ratio = prices.prices[1:] / prices.prices[:-1]
    values = np.log(ratio) if kind == "log" else ratio - 1.0
    return DataMatrix(values, row_labels=prices.dates[1:])


def label_by_crisis(returns: DataMatrix, crisis_date: str) -> LabeledDataset:
    """Mark every row dated on or after crisis_date as a true outlier.

    The boundary day itself counts as crisis. crisis_date must lie within
    the table's date range.
    """
    if returns.row_labels is None:
        raise ValueError("returns must carry date labels")
    dates = [_parse_iso(d, f"row {i + 1}") for i, d in enumerate(returns.row_labels)]
    boundary = _parse_iso(str(crisis_date), "crisis_date")
    if boundary < dates[0] or boundary > dates[-1]:
        raise ValueError(
            f"crisis_date {boundary} outside the data range [{dates[0]}, {dates[-1]}]"
        )
    truth = np.array([d >= boundary for d in dates], dtype=bool)
    return LabeledDataset(returns, truth)


def _format_row(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def write_data_csv(path, data: DataMatrix) -> None:
    """Columns x1..xn, preceded by a date column when the matrix is dated."""
    n = data.n_var
    var_names = [f"x{j + 1}" for j in range(n)]
    lines = []
    if data.row_labels is None:
        lines.append(",".join(var_names))
        for row in data.values:
            lines.append(_format_row(row))
    else:
        lines.append(",".join(["date"] + var_names))
        for label, row in zip(data.row_labels, data.values):
            lines.append(f"{label}," + _format_row(row))
    _write_text(path, "\n".join(lines) + "\n")


def read_data_csv(path) -> DataMatrix:
    """Inverse of write_data_csv; bit-exact round-trip via repr floats."""
    _, dates, values, _ = _read_table(path)
    return DataMatrix(values, row_labels=dates)


def read_cov_csv(path) -> np.ndarray:
    """A headerless n x n matrix, such as a covariance; errors carry row/column."""
    _, _, sigma, _ = _read_table(path, headerless=True)
    if sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"{path}: covariance must be square, got {sigma.shape}")
    return sigma


def write_labels_csv(path, truth) -> None:
    truth = np.asarray(truth, dtype=bool).ravel()
    lines = ["is_outlier"] + [str(int(t)) for t in truth]
    _write_text(path, "\n".join(lines) + "\n")


def read_labels_csv(path) -> np.ndarray:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or rows[0] != "is_outlier":
        raise ValueError(f"{path}: expected a single 'is_outlier' column")
    flags = []
    for lineno, cell in enumerate(rows[1:], start=2):
        if cell not in ("0", "1"):
            raise ValueError(f"{path} row {lineno}: labels must be 0 or 1, got {cell!r}")
        flags.append(cell == "1")
    if not flags:
        raise ValueError(f"{path}: no label rows")
    return np.asarray(flags, dtype=bool)


def write_roc_csv(path, curve) -> None:
    lines = ["beta,fpr,tpr,youden_j"]
    for p in curve.points:
        lines.append(_format_row((p.beta, p.fpr, p.tpr, p.youden_j)))
    _write_text(path, "\n".join(lines) + "\n")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def jsonify(obj):
    """Recursively coerce numpy scalars/arrays for json.dumps; NaN/inf -> null."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return value if math.isfinite(value) else None
    return obj


def write_json(path, payload: dict) -> None:
    """Deterministic JSON: insertion order preserved, 2-space indent."""
    text = json.dumps(jsonify(payload), indent=2, allow_nan=False)
    _write_text(path, text + "\n")
