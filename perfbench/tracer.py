"""In-memory span tracer for the cgf_outliers package.

The tracer replaces package functions with timing wrappers under the names
their callers look up (``detector.refine_direction`` is the binding that
``detect`` calls, ``cli.roc_sweep`` the one the CLI calls), so the package
source is untouched. Every call records a span: name, start, end, parent span
and the identifier of the ``detect`` call it belongs to. Counters are taken
from the arguments and results at the same boundaries. Spans stay in memory
until ``write_spans`` dumps them as CSV.

Span names are ``<module>.<function>`` of the module that defines the
function, whatever binding the call went through.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import os
import time
from collections import defaultdict

import numpy as np

# (module the caller looks the name up in, attribute, span name)
BINDINGS = (
    ("detector", "maximize_cgf", "cgf.maximize_cgf"),
    ("detector", "refine_direction", "cgf.refine_direction"),
    ("detector", "select_radius", "cgf.select_radius"),
    ("detector", "center", "linalg_stats.center"),
    ("detector", "covariance_pca", "linalg_stats.covariance_pca"),
    ("detector", "kurtosis", "linalg_stats.kurtosis"),
    ("detector", "median_and_mad", "linalg_stats.median_and_mad"),
    ("detector", "q_scores", "detector.q_scores"),
    ("detector", "detect", "detector.detect"),
    ("evaluation", "detect", "detector.detect"),
    ("evaluation", "roc_sweep", "evaluation.roc_sweep"),
    ("distributions", "inject_outliers", "distributions.inject_outliers"),
    ("cli", "detect", "detector.detect"),
    ("cli", "roc_sweep", "evaluation.roc_sweep"),
    ("cli", "inject_outliers", "distributions.inject_outliers"),
    ("cli", "read_price_csv", "io.read_price_csv"),
    ("cli", "compute_returns", "io.compute_returns"),
    ("cli", "label_by_crisis", "io.label_by_crisis"),
    ("cli", "read_data_csv", "io.read_data_csv"),
    ("cli", "read_labels_csv", "io.read_labels_csv"),
    ("cli", "write_data_csv", "io.write_data_csv"),
    ("cli", "write_labels_csv", "io.write_labels_csv"),
    ("cli", "write_json", "io.write_json"),
    ("cli", "write_roc_csv", "io.write_roc_csv"),
)

FLOAT_BYTES = 8


class _Patcher:
    """Swaps package bindings for wrappers and puts the originals back."""

    bindings: tuple = ()

    def __init__(self, package) -> None:
        self._package = package
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in self.bindings:
            module = getattr(self._package, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, name: str, fn):
        raise NotImplementedError


class DetectTimer(_Patcher):
    """Times every detect call, with or without tracing, and counts the ones that raise."""

    bindings = tuple(b for b in BINDINGS if b[2] == "detector.detect")

    def __init__(self, package) -> None:
        super().__init__(package)
        self.latencies: list[float] = []
        self.raised = 0

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.raised += 1
                raise
            finally:
                self.latencies.append(time.perf_counter() - start)

        return timed


class Tracer(_Patcher):
    """Collects spans and counters while installed; see the module docstring."""

    bindings = BINDINGS

    def __init__(self, package) -> None:
        super().__init__(package)
        self.spans: list[list] = []  # [name, start, end, parent, detect_id]
        self.counts: dict[str, int] = defaultdict(int)
        self.per_detect: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.problems: list[str] = []
        self._stack: list[int] = []
        self._detect_id = 0
        self._detect_seq = 0
        self._beta: float | None = None

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._detect_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a call the benchmark itself makes, e.g. one CLI command."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name: str, value: int = 1) -> None:
        self.counts[name] += value
        if self._detect_id:
            self.per_detect[self._detect_id][name] += value

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        is_detect = name == "detector.detect"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_detect:
                outer = (self._detect_id, self._beta)
                self._detect_seq += 1
                self._detect_id = self._detect_seq
                self._beta = float(args[1].beta)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if is_detect:
                    done_id = self._detect_id
                    self._detect_id, self._beta = outer
            if observe is not None:
                if is_detect:
                    observe(self, args, out, done_id)
                else:
                    observe(self, args, out)
            return out

        return traced

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds (busy minus children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        return totals

    def layer_busy(self) -> dict[str, float]:
        """Per layer: time inside its spans, not counting nested spans of the same layer."""
        busy: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            layer = name.split(".", 1)[0]
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                busy[layer] += end - start
        return busy

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "detect_id"])
            out.writerows(self.spans)


def _rows_cols(values) -> tuple[int, int]:
    arr = values.values if hasattr(values, "values") else np.asarray(values)
    return arr.shape[0], arr.shape[1]


def _observe_maximize(tr: Tracer, args, result) -> None:
    rows, cols = _rows_cols(args[0])
    iters = int(result.total_iterations)
    tr.count("cgf.maximize_cgf.iterations", iters)
    tr.count("cgf.maximize_cgf.maxima", len(result))
    tr.count("cgf.maximize_cgf.violations", int(result.ascent_violations))
    tr.count("cgf.exp_evals", iters * rows)
    tr.count("cgf.bytes_computed", iters * rows * cols * FLOAT_BYTES)


def _observe_refine(tr: Tracer, args, result) -> None:
    rows, cols = _rows_cols(args[0])
    _, used, converged = result
    tr.count("cgf.refine_direction.iterations", used)
    tr.count("cgf.refine_direction.nonconverged", 0 if converged else 1)
    tr.count("cgf.exp_evals", used * rows)
    tr.count("cgf.bytes_computed", used * rows * cols * FLOAT_BYTES)


def _observe_q_scores(tr: Tracer, args, result) -> None:
    # inside detect each q_scores call opens one removal-loop pass
    if tr._beta is None:
        return
    tr.count("detector.passes")
    tr.count("detector.productive_passes", 1 if bool(np.any(result > tr._beta)) else 0)


def _observe_detect(tr: Tracer, args, report, detect_id: int) -> None:
    tr.count("detector.directions", len(report.directions_used))
    if report.method.value != "maxcgf":
        return
    mine = tr.per_detect[detect_id]
    traced = mine["cgf.maximize_cgf.iterations"] + mine["cgf.refine_direction.iterations"]
    if traced != report.iterations_total:
        tr.problems.append(
            f"detect {detect_id}: traced ascent iterations {traced} != "
            f"report.iterations_total {report.iterations_total}"
        )


def _observe_roc_sweep(tr: Tracer, args, curve) -> None:
    tr.count("evaluation.roc_sweep.failures", len(curve.failures))


def _observe_write(tr: Tracer, args, result) -> None:
    tr.count("io.bytes_written", os.path.getsize(args[0]))


_OBSERVERS = {
    "cgf.maximize_cgf": _observe_maximize,
    "cgf.refine_direction": _observe_refine,
    "detector.q_scores": _observe_q_scores,
    "detector.detect": _observe_detect,
    "evaluation.roc_sweep": _observe_roc_sweep,
    "io.write_data_csv": _observe_write,
    "io.write_labels_csv": _observe_write,
    "io.write_json": _observe_write,
    "io.write_roc_csv": _observe_write,
}
