"""Benchmark workloads: inputs made from a seed, one pass of the job, output checks.

A workload builds its inputs in ``make_inputs`` (timed as set-up) and runs
one pass of its job in ``run_pass``. Each pass returns its outputs, which
must compare equal across the passes of a run, plus the problems its output
checks found, the operations it attempted and failed, and its detection
quality. The program only ever sees the generated inputs.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class PassResult:
    outputs: object
    operations: int = 0
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    failed: set[str] = field(default_factory=set)

    def fail(self, operation: str, message: str) -> None:
        """Record a failed check or a raising call; each operation counts once."""
        self.failed.add(operation)
        self.problems.append(f"{operation}: {message}")

    @property
    def failed_operations(self) -> int:
        return len(self.failed)


def _mean(values) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else float("nan")


def _rates_at(curve, beta: float) -> tuple[float, float]:
    for p in curve.points:
        if p.beta == beta:
            return p.tpr, p.fpr
    return float("nan"), float("nan")


def _check_scores(result: PassResult, operation: str, report, beta: float) -> None:
    """A flagged row was removed by a score above beta; a kept row's last score is not."""
    flags, q = report.outlier_flags, report.q_scores
    if report.n_flagged != int(flags.sum()):
        result.fail(operation, f"n_flagged {report.n_flagged} != flag count {int(flags.sum())}")
    if not bool(np.all(q[flags] > beta)):
        result.fail(operation, f"a flagged row has q-score <= beta {beta}")
    kept = q[~flags]
    if not bool(np.all(np.isnan(kept) | (kept <= beta))):
        result.fail(operation, f"a kept row has q-score > beta {beta}")


class Workload:
    name = ""
    why = ""
    gated = True

    def params(self, seed: int) -> dict:
        raise NotImplementedError

    def make_inputs(self, pkg, seed: int, workdir: str):
        raise NotImplementedError

    def run_pass(self, pkg, inputs, workdir: str, tracer) -> PassResult:
        raise NotImplementedError

    def check_trace(self, seed: int, tracer) -> list[str]:
        return []


class _SweepWorkload(Workload):
    """roc_sweep over a block of simulated datasets; the multistart seed is the data seed."""

    method = ""
    family = ""
    datasets = 1
    reference_beta = 3.0  # the acceptance experiments' base beta, a point of the default grid
    auc_band: float | None = None
    family_kw: dict = {}

    def data_seeds(self, seed: int) -> list[int]:
        return [seed * self.datasets + k for k in range(self.datasets)]

    def params(self, seed: int) -> dict:
        return {
            "method": self.method, "family": self.family, **self.family_kw,
            "n": 30, "T": 500, "cov": "default_covariance(30, 20, seed=0)",
            "starts": 200, "beta_grid": "default (0.5:0.25:10, 39 betas)",
            "data_seeds": self.data_seeds(seed), "multistart_seed": "data seed",
        }

    def make_inputs(self, pkg, seed, workdir):
        dist = pkg.distributions
        sigma = dist.default_covariance(30, 20.0, seed=0)
        return [
            (s, dist.inject_outliers(dist.SimulationSpec(
                family=self.family, n=30, T=500, seed=s, sigma_mat=sigma, **self.family_kw)))
            for s in self.data_seeds(seed)
        ]

    def run_pass(self, pkg, inputs, workdir, tracer):
        ev = pkg.evaluation
        grid = ev.default_beta_grid()
        result = PassResult(outputs=[])
        aucs, bcvs, tprs, fprs = [], [], [], []
        for data_seed, dataset in inputs:
            config = pkg.detector.DetectorConfig(
                beta=3.0, multistart=pkg.cgf.MultistartConfig(n_starts=200, seed=data_seed))
            operation = f"roc_sweep on data seed {data_seed}"
            result.operations += 1
            try:
                curve = ev.roc_sweep(dataset, self.method, grid, config)
            except Exception as err:  # a raising sweep is a failed operation, not a crash
                result.fail(operation, f"raised {err!r}")
                continue
            result.outputs.append((data_seed, curve.points, curve.failures))
            if len(curve.points) + len(curve.failures) != len(grid):
                result.fail(operation, "points + failures != grid size")
            if not 0.0 <= curve.auc <= 1.0:
                result.fail(operation, f"auc {curve.auc} outside [0, 1]")
            aucs.append(curve.auc)
            bcvs.append(curve.bcv)
            tpr, fpr = _rates_at(curve, self.reference_beta)
            tprs.append(tpr)
            fprs.append(fpr)
        result.quality = {"auc": _mean(aucs), "bcv": _mean(bcvs), "tpr": _mean(tprs),
                          "fpr": _mean(fprs)}
        if self.auc_band is not None and not result.quality["auc"] >= self.auc_band:
            result.fail("auc band", f"mean auc {result.quality['auc']:.4f} below {self.auc_band}")
        return result


class PcaSweep(_SweepWorkload):
    name = "pca-sweep"
    why = ("roc_sweep method pca on 80 Student-t nu=5 draws n=30 T=500, 39 betas, data seeds "
           "80*seed+0..79: runs no CGF ascent, so cgf changes must leave it unchanged; "
           "PCA re-estimator")
    method = "pca"
    family = "student_t"
    family_kw = {"nu": 5.0}
    datasets = 80


class SimSweep(_SweepWorkload):
    name = "sim-sweep"
    why = ("roc_sweep maxcgf on one correlated-normal draw n=30 T=500, 200 starts, 39 betas, "
           "data seed = seed: 39 identical multistarts and thousands of mid-size refines")
    gated = False
    method = "maxcgf"
    family = "normal"
    datasets = 1
    auc_band = 0.82  # tests/test_acceptance.py, correlated-normal experiment


class DetectLarge(Workload):
    name = "detect-large"
    why = ("detect at README config (1000 starts, eps 0.1, beta 3.25) on 4 correlated-normal "
           "draws n=30 T=10000, data seeds 4*seed+0..3: multistart and refine kernels, "
           "few passes")
    draws = 4
    beta = 3.25

    def data_seeds(self, seed: int) -> list[int]:
        return [seed * self.draws + k for k in range(self.draws)]

    def params(self, seed):
        return {"family": "normal", "n": 30, "T": 10_000,
                "cov": "default_covariance(30, 20, seed=0)", "beta": self.beta,
                "config": "DetectorConfig defaults: 1000 starts, target_eps 0.1, seed 0",
                "data_seeds": self.data_seeds(seed)}

    def make_inputs(self, pkg, seed, workdir):
        dist = pkg.distributions
        sigma = dist.default_covariance(30, 20.0, seed=0)
        return [
            (s, dist.inject_outliers(dist.SimulationSpec(
                family="normal", n=30, T=10_000, seed=s, sigma_mat=sigma)))
            for s in self.data_seeds(seed)
        ]

    def run_pass(self, pkg, inputs, workdir, tracer):
        det, ev = pkg.detector, pkg.evaluation
        result = PassResult(outputs=[])
        rates = []
        for data_seed, dataset in inputs:
            operation = f"detect on data seed {data_seed}"
            result.operations += 1
            try:
                report = det.detect(dataset.data, det.DetectorConfig(beta=self.beta))
            except Exception as err:  # a raising detect is a failed operation, not a crash
                result.fail(operation, f"raised {err!r}")
                continue
            _check_scores(result, operation, report, self.beta)
            result.outputs.append((data_seed, np.packbits(report.outlier_flags).tobytes()))
            rates.append(ev.confusion_rates(report.outlier_flags, dataset.truth))
        curves = [ev.assemble_curve([(self.beta, fpr, tpr)]) for tpr, fpr in rates]
        result.quality = {
            "auc": _mean(c.auc for c in curves), "bcv": _mean(c.bcv for c in curves),
            "tpr": _mean(t for t, _ in rates), "fpr": _mean(f for _, f in rates),
        }
        return result


def write_price_fixture(path: str, seed: int) -> str:
    """The acceptance suite's synthetic price panel: 200 calm days, then 40 at 10x variance.

    Returns the crisis date, the first return row of the high-variance regime.
    """
    rng = np.random.default_rng(seed)
    pre, post, n = 200, 40, 8
    returns = np.concatenate(
        [rng.normal(0.0, 0.01, (pre, n)), rng.normal(0.0, 0.01 * math.sqrt(10.0), (post, n))]
    )
    prices = np.vstack([np.full(n, 100.0), 100.0 * np.cumprod(1.0 + returns, axis=0)])
    first = datetime.date(2019, 6, 1)
    dates = [(first + datetime.timedelta(days=i)).isoformat() for i in range(pre + post + 1)]
    lines = ["date," + ",".join(f"A{j}" for j in range(n))]
    for day, row in zip(dates, prices):
        lines.append(day + "," + ",".join(repr(float(p)) for p in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return dates[pre + 1]


class PriceCli(Workload):
    name = "price-cli"
    why = ("cgf-outliers returns, then evaluate --crisis-date --beta-grid 1:1:8 --starts 50, "
           "on the 240x8 acceptance price fixture of the seed: refine call overhead, io, cli")
    gated = False
    reference_beta = 4.0

    def params(self, seed):
        return {"fixture": "240 x 8 prices, last 40 rows at 10x variance", "fixture_seed": seed,
                "beta_grid": "1:1:8", "starts": 50, "multistart_seed": seed}

    def make_inputs(self, pkg, seed, workdir):
        prices = os.path.join(workdir, "prices.csv")
        return prices, write_price_fixture(prices, seed), seed

    def _cli(self, pkg, tracer, name: str, args: list[str]) -> int:
        if tracer is None:
            return pkg.cli.run_cli(args)
        with tracer.span(name):
            return pkg.cli.run_cli(args)

    def run_pass(self, pkg, inputs, workdir, tracer):
        prices, crisis, seed = inputs
        out = os.path.join(workdir, "out")  # same path every pass, so the files can match
        result = PassResult(outputs=None, operations=2)
        codes = [
            self._cli(pkg, tracer, "cli.returns", ["returns", "--prices", prices, "--out", out]),
            self._cli(pkg, tracer, "cli.evaluate", [
                "evaluate", "--data", os.path.join(out, "data.csv"), "--crisis-date", crisis,
                "--beta-grid", "1:1:8", "--starts", "50", "--seed", str(seed), "--out", out]),
        ]
        for command, code in zip(("returns", "evaluate"), codes):
            if code != 0:
                result.fail(f"cli {command}", f"exit code {code}")
        if result.failed:
            return result
        files = {}
        for name in ("data.csv", "roc.csv", "summary.json"):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
        result.outputs = files
        summary = json.loads(files["summary.json"])
        tpr = fpr = float("nan")
        for row in csv.DictReader(files["roc.csv"].decode().splitlines()):
            if float(row["beta"]) == self.reference_beta:
                tpr, fpr = float(row["tpr"]), float(row["fpr"])
        result.quality = {"auc": summary["auc"], "bcv": summary["bcv"], "tpr": tpr, "fpr": fpr}
        if not summary["auc"] >= 0.8:  # tests/test_acceptance.py, price pipeline band
            result.fail("cli evaluate", f"auc {summary['auc']:.4f} below the acceptance band 0.8")
        return result


class PriceDetect(Workload):
    """The ROADMAP baseline: one detect on the price fixture at beta 4 with 50 starts.

    With seed 0 a traced run must reproduce the baseline counters exactly.
    """

    name = "price-detect"
    why = "one detect on the price fixture, beta 4, 50 starts: the ROADMAP counter baseline"
    gated = False
    beta = 4.0
    baseline = {0: {"refine calls": 136_048, "non-converged refines": 7,
                    "ascent iterations": 262_551}}

    def params(self, seed):
        return {"fixture_seed": seed, "beta": self.beta, "starts": 50, "multistart_seed": seed}

    def make_inputs(self, pkg, seed, workdir):
        prices = os.path.join(workdir, "prices.csv")
        crisis = write_price_fixture(prices, seed)
        io = pkg.io
        returns = io.compute_returns(io.read_price_csv(prices), "linear")
        return io.label_by_crisis(returns, crisis), seed

    def run_pass(self, pkg, inputs, workdir, tracer):
        dataset, seed = inputs
        det = pkg.detector
        config = det.DetectorConfig(
            beta=self.beta, multistart=pkg.cgf.MultistartConfig(n_starts=50, seed=seed))
        result = PassResult(outputs=None, operations=1)
        try:
            report = det.detect(dataset.data, config)
        except Exception as err:  # a raising detect is a failed operation, not a crash
            result.fail("detect", f"raised {err!r}")
            return result
        _check_scores(result, "detect", report, self.beta)
        result.outputs = np.packbits(report.outlier_flags).tobytes()
        tpr, fpr = pkg.evaluation.confusion_rates(report.outlier_flags, dataset.truth)
        curve = pkg.evaluation.assemble_curve([(self.beta, fpr, tpr)])
        result.quality = {"auc": curve.auc, "bcv": curve.bcv, "tpr": tpr, "fpr": fpr}
        return result

    def check_trace(self, seed, tracer):
        want = self.baseline.get(seed)
        if want is None:
            return []
        counts = tracer.counts
        # the tracer has already checked that these iterations equal report.iterations_total
        got = {
            "refine calls": tracer.span_totals()["cgf.refine_direction"]["calls"],
            "non-converged refines": counts["cgf.refine_direction.nonconverged"],
            "ascent iterations": counts["cgf.maximize_cgf.iterations"]
            + counts["cgf.refine_direction.iterations"],
        }
        return [f"baseline {key}: got {got[key]}, ROADMAP says {value}"
                for key, value in want.items() if got[key] != value]


WORKLOADS = {w.name: w for w in (DetectLarge(), PcaSweep(), SimSweep(), PriceCli(), PriceDetect())}
