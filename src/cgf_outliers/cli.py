"""Command-line front end.

Subcommands:
  simulate   draw a labeled synthetic dataset -> data.csv + labels.csv
  returns    price CSV -> linear or log returns -> data.csv
  detect     one detector run at a fixed beta -> report.json
  evaluate   sweep the beta grid on labeled data -> roc.csv + summary.json
  sweep      regenerate + evaluate across several seeds -> sweep.json

Every run is deterministic given --seed: outputs are byte-identical across
repeats. Errors print one JSON object to stderr; exit status is 2 for usage,
input, or configuration problems and 1 for detector runtime failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from . import __version__
from .cgf import ConvergenceError, MultistartConfig
from .detector import DetectionError, DetectionMethod, DetectorConfig, detect
from .distributions import LabeledDataset, SimulationSpec, default_covariance, inject_outliers
from .evaluation import RocCurve, default_beta_grid, roc_sweep
from .io import (
    compute_returns,
    label_by_crisis,
    read_cov_csv,
    read_data_csv,
    read_labels_csv,
    read_price_csv,
    write_data_csv,
    write_json,
    write_labels_csv,
    write_roc_csv,
)

__all__ = ["main", "run_cli"]

_SCHEMA_VERSION = 1
_DIST = {
    "stdnormal": "std_normal",
    "normal": "normal",
    "skewnormal": "skew_normal",
    "studentt": "student_t",
}
_COV_BASIS_SEED = 0  # default covariance is an experiment constant, not per-seed


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as JSON on stderr."""

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _parse_floats(text: str, form: str = "lo:hi") -> list[float]:
    # argparse prints an ArgumentTypeError's text; for a ValueError it names only the function
    parts = text.split(":")
    try:
        if len(parts) == form.count(":") + 1:
            return [float(part) for part in parts]
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")


def _parse_grid(text: str) -> np.ndarray:
    try:
        return default_beta_grid(*_parse_floats(text, "lo:step:hi"))
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _add_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", required=True, choices=sorted(_DIST))
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--t", type=int, required=True, help="number of observations")
    p.add_argument("--nu", type=float, default=None, help="Student-t degrees of freedom")
    p.add_argument(
        "--alpha-range",
        type=_parse_floats,
        default=(-1.0, 4.0),
        metavar="LO:HI",
        help="skew-normal shape drawn uniformly from this interval (use --alpha-range=-1:4)",
    )
    p.add_argument("--cov", default=None, help="covariance CSV (headerless n x n)")


def _add_detector_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-target", type=float, default=0.1, help="CGF relative error target")
    p.add_argument("--starts", type=int, default=1000, help="multistart count")
    p.add_argument("--method", choices=[m.value for m in DetectionMethod], default="maxcgf")


def _build_parser() -> _Parser:
    parser = _Parser(prog="cgf-outliers", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="draw a labeled synthetic dataset")
    _add_sim_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("returns", help="compute returns from a price CSV")
    p.add_argument("--prices", required=True, help="input price CSV (date,TICK1,...)")
    p.add_argument("--returns", choices=["linear", "log"], default="linear", dest="kind")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_returns)

    p = sub.add_parser("detect", help="flag outliers at one beta")
    p.add_argument("--data", required=True, help="input data CSV")
    p.add_argument("--beta", type=float, required=True)
    _add_detector_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("evaluate", help="sweep the beta grid on labeled data")
    p.add_argument("--data", required=True, help="input data CSV")
    p.add_argument("--labels", default=None, help="labels CSV (is_outlier column)")
    p.add_argument("--crisis-date", default=None, help="label dated rows >= this ISO date")
    p.add_argument("--beta-grid", type=_parse_grid, default=None, metavar="LO:STEP:HI")
    _add_detector_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timings", action="store_true", help="include wall-clock times in summary.json")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="regenerate + evaluate across seeds")
    _add_sim_args(p)
    p.add_argument("--beta-grid", type=_parse_grid, default=None, metavar="LO:STEP:HI")
    _add_detector_args(p)
    p.add_argument("--seed", type=int, default=0, help="base seed; run i uses seed+i")
    p.add_argument("--n-seeds", type=int, default=5)
    p.add_argument("--timings", action="store_true")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _outdir(args) -> str:
    # called once the outputs are computed, so a failing run leaves no directory
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _build_spec(args, seed: int) -> SimulationSpec:
    family = _DIST[args.dist]
    if args.cov is not None:
        sigma = read_cov_csv(args.cov)
    elif family == "std_normal":
        sigma = None
    else:
        sigma = default_covariance(args.n, condition=20.0, seed=_COV_BASIS_SEED)
    return SimulationSpec(
        family=family,
        n=args.n,
        T=args.t,
        seed=seed,
        sigma_mat=sigma,
        nu=args.nu,
        alpha_range=tuple(args.alpha_range),
    )


def _detector_config(args, beta: float, seed: int) -> DetectorConfig:
    return DetectorConfig(
        beta=beta,
        target_eps=args.eps_target,
        multistart=MultistartConfig(n_starts=args.starts, seed=seed),
        method=args.method,
    )


def _sim_config_echo(args, seed) -> dict:
    return {
        "dist": args.dist,
        "n": args.n,
        "t": args.t,
        "seed": seed,
        "nu": args.nu,
        "alpha_range": list(args.alpha_range),
        "cov": args.cov,
    }


def _detector_config_echo(args, seed, head: dict) -> dict:
    """head, then the detector options of a run."""
    return {
        **head,
        "eps_target": args.eps_target,
        "starts": args.starts,
        "method": args.method,
        "seed": seed,
    }


def _envelope(command: str, config: dict) -> dict:
    """The head of every JSON report: versions, the command and its config echo."""
    return {
        "schema_version": _SCHEMA_VERSION,
        "package_version": __version__,
        "command": command,
        "config": config,
    }


def _cmd_simulate(args) -> int:
    dataset = inject_outliers(_build_spec(args, args.seed))
    out = _outdir(args)
    write_data_csv(os.path.join(out, "data.csv"), dataset.data)
    write_labels_csv(os.path.join(out, "labels.csv"), dataset.truth)
    return 0


def _cmd_returns(args) -> int:
    returns = compute_returns(read_price_csv(args.prices), args.kind)
    write_data_csv(os.path.join(_outdir(args), "data.csv"), returns)
    return 0


def _cmd_detect(args) -> int:
    data = read_data_csv(args.data)
    report = detect(data, _detector_config(args, args.beta, args.seed))
    payload = {
        **_envelope("detect", _detector_config_echo(
            args, args.seed, {"data": str(args.data), "beta": args.beta})),
        "r_used": report.r_used,
        "beta": report.beta,
        "method": report.method.value,
        "iterations_total": report.iterations_total,
        "n_flagged": report.n_flagged,
        "flags": [int(f) for f in report.outlier_flags],
        "q_scores": list(report.q_scores),
        "warnings": list(report.warnings),
        "directions": [
            {
                "cgf_value": t.cgf_value,
                "kurtosis_trace": list(t.kurtosis_trace),
                "removed": t.removed,
                "refine_iterations": t.refine_iterations,
                "skipped": t.skipped,
                "note": t.note,
                "direction": list(t.final_direction),
            }
            for t in report.directions_used
        ],
    }
    write_json(os.path.join(_outdir(args), "report.json"), payload)
    return 0


def _labeled_from_args(args) -> LabeledDataset:
    if (args.labels is None) == (args.crisis_date is None):
        raise ValueError("evaluate needs exactly one of --labels or --crisis-date")
    data = read_data_csv(args.data)
    if args.labels is not None:
        return LabeledDataset(data, read_labels_csv(args.labels))
    return label_by_crisis(data, args.crisis_date)


def _grid(args) -> np.ndarray:
    return args.beta_grid if args.beta_grid is not None else default_beta_grid()


def _evaluate_into(args, suffix: str, seed: int, dataset: LabeledDataset,
                   head: dict) -> RocCurve:
    """Sweep the beta grid on dataset, then write roc<suffix>.csv and summary<suffix>.json."""
    grid = _grid(args)
    curve = roc_sweep(dataset, args.method, grid, _detector_config(args, float(grid[0]), seed))
    out = _outdir(args)
    write_roc_csv(os.path.join(out, f"roc{suffix}.csv"), curve)
    summary = {
        **_envelope(args.command, _detector_config_echo(
            args, seed, {**head, "beta_grid": [float(b) for b in grid]})),
        "auc": curve.auc,
        "bcv": curve.bcv,
        "beta_star": curve.beta_star,
        "n_points": len(curve.points),
        "failures": [{"beta": b, "message": m} for b, m in curve.failures],
    }
    if args.timings:
        summary["timings"] = [{"beta": b, "seconds": s} for b, s in curve.timings]
    write_json(os.path.join(out, f"summary{suffix}.json"), summary)
    return curve


def _cmd_evaluate(args) -> int:
    head = {"data": str(args.data), "labels": args.labels, "crisis_date": args.crisis_date}
    _evaluate_into(args, "", args.seed, _labeled_from_args(args), head)
    return 0


def _beta_star_mode(values: list[float]) -> float | None:
    finite = [v for v in values if not np.isnan(v)]
    if not finite:
        return None
    counts = Counter(finite)
    best = max(counts.values())
    return min(b for b, c in counts.items() if c == best)


def _cmd_sweep(args) -> int:
    if args.n_seeds < 1:
        _emit_error("usage", f"--n-seeds must be >= 1, got {args.n_seeds}")
        return 2
    per_seed = []
    for seed in range(args.seed, args.seed + args.n_seeds):
        dataset = inject_outliers(_build_spec(args, seed))
        curve = _evaluate_into(args, f"_seed{seed}", seed, dataset,
                               _sim_config_echo(args, seed))
        per_seed.append((seed, curve))

    aucs = [c.auc for _, c in per_seed]
    bcvs = [c.bcv for _, c in per_seed]
    stars = [c.beta_star for _, c in per_seed]
    head = {**_sim_config_echo(args, args.seed), "n_seeds": args.n_seeds,
            "beta_grid": [float(b) for b in _grid(args)]}
    payload = {
        **_envelope("sweep", _detector_config_echo(args, args.seed, head)),
        "per_seed": [
            {"seed": s, "auc": c.auc, "bcv": c.bcv, "beta_star": c.beta_star}
            for s, c in per_seed
        ],
        "aggregate": {
            "auc_mean": float(np.mean(aucs)),
            "auc_min": float(np.min(aucs)),
            "auc_max": float(np.max(aucs)),
            "bcv_mean": float(np.mean(bcvs)),
            "bcv_min": float(np.min(bcvs)),
            "bcv_max": float(np.max(bcvs)),
            "beta_star_mode": _beta_star_mode(stars),
        },
    }
    write_json(os.path.join(_outdir(args), "sweep.json"), payload)
    return 0


def run_cli(argv) -> int:
    """Parse and execute one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as err:
        return int(err.code) if err.code is not None else 0
    try:
        return args.func(args)
    except (DetectionError, ConvergenceError) as err:
        _emit_error(type(err).__name__, str(err))
        return 1
    except (ValueError, OSError) as err:
        _emit_error(type(err).__name__, str(err))
        return 2


def main() -> int:
    return run_cli(sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
