"""Benchmark of the cgf_outliers detector.

Run from the repository root:

    python3 perfbench/run.py --workload detect-large --seed 0 --seconds 50 --trace 0

The program is imported from ./src. A run builds the workload's inputs from
--seed, times the set-up several times, then repeats passes of the workload's
job until the next pass would end after --seconds (at least two passes), and
checks every pass's outputs, including that all passes of a run agree.
Timings are medians over those repeats: job_s over passes, and each detect
call's latency over the passes that repeated it before the percentiles are
taken.

--trace 0 reports the end-to-end metrics of untraced passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones (counts from the first traced pass, times as medians) plus
the tracing overhead. Which metrics go into the last output line, and their
units, is declared in BENCHMARK.json; every other metric is printed above it
and written with the machine record to .perfbench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass

# Single-threaded BLAS, pinned before numpy is imported; the load runs in this one process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
PKG_THREADS_VAR = "CGF_OUTLIERS_THREADS"  # the package's own thread pool: kept off

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
OUT_DIR = ".perfbench_out"

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cgf_outliers; print(time.perf_counter() - t)"
)

# span names reported per function: calls, busy_s and self_s each
FUNCTIONS = (
    "cgf.maximize_cgf", "cgf.refine_direction", "cgf.select_radius",
    "detector.detect", "detector.q_scores",
    "linalg_stats.center", "linalg_stats.covariance_pca", "linalg_stats.kurtosis",
    "linalg_stats.median_and_mad",
    "evaluation.roc_sweep", "distributions.inject_outliers",
    "io.read_price_csv", "io.compute_returns", "io.label_by_crisis", "io.read_data_csv",
    "io.read_labels_csv", "io.write_data_csv", "io.write_labels_csv", "io.write_json",
    "io.write_roc_csv",
    "cli.returns", "cli.evaluate",
)
LAYERS = ("cgf", "detector", "linalg_stats", "evaluation", "io", "cli", "distributions")
COUNTERS = (
    ("cgf.maximize_cgf.iterations", "count"), ("cgf.maximize_cgf.maxima", "count"),
    ("cgf.maximize_cgf.violations", "count"), ("cgf.refine_direction.iterations", "count"),
    ("cgf.refine_direction.nonconverged", "count"), ("cgf.exp_evals", "count"),
    ("cgf.bytes_computed", "B"), ("detector.passes", "count"),
    ("detector.directions", "count"), ("evaluation.roc_sweep.failures", "count"),
    ("io.bytes_written", "B"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _tail(latencies: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it.

    With fewer than 2 * TAIL_BEYOND samples no ladder step above the median
    qualifies, and the tail falls back to the median.
    """
    for pct in TAIL_LADDER:
        if len(latencies) * (1.0 - pct / 100.0) >= TAIL_BEYOND:
            return statistics.quantiles(latencies, n=1000, method="inclusive")[
                round(pct * 10) - 1], pct
    return _median(latencies), 50.0


def _import_seconds(src: str) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def _machine(root: str, src: str, np_module, inherited_env: dict) -> dict:
    def read(path):
        try:
            with open(path, encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else ():
        level, size = read(f"{cache_dir}/{entry}/level").strip(), read(
            f"{cache_dir}/{entry}/size").strip()
        if level and size:
            caches[int(level)] = size
    blas = {}
    try:
        deps = np_module.show_config(mode="dicts").get("Build Dependencies", {})
        blas = {k: deps.get(k, {}).get("name", "") + " " + deps.get(k, {}).get("version", "")
                for k in ("blas", "lapack")}
    except (TypeError, AttributeError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "last_level_cache": caches[max(caches)] if caches else None,
        "python": platform.python_version(),
        "numpy": np_module.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS + (PKG_THREADS_VAR,)},
        "inherited_thread_env": inherited_env,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def _os_threads() -> int:
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 1


@dataclass
class _Pass:
    traced: bool
    seconds: float
    result: object  # workloads.PassResult
    tracer: object  # tracer.Tracer of a traced pass, else None
    latencies: list[float]  # every detect call of the pass
    raised: int  # detect calls that raised


def _compare(first, other) -> int:
    """How many operations' outputs differ between two passes."""
    if isinstance(first, list) and isinstance(other, list) and len(first) == len(other):
        return sum(a != b for a, b in zip(first, other))
    return 0 if first == other else 1


def _run_passes(workload, pkg, inputs, workdir, seconds, trace, timer, tracer_cls):
    passes: list[_Pass] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = tracer_cls(pkg) if traced else None
        first_latency, raised_before = len(timer.latencies), timer.raised
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.installed():
                result = workload.run_pass(pkg, inputs, workdir, tracer)
        else:
            result = workload.run_pass(pkg, inputs, workdir, None)
        elapsed = time.perf_counter() - t0
        passes.append(_Pass(traced, elapsed, result, tracer, timer.latencies[first_latency:],
                            timer.raised - raised_before))
        so_far = time.perf_counter() - start
        if len(passes) >= 2 and so_far + _median(p.seconds for p in passes) > seconds:
            return passes


def _call_latencies(plain: list[_Pass]) -> list[float]:
    """Each detect call's latency as the median over the passes that repeated it.

    Every pass makes the same calls in the same order, so a call that a
    neighbouring process slowed in one pass does not set the tail.
    """
    counts = {len(p.latencies) for p in plain}
    if len(counts) != 1:
        return [x for p in plain for x in p.latencies]
    return [statistics.median(call) for call in zip(*(p.latencies for p in plain))]


def _end_to_end(setup_s, passes) -> dict:
    plain = [p for p in passes if not p.traced]
    latencies = _call_latencies(plain)
    tail, pct = _tail(latencies)
    quality = passes[0].result.quality
    return {
        "setup_s": (setup_s, "s"),
        "job_s": (_median(p.seconds for p in plain), "s"),
        "detect_p50_s": (_median(latencies), "s"),
        "detect_tail_s": (tail, "s"),
        "detect_tail_pct": (pct, "%"),
        "detect_samples": (len(latencies), "count"),
        "auc": (quality.get("auc", float("nan")), "ratio"),
        "bcv": (quality.get("bcv", float("nan")), "ratio"),
        "tpr": (quality.get("tpr", float("nan")), "ratio"),
        "fpr": (quality.get("fpr", float("nan")), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "detect_calls": (sum(len(p.latencies) for p in plain), "count"),
        "detect_repeats": (len(plain), "count"),
        "detect_raised": (sum(p.raised for p in plain), "count"),
    }


def _per_layer(passes, setup_tracer) -> dict:
    traced = [p for p in passes if p.traced]
    first = traced[0].tracer
    totals = [p.tracer.span_totals() for p in traced]
    layers = [p.tracer.layer_busy() for p in traced]
    # the inputs are generated in set-up, so the distributions layer is read from its trace
    setup_totals, setup_layers = setup_tracer.span_totals(), setup_tracer.layer_busy()
    out = {}
    for name in FUNCTIONS:
        source = [setup_totals] if name.startswith("distributions.") else totals
        out[f"{name}.calls"] = (source[0].get(name, {}).get("calls", 0), "count")
        for field in ("busy_s", "self_s"):
            out[f"{name}.{field}"] = (_median(t.get(name, {}).get(field, 0.0) for t in source),
                                      "s")
    for layer in LAYERS:
        source = [setup_layers] if layer == "distributions" else layers
        out[f"{layer}.busy_s"] = (_median(b.get(layer, 0.0) for b in source), "s")
    for name, unit in COUNTERS:
        out[name] = (first.counts.get(name, 0), unit)
    passes_n = first.counts.get("detector.passes", 0)
    productive = first.counts.get("detector.productive_passes", 0)
    out["detector.productive_pass_frac"] = (productive / passes_n if passes_n else 0.0, "ratio")
    plain = _median(p.seconds for p in passes if not p.traced)
    overhead = _median(p.seconds for p in traced) - plain
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_frac"] = (overhead / plain, "ratio")
    return out


def _counter_problems(passes) -> list[str]:
    """Counters must repeat exactly across the traced passes of a run."""
    traced = [p for p in passes if p.traced]
    problems = []
    for other in traced[1:]:
        a, b = dict(traced[0].tracer.counts), dict(other.tracer.counts)
        calls_a = {k: v["calls"] for k, v in traced[0].tracer.span_totals().items()}
        calls_b = {k: v["calls"] for k, v in other.tracer.span_totals().items()}
        if a != b or calls_a != calls_b:
            problems.append("counters differ between traced passes")
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "cgf_outliers", "__init__.py")):
        print("perfbench: no package source at ./src/cgf_outliers; run from the repository root",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    inherited_env = {k: os.environ.get(k) for k in THREAD_VARS + (PKG_THREADS_VAR,)}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop(PKG_THREADS_VAR, None)
    sys.path.insert(0, src)
    import numpy as np
    import cgf_outliers as pkg
    from tracer import DetectTimer, Tracer
    from workloads import WORKLOADS

    if os.path.commonpath([os.path.abspath(pkg.__file__), src]) != src:
        print(f"perfbench: imported cgf_outliers from {pkg.__file__}, not ./src", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore", UserWarning)  # roc_sweep warns on each declined beta

    out_dir = os.path.join(root, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import_s = _median(_import_seconds(src) for _ in range(SETUP_REPEATS))
        make_s = []
        for k in range(SETUP_REPEATS):
            target = os.path.join(workdir, f"setup{k}")
            os.makedirs(target)
            t0 = time.perf_counter()
            inputs = workload.make_inputs(pkg, args.seed, target)
            make_s.append(time.perf_counter() - t0)
        setup_s = import_s + _median(make_s)
        setup_tracer = Tracer(pkg)
        if args.trace:
            target = os.path.join(workdir, "setup-traced")
            os.makedirs(target)
            with setup_tracer.installed():
                workload.make_inputs(pkg, args.seed, target)

        # let numpy and BLAS finish their lazy set-up before anything is timed
        rng = np.random.default_rng(12345)
        pkg.detector.detect(pkg.DataMatrix(rng.standard_normal((200, 5))),
                            pkg.DetectorConfig(beta=3.0,
                                               multistart=pkg.MultistartConfig(n_starts=20)))

        timer = DetectTimer(pkg)
        with timer.installed():
            passes = _run_passes(workload, pkg, inputs, workdir, args.seconds, args.trace,
                                 timer, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [msg for p in passes for msg in p.result.problems]
    attempted = sum(p.result.operations for p in passes)
    failed = sum(p.result.failed_operations for p in passes)
    for i, p in enumerate(passes[1:], start=2):
        differ = _compare(passes[0].result.outputs, p.result.outputs)
        if differ:
            failed += differ
            problems.append(f"pass {i}: outputs of {differ} operation(s) differ from pass 1")
    if args.trace:
        trace_problems = _counter_problems(passes)
        for p in passes:
            if p.traced:
                trace_problems += p.tracer.problems
                trace_problems += workload.check_trace(args.seed, p.tracer)
        failed += len(trace_problems)
        problems += trace_problems
    threads = _os_threads()
    machine = _machine(root, src, np, inherited_env)
    if threads > machine["nproc"]:
        problems.append(f"{threads} OS threads exceed nproc {machine['nproc']}")

    metrics = _end_to_end(setup_s, passes)
    metrics["fail_frac"] = (failed / attempted if attempted else float("nan"), "ratio")
    if args.trace:
        metrics.update(_per_layer(passes, setup_tracer))

    report = {
        "workload": workload.name, "why": workload.why, "gated": workload.gated,
        "params": workload.params(args.seed), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_seconds": [round(p.seconds, 6) for p in passes],
        "pass_traced": [p.traced for p in passes],
        "import_s": import_s, "make_inputs_s": make_s, "os_threads": threads,
        "machine": machine, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, default=str)
    if args.trace:
        next(p for p in passes if p.traced).tracer.write_spans(stem + "-spans.csv")

    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {workload.why}")
    print("# params " + json.dumps(workload.params(args.seed)))
    print("# machine " + json.dumps(machine))
    for name, (value, unit) in metrics.items():
        print(f"#   {name:<40} {value:>16.6g} {unit}")
    for msg in problems:
        print(f"# PROBLEM {msg}")

    line = {}
    for entry in declared:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: unit {unit} != declared {entry['unit']}")
        if not math.isfinite(value):
            problems.append(f"{entry['name']} is not finite")
            value = None
        line[entry["name"]] = {"value": value, "unit": unit}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": line}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
