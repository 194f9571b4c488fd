"""The package namespace: one list of public names, built from the modules'."""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import cgf_outliers


def test_every_public_name_resolves_on_the_package():
    names = cgf_outliers.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cgf_outliers, name)]
    assert missing == []
    assert {"fit", "remove", "FittedDetector", "detect", "__version__"} <= set(names)


def test_option_surface_is_pinned():
    # every settable value is an option to test and benchmark; add one deliberately
    def fields(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert fields(cgf_outliers.MultistartConfig) == ["n_starts", "seed"]
    assert fields(cgf_outliers.FitConfig) == ["target_eps", "multistart", "method"]
    assert fields(cgf_outliers.DetectorConfig) == ["target_eps", "multistart", "method", "beta"]
    assert fields(cgf_outliers.SimulationSpec) == [
        "family", "n", "T", "seed", "sigma_mat", "nu", "alpha_range"]
    assert list(inspect.signature(cgf_outliers.refine_direction).parameters) == [
        "values", "r", "theta"]


def _benchmark_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_benchmark_tracer_patches_resolves():
    # the tracer swaps these bindings for timing wrappers; a refactor that drops one
    # would otherwise fail only in a traced benchmark run
    tracer = _benchmark_tracer()
    assert tracer.BINDINGS
    missing = [(module, attr) for module, attr, _ in tracer.BINDINGS
               if not hasattr(getattr(cgf_outliers, module, None), attr)]
    assert missing == []


def test_the_benchmark_tracer_observes_a_detect_and_a_sweep():
    # the tracer's observers read results and arguments too; run them on one
    # small detect and one beta sweep of the same draw
    ds = cgf_outliers.inject_outliers(
        cgf_outliers.SimulationSpec(family="std_normal", n=4, T=100, seed=3))
    config = cgf_outliers.DetectorConfig(
        beta=3.0, multistart=cgf_outliers.MultistartConfig(n_starts=20, seed=3))
    grid = [2.0, 3.0, 4.0]
    tracer = _benchmark_tracer().Tracer(cgf_outliers)
    with tracer.installed():
        report = cgf_outliers.detector.detect(ds.data, config)
        counts = dict(tracer.counts)
        curve = cgf_outliers.evaluation.roc_sweep(ds, "maxcgf", grid, config)
    assert tracer.problems == []
    # max-CGF directions are never re-estimated: every iteration is the multistart's
    assert counts.get("cgf.refine_direction.iterations", 0) == 0
    assert counts["cgf.maximize_cgf.iterations"] == report.iterations_total > 0

    # the sweep fits once and removes once per beta
    fitted = cgf_outliers.fit(ds.data, config)
    assert all(cgf_outliers.remove(fitted, beta).iterations_total == fitted.iterations
               for beta in grid)
    swept = {name: tracer.counts[name] - counts.get(name, 0) for name in tracer.counts}
    assert len(curve.failures) == swept["evaluation.roc_sweep.failures"] == 0
    assert swept["cgf.maximize_cgf.iterations"] == fitted.iterations
    assert swept.get("cgf.refine_direction.iterations", 0) == 0
    assert tracer.span_totals()["cgf.maximize_cgf"]["calls"] == 2
