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
    assert fields(cgf_outliers.DetectorConfig) == ["beta", "target_eps", "multistart", "method"]
    assert fields(cgf_outliers.SimulationSpec) == [
        "family", "n", "T", "seed", "sigma_mat", "nu", "alpha_range"]
    assert list(inspect.signature(cgf_outliers.refine_direction).parameters) == [
        "values", "r", "theta"]


def test_every_name_the_benchmark_tracer_patches_resolves():
    # the tracer swaps these bindings for timing wrappers; a refactor that drops one
    # would otherwise fail only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.BINDINGS
    missing = [(module, attr) for module, attr, _ in tracer.BINDINGS
               if not hasattr(getattr(cgf_outliers, module, None), attr)]
    assert missing == []
