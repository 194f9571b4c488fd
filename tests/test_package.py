"""The package namespace: one list of public names, built from the modules'."""

import dataclasses
import inspect

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
