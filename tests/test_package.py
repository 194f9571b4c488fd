"""The package namespace: one list of public names, built from the modules'."""

import cgf_outliers


def test_every_public_name_resolves_on_the_package():
    names = cgf_outliers.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(cgf_outliers, name)]
    assert missing == []
    assert {"fit", "remove", "FittedDetector", "detect", "__version__"} <= set(names)
