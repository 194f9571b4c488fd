"""Tests for CSV/JSON round trips and the command-line interface."""

import datetime
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import cgf_outliers
from cgf_outliers import (
    DataMatrix,
    PriceTable,
    SimulationSpec,
    assemble_curve,
    compute_returns,
    inject_outliers,
    jsonify,
    label_by_crisis,
    read_data_csv,
    read_labels_csv,
    read_price_csv,
    run_cli,
    write_data_csv,
    write_json,
    write_labels_csv,
    write_roc_csv,
)


def _dates(start: str, count: int) -> list[str]:
    first = datetime.date.fromisoformat(start)
    return [(first + datetime.timedelta(days=i)).isoformat() for i in range(count)]


# ---------------------------------------------------------------- price tables


def test_price_table_validation():
    good = PriceTable(("2020-01-01", "2020-01-02"), [[1.0], [2.0]], ("AAA",))
    assert good.prices.shape == (2, 1)
    assert not good.prices.flags.writeable

    with pytest.raises(ValueError, match="strictly increasing"):
        PriceTable(("2020-01-02", "2020-01-01"), [[1.0], [2.0]], ("AAA",))
    with pytest.raises(ValueError, match="row 2, column 'BBB'"):
        PriceTable(("2020-01-01", "2020-01-02"), [[1.0, 2.0], [1.0, -3.0]], ("AAA", "BBB"))
    with pytest.raises(ValueError, match="shape"):
        PriceTable(("2020-01-01",), [[1.0], [2.0]], ("AAA",))
    with pytest.raises(ValueError, match="ISO"):
        PriceTable(("01/02/2020",), [[1.0]], ("AAA",))


@pytest.mark.parametrize("call, message", [
    (lambda csv: PriceTable(("2020-01-01",), [1.0], ("AAA",)), "prices must be a 2-D array"),
    (lambda csv: PriceTable((), np.empty((0, 1)), ("AAA",)),
     "need at least one date and one ticker"),
    (lambda csv: PriceTable(("2020-01-01",), [[math.inf]], ("AAA",)), "prices must be finite"),
    (read_data_csv, "{csv}: no variable columns in header ['date']"),
], ids=["prices-1-D", "prices-empty", "prices-inf", "csv-only-date"])
def test_input_checks_name_the_problem(tmp_path, call, message):
    csv = tmp_path / "data.csv"
    csv.write_text("date\n2020-01-01\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        call(csv)
    assert (type(err.value), str(err.value)) == (ValueError, message.format(csv=csv))


def test_read_price_csv_round_trip(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,AAA,BBB\n"
        "2020-01-01,100.0,50.0\n"
        "2020-01-02,101.5,49.25\n"
        "\n",  # trailing blank line is tolerated
        encoding="utf-8",
    )
    table = read_price_csv(path)
    assert table.tickers == ("AAA", "BBB")
    assert table.dates == ("2020-01-01", "2020-01-02")
    np.testing.assert_array_equal(table.prices, [[100.0, 50.0], [101.5, 49.25]])


def test_read_price_csv_errors_cite_row_and_column(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text(
        "date,AAA,BBB\n2020-01-01,100.0,50.0\n2020-01-02,oops,49.0\n", encoding="utf-8"
    )
    with pytest.raises(ValueError, match="row 3, column 'AAA'.*'oops'"):
        read_price_csv(path)

    path.write_text("date,AAA\n2020-01-01,-5.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2, column 'AAA'"):
        read_price_csv(path)

    path.write_text("date,AAA\n2020-01-01,100.0,7.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2: expected 2 fields"):
        read_price_csv(path)

    path.write_text("ticker,AAA\n2020-01-01,100.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        read_price_csv(path)

    path.write_text("date,AAA\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        read_price_csv(path)


@pytest.mark.parametrize(
    "cell, problem",
    [("nan", "non-finite number 'nan'"), ("inf", "non-finite number 'inf'"),
     ("-inf", "non-finite number '-inf'"), ("", "missing value")],
    ids=["nan", "inf", "-inf", "empty"],
)
def test_both_readers_reject_non_finite_and_empty_cells(tmp_path, cell, problem):
    prices = tmp_path / "prices.csv"
    prices.write_text(f"date,AAA,BBB\n2020-01-01,1.0,2.0\n2020-01-02,1.5,{cell}\n",
                      encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_price_csv(prices)
    assert str(err.value) == f"{prices} row 3, column 'BBB': {problem}"

    data = tmp_path / "data.csv"
    data.write_text(f"x1,x2\n1.0,2.0\n\n{cell},3.0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_data_csv(data)
    assert str(err.value) == f"{data} row 4, column 'x1': {problem}"

    labels = tmp_path / "labels.csv"
    labels.write_text(f"is_outlier\n1\n0\n{cell}\n", encoding="utf-8")
    if not cell:  # in a one-column table an empty cell is a blank line, which is skipped
        np.testing.assert_array_equal(read_labels_csv(labels), [True, False])
        return
    with pytest.raises(ValueError) as err:
        read_labels_csv(labels)
    assert str(err.value) == f"{labels} row 4, column 'is_outlier': {problem}"


# -------------------------------------------------------------------- returns


def test_compute_returns_hand_values():
    table = PriceTable(tuple(_dates("2020-01-01", 3)), [[100.0], [110.0], [99.0]], ("AAA",))
    linear = compute_returns(table, "linear")
    np.testing.assert_allclose(linear.values[:, 0], [0.10, -0.10], rtol=0, atol=1e-12)
    # dated by the later day of each pair
    assert linear.row_labels == ("2020-01-02", "2020-01-03")

    log = compute_returns(table, "log")
    assert abs(log.values[0, 0] - math.log(1.1)) <= 1e-15


def test_compute_returns_edge_cases():
    table = PriceTable(tuple(_dates("2020-01-01", 4)), [[5.0]] * 4, ("AAA",))
    for kind in ("linear", "log"):
        np.testing.assert_array_equal(compute_returns(table, kind).values, 0.0)

    with pytest.raises(ValueError, match="kind"):
        compute_returns(table, "simple")
    single = PriceTable(("2020-01-01",), [[5.0]], ("AAA",))
    with pytest.raises(ValueError, match="two price rows"):
        compute_returns(single, "linear")


def test_label_by_crisis_boundary_is_inclusive():
    labels = _dates("2020-03-01", 10)
    data = DataMatrix(np.arange(20.0).reshape(10, 2), row_labels=labels)
    dataset = label_by_crisis(data, labels[6])
    assert dataset.truth.sum() == 4
    assert dataset.truth[6]
    assert not dataset.truth[5]

    all_true = label_by_crisis(data, labels[0])
    assert all_true.truth.all()


def test_label_by_crisis_validation():
    labels = _dates("2020-03-01", 10)
    data = DataMatrix(np.ones((10, 2)), row_labels=labels)
    with pytest.raises(ValueError, match="outside the data range"):
        label_by_crisis(data, "2020-02-28")
    with pytest.raises(ValueError, match="outside the data range"):
        label_by_crisis(data, "2020-03-11")
    with pytest.raises(ValueError, match="ISO"):
        label_by_crisis(data, "March 5")
    undated = DataMatrix(np.ones((10, 2)))
    with pytest.raises(ValueError, match="date labels"):
        label_by_crisis(undated, "2020-03-05")


# ----------------------------------------------------------- data/labels files


def test_data_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(11)
    data = DataMatrix(rng.standard_normal((17, 3)) * 10.0 ** rng.integers(-8, 8, (17, 3)))
    path = tmp_path / "data.csv"
    write_data_csv(path, data)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "x1,x2,x3"

    back = read_data_csv(path)
    np.testing.assert_array_equal(back.values, data.values)
    assert back.row_labels is None

    # rewriting the parsed matrix reproduces the same bytes
    second = tmp_path / "again.csv"
    write_data_csv(second, back)
    assert second.read_bytes() == path.read_bytes()


def test_dated_data_csv_round_trip(tmp_path):
    labels = _dates("2021-06-01", 5)
    data = DataMatrix(np.random.default_rng(3).standard_normal((5, 2)), row_labels=labels)
    path = tmp_path / "data.csv"
    write_data_csv(path, data)
    assert path.read_text(encoding="utf-8").splitlines()[0] == "date,x1,x2"
    back = read_data_csv(path)
    assert back.row_labels == tuple(labels)
    np.testing.assert_array_equal(back.values, data.values)


def test_read_data_csv_errors(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty"):
        read_data_csv(path)
    path.write_text("x1\n1.0,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected 1 fields"):
        read_data_csv(path)
    path.write_text("x1\nabc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad number"):
        read_data_csv(path)


def test_labels_csv_round_trip(tmp_path):
    truth = np.array([True, False, True, True, False])
    path = tmp_path / "labels.csv"
    write_labels_csv(path, truth)
    assert path.read_text(encoding="utf-8") == "is_outlier\n1\n0\n1\n1\n0\n"
    np.testing.assert_array_equal(read_labels_csv(path), truth)


def test_read_labels_csv_is_strict(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("is_outlier\n0\n2\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        read_labels_csv(path)
    assert str(err.value) == f"{path} row 3, column 'is_outlier': labels must be 0 or 1, got 2"
    path.write_text("is_outlier\n0.5\n", encoding="utf-8")
    with pytest.raises(ValueError, match="row 2, column 'is_outlier': labels must be 0 or 1"):
        read_labels_csv(path)
    for header in ("flag", "is_outlier,x"):
        path.write_text(f"{header}\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="single 'is_outlier' column"):
            read_labels_csv(path)
    path.write_text("is_outlier\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        read_labels_csv(path)
    # any number equal to 0 or 1 is a label, and blank lines are skipped
    path.write_text("is_outlier\n1.0\n\n0\n 1 \n", encoding="utf-8")
    np.testing.assert_array_equal(read_labels_csv(path), [True, False, True])


def test_write_roc_csv_golden(tmp_path):
    curve = assemble_curve([(1.0, 0.1, 0.7), (2.0, 0.3, 0.9)])
    path = tmp_path / "roc.csv"
    write_roc_csv(path, curve)
    assert path.read_text(encoding="utf-8") == (
        "beta,fpr,tpr,youden_j\n1.0,0.1,0.7,0.6\n2.0,0.3,0.9,0.6000000000000001\n"
    )


# ------------------------------------------------------------------------ json


def test_jsonify_coercions():
    payload = {
        "a": np.float64(1.5),
        "b": np.int32(7),
        "c": np.array([1.0, 2.0]),
        "d": float("nan"),
        "e": float("inf"),
        "f": np.bool_(True),
        "g": [np.float64(0.25), {"h": np.float64(-0.5)}],
    }
    out = jsonify(payload)
    assert out == {
        "a": 1.5,
        "b": 7,
        "c": [1.0, 2.0],
        "d": None,
        "e": None,
        "f": True,
        "g": [0.25, {"h": -0.5}],
    }
    assert isinstance(out["a"], float) and isinstance(out["b"], int)


def test_write_json_deterministic(tmp_path):
    payload = {"z": 1, "a": [np.float64(2.0), float("nan")]}
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    write_json(first, payload)
    write_json(second, payload)
    assert first.read_bytes() == second.read_bytes()
    parsed = json.loads(first.read_text(encoding="utf-8"))
    assert list(parsed) == ["z", "a"]  # insertion order, not sorted
    assert parsed["a"] == [2.0, None]
    assert first.read_text(encoding="utf-8").endswith("\n")


# ------------------------------------------------------------------------- cli


def _capture_stderr_json(capsys) -> dict:
    err = capsys.readouterr().err.strip().splitlines()[-1]
    return json.loads(err)


def _simulate(out, seed=0, t=60, n=3) -> int:
    return run_cli(
        [
            "simulate",
            "--dist",
            "stdnormal",
            "--n",
            str(n),
            "--t",
            str(t),
            "--seed",
            str(seed),
            "--out",
            str(out),
        ]
    )


_ENVELOPE = ["schema_version", "package_version", "command", "config"]
_SUMMARY = [*_ENVELOPE, "auc", "bcv", "beta_star", "n_points", "failures"]
_DETECTOR_ECHO = ["eps_target", "starts", "method", "seed"]
_SIM_ECHO = ["dist", "n", "t", "seed", "nu", "alpha_range", "cov"]


def test_cli_simulate_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert _simulate(a) == 0
    assert _simulate(b) == 0
    assert (a / "data.csv").read_bytes() == (b / "data.csv").read_bytes()
    assert (a / "labels.csv").read_bytes() == (b / "labels.csv").read_bytes()
    truth = read_labels_csv(a / "labels.csv")
    assert 0 < truth.sum() < truth.size


def test_cli_detect_report_schema_and_determinism(tmp_path):
    assert _simulate(tmp_path) == 0
    args = [
        "detect",
        "--data",
        str(tmp_path / "data.csv"),
        "--beta",
        "4.0",
        "--starts",
        "40",
        "--seed",
        "1",
    ]
    assert run_cli(args + ["--out", str(tmp_path / "r1")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "r2")]) == 0
    first = (tmp_path / "r1" / "report.json").read_bytes()
    assert first == (tmp_path / "r2" / "report.json").read_bytes()

    report = json.loads(first)
    assert report["schema_version"] == 1
    assert report["command"] == "detect"
    assert list(report) == [*_ENVELOPE, "r_used", "beta", "method", "iterations_total",
                            "n_flagged", "flags", "q_scores", "warnings", "directions"]
    assert list(report["config"]) == ["data", "beta", *_DETECTOR_ECHO]
    assert len(report["flags"]) == 60
    assert set(report["flags"]) <= {0, 1}
    assert report["n_flagged"] == sum(report["flags"])
    assert report["directions"] and "kurtosis_trace" in report["directions"][0]


def test_cli_evaluate_with_labels(tmp_path):
    assert _simulate(tmp_path) == 0
    args = [
        "evaluate",
        "--data",
        str(tmp_path / "data.csv"),
        "--labels",
        str(tmp_path / "labels.csv"),
        "--beta-grid",
        "2:2:8",
        "--starts",
        "40",
        "--timings",
    ]
    assert run_cli(args + ["--out", str(tmp_path / "e1")]) == 0
    assert run_cli(args + ["--out", str(tmp_path / "e2")]) == 0
    assert (tmp_path / "e1" / "roc.csv").read_bytes() == (tmp_path / "e2" / "roc.csv").read_bytes()

    summary = json.loads((tmp_path / "e1" / "summary.json").read_text(encoding="utf-8"))
    assert summary["command"] == "evaluate"
    assert summary["config"]["beta_grid"] == [2.0, 4.0, 6.0, 8.0]
    assert list(summary) == [*_SUMMARY, "timings"]
    assert list(summary["config"]) == ["data", "labels", "crisis_date", "beta_grid",
                                       *_DETECTOR_ECHO]
    assert 0.0 <= summary["auc"] <= 1.0
    assert list(summary["timings"]) == ["fit_s", "remove_s"]
    assert all(s >= 0.0 for s in summary["timings"].values())

    # summaries differ only in wall-clock timings
    other = json.loads((tmp_path / "e2" / "summary.json").read_text(encoding="utf-8"))
    del summary["timings"], other["timings"]
    assert summary == other


def test_cli_evaluate_needs_exactly_one_label_source(tmp_path, capsys):
    assert _simulate(tmp_path) == 0
    base = ["evaluate", "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path)]
    assert run_cli(base) == 2
    assert _capture_stderr_json(capsys)["error"] == "ValueError"
    both = base + ["--labels", str(tmp_path / "labels.csv"), "--crisis-date", "2020-01-01"]
    assert run_cli(both) == 2
    assert "exactly one" in _capture_stderr_json(capsys)["message"]


def test_cli_usage_and_input_errors(tmp_path, capsys):
    assert run_cli(["detect", "--nonsense"]) == 2
    assert _capture_stderr_json(capsys)["error"] == "usage"

    assert run_cli(["detect", "--data", str(tmp_path / "missing.csv"), "--beta", "3"]) == 2
    assert "error" in _capture_stderr_json(capsys)

    assert run_cli(["evaluate", "--data", "x.csv", "--labels", "y.csv",
                    "--beta-grid", "1:2"]) == 2
    assert _capture_stderr_json(capsys)["error"] == "usage"


def test_cli_detection_failure_exits_one(tmp_path, capsys):
    assert _simulate(tmp_path) == 0
    code = run_cli(
        [
            "detect",
            "--data",
            str(tmp_path / "data.csv"),
            "--beta",
            "1e-9",
            "--starts",
            "20",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 1
    assert _capture_stderr_json(capsys)["error"] == "DetectionError"


def test_cli_version_exits_zero(capsys):
    assert run_cli(["--version"]) == 0
    assert "cgf-outliers" in capsys.readouterr().out


def test_cli_runs_as_a_module():
    package_root = os.path.dirname(os.path.dirname(cgf_outliers.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    for module in ("cgf_outliers", "cgf_outliers.cli"):
        done = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, module
        assert done.stderr == "", module
        assert done.stdout.startswith("usage: cgf-outliers"), module
    from cgf_outliers import main, run_cli

    assert main is cgf_outliers.cli.main and run_cli is cgf_outliers.cli.run_cli


def test_cli_sweep_rejects_zero_seeds_as_usage(tmp_path):
    package_root = os.path.dirname(os.path.dirname(cgf_outliers.__file__))
    env = {**os.environ, "PYTHONPATH": package_root}
    out = tmp_path / "out"
    done = subprocess.run(
        [sys.executable, "-m", "cgf_outliers", "sweep", "--dist", "stdnormal", "--n", "3",
         "--t", "60", "--n-seeds", "0", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "usage",
                                    "message": "--n-seeds must be >= 1, got 0"}
    assert not out.exists()


def test_cli_failing_runs_leave_no_out_directory(tmp_path, capsys):
    assert _simulate(tmp_path) == 0
    both = tmp_path / "both"
    assert run_cli(["evaluate", "--data", str(tmp_path / "data.csv"),
                    "--labels", str(tmp_path / "labels.csv"), "--crisis-date", "2020-01-01",
                    "--out", str(both)]) == 2
    assert "exactly one" in _capture_stderr_json(capsys)["message"]
    assert not both.exists()

    data = tmp_path / "nan.csv"
    data.write_text("x1,x2\n1.0,2.0\n3.0,nan\n", encoding="utf-8")
    bad = tmp_path / "bad"
    assert run_cli(["detect", "--data", str(data), "--beta", "3", "--out", str(bad)]) == 2
    assert _capture_stderr_json(capsys)["error"] == "ValueError"
    assert not bad.exists()

    zero = tmp_path / "zero"
    assert run_cli(["sweep", "--dist", "stdnormal", "--n", "3", "--t", "60",
                    "--n-seeds", "0", "--out", str(zero)]) == 2
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"error": "usage", "message": "--n-seeds must be >= 1, got 0"}]
    assert not zero.exists()

    flat = tmp_path / "flat.csv"
    flat.write_text("x1,x2\n" + "1.0,2.0\n" * 12, encoding="utf-8")
    still = tmp_path / "still"
    assert run_cli(["detect", "--data", str(flat), "--beta", "3", "--out", str(still)]) == 2
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"error": "DegenerateInputError", "message": "data has no variance to project"}]
    assert not still.exists()

    # non-finite numbers are input errors wherever they enter
    labeled = ["evaluate", "--data", str(tmp_path / "data.csv"),
               "--labels", str(tmp_path / "labels.csv"), "--beta-grid"]
    grid = "argument --beta-grid: lo, step and hi must be finite"
    width = "alpha_range must be increasing with a finite width"
    simulate = ["simulate", "--dist", "skewnormal", "--n", "3", "--t", "40"]
    for argv, error in [
        (labeled + ["1:1:inf"], {"error": "usage", "message": grid}),
        (labeled + ["inf:1:inf"], {"error": "usage", "message": grid}),
        (labeled + ["1:inf:3"], {"error": "usage", "message": grid}),
        (simulate + ["--alpha-range=-1:inf"], {"error": "ValueError", "message": width}),
        (simulate + ["--alpha-range=-1e308:1e308"], {"error": "ValueError", "message": width}),
        (["simulate", "--dist", "studentt", "--n", "3", "--t", "40", "--nu", "inf"],
         {"error": "ValueError", "message": "nu must be finite and exceed 2"}),
        (["detect", "--data", str(tmp_path / "data.csv"), "--beta", "inf"],
         {"error": "ValueError", "message": "beta must be positive and finite"}),
    ]:
        out = tmp_path / "nonfinite"
        assert run_cli(argv + ["--out", str(out)]) == 2, argv
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [error]
        assert not out.exists()


def test_beta_star_mode_ignores_nan_and_breaks_ties_low():
    from cgf_outliers.cli import _beta_star_mode

    nan = float("nan")
    assert _beta_star_mode([nan, nan]) is None
    assert _beta_star_mode([3.0, nan, 2.5, 3.0, 2.5]) == 2.5
    assert _beta_star_mode([4.0, nan, 2.0, 4.0]) == 4.0


@pytest.mark.parametrize("option, value, message", [
    ("--alpha-range", "1", "expected lo:hi, got '1'"),
    ("--alpha-range", "a:b", "expected lo:hi, got 'a:b'"),
    ("--beta-grid", "1:2", "expected lo:step:hi, got '1:2'"),
    ("--beta-grid", "3:1:2", "need 0 < lo <= hi and step > 0"),
    ("--beta-grid", "0.5:1e-12:10", "the grid has 9.5e+12 points, more than 10000"),
])
def test_cli_range_options_name_the_expected_form(tmp_path, capsys, option, value, message):
    out = tmp_path / "out"
    assert run_cli(["sweep", "--dist", "skewnormal", "--n", "2", "--t", "40",
                    f"{option}={value}", "--out", str(out)]) == 2
    assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
        {"error": "usage", "message": f"argument {option}: {message}"}]
    assert not out.exists()


def test_cli_simulate_reads_a_negative_alpha_range(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["simulate", "--dist", "skewnormal", "--n", "2", "--t", "40",
                    "--alpha-range=-0.5:2", "--out", str(out)]) == 0
    spec = SimulationSpec(family="skew_normal", n=2, T=40, seed=0, alpha_range=(-0.5, 2.0),
                          sigma_mat=cgf_outliers.default_covariance(2, condition=20.0, seed=0))
    assert read_data_csv(out / "data.csv").values.tobytes() == (
        inject_outliers(spec).data.values.tobytes())


@pytest.mark.parametrize("cell", ["nan", "inf", ""], ids=["nan", "inf", "empty"])
def test_cli_rejects_non_finite_and_empty_cells_with_their_place(tmp_path, capsys, cell):
    problem = f"non-finite number {cell!r}" if cell else "missing value"
    prices = tmp_path / "prices.csv"
    prices.write_text(f"date,AAA\n2020-01-01,1.0\n2020-01-02,{cell}\n", encoding="utf-8")
    assert run_cli(["returns", "--prices", str(prices), "--out", str(tmp_path)]) == 2
    assert _capture_stderr_json(capsys) == {
        "error": "ValueError", "message": f"{prices} row 3, column 'AAA': {problem}"}

    data = tmp_path / "data.csv"
    data.write_text(f"x1,x2\n1.0,2.0\n3.0,{cell}\n", encoding="utf-8")
    assert run_cli(["detect", "--data", str(data), "--beta", "3", "--starts", "5",
                    "--out", str(tmp_path)]) == 2
    assert _capture_stderr_json(capsys) == {
        "error": "ValueError", "message": f"{data} row 3, column 'x2': {problem}"}


def _simulate_with_cov(tmp_path, text: str, out: str) -> int:
    cov = tmp_path / "cov.csv"
    cov.write_text(text, encoding="utf-8")
    return run_cli(["simulate", "--dist", "normal", "--n", "2", "--t", "60",
                    "--cov", str(cov), "--out", str(tmp_path / out)])


def test_cli_cov_file_is_read_bit_exact(tmp_path):
    # the default covariance written with repr floats reproduces the default run
    sigma = cgf_outliers.default_covariance(2, condition=20.0, seed=0)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in sigma) + "\n"
    assert _simulate_with_cov(tmp_path, text, "cov") == 0
    assert run_cli(["simulate", "--dist", "normal", "--n", "2", "--t", "60",
                    "--out", str(tmp_path / "default")]) == 0
    for name in ("data.csv", "labels.csv"):
        assert (tmp_path / "cov" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


@pytest.mark.parametrize("text, place", [
    ("1.0,0.5\n0.5,nan\n", " row 2, column '2': non-finite number 'nan'"),
    ("x,0.5\n0.5,1.0\n", " row 1, column '1': bad number 'x'"),
    ("1.0,0.5\n\n0.5,\n", " row 3, column '2': missing value"),
    ("1.0,0.5\n0.5\n", " row 2: expected 2 fields, got 1"),
    ("1.0,0.5,0.0\n0.5,1.0,0.0\n", ": covariance must be square, got (2, 3)"),
    ("", ": empty file"),
], ids=["nan", "bad", "missing", "short-row", "not-square", "empty"])
def test_cli_cov_errors_name_their_place_in_one_line(tmp_path, capsys, text, place):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        assert _simulate_with_cov(tmp_path, text, "out") == 2
    lines = capsys.readouterr().err.splitlines()
    assert [json.loads(line) for line in lines] == [
        {"error": "ValueError", "message": f"{tmp_path / 'cov.csv'}{place}"}]
    assert not (tmp_path / "out").exists()


def _write_price_fixture(path, seed=5, pre=50, post=20, n=2):
    rng = np.random.default_rng(seed)
    returns = np.concatenate(
        [rng.normal(0.0, 0.01, (pre, n)), rng.normal(0.0, 0.10, (post, n))]
    )
    prices = 100.0 * np.cumprod(1.0 + returns, axis=0)
    prices = np.vstack([np.full(n, 100.0), prices])
    dates = _dates("2020-01-01", pre + post + 1)
    tickers = [f"T{j}" for j in range(n)]
    lines = ["date," + ",".join(tickers)]
    for d, row in zip(dates, prices):
        lines.append(d + "," + ",".join(repr(float(p)) for p in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dates[pre + 1]  # first crisis return date


def test_cli_returns_then_crisis_evaluate(tmp_path):
    prices = tmp_path / "prices.csv"
    crisis = _write_price_fixture(prices)
    assert run_cli(["returns", "--prices", str(prices), "--returns", "log",
                    "--out", str(tmp_path)]) == 0

    data = read_data_csv(tmp_path / "data.csv")
    assert data.values.shape == (70, 2)
    assert data.row_labels is not None

    code = run_cli(
        [
            "evaluate",
            "--data",
            str(tmp_path / "data.csv"),
            "--crisis-date",
            crisis,
            "--beta-grid",
            "2:2:6",
            "--starts",
            "40",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert list(summary) == _SUMMARY  # timings only under --timings
    assert list(summary["config"]) == ["data", "labels", "crisis_date", "beta_grid",
                                       *_DETECTOR_ECHO]
    assert summary["config"]["crisis_date"] == crisis
    assert 0.0 <= summary["auc"] <= 1.0


def test_cli_detect_recovers_planted_rows(tmp_path):
    assert run_cli(["simulate", "--dist", "stdnormal", "--n", "30", "--t", "500",
                    "--seed", "7", "--out", str(tmp_path)]) == 0
    assert run_cli(["detect", "--data", str(tmp_path / "data.csv"), "--beta", "3.25",
                    "--starts", "200", "--seed", "7", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    truth = read_labels_csv(tmp_path / "labels.csv")
    flags = np.asarray(report["flags"], dtype=bool)
    recall = (flags & truth).sum() / truth.sum()
    assert recall >= 0.9


def test_cli_sweep_aggregates(tmp_path):
    code = run_cli(
        [
            "sweep",
            "--dist",
            "stdnormal",
            "--n",
            "3",
            "--t",
            "60",
            "--beta-grid",
            "2:2:6",
            "--starts",
            "30",
            "--seed",
            "10",
            "--n-seeds",
            "2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    for seed in (10, 11):
        assert (tmp_path / f"roc_seed{seed}.csv").exists()
        summary = json.loads(
            (tmp_path / f"summary_seed{seed}.json").read_text(encoding="utf-8"))
        assert list(summary) == _SUMMARY
        # the simulation's seed key comes first and the detector echo's value wins
        assert list(summary["config"]) == [*_SIM_ECHO, "beta_grid", *_DETECTOR_ECHO[:-1]]
        assert summary["command"] == "sweep" and summary["config"]["seed"] == seed
    sweep = json.loads((tmp_path / "sweep.json").read_text(encoding="utf-8"))
    assert sweep["command"] == "sweep"
    assert list(sweep) == [*_ENVELOPE, "per_seed", "aggregate"]
    assert list(sweep["config"]) == [*_SIM_ECHO, "n_seeds", "beta_grid", *_DETECTOR_ECHO[:-1]]
    assert [entry["seed"] for entry in sweep["per_seed"]] == [10, 11]
    agg = sweep["aggregate"]
    for key in ("auc_mean", "auc_min", "auc_max", "bcv_mean", "bcv_min",
                "bcv_max", "beta_star_mode"):
        assert key in agg
    assert agg["auc_min"] <= agg["auc_mean"] <= agg["auc_max"]


def test_cli_evaluate_and_sweep_with_every_beta_failing(tmp_path):
    # every beta strips all rows: the run succeeds with no points and lists each failure
    grid = ["--beta-grid", "1e-7:1e-7:2e-7"]
    assert _simulate(tmp_path, seed=1, t=40) == 0
    assert run_cli(["evaluate", "--data", str(tmp_path / "data.csv"),
                    "--labels", str(tmp_path / "labels.csv"), *grid,
                    "--out", str(tmp_path / "e")]) == 0
    assert run_cli(["sweep", "--dist", "stdnormal", "--n", "3", "--t", "40", "--seed", "1",
                    "--n-seeds", "1", *grid, "--out", str(tmp_path / "s")]) == 0
    for summary in (tmp_path / "e" / "summary.json", tmp_path / "s" / "summary_seed1.json"):
        summary = json.loads(summary.read_text(encoding="utf-8"))
        assert summary["n_points"] == 0
        assert [f["beta"] for f in summary["failures"]] == [1e-7, 2e-7]
        assert summary["auc"] == 0.5 and summary["beta_star"] is None
    sweep = json.loads((tmp_path / "s" / "sweep.json").read_text(encoding="utf-8"))
    assert sweep["per_seed"] == [{"seed": 1, "auc": 0.5, "bcv": 0.0, "beta_star": None}]
