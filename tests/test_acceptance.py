"""End-to-end acceptance suite.

Each test prints a one-line [acceptance] verdict with the measured numbers so
a full run can be audited from the terminal, and asserts the corresponding
band: convexity and gradient oracles, the PC1 equivalences, radius-rule
roots, the Monte-Carlo error-model check, the four simulation experiments,
ROC arithmetic, hand-value exactness, CLI byte determinism, and the synthetic
price pipeline.
"""

import datetime
import json
import math
import os
import time

import numpy as np

from cgf_outliers import (
    DataMatrix,
    FitConfig,
    MultistartConfig,
    SimulationSpec,
    assemble_curve,
    center,
    cgf_estimate,
    cgf_gradient,
    covariance_pca,
    default_beta_grid,
    default_covariance,
    first_four_cumulants,
    inject_outliers,
    kurtosis,
    maximize_cgf,
    median_and_mad,
    PriceTable,
    compute_returns,
    q_scores,
    relative_variance,
    roc_sweep,
    run_cli,
    sample_normal,
    sample_skew_normal,
    select_radius,
    SkewNormalParams,
)


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_convexity_of_sample_cgf(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    data = DataMatrix(rng.standard_normal((300, 6)))
    worst = -np.inf
    for _ in range(1000):
        xi_a = rng.normal(0.0, 1.5, 6)
        xi_b = rng.normal(0.0, 1.5, 6)
        g_mid = cgf_estimate(data, 1.0, (xi_a + xi_b) / 2.0)
        g_avg = (cgf_estimate(data, 1.0, xi_a) + cgf_estimate(data, 1.0, xi_b)) / 2.0
        worst = max(worst, g_mid - g_avg)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(capsys, "convexity", ok,
             f"1000 midpoint checks, max slack {worst:.2e} <= 1e-9, {elapsed:.1f}s < 10s")


def test_gradient_matches_finite_differences(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        data = DataMatrix(rng.standard_normal((150, n)))
        r = float(rng.uniform(0.1, 5.0))
        theta = rng.standard_normal(n)
        theta /= np.linalg.norm(theta)
        grad = cgf_gradient(data, r, theta)
        fd = np.empty(n)
        for i in range(n):
            bump = np.zeros(n)
            bump[i] = h
            fd[i] = (cgf_estimate(data, r, theta + bump)
                     - cgf_estimate(data, r, theta - bump)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(fd - grad) / np.linalg.norm(grad)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    _verdict(capsys, "gradient-vs-finite-difference", ok,
             f"100 cases r in [0.1,5], max rel err {worst:.2e} <= 1e-6, {elapsed:.1f}s < 10s")


def test_normal_top_direction_matches_pc1(capsys):
    start = time.perf_counter()
    basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 5)))
    sigma = basis @ np.diag([8.0, 2.0, 1.0, 0.5, 0.25]) @ basis.T
    cosines = []
    for seed in range(20):
        data = center(sample_normal(sigma, 5000, seed))
        summary = covariance_pca(data)
        r = select_radius(summary.lambda1, 5000, 0.1).r_bar
        result = maximize_cgf(data, r, MultistartConfig(n_starts=100, seed=seed))
        cosines.append(abs(float(result.directions[0] @ summary.eigenvectors[:, 0])))
    hits = sum(c >= 0.99 for c in cosines)
    elapsed = time.perf_counter() - start
    ok = hits >= 18 and elapsed < 120.0
    _verdict(capsys, "normal-top-direction-matches-pc1", ok,
             f"{hits}/20 seeds with |cos| >= 0.99 (min {min(cosines):.4f}), {elapsed:.1f}s < 120s")


def test_skew_small_radius_collapses_to_pc1(capsys):
    start = time.perf_counter()
    params = SkewNormalParams(np.zeros(4), np.diag([6.0, 2.0, 1.0, 0.5]), [2.0, -1.0, 1.0, 0.0])
    eigvals, eigvecs = np.linalg.eigh(params.cov_mat)
    pc1 = eigvecs[:, -1]
    r = 0.1 / math.sqrt(float(eigvals[-1]))
    cosines = []
    for seed in range(10):
        data = center(sample_skew_normal(params, 10_000, seed))
        result = maximize_cgf(data, r, MultistartConfig(n_starts=30, seed=seed))
        cosines.append(abs(float(result.directions[0] @ pc1)))
    elapsed = time.perf_counter() - start
    ok = min(cosines) >= 0.98
    _verdict(capsys, "skew-small-radius-collapse", ok,
             f"10 seeds at r {r:.4f}, min |cos| with analytic PC1 {min(cosines):.4f} >= 0.98, {elapsed:.1f}s")


def test_radius_selection_reproduces_roots(capsys):
    grid = np.arange(1e-4, 5.0, 1e-4)
    a_vals = grid * grid  # lambda1 = 1

    sel_feasible = select_radius(1.0, 1000, 0.1)
    eps_1000 = np.sqrt((4.0 / 1000) * np.expm1(a_vals) / a_vals**2)
    scan_root = float(grid[eps_1000 <= 0.1].max())

    sel_min = select_radius(1.0, 500, 0.1)
    eps_500 = np.sqrt((4.0 / 500) * np.expm1(a_vals) / a_vals**2)
    scan_argmin = float(grid[np.argmin(eps_500)])

    ok = (
        sel_feasible.feasible
        and abs(sel_feasible.r_bar - 1.8432) <= 1e-3
        and abs(sel_feasible.r_bar - scan_root) <= 2e-4
        and not sel_min.feasible
        and abs(sel_min.r_bar - 1.2624) <= 1e-3
        and abs(sel_min.r_bar - scan_argmin) <= 2e-4
        and abs(sel_min.eps_achieved - 0.1111) <= 1e-3
    )
    _verdict(capsys, "radius-selection-roots", ok,
             f"feasible r {sel_feasible.r_bar:.5f} vs scan {scan_root:.5f}; "
             f"infeasible argmin {sel_min.r_bar:.5f} vs scan {scan_argmin:.5f}, "
             f"min eps {sel_min.eps_achieved:.4f}")


def test_cgf_error_matches_monte_carlo(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    values = np.empty(2000)
    for k in range(2000):
        values[k] = cgf_estimate(DataMatrix(rng.standard_normal((1000, 1))), 1.0, [1.0])
    empirical = float(np.std(values, ddof=1) / abs(np.mean(values)))
    predicted = math.sqrt(relative_variance(1.0, 1.0, 1000))
    ratio = empirical / predicted
    elapsed = time.perf_counter() - start
    ok = 0.5 <= ratio <= 2.0 and elapsed < 300.0
    _verdict(capsys, "cgf-error-monte-carlo", ok,
             f"2000 resamples, empirical rel SD {empirical:.4f} vs predicted {predicted:.4f} "
             f"(ratio {ratio:.2f} in [0.5,2]), {elapsed:.1f}s < 300s")


def _experiment(family, seeds, method="maxcgf", grid=None, sigma=None, starts=200, **family_kw):
    grid = default_beta_grid() if grid is None else grid
    aucs, bcvs = [], []
    for seed in seeds:
        spec = SimulationSpec(family=family, n=30, T=500, seed=seed,
                              sigma_mat=sigma, **family_kw)
        dataset = inject_outliers(spec)
        config = FitConfig(multistart=MultistartConfig(n_starts=starts, seed=seed))
        curve = roc_sweep(dataset, method, grid, config)
        aucs.append(curve.auc)
        bcvs.append(curve.bcv)
    return float(np.mean(aucs)), float(np.mean(bcvs))


def test_std_normal_experiment_band(capsys):
    start = time.perf_counter()
    auc, bcv = _experiment("std_normal", range(5))
    elapsed = time.perf_counter() - start
    ok = auc >= 0.93 and bcv >= 0.85 and elapsed < 600.0
    _verdict(capsys, "experiment-std-normal", ok,
             f"n=30 T=500 starts=200, 5 seeds: mean auc {auc:.4f} >= 0.93, "
             f"mean bcv {bcv:.4f} >= 0.85, {elapsed:.1f}s < 600s")


def test_correlated_normal_experiment_band(capsys):
    start = time.perf_counter()
    auc, _ = _experiment("normal", range(5), sigma=default_covariance(30, 20.0, seed=0))
    elapsed = time.perf_counter() - start
    ok = auc >= 0.82
    _verdict(capsys, "experiment-correlated-normal", ok,
             f"condition-20 covariance, 5 seeds: mean auc {auc:.4f} >= 0.82, {elapsed:.1f}s")


def test_skew_normal_experiment_band(capsys):
    start = time.perf_counter()
    auc, _ = _experiment("skew_normal", range(5), sigma=default_covariance(30, 20.0, seed=0),
                         alpha_range=(-1.0, 4.0))
    elapsed = time.perf_counter() - start
    ok = auc >= 0.85
    _verdict(capsys, "experiment-skew-normal", ok,
             f"per-seed alpha in [-1,4], 5 seeds: mean auc {auc:.4f} >= 0.85, {elapsed:.1f}s")


def test_student_t_beats_pca_baseline(capsys):
    start = time.perf_counter()
    sigma = default_covariance(30, 20.0, seed=0)
    grid = default_beta_grid(0.5, 0.5, 10.0)
    auc_cgf, _ = _experiment("student_t", range(10), grid=grid, sigma=sigma, nu=5.0)
    auc_pca, _ = _experiment("student_t", range(10), method="pca", grid=grid, sigma=sigma, nu=5.0)
    gap = auc_cgf - auc_pca
    elapsed = time.perf_counter() - start
    ok = gap > 0.0
    _verdict(capsys, "experiment-student-t-vs-pca", ok,
             f"nu=5, 10 seeds: maxcgf auc {auc_cgf:.4f} vs pca {auc_pca:.4f}, "
             f"gap {gap:+.4f} > 0, {elapsed:.1f}s")


def test_roc_arithmetic_hand_curves(capsys):
    hand = assemble_curve([(1.0, 0.1, 0.7), (2.0, 0.3, 0.9)])
    perfect = assemble_curve([(1.0, 0.0, 1.0)])
    diagonal = assemble_curve([(1.0, 0.25, 0.25), (2.0, 0.5, 0.5), (3.0, 0.75, 0.75)])
    err_auc = abs(hand.auc - 0.86)
    err_bcv = abs(hand.bcv - 0.60)
    ok = (
        err_auc <= 1e-15
        and err_bcv <= 1e-15
        and perfect.auc == 1.0
        and perfect.bcv == 1.0
        and diagonal.auc == 0.5
        and diagonal.bcv == 0.0
    )
    _verdict(capsys, "roc-arithmetic", ok,
             f"hand curve auc err {err_auc:.1e}, bcv err {err_bcv:.1e} (<= 1e-15); "
             f"perfect auc {perfect.auc}, diagonal auc {diagonal.auc} exact")


def test_hand_value_exactness(capsys):
    errs = []

    def check(got, want):
        errs.append(float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want)))))

    check(median_and_mad([-1.0, 0.0, 1.0]), (0.0, 1.0))
    check(median_and_mad([0.0, 1.0, 2.0, 3.0, 10.0]), (2.0, 1.0))
    check(median_and_mad([5.0, 5.0, 5.0]), (5.0, 0.0))
    check(kurtosis([-1.0, -1.0, 1.0, 1.0]), 1.0)
    check(kurtosis([-1.0, 0.0, 1.0]), 1.5)
    check(first_four_cumulants([3.0, 3.0, 3.0]), (3.0, 0.0, 0.0, 0.0))
    check(first_four_cumulants([-1.0, 1.0]), (0.0, 1.0, 0.0, -2.0))
    check(first_four_cumulants([0.0, 1.0, 2.0]), (1.0, 2.0 / 3.0, 0.0, -2.0 / 3.0))
    check(q_scores([0.0, 1.0, 2.0, 3.0, 10.0]), (2.0, 1.0, 0.0, 1.0, 8.0))
    check(q_scores([-1.0, 0.0, 1.0]), (1.0, 0.0, 1.0))

    dates = ("2020-01-01", "2020-01-02", "2020-01-03")
    table = PriceTable(dates, [[100.0], [110.0], [99.0]], ("A",))
    check(compute_returns(table, "linear").values.ravel(), (0.10, -0.10))
    two = PriceTable(dates[:2], [[100.0], [110.0]], ("A",))
    check(compute_returns(two, "log").values.ravel(), (math.log(1.1),))
    flat = PriceTable(dates, [[7.0], [7.0], [7.0]], ("A",))
    check(compute_returns(flat, "linear").values.ravel(), (0.0, 0.0))

    worst = max(errs)
    ok = worst <= 1e-12
    _verdict(capsys, "hand-value-exactness", ok,
             f"{len(errs)} hand examples, max abs deviation {worst:.2e} <= 1e-12")


def _cli(args) -> int:
    return run_cli([str(a) for a in args])


def _tree_bytes(root) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_cli_byte_determinism(capsys, tmp_path):
    start = time.perf_counter()
    invocations = {
        "simulate": ["simulate", "--dist", "skewnormal", "--n", 5, "--t", 60, "--seed", 7],
        "detect": None,  # filled below, needs simulate output
        "evaluate": None,
        "sweep": ["sweep", "--dist", "stdnormal", "--n", 4, "--t", 60, "--beta-grid",
                  "2:2:8", "--starts", 40, "--seed", 3, "--n-seeds", 2],
    }
    sim = tmp_path / "sim"
    assert _cli(invocations["simulate"] + ["--out", sim]) == 0
    invocations["detect"] = ["detect", "--data", sim / "data.csv", "--beta", 4.0,
                             "--starts", 40, "--seed", 1]
    invocations["evaluate"] = ["evaluate", "--data", sim / "data.csv", "--labels",
                               sim / "labels.csv", "--beta-grid", "2:2:8",
                               "--starts", 40, "--seed", 1]
    identical = True
    for name, args in invocations.items():
        first, second = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert _cli(args + ["--out", first]) == 0
        assert _cli(args + ["--out", second]) == 0
        identical = identical and _tree_bytes(first) == _tree_bytes(second)
    elapsed = time.perf_counter() - start
    _verdict(capsys, "cli-determinism", identical,
             f"simulate/detect/evaluate/sweep re-runs byte-identical, {elapsed:.1f}s")


def _write_price_fixture(path, seed):
    rng = np.random.default_rng(seed)
    pre, post, n = 200, 40, 8
    returns = np.concatenate(
        [rng.normal(0.0, 0.01, (pre, n)), rng.normal(0.0, 0.01 * math.sqrt(10.0), (post, n))]
    )
    prices = np.vstack([np.full(n, 100.0), 100.0 * np.cumprod(1.0 + returns, axis=0)])
    first = datetime.date(2019, 6, 1)
    dates = [(first + datetime.timedelta(days=i)).isoformat() for i in range(pre + post + 1)]
    lines = ["date," + ",".join(f"A{j}" for j in range(n))]
    for d, row in zip(dates, prices):
        lines.append(d + "," + ",".join(repr(float(p)) for p in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return dates[pre + 1]  # first return row of the high-variance regime


def test_price_pipeline_end_to_end(capsys, tmp_path):
    start = time.perf_counter()
    aucs = []
    for seed in range(5):
        work = tmp_path / f"seed{seed}"
        work.mkdir()
        crisis = _write_price_fixture(work / "prices.csv", seed)
        assert _cli(["returns", "--prices", work / "prices.csv", "--out", work]) == 0
        code = _cli(["evaluate", "--data", work / "data.csv", "--crisis-date", crisis,
                     "--beta-grid", "1:1:8", "--starts", 50, "--seed", seed, "--out", work])
        assert code == 0
        summary = json.loads((work / "summary.json").read_text(encoding="utf-8"))
        aucs.append(summary["auc"])
    mean_auc = float(np.mean(aucs))
    elapsed = time.perf_counter() - start
    ok = mean_auc >= 0.8
    _verdict(capsys, "price-pipeline", ok,
             f"returns->evaluate over 5 seeds, mean auc {mean_auc:.4f} >= 0.8 "
             f"(min {min(aucs):.4f}), {elapsed:.1f}s")
