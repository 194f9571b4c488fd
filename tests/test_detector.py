"""Unit tests for the detection loop, q-scores, and the PCA baseline."""

import json
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgf_outliers import (
    DataMatrix,
    DegenerateInputError,
    DetectionError,
    DetectionMethod,
    DetectorConfig,
    DirectionTrace,
    FitConfig,
    MultistartConfig,
    SimulationSpec,
    covariance_pca,
    center,
    default_beta_grid,
    default_covariance,
    detect,
    fit,
    inject_outliers,
    q_scores,
    remove,
    remove_many,
    run_cli,
    sample_normal,
    select_radius,
    write_data_csv,
)
import cgf_outliers.detector as detector_module
from cgf_outliers.detector import _fix_sign, _pc1


def test_q_scores_hand_values():
    np.testing.assert_array_equal(q_scores([-1.0, 0.0, 1.0]), [1.0, 0.0, 1.0])
    np.testing.assert_array_equal(q_scores([0.0, 1.0, 2.0, 3.0, 10.0]), [2.0, 1.0, 0.0, 1.0, 8.0])


def test_q_scores_degenerate_and_short():
    with pytest.raises(DegenerateInputError, match="zero MAD"):
        q_scores([5.0, 5.0, 5.0])
    with pytest.raises(ValueError):
        q_scores([1.0, 2.0])


def test_detector_config_validation():
    for beta in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            DetectorConfig(beta=beta)
    for make in (FitConfig, lambda **kw: DetectorConfig(beta=3.0, **kw)):
        for eps in (0.0, 1.0):
            with pytest.raises(ValueError, match="target_eps must lie in"):
                make(target_eps=eps)
        with pytest.raises(ValueError):
            make(method="nonsense")
        assert make(method="pca").method is DetectionMethod.PCA_BASELINE
    # beta is keyword-only: a positional value binds to no field by accident
    with pytest.raises(TypeError, match="keyword-only argument: 'beta'"):
        DetectorConfig(3.0)


def test_detect_requires_ten_rows():
    with pytest.raises(ValueError):
        detect(DataMatrix(np.random.default_rng(0).normal(size=(9, 2))), DetectorConfig(beta=3.0))


def test_quiet_cloud_yields_no_flags():
    rng = np.random.default_rng(1)
    cloud = rng.standard_normal((200, 2))
    cloud = cloud[np.abs(cloud).max(axis=1) < 4.0][:150]
    report = detect(DataMatrix(cloud), DetectorConfig(beta=10.0, multistart=MultistartConfig(n_starts=30, seed=1)))
    assert report.n_flagged == 0
    # threshold above every score means one scoring pass per direction
    for trace in report.directions_used:
        assert trace.removed == 0


def test_planted_extreme_row_is_flagged():
    rng = np.random.default_rng(2)
    cloud = rng.standard_normal((200, 2))
    cloud[57] = (20.0, 20.0)
    report = detect(
        DataMatrix(cloud), DetectorConfig(beta=5.0, multistart=MultistartConfig(n_starts=30, seed=2))
    )
    assert report.outlier_flags[57]


def test_detect_flags_planted_block():
    spec = SimulationSpec(family="std_normal", n=10, T=200, seed=3)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=60, seed=3))
    report = detect(ds.data, cfg)
    planted = np.flatnonzero(ds.truth)
    hit = report.outlier_flags[planted].mean()
    assert hit >= 0.8
    assert report.n_flagged < 200  # never everything


def test_report_consistency():
    spec = SimulationSpec(family="std_normal", n=8, T=150, seed=5)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=2.5, multistart=MultistartConfig(n_starts=40, seed=5))
    report = detect(ds.data, cfg)
    assert report.outlier_flags.shape == (150,)
    assert report.q_scores.shape == (150,)
    assert report.n_flagged == int(report.outlier_flags.sum())
    assert report.beta == 2.5
    assert len(report.directions_used) >= 1
    # flagged rows were scored above beta when they were removed
    assert np.all(report.q_scores[report.outlier_flags] > 2.5)
    # kurtosis traces fall strictly until the terminating entry
    for trace in report.directions_used:
        kur = trace.kurtosis_trace
        for a, b in zip(kur[:-2], kur[1:-1]):
            assert b < a
    # the radius comes from the original centered data, selected once
    lam1 = covariance_pca(center(ds.data)).lambda1
    assert report.r_used == select_radius(lam1, 150, 0.1).r_bar


def test_detect_is_deterministic():
    spec = SimulationSpec(family="std_normal", n=6, T=120, seed=7)
    ds = inject_outliers(spec)
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=40, seed=7))
    a = detect(ds.data, cfg)
    b = detect(ds.data, cfg)
    assert np.array_equal(a.outlier_flags, b.outlier_flags)
    assert np.array_equal(a.q_scores, b.q_scores, equal_nan=True)
    assert a.iterations_total == b.iterations_total


def test_location_shift_leaves_flags_unchanged():
    # centering absorbs the shift up to summation round-off; the multistart
    # keeps one start per maximum by index, not the best of a near-tie on G
    # that round-off decides, so the q-scores agree for every seed; a row that
    # was never scored keeps NaN in both
    shift = np.array([5.0, -3.0, 2.0, 0.0, 1.0, 9.0])
    for seed in range(200):
        ds = inject_outliers(SimulationSpec(family="std_normal", n=6, T=80, seed=seed))
        for method in ("maxcgf", "pca"):
            cfg = DetectorConfig(beta=2.5, method=method,
                                 multistart=MultistartConfig(n_starts=40, seed=seed))
            base = detect(ds.data, cfg)
            moved = detect(DataMatrix(ds.data.values + shift), cfg)
            assert np.array_equal(base.outlier_flags, moved.outlier_flags), (seed, method)
            scored = ~np.isnan(base.q_scores)
            assert np.array_equal(scored, ~np.isnan(moved.q_scores)), (seed, method)
            gap = np.abs(base.q_scores[scored] - moved.q_scores[scored])
            assert gap.max(initial=0.0) < 1e-12, (seed, method)


def test_global_scale_equivariance():
    # q-scores are scale-free, and so is every decision of the ascent (r goes
    # with 1 / sqrt(lambda1)), so positive scaling, down to 1e-60 and up to 1e60,
    # and row permutation change the arithmetic only by round-off: the flags
    # agree exactly at the default tolerance
    sigma = default_covariance(30, 20.0, seed=0)
    for family, kw in (("normal", {}), ("student_t", {"nu": 5.0}), ("skew_normal", {})):
        for seed in range(3):
            ds = inject_outliers(SimulationSpec(family=family, n=30, T=500, seed=seed,
                                                sigma_mat=sigma, **kw))
            X = ds.data.values
            perm = np.random.default_rng(seed).permutation(X.shape[0])
            for method in ("maxcgf", "pca"):
                cfg = FitConfig(method=method, multistart=MultistartConfig(n_starts=200, seed=seed))
                base = fit(ds.data, cfg)
                variants = [(fit(DataMatrix(factor * X), cfg), slice(None))
                            for factor in (0.37, 7.3, 1e-20, 1e20, 2.0**-60, 1e-60, 1e60)]
                variants.append((fit(DataMatrix(X[perm]), cfg), np.argsort(perm)))
                for beta in (2.5, 3.5):
                    want = remove(base, beta)
                    for fitted, back in variants:
                        got = remove(fitted, beta)
                        case = (family, seed, method, beta)
                        assert np.array_equal(want.outlier_flags, got.outlier_flags[back]), case
                        assert np.nanmax(np.abs(want.q_scores - got.q_scores[back])) < 1e-9, case


@pytest.mark.parametrize("factor", [1e-100, 1e100, 1e-160, 1e160, 1e-250, 1e250])
def test_data_outside_the_scale_band_are_refused(factor, tmp_path, capsys):
    # beyond [2^-240, 2^240] m2^2 underflows or the kurtosis's fourth powers
    # overflow: the flags changed without a warning (1e-100), or the fit failed
    # in eigh (1e160) or after NaN ascents (1e-160). fit refuses such data, and
    # the CLI reports it as one JSON input error
    sigma = default_covariance(5, 20.0, seed=0)
    ds = inject_outliers(SimulationSpec(family="normal", n=5, T=300, seed=4, sigma_mat=sigma))
    data = DataMatrix(factor * ds.data.values)
    with pytest.raises(ValueError, match=r"outside \[2\^-240, 2\^240\]; rescale the data"):
        fit(data)
    write_data_csv(tmp_path / "data.csv", data)
    out = tmp_path / "out"
    argv = ["detect", "--data", str(tmp_path / "data.csv"), "--beta", "3", "--out", str(out)]
    assert run_cli(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    error = json.loads(line)
    assert error["error"] == "ValueError" and error["message"].startswith("data scale ")
    assert not out.exists()


def test_rotation_equivariance():
    # the multistart starts at rows, which rotate with the data, so an
    # orthogonal rotation changes the arithmetic only by round-off, as the
    # scalings and permutation of test_global_scale_equivariance do
    sigma = default_covariance(30, 20.0, seed=0)
    for family, kw in (("normal", {}), ("student_t", {"nu": 5.0}), ("skew_normal", {})):
        for seed in range(3):
            ds = inject_outliers(SimulationSpec(family=family, n=30, T=500, seed=seed,
                                                sigma_mat=sigma, **kw))
            rotation = np.linalg.qr(np.random.default_rng(seed).standard_normal((30, 30)))[0]
            for method in ("maxcgf", "pca"):
                cfg = FitConfig(method=method, multistart=MultistartConfig(n_starts=200, seed=seed))
                base = fit(ds.data, cfg)
                rotated = fit(DataMatrix(ds.data.values @ rotation), cfg)
                for beta in (2.5, 3.5):
                    want, got = remove(base, beta), remove(rotated, beta)
                    case = (family, seed, method, beta)
                    assert np.array_equal(want.outlier_flags, got.outlier_flags), case
                    assert np.nanmax(np.abs(want.q_scores - got.q_scores)) < 1e-9, case


def test_detection_error_when_everything_scores_above_beta():
    rng = np.random.default_rng(0)
    values = rng.normal(size=(12, 2))  # even length: every q > 0
    values[0] += 30.0  # one far row, so the leading projection is not Gaussian
    data = DataMatrix(values)
    cfg = DetectorConfig(beta=1e-12, multistart=MultistartConfig(n_starts=10, seed=0))
    with pytest.raises(DetectionError):
        detect(data, cfg)


def test_zero_mad_direction_is_skipped_with_warning():
    # 1-D data forces the projection; most entries tie at the median, so the
    # MAD is zero while the variance is not, and the one far entry puts the
    # kurtosis (about 10.1) above the Gaussian gate
    x = np.array([0.0] * 11 + [100.0])[:, None]
    report = detect(
        DataMatrix(x), DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=20, seed=1))
    )
    assert any("zero MAD" in w for w in report.warnings)
    assert all(t.skipped for t in report.directions_used)
    assert report.n_flagged == 0


def test_pca_baseline_uses_single_direction():
    spec = SimulationSpec(family="std_normal", n=8, T=150, seed=6)
    ds = inject_outliers(spec)
    report = detect(ds.data, DetectorConfig(beta=3.0, method=DetectionMethod.PCA_BASELINE))
    assert report.method is DetectionMethod.PCA_BASELINE
    assert len(report.directions_used) == 1
    assert report.directions_used[0].cgf_value is None
    assert 0 < report.n_flagged < 150


def test_pca_baseline_detects_planted_block():
    hits = []
    for seed in range(3):
        spec = SimulationSpec(family="std_normal", n=10, T=200, seed=seed)
        ds = inject_outliers(spec)
        report = detect(ds.data, DetectorConfig(beta=3.0, method="pca"))
        hits.append(report.outlier_flags[ds.truth].mean())
    assert np.mean(hits) > 0.5


def test_pca_reestimate_tracks_covariance_pca_pc1_past_gross_outliers(monkeypatch):
    # the re-estimate downdates the survivors' scatter by each pass's dropped
    # rows and recomputes it once the downdate could cancel; along real
    # removal sequences the direction `remove` solves from it must stay within
    # round-off of covariance_pca's PC1 of the survivors, also when the
    # dropped rows dominated the scatter
    def pc1(Y):
        return _fix_sign(covariance_pca(DataMatrix(Y)).pc1)

    downdate = detector_module._downdate
    calls = []  # (survivors, scatter) of each re-estimated loop

    def recording(values, state, rows, alive, out):
        scatters = downdate(values, state, rows, alive, out)
        calls.extend(zip(alive, scatters))
        return scatters

    def exact(values, state, rows, alive, out):
        # scatters whose PC1s are covariance_pca's PC1s of the survivors
        return np.stack([np.outer(d, d) for d in (pc1(values[a]) for a in alive)])

    checked = 0
    rng = np.random.default_rng(17)
    for n in (1, 2, 5, 30):
        data = rng.standard_t(5, size=(120, n)) @ rng.normal(size=(n, n))
        draws = [data, data + 1e3 * rng.normal(size=n)]
        for scale in (1e2, 1e4, 1e6, 1e8):
            gross = data.copy()
            gross[7] *= scale
            draws.append(gross)
        for k, x in enumerate(draws):
            fitted = fit(DataMatrix(x), FitConfig(method="pca"))
            values = fitted.centered.values
            for beta in (1.0, 2.0, 3.0, 4.0):
                calls.clear()
                monkeypatch.setattr(detector_module, "_downdate", recording)
                got = remove(fitted, beta)
                monkeypatch.setattr(detector_module, "_downdate", exact)
                want = remove(fitted, beta)
                case = (n, k, beta)
                # each re-estimate's direction is its scatter's PC1 from the batched
                # solve, the last one's is the final direction
                trace = got.directions_used[0]
                assert trace.refine_iterations == len(calls), case
                if calls:
                    directions = _fix_sign(_pc1(np.stack([scatter for _, scatter in calls])))
                    assert np.array_equal(directions[-1], trace.final_direction), case
                    for (alive, _), direction in zip(calls, directions):
                        assert np.abs(direction - pc1(values[alive])).max() < 1e-6, case
                        checked += 1
                assert np.array_equal(got.outlier_flags, want.outlier_flags), case
                assert np.array_equal(np.isnan(got.q_scores), np.isnan(want.q_scores)), case
                assert np.nanmax(np.abs(got.q_scores - want.q_scores), initial=0.0) < 1e-6, case
    assert checked > 100


def test_empty_first_pass_skips_the_direction(monkeypatch):
    # a beta no row reaches: every direction past the gate scores its rows,
    # removes none and ends there, without a re-estimate
    rng = np.random.default_rng(5)
    returns = np.concatenate([rng.normal(0.0, 0.01, (200, 8)),
                              rng.normal(0.0, 0.01 * np.sqrt(10.0), (40, 8))])
    cfg = DetectorConfig(beta=1e6, multistart=MultistartConfig(n_starts=50, seed=5))
    calls = _counting_reestimates(monkeypatch)
    report = remove(fit(DataMatrix(returns), cfg), cfg.beta)
    assert calls == [] and report.n_flagged == 0
    notes = [t.note for t in report.directions_used]
    assert "no score above beta" in notes
    assert set(notes) <= {"no score above beta", "Gaussian projection"}
    for trace in report.directions_used:
        assert trace.skipped and trace.removed == 0 and len(trace.kurtosis_trace) == 1
        assert trace.final_direction is trace.initial_direction


def test_flag_count_monotone_in_beta_on_average():
    # subset nesting can break under re-estimation; the count comparison is
    # the stable form of threshold monotonicity
    spec = SimulationSpec(family="std_normal", n=10, T=200, seed=8)
    ds = inject_outliers(spec)
    counts = []
    for beta in (2.0, 3.5, 6.0):
        cfg = DetectorConfig(beta=beta, multistart=MultistartConfig(n_starts=40, seed=8))
        counts.append(detect(ds.data, cfg).n_flagged)
    assert counts[0] >= counts[1] >= counts[2]


def test_maxcgf_directions_make_one_pass(monkeypatch):
    # a max-CGF direction is scored once and never re-estimated, so neither
    # the refine nor the pca downdate is called and the report counts the
    # multistart alone
    def refine(*args):
        raise AssertionError("a max-CGF direction was re-estimated")

    monkeypatch.setattr(detector_module, "refine_direction", refine)
    monkeypatch.setattr(detector_module, "_downdate", refine)
    removed = 0
    for seed in range(3):
        ds = inject_outliers(SimulationSpec(family="std_normal", n=4, T=100, seed=seed))
        fitted = fit(ds.data, FitConfig(multistart=MultistartConfig(n_starts=20, seed=seed)))
        assert fitted.mean is None and fitted.scatter is None
        for beta in (1.5, 3.0):
            report = remove(fitted, beta)
            assert report.iterations_total == fitted.iterations
            for trace in report.directions_used:
                assert len(trace.kurtosis_trace) == 1 and trace.refine_iterations == 0
                assert trace.final_direction is trace.initial_direction
                removed += trace.removed
    assert removed > 0


def test_ascent_violations_are_reported(monkeypatch):
    real = detector_module.maximize_cgf
    monkeypatch.setattr(detector_module, "maximize_cgf",
                        lambda *args: replace(real(*args), ascent_violations=2))
    ds = inject_outliers(SimulationSpec(family="std_normal", n=4, T=100, seed=3))
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=20, seed=3))
    report = detect(ds.data, cfg)
    assert report.warnings.count("2 ascent iterations decreased the objective") == 1


def _counting_reestimates(monkeypatch) -> list[int]:
    """Wrap the pca downdate; the list gets the surviving row count of each loop it downdates."""
    calls: list[int] = []
    downdate = detector_module._downdate

    def counted(values, state, rows, alive, out):
        calls.extend(np.count_nonzero(alive, axis=1).tolist())
        return downdate(values, state, rows, alive, out)

    monkeypatch.setattr(detector_module, "_downdate", counted)
    return calls


def test_each_reestimate_after_the_first_follows_a_productive_pass(monkeypatch):
    # the acceptance price fixture's returns: 200 calm days, then 40 at 10x
    # variance; a direction that re-estimated after passes that removed
    # nothing crept here for thousands of passes. PC1 is the one direction
    # that is re-estimated
    calls = _counting_reestimates(monkeypatch)
    for seed, beta in [(0, 4.0), (1, 4.0), (2, 4.0), (2, 6.0)]:
        rng = np.random.default_rng(seed)
        returns = np.concatenate([rng.normal(0.0, 0.01, (200, 8)),
                                  rng.normal(0.0, 0.01 * np.sqrt(10.0), (40, 8))])
        cfg = DetectorConfig(beta=beta, method="pca")
        calls.clear()
        report = remove(fit(DataMatrix(returns), cfg), cfg.beta)
        assert calls
        # rows alive when each direction that re-estimated was reached, and
        # the downdates along each direction that re-estimated, in loop order
        reached, alive, along = [], returns.shape[0], []
        for trace in report.directions_used:
            if trace.removed:
                reached.append(alive)
            if trace.refine_iterations:
                start = sum(map(len, along))
                along.append(calls[start:start + trace.refine_iterations])
            alive -= trace.removed
        assert sum(map(len, along)) == len(calls)
        assert len(reached) == len(along)
        for before, rows in zip(reached, along):
            productive = sum(b < a for a, b in zip([before] + rows, rows))
            assert len(rows) == productive, (seed, before, rows[:5])


def test_gaussian_projection_is_skipped_without_scoring(monkeypatch):
    x = np.random.default_rng(0).standard_normal((1000, 3))
    cfg = DetectorConfig(beta=3.0, multistart=MultistartConfig(n_starts=30, seed=0))
    fitted = fit(DataMatrix(x), cfg)
    calls = _counting_reestimates(monkeypatch)
    report = remove(fitted, cfg.beta)
    assert calls == []
    assert report.warnings == []
    assert report.n_flagged == 0
    assert np.isnan(report.q_scores).all()
    assert len(report.directions_used) == len(fitted.candidates) > 1
    for trace in report.directions_used:
        assert trace.skipped and trace.note == "Gaussian projection"
        assert trace.kurtosis_trace[0] <= 3.0 + 3.0 * np.sqrt(24.0 / 1000)
        assert len(trace.kurtosis_trace) == 1 and trace.refine_iterations == 0
        assert trace.final_direction is trace.initial_direction


def test_every_exit_of_remove_is_pinned(monkeypatch):
    # 40 standard-normal rows with planted outliers and an all-zero fourth
    # column; the PCA fit has one candidate, and each case swaps the
    # candidates of that one fit or the downdate that gives its re-estimates'
    # scatters; the last cases run the removal loop on a max-CGF fit
    ds = inject_outliers(SimulationSpec(family="std_normal", n=3, T=40, seed=1))
    fitted = fit(DataMatrix(np.column_stack([ds.data.values, np.zeros(40)])),
                 FitConfig(method="pca"))
    zero_axis = np.eye(4)[3]
    assert fitted.iterations == 0 and len(fitted.warnings) == 1  # the infeasible-radius warning

    def always(scatter):  # a downdate that gives every loop this scatter
        return lambda values, state, rows, alive, out: np.repeat(scatter[None], len(rows), 0)

    def run(beta, downdate=detector_module._downdate, fitted=fitted, **swap):
        with monkeypatch.context() as patch:
            patch.setattr(detector_module, "_downdate", downdate)
            report = remove(replace(fitted, **swap), beta)
        exits = [(t.note, len(t.kurtosis_trace), t.removed, t.refine_iterations)
                 for t in report.directions_used]
        assert report.iterations_total == fitted.iterations + sum(e[3] for e in exits)
        assert report.warnings[:len(fitted.warnings)] == list(fitted.warnings)
        return exits, report.warnings[len(fitted.warnings):]

    # the candidate itself projects to a constant: no kurtosis, no scoring
    assert run(3.0, candidates=((zero_axis, None),)) == (
        [("constant projection", 0, 0, 0)], ["direction 1 ended: constant projection"])
    # the first re-estimate lands on the zero column: the same exit, after rows were removed
    on_zero_axis = np.outer(zero_axis, zero_axis)
    assert run(3.0, always(on_zero_axis)) == (
        [("constant projection", 1, 4, 1)], ["direction 1 ended: constant projection"])
    # re-estimates that keep the candidate direction peel down to one row; the
    # direction ends there, before a re-estimate on it
    theta = fitted.candidates[0][0]
    assert run(0.5, always(np.outer(theta, theta))) == (
        [("too few rows to keep scoring", 3, 39, 2)], [])
    # the same with PC1 re-estimates; the second copy of the candidate is never reached
    twice = fitted.candidates * 2
    assert run(0.5, candidates=twice) == (
        [("too few rows to keep scoring", 3, 39, 2)],
        ["1 rows remain; stopping before direction 2"])
    # a pass that leaves two rows ends the direction as well
    assert run(0.55, candidates=twice) == (
        [("too few rows to keep scoring", 3, 38, 2)],
        ["2 rows remain; stopping before direction 2"])
    # a max-CGF direction's one pass leaves two of 12 heavy-tailed rows, with three
    # candidates after it; stopping at the last candidate warns nothing
    heavy = fit(DataMatrix(np.random.default_rng(31).standard_t(3, (12, 3))),
                FitConfig(multistart=MultistartConfig(n_starts=12)))
    first, second, third = heavy.candidates[:3]
    assert len(heavy.candidates) == 4 and heavy.iterations > 0
    stop = ("too few rows to keep scoring", 1, 10, 0)
    assert run(0.3, fitted=heavy) == (
        [stop], ["2 rows remain; stopping before direction 2"])
    gaussian = ("Gaussian projection", 1, 0, 0)
    assert run(0.3, fitted=heavy, candidates=(second, first)) == ([gaussian, stop], [])
    assert run(0.3, fitted=heavy, candidates=(second, first, third)) == (
        [gaussian, stop], ["2 rows remain; stopping before direction 3"])


def test_every_reestimate_sees_at_least_three_rows(monkeypatch):
    # low betas peel the rows fast; a pass that leaves fewer than 3 rows ends
    # its direction before the re-estimate, for both methods
    seen = []
    calls = _counting_reestimates(monkeypatch)
    for T, seed in [(40, 0), (40, 1), (500, 2)]:
        ds = inject_outliers(SimulationSpec(family="std_normal", n=3, T=T, seed=seed))
        for method in ("maxcgf", "pca"):
            cfg = FitConfig(method=method, multistart=MultistartConfig(n_starts=20, seed=seed))
            fitted = fit(ds.data, cfg)
            for beta in (0.5, 0.6, 0.75, 1.0):
                calls.clear()
                try:
                    report = remove(fitted, beta)
                except DetectionError:
                    continue
                assert min(calls, default=3) >= 3, (T, method, beta)
                seen += calls
                assert np.array_equal(report.outlier_flags, report.q_scores > report.beta)
    assert seen and min(seen) <= 5


def test_clean_correlated_normal_flag_rate_is_bounded():
    # no outliers planted: every flag is a false positive. With one pass per
    # maximum, blocks of ten seeds in 0-99 average 6.3-9.1% (9.1% on these);
    # re-estimating each maximum on the survivors averaged 14.4% and reached 16.4%
    sigma = default_covariance(30, 20.0, seed=0)
    rates = []
    for seed in range(10):
        data = sample_normal(sigma, 500, seed)
        cfg = DetectorConfig(beta=3.25, multistart=MultistartConfig(n_starts=200, seed=seed))
        rates.append(detect(data, cfg).outlier_flags.mean())
    assert np.mean(rates) <= 0.12


def _assert_same_report(a, b):
    assert np.array_equal(a.outlier_flags, b.outlier_flags)
    assert np.array_equal(np.isnan(a.q_scores), np.isnan(b.q_scores))
    assert np.array_equal(a.q_scores, b.q_scores, equal_nan=True)
    assert a.iterations_total == b.iterations_total
    assert a.warnings == b.warnings
    assert a.r_used == b.r_used
    assert (a.beta, a.method) == (b.beta, b.method)
    assert len(a.directions_used) == len(b.directions_used)
    for ta, tb in zip(a.directions_used, b.directions_used):
        for f in fields(DirectionTrace):
            va, vb = getattr(ta, f.name), getattr(tb, f.name)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb), f.name
            else:
                assert va == vb, f.name


def test_remove_on_one_fit_matches_detect_at_each_beta():
    # T=40 is far below what the 10% target needs, so the fit's infeasible
    # radius warning must open every report; at seed 3 both methods' leading
    # projections pass the Gaussian gate
    ds = inject_outliers(SimulationSpec(family="std_normal", n=4, T=40, seed=3))
    for method in ("maxcgf", "pca"):
        starts = MultistartConfig(n_starts=20, seed=3)
        fitted = fit(ds.data, FitConfig(method=method, multistart=starts))
        assert not fitted.radius.feasible
        for beta in (1.5, 2.5, 4.0):
            report = remove(fitted, beta)
            assert "unattainable" in report.warnings[0]
            assert report.n_flagged > 0
            config = DetectorConfig(beta=beta, method=method, multistart=starts)
            _assert_same_report(report, detect(ds.data, config))
            _assert_same_report(report, remove(fitted, beta))
        for beta in (0.0, float("inf")):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                remove(fitted, beta)


def test_lockstep_betas_match_one_beta_runs(monkeypatch):
    # remove_many runs every beta's loop as a row of one array program, and a
    # step's PCA re-estimates share one downdate and one stacked solve; each
    # beta must get what remove gives it alone, bit for bit, or fail with the
    # same message. Student-t draws at T=500 make several PCA passes; the
    # price fixture's returns are 200 calm days, then 40 at 10x variance. The
    # last draw is the first with one row scaled by 1e8: dropping it cancels
    # the downdated scatter, so the PCA loops recompute it by two passes in
    # one step of many rows. Each pca fit also runs with its candidate listed
    # twice: the betas reach the second after different numbers of passes
    sigma = default_covariance(30, 20.0, seed=0)
    rng = np.random.default_rng(2)
    draws = [inject_outliers(SimulationSpec(family="student_t", n=30, T=500, seed=seed,
                                            sigma_mat=sigma, nu=5.0)).data for seed in (0, 1)]
    draws.append(DataMatrix(np.concatenate([rng.normal(0.0, 0.01, (200, 8)),
                                            rng.normal(0.0, 0.01 * np.sqrt(10.0), (40, 8))])))
    gross = draws[0].values.copy()
    gross[7] *= 1e8
    draws.append(DataMatrix(gross))
    # the number of loops in each downdate that recomputed a scatter by two passes
    downdate, centered_scatter = detector_module._downdate, detector_module._centered_scatter
    loops, recomputed = [0], []

    def sized(values, state, rows, alive, out):
        loops[0] = len(rows)
        try:
            return downdate(values, state, rows, alive, out)
        finally:
            loops[0] = 0

    def counted(Y):
        if loops[0]:
            recomputed.append(loops[0])
        return centered_scatter(Y)

    monkeypatch.setattr(detector_module, "_downdate", sized)
    monkeypatch.setattr(detector_module, "_centered_scatter", counted)
    grid = [1e-9, *default_beta_grid()]
    fits = []
    for k, data in enumerate(draws):
        for method in ("pca", "maxcgf"):
            config = FitConfig(method=method, multistart=MultistartConfig(n_starts=200, seed=k))
            fits.append((k, method, fit(data, config)))
    fits += [(k, "pca twice", replace(fitted, candidates=fitted.candidates * 2))
             for k, method, fitted in fits if method == "pca"]
    failed, most_passes, staggered = set(), 0, 0
    for k, method, fitted in fits:
        results = remove_many(fitted, grid)
        assert len(results) == len(grid)
        for beta, result in zip(grid, results):
            try:
                alone = remove(fitted, beta)
            except DetectionError as err:
                assert isinstance(result, DetectionError), (k, method, beta)
                assert str(result) == str(err)
                failed.add((k, method, beta))
                continue
            _assert_same_report(result, alone)
            most_passes = max([most_passes] + [len(t.kurtosis_trace)
                                               for t in alone.directions_used])
        # the passes on the first direction of the loops that reach a second
        reach = {len(r.directions_used[0].kurtosis_trace) for r in results
                 if not isinstance(r, DetectionError) and len(r.directions_used) > 1}
        staggered += method == "pca twice" and len(reach) > 1
    assert {beta for _, _, beta in failed} == {1e-9}
    assert most_passes >= 5
    assert max(recomputed) > 1
    assert staggered == len(draws)


def test_the_row_at_the_mad_ties_beta_one_and_stays():
    # with an odd survivor count the MAD is one of the deviations, so the row
    # at the MAD scores exactly 1.0 and the strict > keeps it at beta 1.0. The
    # pca loop scores 101 rows, then 51, and stops when the kurtosis rises, so
    # its 26 survivors keep the 51-row pass's scores. The max-CGF fit keeps
    # its first candidate only, which scores all 101 rows once. remove runs
    # one row; the sweep runs 39, and beta 1.0 is one of them
    ds = inject_outliers(SimulationSpec(family="std_normal", n=3, T=101, seed=2))
    pca = fit(ds.data, FitConfig(method="pca"))
    maxcgf = fit(ds.data, FitConfig(multistart=MultistartConfig(n_starts=20, seed=2)))
    grid = list(default_beta_grid())
    cases = [(pca, 3, 26), (replace(maxcgf, candidates=maxcgf.candidates[:1]), 1, 51)]
    for fitted, passes, kept in cases:
        alone = remove(fitted, 1.0)
        swept = remove_many(fitted, grid)[grid.index(1.0)]
        _assert_same_report(alone, swept)
        [trace] = alone.directions_used
        assert len(trace.kurtosis_trace) == passes
        assert np.count_nonzero(~alone.outlier_flags) == kept
        tie = alone.q_scores == 1.0
        assert np.count_nonzero(tie) == 1 and not alone.outlier_flags[tie].any()
        assert np.array_equal(alone.outlier_flags, alone.q_scores > 1.0)


def _psd(kind: str, n: int, rng) -> np.ndarray:
    # a random PSD matrix: full rank, zero, with lambda1 == lambda2, or with rows
    # (and columns) scaled by 1e8 and 1e-8
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "repeated":
        q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        eig = np.sort(rng.random(n))[::-1]
        eig[: min(2, n)] = 2.0
        return (q * eig) @ q.T
    a = rng.normal(size=(n, n + 2))
    if kind == "scaled":
        a[rng.integers(n)] *= 1e8
        a[rng.integers(n)] *= 1e-8
    return a @ a.T


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([1, 2, 5, 30]),
       kinds=st.lists(st.sampled_from(["full", "zero", "repeated", "scaled"]),
                      min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_batched_pc1_is_certified_and_batch_invariant(n, kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.stack([_psd(kind, n, rng) for kind in kinds])
    got = _pc1(stack)
    assert got.shape == (len(kinds), n)
    for i, kind in enumerate(kinds):
        # entry i must not depend on the rest of the stack
        assert np.array_equal(got[i], _pc1(stack[i:i + 1])[0]), kind
        eigvals, eigvecs = np.linalg.eigh(stack[i])
        assert abs(np.linalg.norm(got[i]) - 1.0) < 1e-12, kind
        if kind in ("zero", "repeated") and n > 1:  # never certified: eigh's own vector
            assert np.array_equal(got[i], eigvecs[:, -1]), kind
        elif n == 1 or eigvals[-1] - eigvals[-2] >= 1e-6 * eigvals[-1]:
            pc1 = eigvecs[:, -1]
            assert min(np.abs(got[i] - pc1).max(), np.abs(got[i] + pc1).max()) < 1e-10, kind
