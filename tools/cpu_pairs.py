"""Paired CPU seconds of two source trees on one benchmark job, in one process.

    python3 tools/cpu_pairs.py TREE_A TREE_B WORKLOAD ROUNDS [SEED]

TREE_A and TREE_B each hold src/cgf_outliers, for example a ``git archive``
copy of the parent commit and the change. WORKLOAD is one of perfbench's two
gated jobs, built from SEED (default 0) as perfbench builds it, or the
experiments' max-CGF sweep, which no gated job runs:

- detect-large: `detect` at `DetectorConfig(beta=3.25)` on 4 correlated-normal
  draws, n=30, T=10,000, data seeds 4*SEED to 4*SEED+3;
- pca-sweep: `roc_sweep` method pca over the default 39-beta grid on 80
  Student-t nu=5 draws, n=30, T=500, 200 starts, data seeds 80*SEED to
  80*SEED+79;
- maxcgf-sweep: `roc_sweep` method maxcgf over the same grid at 200 starts,
  n=30, T=500, on the four families of `tools/quality_table.py`'s AUC cell
  (std-normal, correlated normal, Student-t nu=5, skew-normal with alpha in
  [-1, 4]), data seeds 5*SEED to 5*SEED+4 each: the experiments' setting.

Both packages are loaded under their own module names, so both sides run on
the same interpreter, numpy and BLAS thread, interleaved in time. Wall-clock
job_s pairs from separate benchmark processes can mislead on a small shared
host, where other load moves one process and not the other. Each round runs
one job per side, alternating which side goes first, and reads
`time.process_time` around it. The output gives each side's median and
quartiles, and the median and quartiles of the per-round ratios B / A. It
also says whether the two sides' outputs (flags and q-score bytes, or ROC
points and failures) were equal in every round; for detect-large it says
apart whether the flags alone were, and the largest q-score difference over
the rows both sides scored, so a change that keeps every flag but moves
q-scores by round-off says by how much. After the timed rounds, each side
runs the job PEAK_RUNS more times under `tracemalloc`, and the output gives
the median peak of traced memory per job beside the CPU seconds.
Tracing slows every allocation, so no timed run is traced. Once more
untimed, each side runs the job with the package's CGF kernel
(`cgf._exp_shifted`) wrapped, and the output gives its calls per job and the
directions they evaluated. Only the ascent calls the kernel in these jobs, so
these are the multistart's kernel calls and updates: counters that do not
depend on the machine or its load. The last line
applies the gain rule to B's CPU seconds: B must be lower in at least nine tenths of the rounds,
and its median lower than A's by more than A's interquartile distance.
"""

from __future__ import annotations

import importlib.util
import math
import os
import statistics
import sys
import time
import tracemalloc

# one BLAS thread, pinned before numpy is imported, as perfbench pins it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def load(tree: str, name: str):
    """The cgf_outliers package of TREE, imported as the top-level module NAME."""
    pkg_dir = os.path.join(os.path.abspath(tree), "src", "cgf_outliers")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg_dir, "__init__.py"), submodule_search_locations=[pkg_dir])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def detect_large(pkg, seed: int):
    sigma = pkg.default_covariance(30, 20.0, seed=0)
    draws = [pkg.inject_outliers(pkg.SimulationSpec(family="normal", n=30, T=10_000, seed=s,
                                                    sigma_mat=sigma))
             for s in range(4 * seed, 4 * seed + 4)]
    config = pkg.DetectorConfig(beta=3.25)

    def job():
        reports = [pkg.detect(ds.data, config) for ds in draws]
        return [(np.packbits(r.outlier_flags).tobytes(), r.q_scores.tobytes()) for r in reports]

    return job


def pca_sweep(pkg, seed: int):
    sigma = pkg.default_covariance(30, 20.0, seed=0)
    draws = [(s, pkg.inject_outliers(pkg.SimulationSpec(family="student_t", n=30, T=500, seed=s,
                                                        sigma_mat=sigma, nu=5.0)))
             for s in range(80 * seed, 80 * seed + 80)]
    return _sweep(pkg, draws, "pca")


def _sweep(pkg, draws, method: str):
    # one 39-beta roc_sweep per (data seed, draw); the multistart seed is the data seed
    grid = pkg.default_beta_grid()

    def job():
        out = []
        for s, ds in draws:
            config = pkg.DetectorConfig(beta=3.0,
                                        multistart=pkg.MultistartConfig(n_starts=200, seed=s))
            curve = pkg.roc_sweep(ds, method, grid, config)
            out.append([(p.beta, p.fpr, p.tpr) for p in curve.points] + list(curve.failures))
        return out

    return job


def maxcgf_sweep(pkg, seed: int):
    sigma = pkg.default_covariance(30, 20.0, seed=0)
    families = [("std_normal", {}), ("normal", {"sigma_mat": sigma}),
                ("student_t", {"sigma_mat": sigma, "nu": 5.0}),
                ("skew_normal", {"sigma_mat": sigma, "alpha_range": (-1.0, 4.0)})]
    draws = [(s, pkg.inject_outliers(pkg.SimulationSpec(family=family, n=30, T=500, seed=s, **kw)))
             for family, kw in families for s in range(5 * seed, 5 * seed + 5)]
    return _sweep(pkg, draws, "maxcgf")


PEAK_RUNS = 3


def traced_peak_mb(job) -> float:
    """The peak of memory traced by tracemalloc during one run of JOB, in MB."""
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def kernel_counts(pkg, job) -> tuple[int, int]:
    """Calls of PKG's CGF kernel in one run of JOB, and the directions they evaluated."""
    kernel, counts = pkg.cgf._exp_shifted, [0, 0]

    def counted(Xt, r, thetas, out):
        counts[0] += 1
        counts[1] += thetas.shape[0]
        return kernel(Xt, r, thetas, out)

    pkg.cgf._exp_shifted = counted
    try:
        job()
    finally:
        pkg.cgf._exp_shifted = kernel
    return counts[0], counts[1]


def largest_q_gap(a, b) -> float:
    """The largest |q_A - q_B| over the rows both sides scored, in two detect-large outputs."""
    gap = 0.0
    for (_, qa), (_, qb) in zip(a, b):
        diff = np.abs(np.frombuffer(qa) - np.frombuffer(qb))
        gap = max(gap, float(diff[~np.isnan(diff)].max(initial=0.0)))
    return gap


WORKLOADS = {"detect-large": detect_large, "pca-sweep": pca_sweep, "maxcgf-sweep": maxcgf_sweep}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) not in (4, 5) or argv[2] not in WORKLOADS:
        sys.stderr.write(__doc__)
        return 2
    tree_a, tree_b, workload, rounds = argv[0], argv[1], argv[2], int(argv[3])
    seed = int(argv[4]) if len(argv) == 5 else 0
    if rounds < 2:
        sys.stderr.write("ROUNDS must be at least 2\n")
        return 2
    pkgs = [load(tree, name) for tree, name in ((tree_a, "cgf_outliers_a"),
                                                (tree_b, "cgf_outliers_b"))]
    jobs = [WORKLOADS[workload](pkg, seed) for pkg in pkgs]
    for job in jobs:  # warm-up: imports, lazy set-up and caches, untimed
        job()

    cpu: list[list[float]] = [[], []]
    same = flags_same = True
    q_gap = 0.0
    for r in range(rounds):
        outputs = [None, None]
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            start = time.process_time()
            outputs[side] = jobs[side]()
            cpu[side].append(time.process_time() - start)
        same = same and outputs[0] == outputs[1]
        if workload == "detect-large":  # (packed flags, q-score bytes) per report
            flags_same = flags_same and [f for f, _ in outputs[0]] == [f for f, _ in outputs[1]]
            q_gap = max(q_gap, largest_q_gap(*outputs))
    ratios = [b / a for a, b in zip(*cpu)]
    peaks = [statistics.median(traced_peak_mb(job) for _ in range(PEAK_RUNS)) for job in jobs]
    kernels = [kernel_counts(pkg, job) for pkg, job in zip(pkgs, jobs)]

    print(f"workload {workload}, seed {seed}, {rounds} rounds, process_time seconds per job")
    for label, values, peak, (calls, updates) in zip("AB", cpu, peaks, kernels):
        q1, q2, q3 = quartiles(values)
        print(f"{label}: median {q2:.4f}  quartiles {q1:.4f}-{q3:.4f}  "
              f"runs {' '.join(f'{v:.4f}' for v in values)}  "
              f"tracemalloc peak {peak:.3f} MB (median of {PEAK_RUNS})  "
              f"multistart updates {updates}, kernel calls {calls} per job")
    q1, q2, q3 = quartiles(ratios)
    wins = sum(x < 1.0 for x in ratios)
    print(f"B/A: median {q2:.4f}  quartiles {q1:.4f}-{q3:.4f}  B lower in {wins} of {rounds}")
    print(f"outputs equal in every round: {'yes' if same else 'no'}")
    if workload == "detect-large":
        print(f"flags equal in every round: {'yes' if flags_same else 'no'}; "
              f"largest q-score difference over rows both sides scored: {q_gap:.3g}")
    a1, a2, a3 = quartiles(cpu[0])
    gap = a2 - statistics.median(cpu[1])
    met = wins >= 0.9 * rounds and gap > a3 - a1
    print(f"gain rule: B lower in {wins} of {rounds} (needs {math.ceil(0.9 * rounds)}), "
          f"median gap {gap:.4f} against A's IQR {a3 - a1:.4f}: {'met' if met else 'not met'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
