"""One row of the ROADMAP's quality table for a block of data seeds.

    python3 tools/quality_table.py SEED [TREE]

TREE is a source tree holding src/cgf_outliers with `FitConfig` (default:
this repository).
The row has four cells, each measured on data seeds counted from SEED:

- detect-large: fpr / tpr / CPU seconds / multistart updates per draw, each
  the mean over 4 correlated-normal draws (n=30, T=10,000, outliers planted,
  seeds SEED to SEED+3) detected at the README config (fit at `FitConfig()`,
  removed at beta 3.25); the updates are `FittedDetector.iterations`,
  the counter that repeats exactly across runs while CPU seconds do not;
- clean T=10,000: the flag rate of 2 correlated-normal draws without
  outliers (seeds SEED, SEED+1) at the same config;
- clean T=500: the mean flag rate of 10 such draws (seeds SEED to SEED+9),
  T=500, at 200 starts and beta 3.25;
- T=500 AUC: the mean AUC of the 39-beta `roc_sweep` over 5 draws (seeds SEED
  to SEED+4) at 200 starts, for std-normal, correlated normal, Student-t
  nu=5 and skew-normal (alpha in [-1, 4]), the settings of the acceptance
  experiments.

The correlated draws use `default_covariance(30, 20, seed=0)`. CPU seconds
are `time.process_time` around each detect, with BLAS pinned to one thread.
Run it on a copy of the parent commit (``git archive``) and on the change to
compare a rule change on fresh seeds.
"""

from __future__ import annotations

import os
import sys
import time

# one BLAS thread, pinned before numpy is imported, so CPU seconds compare across runs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        sys.stderr.write(__doc__)
        return 2
    seed = int(argv[0])
    tree = os.path.abspath(argv[1] if len(argv) > 1 else os.path.join(os.path.dirname(__file__),
                                                                      ".."))
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    import cgf_outliers as pkg

    if not pkg.__file__.startswith(src + os.sep):
        sys.stderr.write(f"cgf_outliers was not imported from {src}\n")
        return 2
    sigma = pkg.default_covariance(30, 20.0, seed=0)
    readme, beta = pkg.FitConfig(), 3.25

    def at_200_starts(s: int):
        # the experiments' setting; the multistart seed is the data seed
        return pkg.FitConfig(multistart=pkg.MultistartConfig(n_starts=200, seed=s))

    fpr, tpr, cpu, updates = [], [], [], []
    for s in range(seed, seed + 4):
        ds = pkg.inject_outliers(pkg.SimulationSpec(family="normal", n=30, T=10_000, seed=s,
                                                    sigma_mat=sigma))
        start = time.process_time()
        fitted = pkg.fit(ds.data, readme)
        report = pkg.remove(fitted, beta)
        cpu.append(time.process_time() - start)
        updates.append(fitted.iterations)
        t, f = pkg.confusion_rates(report.outlier_flags, ds.truth)
        tpr.append(t)
        fpr.append(f)
    large = (f"{np.mean(fpr):.3f} / {np.mean(tpr):.3f} / {np.mean(cpu):.3f} / "
             f"{np.mean(updates):.0f}")

    def clean_rate(T: int, s: int, config) -> float:
        fitted = pkg.fit(pkg.sample_normal(sigma, T, s), config)
        return float(pkg.remove(fitted, beta).outlier_flags.mean())

    clean_large = [clean_rate(10_000, s, readme) for s in (seed, seed + 1)]
    clean_small = [clean_rate(500, s, at_200_starts(s)) for s in range(seed, seed + 10)]

    grid = pkg.default_beta_grid()
    families = [("std_normal", {}), ("normal", {"sigma_mat": sigma}),
                ("student_t", {"sigma_mat": sigma, "nu": 5.0}),
                ("skew_normal", {"sigma_mat": sigma, "alpha_range": (-1.0, 4.0)})]
    aucs = []
    for family, kw in families:
        auc = []
        for s in range(seed, seed + 5):
            ds = pkg.inject_outliers(pkg.SimulationSpec(family=family, n=30, T=500, seed=s, **kw))
            auc.append(pkg.roc_sweep(ds, "maxcgf", grid, at_200_starts(s)).auc)
        aucs.append(f"{np.mean(auc):.4f}")

    print(f"| seeds {seed}-{seed + 9} | {large} | "
          f"{', '.join(f'{r:.3f}' for r in clean_large)} | {np.mean(clean_small):.3f} | "
          f"{', '.join(aucs)} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
