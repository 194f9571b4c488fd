"""Digest of a fixed set of CLI runs, for checking that a change keeps CLI outputs byte-identical.

    python3 tools/cli_digest.py [TREE]

TREE is a source tree holding src/cgf_outliers (default: this repository). The
runs go in-process through ``run_cli`` in a fresh temporary directory, with
relative paths, so the paths echoed into the JSON reports are the same for
every tree. Each run prints one line: its name, exit code, the sha256 of its
stderr, and the sha256 of every file it wrote; a run that writes report.json
also prints flags=<sha256> of its "flags" list alone, so a change that moves
q-scores in the last digits but keeps every flag shows as such. Run it on a
copy of the parent commit (``git archive``) and on the change, then compare
the two outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

# the same bits on every run: single-threaded BLAS, pinned before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

DETECT = ["--starts", "40", "--seed", "1"]
SWEEP = ["--dist", "studentt", "--nu", "5", "--n", "4", "--t", "100", "--starts", "30",
         "--seed", "3", "--n-seeds", "2"]

# (name, argv without --out); later runs read earlier runs' outputs
RUNS = [
    ("simulate-stdnormal", ["simulate", "--dist", "stdnormal", "--n", "4", "--t", "80"]),
    ("simulate-normal", ["simulate", "--dist", "normal", "--n", "4", "--t", "80"]),
    ("simulate-skewnormal", ["simulate", "--dist", "skewnormal", "--n", "5", "--t", "120",
                             "--seed", "7"]),
    ("simulate-studentt", ["simulate", "--dist", "studentt", "--nu", "5", "--n", "4",
                           "--t", "80"]),
    ("detect-maxcgf", ["detect", "--data", "simulate-skewnormal/data.csv", "--beta", "3",
                       *DETECT]),
    ("detect-pca", ["detect", "--data", "simulate-skewnormal/data.csv", "--beta", "3",
                    "--method", "pca", *DETECT]),
    ("detect-beta0.6", ["detect", "--data", "simulate-normal/data.csv", "--beta", "0.6",
                        *DETECT]),
    # the one run at the default --starts, so a change to that default shows
    ("detect-default-starts", ["detect", "--data", "simulate-skewnormal/data.csv", "--beta",
                               "3", "--seed", "1"]),
    ("evaluate-maxcgf", ["evaluate", "--data", "simulate-skewnormal/data.csv", "--labels",
                         "simulate-skewnormal/labels.csv", *DETECT]),
    ("evaluate-pca-grid", ["evaluate", "--data", "simulate-studentt/data.csv", "--labels",
                           "simulate-studentt/labels.csv", "--method", "pca",
                           "--beta-grid", "1:0.5:6", *DETECT]),
    ("sweep-maxcgf", ["sweep", *SWEEP]),
    ("sweep-pca", ["sweep", *SWEEP, "--method", "pca"]),
    # the one run that stops for too few rows: on the seed-0 draw, the first direction's pass
    # at beta 0.2 leaves 2 of 20 rows, so report.json warns "2 rows remain; stopping before
    # direction 2"
    ("simulate-studentt-t20", ["simulate", "--dist", "studentt", "--nu", "5", "--n", "3",
                               "--t", "20", "--seed", "0"]),
    ("detect-rows-remain", ["detect", "--data", "simulate-studentt-t20/data.csv", "--beta",
                            "0.2", *DETECT]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    tree = os.path.abspath(argv[0] if argv else os.path.join(os.path.dirname(__file__), ".."))
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    from cgf_outliers.cli import run_cli

    if not run_cli.__code__.co_filename.startswith(src + os.sep):
        sys.stderr.write(f"cgf_outliers was not imported from {src}\n")
        return 2
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, args in RUNS:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = run_cli(args + ["--out", name])
                files = []
                if os.path.isdir(name):
                    for fname in sorted(os.listdir(name)):
                        with open(os.path.join(name, fname), "rb") as fh:
                            files.append(f"{fname}={_sha(fh.read())}")
                if os.path.isfile(os.path.join(name, "report.json")):
                    with open(os.path.join(name, "report.json"), "rb") as fh:
                        flags = json.load(fh)["flags"]
                    files.append(f"flags={_sha(json.dumps(flags).encode())}")
                print(name, f"exit={code}", f"stderr={_sha(err.getvalue().encode())}", *files)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
