"""Entry point of ``python3 -m cgf_outliers``: the command-line interface."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
