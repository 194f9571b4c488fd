"""Outlier detection through projections maximizing the empirical CGF.

The pipeline: center the data, pick a projection radius from the
relative-variance rule, find directions maximizing the empirical cumulant
generating function by multistart projected gradient ascent, then score each
observation's projection by its MAD-normalized deviation and flag scores
above a threshold beta. ROC utilities sweep beta and report AUC / BCV, and
the distributions module regenerates the synthetic experiment families
(normal, skew-normal, Student-t) with planted outlier blocks.
"""

__version__ = "0.1.0"

from . import cgf, cli, detector, distributions, evaluation, io, linalg_stats
from .linalg_stats import *  # noqa: F401,F403
from .cgf import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .detector import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .cli import *  # noqa: F401,F403

__all__ = [
    "__version__",
    *linalg_stats.__all__,
    *cgf.__all__,
    *distributions.__all__,
    *detector.__all__,
    *evaluation.__all__,
    *io.__all__,
    *cli.__all__,
]
