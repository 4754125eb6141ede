"""Consistency-regularized weighted matrix factorization for hashtag adoption.

The pipeline: generate or ingest adoption records (dataio), bin them into a
binary user-time matrix (linalg), mask held-out positives and build the
indicator/attenuation masks (masks, harness), fit the factorization or a
baseline (factorization, baselines), score by RMSE (harness), and test the
consistency hypothesis (stats).  The package re-exports each module's
``__all__``; that list is the one declaration of a module's public names.
"""

from . import baselines, dataio, factorization, harness, linalg, masks, stats
from .baselines import *  # noqa: F403
from .dataio import *  # noqa: F403
from .factorization import *  # noqa: F403
from .harness import *  # noqa: F403
from .linalg import *  # noqa: F403
from .masks import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (baselines, dataio, factorization, harness, linalg, masks, stats)
    for name in module.__all__
]
