"""Comparing joint copula/marginal forecasts with multi-objective scores
and two-step predictive-ability tests."""

from . import copulas, dist_math, inference, scoring, sim_harness
from .copulas import *  # noqa: F403
from .dist_math import *  # noqa: F403
from .inference import *  # noqa: F403
from .scoring import *  # noqa: F403
from .sim_harness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *copulas.__all__,
    *dist_math.__all__,
    *inference.__all__,
    *scoring.__all__,
    *sim_harness.__all__,
]
