"""gouflow: simulation and verification of generalized Ornstein-Uhlenbeck
processes driven by bivariate Levy pairs — Siegmund duals, inverse flows,
first-passage identities, and stationary laws."""

from .gou import stationary_sampler
from .levy import ConditionError

__version__ = "0.1.0"
