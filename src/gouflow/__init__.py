"""gouflow: simulation and verification of generalized Ornstein-Uhlenbeck
processes driven by bivariate Levy pairs — Siegmund duals, inverse flows,
first-passage identities, and stationary laws."""

from .duality import ruin_probability
from .gou import stationary_sampler
from .levy import ConditionError
from .paths import Jump, Path, Segment, draw_jumps, exact_paths, sample_path

__version__ = "0.1.0"
