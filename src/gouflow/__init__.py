"""gouflow: simulation and verification of generalized Ornstein-Uhlenbeck
processes driven by bivariate Levy pairs — Siegmund duals, inverse flows,
first-passage identities, and stationary laws."""

from .calculus import (
    AlignedSeries,
    exponential_with_integral,
    quadratic_covariation,
    stochastic_exponential,
    stochastic_integral,
)
from .config import ConfigError, ExperimentConfig, config_hash, load_config, parse_config
from .duality import (
    DualityProbe,
    DualPair,
    HittingRecord,
    HittingResult,
    dual_path,
    dual_solve,
    duality_grid,
    hitting_time,
    killed_dual,
    make_dual_pair,
    monotonicity_probe,
    ruin_probability,
    verify_ruin_identity,
)
from .gou import (
    GouTrajectory,
    causal_integral,
    euler_on_path,
    solve_forward,
    solve_pair,
    solve_sde_euler,
    stationary_sampler,
)
from .inverse_flow import (
    FlowMap,
    eta_tilde_path,
    flow_inverse_check,
    flow_map,
    inverse_flow_solve,
    verify_pathwise_identity,
)
from .levy import (
    ConditionError,
    JumpLaw2,
    LevyModel2,
    Marginal,
    characteristic_exponent,
    detect_degeneracy,
    dual_model,
)
from .paths import (
    Jump,
    Path,
    Segment,
    eta_path,
    reverse_path,
    sample_path,
    t_path,
    truncate_path,
    w_path,
    xi_path,
)
from .presets import PRESETS, Preset, get_preset, preset_names
from .stats import (
    EmpiricalDistribution,
    KsResult,
    binomial_ci,
    ecdf,
    ks_critical_value,
    ks_two_sample,
)

__version__ = "0.1.0"
