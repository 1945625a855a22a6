"""Short-rate model toolkit: power-transform reduction to a square-root
diffusion, exact transition laws under the transformed measure, and a
statistical verification harness.

Importing it loads no scipy module: scipy.special, which takes tenths of a
second to import, loads on the first density or CDF call, and the Monte Carlo
paths never make one.
"""

from .analysis import (
    KsResult,
    MomentBound,
    gronwall_bound,
    ks_statistic,
    mean_rate,
    scale_function,
    scale_function_log_magnitude,
)
from .config import RunConfig, load_config, parse_config
from .distribution import (
    NoncentralChiSq,
    TransitionSpec,
    noncentral_cdf,
    noncentral_pdf,
    noncentral_sample,
    rate_cdf,
    rate_density,
    transition_spec,
)
from .engine import (
    NoiseMatrix,
    TimeGrid,
    euler_auxiliary,
    euler_ckls,
    euler_under_q,
    exact_sqrt_level,
    explicit_rate,
    explicit_rate_on_grid,
    sample_cir_exact,
)
from .errors import (
    CklsError,
    ConfigError,
    DegenerateTransform,
    DegenerateWeights,
    DomainError,
    InputError,
    RegimeError,
    SingularSample,
    UnknownSuite,
)
from .girsanov import (
    WeightedEstimate,
    WeightedSample,
    drift_adjustment,
    simulate_weighted,
)
from .params import CklsParams, GirsanovBranch, MomentCase, Regime, classify_regime
from .transform import (
    CirParams,
    Transform,
    default_c,
    derive_cir,
    make_transform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
