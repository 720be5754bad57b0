"""Joint local-time densities of continuous-time Markov chains on a fixed
finite range, with stochastic and linear-algebraic cross-checks,
finite-horizon large-deviation bounds, and local-time transition kernels
for the one-dimensional walk."""

from .chain import (
    Generator,
    GeneratorError,
    RangeSpec,
    box_srw,
    jump_rate_bound,
    load_generator,
    validate_generator,
)
from .density import (
    DensityResult,
    SeriesEvaluator,
    density_finite_difference,
    density_quadrature,
    density_series,
    gauge_invariance_check,
    local_time_density,
    theta_integral_series,
)
from .ldp import (
    SimplexBall,
    TiltFunction,
    chi_discrete,
    density_bound,
    ldp_upper_bound_rhs,
    rate_function_general,
    rate_function_symmetric,
    rescaled_bound_experiment,
)
from .oracles import (
    SimplexChart,
    gaussian_identity_check,
    killed_prob,
    matrix_exponential,
    range_exact_prob,
    resolvent_check,
    simplex_integrate,
)
from .rayknight import (
    f_kernel,
    pstar_kernel,
    rk_statistical_test,
)
from .simulate import (
    McEstimate,
    mc_event_functional,
)

__version__ = "0.1.0"
