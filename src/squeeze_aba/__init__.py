"""Capacity of discrete memoryless channels by squeezed Arimoto-Blahut iterations.

The plain Arimoto-Blahut fixed-point iteration is slow when channel rows
overlap heavily.  This package implements accelerated variants that
subtract ("squeeze out") feasible offsets from the rows, provably without
losing monotone convergence, together with automatic parameter selection,
waterfilling normalization onto floored simplices, local convergence-rate
analysis, and a seeded benchmark harness.  All internal quantities are in
nats.
"""

from .channel import (
    ChannelMatrix,
    Distribution,
    floored_uniform,
    make_distribution,
    uniform,
    validate_channel,
)
from .errors import (
    BoundaryFixedPointError,
    ChannelFileError,
    DegenerateChannelError,
    DimensionMismatchError,
    EmptyMatrixError,
    FloorConstraintError,
    InfeasibleFloorError,
    LambdaRangeError,
    NegativeEntryError,
    NonInteriorStartError,
    NonpositiveWeightError,
    NoStrictColumnError,
    NotAFixedPointError,
    NotTwoByNError,
    NumericalBreakdownError,
    RowSumToleranceError,
    SqueezeAbaError,
    SqueezeConstraintError,
    ValidationError,
    ZeroColumnError,
)
from .experiments import (
    BenchConfig,
    BenchRecord,
    random_channel,
    replication_rng,
    run_benchmark,
)
from .infotheory import (
    LN2,
    entropy,
    generalized_objective,
    generalized_objective_kl_form,
    kl_divergence,
    mutual_information,
    nats_to_bits,
    row_entropies,
)
from .io import load_channel, load_params_json, save_params_json
from .rate_analysis import (
    RateReport,
    fixed_point_on_floor,
    iteration_jacobian,
    jacobi_eigh,
    matrix_rate,
    polish_fixed_point,
    power_rate,
)
from .solvers import (
    IterationRecord,
    SolveResult,
    SolverConfig,
    aba_step,
    alg1_step,
    alg2_step,
    alg3_step,
    solve,
    trace_csv_rows,
    write_trace_csv,
)
from .squeeze import (
    SqueezeParams,
    build_squeeze_params,
    lambda_bounds,
    params_from_r_lambda,
)
from .squeeze_select import (
    SqueezePlan,
    heuristic_r,
    lambda_upper_bound,
    offset_from_g,
    optimal_g,
    optimal_r_m2,
    plan,
)
from .waterfill import WaterfillResult, waterfill

__version__ = "0.1.0"
