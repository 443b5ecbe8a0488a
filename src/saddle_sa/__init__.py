"""Stochastic approximation toolkit for nonsmooth convex-concave saddle
problems and stochastic convex conic programs, with a benchmark harness that
checks the advertised convergence rates and tail behaviour at desk scale.
"""

from .core import (
    ConvergenceError,
    DivergenceError,
    PrimalDualPoint,
    ProblemConstants,
    RandomSource,
    RunConfig,
    RunRecord,
    StepSchedule,
    derive_stream_id,
    gamma_at,
)
from .prox import (
    BallIndicator,
    BlockSeparable,
    BoxIndicator,
    PositivePartSum,
    ProximableFunction,
    ScaledL1,
    ScaledL2,
    ZeroFunction,
    prox,
    prox_joint,
)
from .cones import (
    ConvexCone,
    FreeCone,
    NonnegativeOrthant,
    NonpositiveOrthant,
    ProductCone,
    SecondOrderCone,
    ZeroCone,
)
from .oracles import (
    BilinearOracle,
    ConicSample,
    MinimaxSample,
    NeymanPearsonOracle,
    TanhOracle,
)
from .saps import SapsProblem, run_saps, run_saps_batch
from .lsaal import (
    LsaalProblem,
    MultiplierDiagnostics,
    XSubproblemSpec,
    estimate_constants,
    multiplier_bound_diagnostics,
    run_laam,
    run_lsaal,
    solve_x_subproblem,
    x_subproblem_gradient,
    x_subproblem_objective,
    y_update,
)
from .data import (
    ClassGroupedDataset,
    DataError,
    ParseError,
    SparseVector,
    parse_libsvm,
    synth_gaussian_classes,
    to_libsvm,
)
from .metrics import (
    BilinearEvaluator,
    FiniteSumMinimaxEvaluator,
    KktErrors,
    SlopeFit,
    constraint_violation,
    estimate_m_star,
    kkt_errors,
    lagrangian_grad,
    minimax_gap,
    proj_kkt,
    rate_slope_fit,
    tail_tally,
)

__version__ = "0.1.0"
