"""Primal-dual forward-backward-forward splitting for systems of coupled
monotone inclusions and their convex-minimization specializations."""

from .blocks import (
    BlockLinearOp,
    BlockVector,
    SignatureError,
    SpaceSig,
    apply_adjoint,
    apply_block,
    apply_skew,
    lambda_conservative,
    lambda_power_iteration,
)
from .fbf import (
    FbfConfig,
    FbfTrace,
    SummableErrorSchedule,
    fbf_solve,
)
from .operators import (
    AffineMap,
    AffineOperator,
    Ball,
    Box,
    ConvexFunction,
    ConvexSet,
    Halfspace,
    Hyperplane,
    IndicatorFunction,
    L1Norm,
    LipschitzOperator,
    MonotoneOperator,
    NormalCone,
    ParameterError,
    Point,
    QuadraticDistance,
    ScaledIdentity,
    ScaledIdentityMap,
    SquaredNorm,
    SubdifferentialOperator,
    ZeroFunction,
    ZeroMap,
    ZeroOperator,
)
from .reductions import (
    CommonZeroProblem,
    EvaluationError,
    FeasibilityRelaxation,
    MultivariateMinProblem,
    ParallelSumProblem,
    UnivariateMinProblem,
    dual_objective,
    evaluate_objectives,
    lift_parallel_sum,
    primal_objective,
    relaxation_objective,
    solve_common_zero,
    solve_multivariate_min,
    solve_parallel_sum,
)
from .system import (
    CoupledInclusionProblem,
    SolveReport,
    compute_beta,
    kkt_residual,
    product_space_pair,
    solve_system,
)

__version__ = "0.1.0"
