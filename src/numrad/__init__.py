"""numrad: numerical-radius engine and inequality verification laboratory."""

from .bounds import (
    ALL_BOUNDS,
    CHAIN_IDS,
    MODE_CERTIFICATE,
    MODE_INEQUALITY,
    BoundResult,
    ChainResult,
    LambdaOptimum,
    bound_classical,
    bound_cor_bomi,
    bound_product_classical,
    bound_th2,
    bound_th3,
    bound_th4,
    bound_th5,
    bound_th6,
    evaluate_bound,
    optimize_lambda,
    refinement_chain,
    resolve_implicit_quadratic,
)
from .ensembles import ENSEMBLES, EnsembleConfig, generate_ensemble
from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NegativeCoefficientError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    NotUnitVectorError,
    UnknownBoundError,
    UnknownChainError,
    UnknownFunctionError,
)
from .linalg import (
    EigenDecomposition,
    abs_power,
    abs_value,
    adjoint,
    hermitian_eigen,
    matrix_power_psd,
    numerical_radius,
    numerical_radius_enclosure,
    numerical_radius_oracle,
    operator_norm,
)
from .operator_lemmas import (
    convex_norm_check,
    jensen_operator_check,
    mccarthy_check,
    mixed_schwarz_check,
)
from .scalar_ineq import (
    BoundParams,
    InequalityRecord,
    buzano,
    buzano_power,
    buzano_refined,
    buzano_refined_two,
    cs_refinement_gen,
    cs_refinement_two,
    young_amgm,
)
from .suite import SuiteReport, emit_report, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
