"""Momentum-accelerated proximal gradient with restart schedules.

Composite solvers for ``min f(x) + g(x)`` with smooth (possibly
nonconvex) ``f`` and convex ``g``, a family of online restart schemes,
trace-level verification of the solver's descent and stationarity
guarantees, and a small benchmark CLI (``proxrestart``).
"""

from .dataio import (
    Dataset,
    ParseError,
    dump_libsvm,
    fixture_dataset,
    generate_synthetic,
    lasso_l1_weight,
    load_libsvm,
    parse_libsvm,
    serialize_libsvm,
)
from .diagnostics import (
    InvariantReport,
    check_invariants,
    path_length_summary,
)
from .linalg import CsrMatrix, spectral_norm_sq, spmv, spmv_transpose
from .objectives import LogisticObjective, QuadraticObjective, RobustRegressionObjective
from .regularizers import L1, ElasticNet, SquaredL2, Zero, gradient_mapping
from .restart import (
    FixedRestart,
    FunctionValueRestart,
    GradientMappingRestart,
    NeverRestart,
    NonMonotoneRestart,
    RestartObservation,
)
from .solver import (
    DivergenceError,
    LipschitzError,
    SolverConfig,
    SolverState,
    SolverTrace,
    StepRecord,
    apg_restart_step,
    momentum_coefficient,
    run,
    run_baseline,
)

__version__ = "0.1.0"

__all__ = [
    "CsrMatrix", "spmv", "spmv_transpose", "spectral_norm_sq",
    "Zero", "L1", "SquaredL2", "ElasticNet", "gradient_mapping",
    "LogisticObjective", "RobustRegressionObjective", "QuadraticObjective",
    "RestartObservation", "FixedRestart", "FunctionValueRestart",
    "GradientMappingRestart", "NonMonotoneRestart", "NeverRestart",
    "SolverConfig", "SolverState", "StepRecord", "SolverTrace",
    "DivergenceError", "LipschitzError", "momentum_coefficient",
    "apg_restart_step", "run", "run_baseline",
    "InvariantReport", "check_invariants", "path_length_summary",
    "Dataset", "ParseError", "parse_libsvm", "load_libsvm",
    "serialize_libsvm", "dump_libsvm", "generate_synthetic",
    "lasso_l1_weight", "fixture_dataset",
    "__version__",
]
