"""Infinite-horizon stochastic linear-quadratic optimal control.

Decides mean-square stabilizability, computes the static stabilizing
solution of the generalized algebraic Riccati equation, synthesizes
closed-loop optimal strategies and value functions, and cross-checks
results against Monte Carlo simulation and the scalar closed forms.
"""

__version__ = "0.1.0"

from .errors import (
    InternalInconsistencyError,
    InvalidInputError,
    InvalidTerminalError,
    LyapunovUnsolvableError,
    NotStabilizableError,
    NotStableError,
    SimulationBudgetError,
    SlqError,
    UnsupportedInputError,
    ValueUndefinedError,
)
from .inhomogeneous import (
    AffineTerms,
    InhomogeneityGrid,
    RangeCheck,
    assemble_value,
    check_range_ez,
    solve_eta,
)
from .linalg import is_psd, pinv, symmetrize
from .montecarlo import (
    FeedbackCheck,
    SimConfig,
    SimResult,
    feedback_parametrization_check,
    simulate_closed_loop,
)
from .oracle1d import Oracle1dResult, StrategySet, classify_1d_cases, solve_1d
from .riccati import (
    CostWeights,
    FlowConfig,
    GareConfig,
    GareMaps,
    GareSolution,
    GareUnsolvable,
    GareVerification,
    RiccatiFlow,
    integrate_riccati_flow,
    solve_are_strict,
    solve_gare,
    transform_problem,
    verify_static_stabilizing,
)
from .stability import ControlledSystem, SystemPair, is_l2_stable, is_stabilizer, solve_lyapunov
from .stabilizability import check_sa_condition, find_stabilizer, stabilizability_report
