"""Infinite-horizon stochastic linear-quadratic optimal control.

Decides mean-square stabilizability, computes the static stabilizing
solution of the generalized algebraic Riccati equation, synthesizes
closed-loop optimal strategies and value functions, and cross-checks
results against Monte Carlo simulation and the scalar closed forms.

Each public name is imported from its submodule when it is first read
(PEP 562), so that ``import slq.cli`` loads only the submodules a command
needs: the Monte Carlo, closed-form and forcing modules load with the first
``--simulate``, ``--oracle`` or forced solve.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# the public names of each submodule
_EXPORTS = {
    "errors": (
        "InternalInconsistencyError",
        "InvalidInputError",
        "InvalidTerminalError",
        "LyapunovUnsolvableError",
        "NotStabilizableError",
        "NotStableError",
        "SimulationBudgetError",
        "SlqError",
        "UnsupportedInputError",
        "ValueUndefinedError",
    ),
    "inhomogeneous": (
        "AffineTerms",
        "InhomogeneityGrid",
        "RangeCheck",
        "assemble_value",
        "check_range_ez",
        "solve_eta",
    ),
    "linalg": ("is_psd", "pinv", "symmetrize"),
    "montecarlo": (
        "FeedbackCheck",
        "SimConfig",
        "SimResult",
        "feedback_parametrization_check",
        "simulate_closed_loop",
    ),
    "oracle1d": ("Oracle1dResult", "StrategySet", "classify_1d_cases", "solve_1d"),
    "riccati": (
        "CostWeights",
        "FlowConfig",
        "GareConfig",
        "GareMaps",
        "GareSolution",
        "GareUnsolvable",
        "GareVerification",
        "RiccatiFlow",
        "integrate_riccati_flow",
        "solve_are_strict",
        "solve_gare",
        "transform_problem",
        "verify_static_stabilizing",
    ),
    "stability": (
        "ControlledSystem",
        "SystemPair",
        "is_l2_stable",
        "is_stabilizer",
        "solve_lyapunov",
    ),
    "stabilizability": ("check_sa_condition", "find_stabilizer", "stabilizability_report"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

# what ``from slq import *`` binds: every public name and submodule, as when
# the package imported them all
__all__ = sorted({*_SOURCE, *_EXPORTS})


def __getattr__(name: str):
    """A submodule, or a public name of one, imported on first access."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    """The names of the package as when it imported every submodule."""
    own = {k for k in globals() if k.startswith("__") or not k.startswith("_")}
    return sorted((own - {"__all__", "__dir__", "__getattr__"}) | set(__all__))
