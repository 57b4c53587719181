"""Constructive test for mean-square stabilizability.

[A, C; B, D] is L2-stabilizable iff the ARE

    P A + A'P + C'P C + I - (P B + C'P D)(I + D'P D)^{-1}(B'P + D'P C) = 0

has a positive definite solution, in which case

    Gamma = -(I + D'P D)^{-1} (B'P + D'P C)

is a stabilizer.  The solution is the stationary limit of the unit-weight
Riccati flow started from zero, which converges (increasing in the
semidefinite order) exactly when the system is stabilizable and blows up
otherwise.  The flow runs until its first certified gain: at accepted steps
0, 1, 2, 4, 8, ... its gain is checked by the certifying gain-value map that
Newton-Kleinman uses, and the first gain certified proves stabilizability.
From that gain's value, or from the flow's limit if it converges first,
Newton-Kleinman finishes the solve; since Q = I > 0, the solution it
reaches is the unique positive one, the flow's limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistencyError,
    LyapunovUnsolvableError,
    UnsupportedInputError,
)
from .linalg import fro, is_pd, is_psd
from .riccati import CostWeights, FlowConfig, _stabilizing_limit
from .stability import ControlledSystem, solve_lyapunov

__all__ = [
    "StabilizabilityReport",
    "check_sa_condition",
    "find_stabilizer",
    "stabilizability_report",
]


@dataclass
class StabilizabilityReport:
    """Full outcome of the stabilizability decision, for diagnostics."""

    stabilizable: bool
    gamma: np.ndarray | None       # a stabilizer when one exists
    P: np.ndarray | None           # positive solution of the unit-weight ARE
    flow_status: str               # 'certified' | 'converged' | 'diverged' | 'max-horizon'
                                   # | 'static'
    residual: float | None         # ARE residual at P; the Lyapunov one without control
    flow_steps: int                # accepted steps of the unit-weight flow
    newton_steps: int              # Newton-Kleinman steps after the first certified gain


def stabilizability_report(
    sys: ControlledSystem, cfg: FlowConfig | None = None
) -> StabilizabilityReport:
    """Decide stabilizability of [A, C; B, D] and produce a stabilizer.

    The unit-weight flow from 0 runs until a checkpoint certifies its gain
    (status 'certified') or it converges ('converged'); Newton-Kleinman
    finishes from there and the gain of its limit P is certified once, by
    the same map.  'diverged' or 'max-horizon' classify the system as not
    stabilizable.  ``residual`` is the norm of the unit-weight ARE residual
    at P, below ``cfg.stat_tol * (1 + ||P||)``.  With no control authority
    the ARE is the Lyapunov equation (status 'static'), and ``residual`` is
    ||P A + A'P + C'P C + I|| for the P solved.  It is None when the system
    is classified not stabilizable.

    A flow that would settle only after the horizon cap is still found
    stabilizable once one of its checked gains is certified.  A flow ends
    'max-horizon' only when none was by the cap; the system is then
    classified not stabilizable, which can misclassify a marginally
    stabilizable one (hence the status is surfaced here).
    """
    cfg = cfg or FlowConfig()
    n, m = sys.n, sys.m

    if not sys.B.any() and not sys.D.any():
        # No control authority: stabilizability degenerates to stability.
        # This is is_l2_stable's test, keeping its certificate P for the report.
        try:
            P = solve_lyapunov(sys.pair(), np.eye(n))
        except LyapunovUnsolvableError:
            return StabilizabilityReport(False, None, None, "static", None, 0, 0)
        residual = fro(P @ sys.A + sys.A.T @ P + sys.C.T @ P @ sys.C + np.eye(n))
        return StabilizabilityReport(True, np.zeros((m, n)), P, "static", residual, 0, 0)

    w = CostWeights(np.eye(n), np.zeros((m, n)), np.eye(m))
    P, gamma, residual, route = _stabilizing_limit(sys, w, cfg)
    steps = (route["flow_steps"], route["newton_steps"])
    if P is None:
        return StabilizabilityReport(False, None, None, route["status"], None, *steps)
    # the limit's residual, I + D'PD > 0 and its gain are certified; P > 0
    # follows from Q = I for a certified gain, and is checked here
    if not is_pd(P):
        raise InternalInconsistencyError("the unit-weight ARE solution is not positive definite")
    return StabilizabilityReport(True, gamma, P, route["status"], residual, *steps)


def find_stabilizer(sys: ControlledSystem, cfg: FlowConfig | None = None) -> np.ndarray | None:
    """Return a stabilizer of [A, C; B, D], or None when there is none."""
    return stabilizability_report(sys, cfg).gamma


def check_sa_condition(sys: ControlledSystem) -> bool:
    """Necessary condition for scalar-state non-stabilizability.

    For n = 1, a system that is not L2-stabilizable must have

        [[2A + C^2, B + CD], [B' + CD', D'D]]  positive semidefinite,

    so a negative answer certifies stabilizability.  Used as a cross-check
    on the flow-based verdict.
    """
    if sys.n != 1:
        raise UnsupportedInputError("the block criterion is defined for n = 1 only")
    a = 2.0 * sys.A[0, 0] + sys.C[0, 0] ** 2
    row = sys.B[0:1, :] + sys.C[0, 0] * sys.D[0:1, :]
    block = np.block([[np.array([[a]]), row], [row.T, sys.D.T @ sys.D]])
    return is_psd(block)
