"""Constructive test for mean-square stabilizability.

[A, C; B, D] is L2-stabilizable iff the ARE

    P A + A'P + C'P C + I - (P B + C'P D)(I + D'P D)^{-1}(B'P + D'P C) = 0

has a positive definite solution, in which case

    Gamma = -(I + D'P D)^{-1} (B'P + D'P C)

is a stabilizer.  The solution is obtained as the stationary limit of the
unit-weight Riccati flow started from zero, which converges (increasing in
the semidefinite order) exactly when the system is stabilizable and blows up
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InternalInconsistencyError,
    LyapunovUnsolvableError,
    UnsupportedInputError,
)
from .linalg import fro, is_pd, is_psd, symmetrize
from .riccati import CostWeights, FlowConfig, RiccatiFlow, integrate_riccati_flow
from .stability import ControlledSystem, is_stabilizer, solve_lyapunov

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
    flow_status: str               # 'converged' | 'diverged' | 'max-horizon' | 'static'
    residual: float | None         # ARE residual at P; the Lyapunov one without control
    flow: RiccatiFlow | None


def stabilizability_report(
    sys: ControlledSystem, cfg: FlowConfig | None = None
) -> StabilizabilityReport:
    """Decide stabilizability of [A, C; B, D] and produce a stabilizer.

    On a converged flow, ``residual`` is the flow's ``derivative_norm``: the
    right-hand side at the limit is the unit-weight ARE residual, below
    ``cfg.stat_tol * (1 + ||P||)``.  With no control authority the ARE is the
    Lyapunov equation, and ``residual`` is ||P A + A'P + C'P C + I|| for the P
    solved.  It is None when the system is classified not stabilizable.

    A 'max-horizon' flow status means the flow neither settled nor blew up
    within the horizon cap; such systems are classified not stabilizable,
    which can misclassify marginally stabilizable ones (hence the status is
    surfaced here).
    """
    cfg = cfg or FlowConfig()
    n, m = sys.n, sys.m

    if not sys.B.any() and not sys.D.any():
        # No control authority: stabilizability degenerates to stability.
        # This is is_l2_stable's test, keeping its certificate P for the report.
        try:
            P = solve_lyapunov(sys.pair(), np.eye(n))
        except LyapunovUnsolvableError:
            return StabilizabilityReport(False, None, None, "static", None, None)
        residual = fro(P @ sys.A + sys.A.T @ P + sys.C.T @ P @ sys.C + np.eye(n))
        return StabilizabilityReport(True, np.zeros((m, n)), P, "static", residual, None)

    w = CostWeights(np.eye(n), np.zeros((m, n)), np.eye(m))
    flow = integrate_riccati_flow(sys, w, np.zeros((n, n)), cfg)
    if flow.status != "converged":
        return StabilizabilityReport(False, None, None, flow.status, None, flow)

    # convergence certifies the ARE residual and I + D'PD > 0; it does not
    # certify P > 0 or that the gain stabilizes, so those are checked here
    P = symmetrize(flow.values[-1])
    if not is_pd(P):
        raise InternalInconsistencyError("converged flow value is not positive definite")
    N = np.eye(m) + sys.D.T @ P @ sys.D
    L = P @ sys.B + sys.C.T @ P @ sys.D
    gamma = -np.linalg.solve(N, L.T)
    if not is_stabilizer(sys, gamma):
        raise InternalInconsistencyError("computed gain failed the stabilizer check")
    return StabilizabilityReport(True, gamma, P, flow.status, flow.derivative_norm, flow)


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
