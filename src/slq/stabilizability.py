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
reaches is the unique positive one, the flow's limit.  For n = m = 1
neither runs: the gain of the solution has a closed form, and when it is
refused no gain is stabilizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistencyError, UnsupportedInputError
from .riccati import CostWeights, FlowConfig, _stabilizing_limit
from .stability import ControlledSystem

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
    flow_status: str               # 'certified' | 'converged' | 'diverged' | 'max-horizon';
                                   # 'certified' | 'refuted' | 'unsettled' when n = m = 1
    residual: float | None         # ARE residual at P
    flow_steps: int                # accepted steps of the unit-weight flow
    newton_steps: int              # Newton-Kleinman steps after the first certified gain


def stabilizability_report(
    sys: ControlledSystem, cfg: FlowConfig | None = None
) -> StabilizabilityReport:
    """Decide stabilizability of [A, C; B, D] and produce a stabilizer.

    The unit-weight flow from 0 runs until a checkpoint certifies its gain
    (status 'certified') or it converges ('converged'); Newton-Kleinman
    finishes from there and the gain of its limit P is certified once, with
    P as its Lyapunov witness.  'diverged' or 'max-horizon' classify the
    system as not stabilizable.  ``residual`` is the norm of the unit-weight
    ARE residual at P, below ``cfg.stat_tol * (1 + ||P||)``, or None when
    the system is classified not stabilizable.  With no control authority
    (B = D = 0) the same route decides stability: every checked gain is 0,
    the ARE is the Lyapunov equation P A + A'P + C'P C + I = 0, and a pair
    that is not stable makes the flow diverge or hit its horizon cap.

    A flow that would settle only after the horizon cap is still found
    stabilizable once one of its checked gains is certified.  A flow ends
    'max-horizon' only when none was by the cap; the system is then
    classified not stabilizable, which can misclassify a marginally
    stabilizable one (hence the status is surfaced here).

    For n = m = 1 neither runs: one closed-form gain is checked, whose rate
    is negative exactly when some gain's is.  Certified, it is gamma and its
    value P, whose residual has no bound; refused ('refuted') or with a value
    that overflows ('unsettled'), the system is classified not stabilizable.
    """
    cfg = cfg or FlowConfig()
    n, m = sys.n, sys.m
    w = CostWeights(np.eye(n), np.zeros((m, n)), np.eye(m))
    P, gamma, residual, route = _stabilizing_limit(sys, w, cfg)
    steps = (route["flow_steps"], route["newton_steps"])
    if P is None:
        return StabilizabilityReport(False, None, None, route["status"], None, *steps)
    # the limit's residual, I + D'PD > 0 and its gain are certified; P > 0
    # follows from Q = I for a certified gain, and a Cholesky factor checks
    # exactly that: a margin relative to ||P|| would refuse a correct P that
    # is ill-conditioned, as near-marginal pairs give
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise InternalInconsistencyError(
            "the unit-weight ARE solution is not positive definite") from None
    return StabilizabilityReport(True, gamma, P, route["status"], residual, *steps)


def find_stabilizer(sys: ControlledSystem, cfg: FlowConfig | None = None) -> np.ndarray | None:
    """Return a stabilizer of [A, C; B, D], or None when there is none."""
    return stabilizability_report(sys, cfg).gamma


def check_sa_condition(sys: ControlledSystem) -> bool:
    """The block criterion of non-stabilizability, exact for n = 1.

    For n = 1 the closed-loop rate of a gain t (1 x m) is
    (2A + C^2) + 2 (B + CD) t' + t D'D t', and no gain makes it negative, so
    that [A, C; B, D] is not L2-stabilizable, exactly when

        [[2A + C^2, B + CD], [B' + CD', D'D]]  is positive semidefinite

    (Ait Rami & Zhou, IEEE TAC 45, 2000).  It is tested exactly, in
    Fractions of the entries' binary values.
    """
    from fractions import Fraction      # off the import path of the CLI

    if sys.n != 1:
        raise UnsupportedInputError("the block criterion is defined for n = 1 only")
    A, C = Fraction(sys.A[0, 0]), Fraction(sys.C[0, 0])
    D = [Fraction(v) for v in sys.D[0]]
    row = [Fraction(b) + C * d for b, d in zip(sys.B[0], D)]
    block = [[2 * A + C * C, *row]] + [[r, *(di * dj for dj in D)] for r, di in zip(row, D)]
    # a symmetric M is PSD iff its largest diagonal entry p is positive and
    # the Schur complement of p is PSD, or p = 0 and M = 0
    while block:
        k = max(range(len(block)), key=lambda i: block[i][i])
        p = block[k][k]
        if p <= 0:
            return p == 0 and not any(any(line) for line in block)
        block = [[block[i][j] - block[i][k] * block[k][j] / p
                  for j in range(len(block)) if j != k] for i in range(len(block)) if i != k]
    return True
