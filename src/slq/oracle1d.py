"""Closed-form solver for the scalar problem (n = m = 1).

The scalar generalized ARE splits into explicit cases after normalizing the
control direction (rescale u so that B = 1 when D = 0, or D = 1 otherwise;
the value P is invariant and gains map back through the same factor):

* D = 0:  the ARE is P(2A + C^2) + Q - R^+ (P + S)^2 = 0, with subcases by
  the sign of R; for R > 0 solvability is governed by the discriminant
  Sigma = R(2A+C^2)^2 - 4S(2A+C^2) + 4Q > 0.
* D = 1:  with alpha = (B+C)^2 - (2A+C^2) > 0 (equivalent to
  stabilizability), beta = Q - (2A+C^2)R + 2(B+C)[(B+C)R - S] and
  gamma = [(B+C)R - S]^2, the substitution y = R + P turns the ARE into
  alpha y^2 - beta y + gamma = 0, y > 0.  The degenerate solution P = -R
  exists exactly when Q = (2A+C^2)R and S = (B+C)R; otherwise the problem is
  solvable iff beta > 0 and beta^2 - 4 alpha gamma > 0, with the static
  stabilizing root y2 = (beta + sqrt(beta^2 - 4 alpha gamma)) / (2 alpha).

Used both standalone and as the ground-truth oracle for the matrix pipeline.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field

from .errors import NotStabilizableError, UnsupportedInputError
from .stability import SystemPair, is_l2_stable

__all__ = [
    "CaseReport",
    "Oracle1dResult",
    "StrategySet",
    "classify_1d_cases",
    "solve_1d",
]

#: Relative tolerance for the exact-degeneracy tests Q = (2A+C^2)R, S = (B+C)R.
DEGENERACY_RTOL = 1e-12

#: Window inside which a near-degenerate input triggers a dual report.
NEAR_DEGENERACY_RTOL = 1e-9

# The normalization by 1/D (or 1/B) inflates coefficients when the scale is
# small, and the discriminants beta^2 - 4 alpha gamma then cancel
# catastrophically in doubles even though the underlying problem is well
# conditioned.  Each float input is therefore read as its exact binary value,
# an integer over a power of two L common to all seven, and the normalization
# is cleared by multiplying through by powers of L and of B or D: every
# quantity is an integer numerator over a known positive denominator, every
# decision is the sign of an integer polynomial, and only the final square
# roots are taken, at 60 digits.  A reported float is the numerator divided
# by its denominator, correctly rounded, or +-inf beyond the float range; a
# 60-digit Decimal is likewise the correctly rounded quotient, so both depend
# on the rational value alone.
_PREC = 60

# The tolerances' exact binary values, as (numerator, denominator).
_DEGENERACY = DEGENERACY_RTOL.as_integer_ratio()
_NEAR_DEGENERACY = NEAR_DEGENERACY_RTOL.as_integer_ratio()


def _dec(num: int, den: int) -> decimal.Decimal:
    """num / den (den > 0), correctly rounded in the current decimal context."""
    return decimal.Decimal(num) / decimal.Decimal(den)


def _ratio(num: int, den: int) -> float:
    """num / den (den > 0) correctly rounded, +-inf beyond the float range."""
    try:
        return num / den
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def _rel_close(x: int, y: int, den: int, rtol: tuple[int, int]) -> bool:
    """|x - y| <= rtol (1 + |x| + |y|) for the rationals x/den and y/den, den > 0."""
    num, rden = rtol
    return abs(x - y) * rden <= num * (den + abs(x) + abs(y))


def _integers(values) -> tuple[int, list[int]]:
    """Finite floats as integer numerators over their common power of two."""
    ratios = [v.as_integer_ratio() for v in values]
    L = max(den for _, den in ratios)
    return L, [n * (L // den) for n, den in ratios]


@dataclass
class StrategySet:
    """A closed-loop strategy: one gain, or a set of gains with free affine term.

    kind 'point': the unique optimal gain ``theta`` with v = 0.
    kind 'interval': every theta with |theta - center| < radius is optimal,
    with arbitrary square-integrable v; ``theta`` is the midpoint.
    kind 'half-line': every theta strictly on ``side`` of ``bound`` is
    optimal with arbitrary v; ``theta`` is a canonical interior point.
    """

    kind: str
    theta: float
    v_free: bool = False
    center: float | None = None
    radius: float | None = None
    bound: float | None = None
    side: str | None = None

    def contains(self, theta: float, margin: float = 0.0) -> bool:
        if self.kind == "point":
            return abs(theta - self.theta) <= margin
        if self.kind == "interval":
            return abs(theta - self.center) < self.radius + margin
        if self.side == "below":
            return theta < self.bound + margin
        return theta > self.bound - margin


@dataclass
class Oracle1dResult:
    """Closed-form outcome: case label, solution P, and the strategy set.

    Case labels name the branch taken: D0-R-negative / D0-R-zero /
    D0-R-positive for the noise-free-control branch, D1-degenerate /
    D1-case-ii / D1-case-iii / D1-case-iv for the noisy one, plus
    'unsolvable' (noisy branch, none of the solvability cases holds) and
    'not-stabilizable'.  ``solvable`` is authoritative: the D0-* labels also
    cover the unsolvable outcomes of their branch.
    """

    case: str
    solvable: bool
    P: float | None = None
    strategy: StrategySet | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    Sigma: float | None = None
    Delta: float | None = None
    diagnostics: dict = field(default_factory=dict)


@dataclass
class CaseReport:
    """Evaluation of every solvability inequality of the noisy branch."""

    alpha: float
    beta: float
    gamma: float
    Delta: float
    two_a_c2: float
    degenerate: bool
    case_ii_applies: bool
    case_iii_applies: bool
    case_iv_applies: bool
    threshold_ii: float | None
    threshold_iii: float | None
    threshold_iv: float | None
    reformulation_holds: bool     # beta > 0 and beta^2 - 4 alpha gamma > 0
    case: str | None              # which case (if any) holds


def _is_stabilizable_1d(L: int, a: int, c: int, b: int, d: int) -> bool:
    # (2A + C^2) D^2 < (B + CD)^2, multiplied through by L^4
    return (2 * a * L + c * c) * d * d < (b * L + c * d) ** 2


def _solve_d0(L, a, c, b, q, s, r, scale_k: float) -> Oracle1dResult:
    """Branch D = 0, normalized to B = 1; gains are divided by scale_k on return.

    The normalized data depend on b only through S/B and R/B^2, so b is made
    positive.  Then 2A + C^2 = g/L^2, S/B = s/b, R/B^2 = rL/b^2 and Q = q/L.
    """
    if b < 0:
        b, s = -b, -s
    g = 2 * a * L + c * c
    L2 = L * L
    if r < 0:
        return Oracle1dResult("D0-R-negative", False,
                              diagnostics={"detail": "negative control weight"})
    if r == 0:
        # Q = S (2A + C^2), both over b L^2
        solvable = _rel_close(q * b * L, s * g, b * L2, _DEGENERACY)
        if not solvable:
            return Oracle1dResult("D0-R-zero", False,
                                  diagnostics={"detail": "requires Q = S(2A+C^2)"})
        # half = -(2A + C^2)/2 bounds the half-line; its canonical point is half - 1
        strategy = _half_line(-g, -g - 2 * L2, 2 * L2, scale_k)
        return Oracle1dResult("D0-R-zero", True, P=_ratio(-s, b), strategy=strategy)
    b2 = b * b
    # Sigma = R (2A+C^2)^2 - 4 S (2A+C^2) + 4 Q = sigma / (b^2 L^3)
    sigma = r * g * g - 4 * s * g * b * L + 4 * q * b2 * L2
    if sigma <= 0:
        return Oracle1dResult("D0-R-positive", False, Sigma=_ratio(sigma, b2 * L2 * L),
                              diagnostics={"detail": "discriminant not positive"})
    # a sum whose terms would cancel is the exact product of it and its
    # partner over the partner: the roots (mid +- sqrt(R Sigma)) / 2 multiply
    # to S^2 - RQ, and -(2A + C^2 +- sqrt(Sigma / R)) / 2 to (S (2A + C^2) - Q) / R
    with decimal.localcontext() as ctx:
        ctx.prec = _PREC
        sq_delta = _dec(r * sigma, b2 * b2 * L2).sqrt()      # sqrt(R Sigma)
        mid = _dec(g * r - 2 * s * b * L, L * b2)            # (2A+C^2) R - 2S
        product = _dec(s * s - r * q, b2)                    # S^2 - R Q
        root = (mid + sq_delta if mid >= 0 else mid - sq_delta) / 2
        P, rejected = (root, product / root) if mid >= 0 else (product / root, root)
        rate, sq_rate = _dec(g, L2), _dec(sigma, r * L2 * L2).sqrt()
        theta_norm = (-(rate + sq_rate) / 2 if g > 0 else
                      _dec(2 * b * (s * g - q * b * L), r * L2 * L) / (sq_rate - rate))
        theta = float(theta_norm / decimal.Decimal(scale_k))
    strategy = StrategySet("point", theta)
    result = Oracle1dResult("D0-R-positive", True, P=float(P), strategy=strategy,
                            Sigma=_ratio(sigma, b2 * L2 * L),
                            Delta=_ratio(r * sigma, b2 * b2 * L2))
    result.diagnostics["rejected_root"] = float(rejected)
    return result


def _half_line(bound: int, theta: int, den: int, k: float) -> StrategySet:
    # {theta' < bound/den} maps to {theta < bound/(den k)} for k > 0 and flips for k < 0.
    side = "below" if k > 0 else "above"
    return StrategySet("half-line", _ratio(theta, den) / k, v_free=True,
                       bound=_ratio(bound, den) / k, side=side)


class _Noisy:
    """Branch D != 0 normalized to D = 1, as integer numerators.

    The normalized data depend on b, s and d only through B/D, S/D and
    R/D^2, so d is made positive.  Then, with the inputs over L,
    2A + C^2 = g/L^2, B/D + C = u/(L d), (B/D + C) R/D^2 - S/D = w/d^3 and
    gamma = w^2/d^6; ``alpha``, ``beta`` and ``Delta`` are the numerators of
    alpha over L^2 d^2, beta over L d^4 and Delta over L^2 d^8.
    """

    __slots__ = ("L", "d", "q", "s", "r", "g", "u", "w", "alpha", "beta", "Delta")

    def __init__(self, L, a, c, b, d, q, s, r):
        if d < 0:
            b, d, s = -b, -d, -s
        d2 = d * d
        self.L, self.d, self.q, self.s, self.r = L, d, q, s, r
        self.g = g = 2 * a * L + c * c
        self.u = u = b * L + c * d
        self.w = w = u * r - s * d2
        self.alpha = alpha = u * u - g * d2
        self.beta = beta = (q * d2 - g * r) * d2 + 2 * u * w
        self.Delta = beta * beta - 4 * alpha * w * w

    def floats(self) -> tuple[float, float, float, float]:
        """alpha, beta, gamma and Delta, each correctly rounded."""
        L2, d2 = self.L * self.L, self.d * self.d
        d4 = d2 * d2
        return (_ratio(self.alpha, L2 * d2), _ratio(self.beta, self.L * d4),
                _ratio(self.w * self.w, d4 * d2), _ratio(self.Delta, L2 * d4 * d4))

    def degenerate(self, rtol: tuple[int, int]) -> bool:
        """Q = (2A + C^2) R (over L d^2) and S = (B + C) R (over d^3), within rtol."""
        L, d, r = self.L, self.d, self.r
        d2 = d * d
        return (_rel_close(self.q * d2, self.g * r, L * d2, rtol)
                and _rel_close(self.s * d2, self.u * r, d2 * d, rtol))


def _classify_d1(t: _Noisy) -> CaseReport:
    if t.alpha <= 0:
        raise NotStabilizableError("alpha <= 0: the scalar system has no stabilizer")
    L, d, g, u, q, s, r = t.L, t.d, t.g, t.u, t.q, t.s, t.r
    d2 = d * d
    degenerate = t.degenerate(_DEGENERACY)

    thr_ii = thr_iii = thr_iv = None
    case_ii = case_iii = case_iv = False
    with decimal.localcontext() as ctx:
        ctx.prec = _PREC
        if g != 0:
            sq = _dec(t.alpha, L * L * d2).sqrt()
            bc = _dec(u, L * d)
            S, Q = _dec(s, d), _dec(q, L)
            # (bc - sq)(bc + sq) = 2A + C^2: the factor that cancels is the
            # quotient by the one that does not
            if u > 0:
                den_p = bc + sq
                den_m = _dec(g, L * L) / den_p
            else:
                den_m = bc - sq
                den_p = _dec(g, L * L) / den_m
            thr_ii = (2 * den_m * S - Q) / (den_m * den_m)
            thr_iii = (2 * den_p * S - Q) / (den_p * den_p)
            # (2A + C^2) S >= (B + C) Q, both over L^2 d
            if g * s >= u * q:
                case_ii = _dec(r * L, d2) > thr_ii
            else:
                case_iii = _dec(r * L, d2) > thr_iii
        else:
            # threshold (4 (B+C) S - Q) / (4 (B+C)^2); R above it, times 4 u^2 d^2 / L
            thr_iv = _ratio(L * (4 * u * s - q * d2), 4 * u * u)
            case_iv = q > 0 and 4 * r * u * u > d2 * (4 * u * s - q * d2)

    reformulation = t.beta > 0 and t.Delta > 0
    case = None
    if case_ii:
        case = "D1-case-ii"
    elif case_iii:
        case = "D1-case-iii"
    elif case_iv:
        case = "D1-case-iv"
    return CaseReport(*t.floats(), _ratio(g, L * L), degenerate, case_ii, case_iii, case_iv,
                      None if thr_ii is None else float(thr_ii),
                      None if thr_iii is None else float(thr_iii),
                      thr_iv, reformulation, case)


def _solve_d1(t: _Noisy, scale_k: float) -> Oracle1dResult:
    """Normalized branch D = 1; gains are divided by scale_k on return."""
    L, d, u, r = t.L, t.d, t.u, t.r
    d2 = d * d
    if t.degenerate(_DEGENERACY):
        alpha, beta, gamma, Delta = t.floats()
        center = _ratio(-u, L * d) / scale_k
        strategy = StrategySet("interval", center, v_free=True, center=center,
                               radius=math.sqrt(alpha) / abs(scale_k))
        return Oracle1dResult("D1-degenerate", True, P=_ratio(-r * L, d2), strategy=strategy,
                              alpha=alpha, beta=beta, gamma=gamma, Delta=Delta)

    report = _classify_d1(t)
    diagnostics: dict = {"case_report": report}
    if t.degenerate(_NEAR_DEGENERACY):
        diagnostics["near_degenerate"] = {
            "degenerate_P": _ratio(-r * L, d2),
            "degenerate_center": _ratio(-u, L * d) / scale_k,
            "degenerate_radius": math.sqrt(report.alpha) / abs(scale_k),
        }
    if not report.reformulation_holds:
        return Oracle1dResult("unsolvable", False, alpha=report.alpha,
                              beta=report.beta, gamma=report.gamma,
                              Delta=report.Delta, diagnostics=diagnostics)

    with decimal.localcontext() as ctx:
        ctx.prec = _PREC
        d4 = d2 * d2
        sq_delta = _dec(t.Delta, L * L * d4 * d4).sqrt()
        two_alpha = 2 * _dec(t.alpha, L * L * d2)
        beta = _dec(t.beta, L * d4)
        y2 = (beta + sq_delta) / two_alpha
        y1 = (beta - sq_delta) / two_alpha
        bc, gain = _dec(u, L * d), _dec(t.w, d2 * d)       # B + C and (B + C) R - S
        # P = y2 - R = (X + sqrt(Delta)) / (2 alpha), X = beta - 2 alpha R over L d^4, and
        # gain / y2 - bc = (Y - bc sqrt(Delta)) / (beta + sqrt(Delta)), Y = 2 alpha gain -
        # bc beta over L^2 d^5; where terms cancel, X^2 - Delta and Y^2 - bc^2 Delta are exact
        x, y = t.beta - 2 * t.alpha * r, 2 * t.alpha * t.w - u * t.beta
        X, Y, bc_sq = _dec(x, L * d4), _dec(y, L * L * d4 * d), bc * sq_delta
        P = ((X + sq_delta) / two_alpha if x >= 0 else
             _dec(x * x - t.Delta, (L * d4) ** 2) / (two_alpha * (X - sq_delta)))
        theta_norm = (Y - bc_sq if y * u <= 0 else
                      _dec(y * y - u * u * t.Delta, (L * L * d4 * d) ** 2) / (Y + bc_sq))
        theta = float(theta_norm / ((beta + sq_delta) * decimal.Decimal(scale_k)))
        rejected = None if y1 <= 0 else gain / y1 - bc
    diagnostics["roots_y"] = (float(y1), float(y2))
    if rejected is not None:
        diagnostics["rejected_theta"] = float(rejected)
    case = report.case or "unsolvable"
    return Oracle1dResult(case, True, P=float(P),
                          strategy=StrategySet("point", theta),
                          alpha=report.alpha, beta=report.beta, gamma=report.gamma,
                          Delta=report.Delta, diagnostics=diagnostics)


def solve_1d(A: float, C: float, B: float, D: float,
             Q: float, S: float, R: float) -> Oracle1dResult:
    """Solve the scalar homogeneous problem in closed form.

    Requires control authority (B != 0 or D != 0); a system with none falls
    outside the classification and raises :class:`UnsupportedInputError`
    with the stability verdict of [A, C] attached.
    """
    A, C, B, D, Q, S, R = map(float, (A, C, B, D, Q, S, R))
    if B == 0.0 and D == 0.0:
        stable = is_l2_stable(SystemPair([[A]], [[C]]))
        raise UnsupportedInputError(
            "no control authority (B = D = 0); "
            f"[A, C] is {'L2-stable' if stable else 'not L2-stable'}"
        )
    L, ints = _integers((A, C, B, D))
    if not _is_stabilizable_1d(L, *ints):
        return Oracle1dResult("not-stabilizable", False)
    L, (a, c, b, d, q, s, r) = _integers((A, C, B, D, Q, S, R))
    if D == 0.0:
        # Rescale u -> B u so the control enters the drift with coefficient 1.
        return _solve_d0(L, a, c, b, q, s, r, scale_k=B)
    return _solve_d1(_Noisy(L, a, c, b, d, q, s, r), scale_k=D)


def classify_1d_cases(A: float, C: float, B: float, D: float,
                      Q: float, S: float, R: float) -> CaseReport:
    """Report every solvability inequality of the noisy scalar branch.

    Normalizes to D = 1 first; raises :class:`NotStabilizableError` when
    alpha <= 0 and :class:`UnsupportedInputError` when D = 0.
    """
    A, C, B, D, Q, S, R = map(float, (A, C, B, D, Q, S, R))
    if D == 0.0:
        raise UnsupportedInputError("case classification applies to the D != 0 branch")
    L, ints = _integers((A, C, B, D, Q, S, R))
    return _classify_d1(_Noisy(L, *ints))
