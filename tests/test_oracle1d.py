import dataclasses
import decimal
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from slq.errors import NotStabilizableError, UnsupportedInputError
from slq.oracle1d import classify_1d_cases, solve_1d


def test_regular_control_weight_case():
    res = solve_1d(0, 0, 1, 0, 1, 0, 1)
    assert res.case == "D0-R-positive" and res.solvable
    assert res.Sigma == pytest.approx(4.0)
    assert res.P == pytest.approx(1.0)
    assert res.strategy.kind == "point"
    assert res.strategy.theta == pytest.approx(-1.0)


@pytest.mark.parametrize("D", [1e-20, 1e-30, 1e-100, 1e-300, 2.0 ** -1022])
def test_a_small_noise_coefficient_keeps_p_and_theta(D):
    # R / D^2 dwarfs P: the stabilizing root y2 of the reduced quadratic is
    # R / D^2 + P, and y2 - R / D^2 used to cancel all 60 digits.  As D -> 0
    # the problem tends to 2AP + Q - P^2 / R = 0 with gain -P, and Theta is
    # 1 - sqrt(2) correctly rounded: the gain of the problem normalized to
    # D = 1 is divided by D before its one rounding, which dividing the
    # rounded gain by D would miss by an ulp
    res = solve_1d(-1, 0, 1, D, 1, 0, 1)
    assert res.solvable
    assert res.P == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-15)
    assert res.strategy.theta == -0.41421356237309503


def test_degenerate_noisy_case():
    res = solve_1d(-1, 0, 0, 1, -2, 0, 1)
    assert res.case == "D1-degenerate" and res.solvable
    assert res.P == pytest.approx(-1.0)
    assert res.strategy.kind == "interval"
    assert res.strategy.center == pytest.approx(0.0)
    assert res.strategy.radius == pytest.approx(np.sqrt(2.0))
    assert res.strategy.v_free


def test_zero_control_weight_case():
    res = solve_1d(0, 0, 1, 0, 0, 0, 0)
    assert res.case == "D0-R-zero" and res.solvable
    assert res.strategy.kind == "half-line"
    assert res.strategy.side == "below" and res.strategy.bound == pytest.approx(0.0)
    assert res.strategy.v_free


def test_zero_control_weight_unsolvable():
    res = solve_1d(0, 0, 1, 0, 1.0, 0, 0)  # Q != S(2A + C^2)
    assert res.case == "D0-R-zero" and not res.solvable


def test_negative_control_weight():
    res = solve_1d(-1, 0, 1, 0, 1, 0, -0.5)
    assert res.case == "D0-R-negative" and not res.solvable


def test_discriminant_boundary_is_unsolvable():
    # Sigma = 4Q = 0 exactly: strict inequality fails
    res = solve_1d(0, 0, 1, 0, 0.0, 1.0, 1.0)
    assert res.case == "D0-R-positive" and not res.solvable
    assert res.Sigma == pytest.approx(0.0)


def test_not_stabilizable():
    res = solve_1d(1, 0, 0, 0.1, 1, 0, 1)  # (2A + C^2) D^2 >= (B + CD)^2
    assert res.case == "not-stabilizable" and not res.solvable


def test_no_control_authority():
    with pytest.raises(UnsupportedInputError):
        solve_1d(-1, 0, 0, 0, 1, 0, 1)


def test_minimum_energy_case():
    res = solve_1d(1, 0, 1, 0, 0, 0, 1)
    assert res.solvable and res.P == pytest.approx(2.0)
    assert res.strategy.theta == pytest.approx(-2.0)


def test_case_ii_threshold():
    rep = classify_1d_cases(-1, 0, 0, 1, 1, 0, 1)
    assert rep.case == "D1-case-ii"
    assert rep.threshold_ii == pytest.approx(-0.5)
    assert rep.reformulation_holds
    res = solve_1d(-1, 0, 0, 1, 1, 0, 1)
    assert res.case == "D1-case-ii" and res.solvable


def test_case_iii_instance():
    # (2A + C^2) S < (B + C) Q with S > 0, Q > 0
    rep = classify_1d_cases(-1, 0, 0, 1, 1, 0.5, 1)
    assert rep.case == "D1-case-iii"
    res = solve_1d(-1, 0, 0, 1, 1, 0.5, 1)
    assert res.case == "D1-case-iii" and res.solvable


def test_case_iv_threshold():
    rep = classify_1d_cases(0, 0, 1, 1, 1, 0, 1)
    assert rep.case == "D1-case-iv"
    assert rep.threshold_iv == pytest.approx(-0.25)
    res = solve_1d(0, 0, 1, 1, 1, 0, 1)
    assert res.case == "D1-case-iv" and res.solvable


def test_classify_rejects_drift_only_branch():
    with pytest.raises(UnsupportedInputError):
        classify_1d_cases(0, 0, 1, 0, 1, 0, 1)


def test_classify_not_stabilizable():
    with pytest.raises(NotStabilizableError):
        classify_1d_cases(1, 0, 0, 1, 1, 0, 1)


def test_root_discrimination():
    res = solve_1d(-1, 0, 0, 1, 1, -0.5, 1)
    assert res.solvable
    y1, y2 = res.diagnostics["roots_y"]
    assert 0 < y1 < y2
    assert res.P == pytest.approx(y2 - 1.0)
    # the rejected gain violates the stabilizer bound |theta + B + C| < sqrt(alpha)
    rejected = res.diagnostics["rejected_theta"]
    assert abs(rejected + 0.0) >= np.sqrt(res.alpha)
    assert abs(res.strategy.theta + 0.0) < np.sqrt(res.alpha)


def test_case_threshold_whose_denominator_cancels():
    # B/D + C = -2.5e150 + 3 and 2A + C^2 = 12, so bc + sqrt(alpha) is about
    # 12 / (2 bc), far below the 60-digit resolution of bc; it is computed
    # as (2A + C^2) / (bc - sqrt(alpha)), its exact equal
    args = (1.5, 3.0, -2.5, 1e-150, -15.00000000015, 3.125, -1.25e-300)
    _check_decisions(args)
    report = classify_1d_cases(*args)
    assert report.case_iii_applies is False and report.case is None
    with decimal.localcontext() as ctx:
        ctx.prec = 400              # enough for the cancellation done directly
        A, C, B, D, Q, S, R = map(decimal.Decimal, args)
        bc = B / D + C
        den = bc + (bc * bc - 2 * A - C * C).sqrt()
        want = (2 * den * S / D - Q) / (den * den)
    assert report.threshold_iii == pytest.approx(float(want), rel=1e-12)
    assert solve_1d(*args).diagnostics["case_report"] == report


def test_values_beyond_the_float_range_are_infinite():
    # D = 2^-1022: alpha = (B/D + C)^2 - (2A + C^2) is about 2e615
    args = (-1.0, 0.0, 1.0, 2.2250738585072014e-308, 1.0, 0.0, 1.0)
    _check_decisions(args)
    res = solve_1d(*args)
    assert res.alpha == res.beta == res.gamma == res.Delta == math.inf


def test_scaling_consistency(rng):
    # (B, D) -> (kB, kD) with u -> u/k describes the same functional when the
    # control weights co-scale as (kS, k^2 R); P is invariant, gains divide by k
    for _ in range(40):
        A, C, B, D, Q, S, R = rng.uniform(-3, 3, 7)
        base = solve_1d(A, C, B, D, Q, S, R)
        k = rng.choice([-2.0, 0.5, 3.0])
        scaled = solve_1d(A, C, k * B, k * D, Q, k * S, k * k * R)
        assert scaled.solvable == base.solvable
        assert scaled.case == base.case
        if base.solvable:
            assert scaled.P == pytest.approx(base.P, abs=1e-9, rel=1e-9)
            if base.strategy.kind == "point":
                assert scaled.strategy.theta == pytest.approx(base.strategy.theta / k,
                                                              abs=1e-9, rel=1e-9)


def test_negative_drift_gain_flips_half_line():
    res = solve_1d(0, 0, -2.0, 0, 0, 0, 0)
    assert res.solvable and res.strategy.kind == "half-line"
    assert res.strategy.side == "above"
    assert res.strategy.contains(res.strategy.theta)


def test_interval_midpoint_is_member():
    res = solve_1d(-1, 0, 0, 1, -2, 0, 1)
    assert res.strategy.contains(res.strategy.theta)
    assert not res.strategy.contains(res.strategy.center + 2 * res.strategy.radius)


# ----------------------------------------------------------------------
# Recorded outputs: every field of solve_1d and classify_1d_cases, floats as
# float.hex, exceptions by type and message, on fixed inputs that cover each
# case label, inputs exactly on a boundary in binary ((B + CD)^2 =
# (2A + C^2) D^2, Sigma = 0, Delta = 0, Q = (2A + C^2) R), extreme scales,
# subnormal and signed-zero coefficients, and non-finite inputs.

_RECORDED = json.loads((Path(__file__).parent / "oracle1d_recorded.json").read_text())


def _canon(x):
    if isinstance(x, float):
        return x.hex()
    if dataclasses.is_dataclass(x):
        return {f.name: _canon(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_canon(v) for v in x]
    assert x is None or isinstance(x, (str, bool)), type(x)
    return x


def _outcome(fn, args):
    try:
        return _canon(fn(*args))
    except Exception as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}


def test_recorded_inputs_cover_every_outcome():
    labels = {(c["solve_1d"].get("case"), c["solve_1d"].get("solvable")) for c in _RECORDED}
    assert {("D0-R-negative", False), ("D0-R-zero", True), ("D0-R-zero", False),
            ("D0-R-positive", True), ("D0-R-positive", False), ("D1-degenerate", True),
            ("D1-case-ii", True), ("D1-case-iii", True), ("D1-case-iv", True),
            ("unsolvable", False), ("not-stabilizable", False)} <= labels
    raised = {c["solve_1d"].get("raises") for c in _RECORDED}
    assert {"UnsupportedInputError", "ValueError", "OverflowError"} <= raised
    assert any("near_degenerate" in c["solve_1d"].get("diagnostics", {}) for c in _RECORDED)


@pytest.mark.parametrize("case", _RECORDED, ids=[str(i) for i in range(len(_RECORDED))])
def test_outputs_match_the_recorded_bits(case):
    args = [float.fromhex(v) for v in case["inputs"]]
    assert _outcome(solve_1d, args) == case["solve_1d"]
    assert _outcome(classify_1d_cases, args) == case["classify_1d_cases"]


# ----------------------------------------------------------------------
# Decisions against a direct Fraction evaluation of the classification.

def _close(x: Fraction, y: Fraction, rtol: float) -> bool:
    return abs(x - y) <= Fraction(rtol) * (1 + abs(x) + abs(y))


def _reference(A, C, B, D, Q, S, R) -> dict:
    """Case, verdict and inequalities in plain Fraction arithmetic; ``reported``
    lists the values the oracle converts to floats on that branch."""
    a, c, b, d, q, s, r = map(Fraction, (A, C, B, D, Q, S, R))
    a2 = 2 * a + c * c
    if a2 * d * d >= (b + c * d) ** 2:
        return {"case": "not-stabilizable", "solvable": False, "reported": []}
    if d == 0:
        s, r = s / b, r / (b * b)
        if r < 0:
            return {"case": "D0-R-negative", "solvable": False, "reported": []}
        if r == 0:
            return {"case": "D0-R-zero", "solvable": _close(q, s * a2, 1e-12),
                    "reported": [s, a2 / 2 + 1, a2 / 2]}
        sigma = r * a2 * a2 - 4 * s * a2 + 4 * q
        return {"case": "D0-R-positive", "solvable": sigma > 0,
                "reported": [sigma, r * sigma]}
    bc, s, r = b / d + c, s / d, r / (d * d)
    alpha = bc * bc - a2
    beta = q - a2 * r + 2 * bc * (bc * r - s)
    gamma = (bc * r - s) ** 2
    Delta = beta * beta - 4 * alpha * gamma
    degenerate = _close(q, a2 * r, 1e-12) and _close(s, bc * r, 1e-12)
    reformulation = beta > 0 and Delta > 0
    if a2 == 0:
        case = "D1-case-iv"
    else:
        case = "D1-case-ii" if a2 * s >= bc * q else "D1-case-iii"
    reported = [alpha, beta, gamma, Delta, a2, r, bc]
    if a2 == 0:
        reported.append((4 * bc * s - q) / (4 * bc * bc))
    return {"case": "D1-degenerate" if degenerate else case if reformulation else "unsolvable",
            "solvable": degenerate or reformulation, "degenerate": degenerate,
            "reformulation": reformulation,
            "classified": case if reformulation and not degenerate else None,
            "reported": reported}


def _float(x: Fraction) -> float:
    """x correctly rounded, +-inf beyond the float range: from half an ulp
    past the largest float on, where float() overflows."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _check_decisions(coeffs):
    """The oracle's decisions are the reference's, and its alpha, beta,
    gamma, Delta and 2A + C^2 are the reference's values correctly rounded,
    +-inf beyond the float range."""
    if coeffs[2] == 0.0 and coeffs[3] == 0.0:
        with pytest.raises(UnsupportedInputError):
            solve_1d(*coeffs)
        return
    ref = _reference(*coeffs)
    res = solve_1d(*coeffs)
    assert (res.case, res.solvable) == (ref["case"], ref["solvable"])
    if coeffs[3] == 0.0:
        with pytest.raises(UnsupportedInputError):
            classify_1d_cases(*coeffs)
        return
    if ref["case"] == "not-stabilizable":
        with pytest.raises(NotStabilizableError):
            classify_1d_cases(*coeffs)
        return
    report = classify_1d_cases(*coeffs)
    assert (report.alpha, report.beta, report.gamma, report.Delta,
            report.two_a_c2) == tuple(map(_float, ref["reported"][:5]))
    assert report.degenerate == ref["degenerate"]
    assert report.reformulation_holds == ref["reformulation"]
    if ref["classified"] is not None:
        assert report.case == ref["classified"]
    if "case_report" in res.diagnostics:
        assert res.diagnostics["case_report"] == report


def test_decisions_match_a_fraction_reference_on_seeded_draws():
    rng = np.random.default_rng(1610)
    for _ in range(300):
        coeffs = [float(v) for v in rng.uniform(-3.0, 3.0, 7)]
        if rng.random() < 0.3:
            coeffs[3] = 0.0
        if rng.random() < 0.3:                          # small dyadics hit the boundaries
            coeffs = [float(v) / 4 for v in rng.integers(-8, 9, 7)]
        _check_decisions(coeffs)


def test_decisions_match_a_fraction_reference_on_any_finite_floats():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coeff = st.one_of(st.integers(-4, 4).map(float),
                      st.floats(allow_nan=False, allow_infinity=False))

    @hypothesis.settings(max_examples=400, deadline=None, derandomize=True)
    @hypothesis.given(st.tuples(*[coeff] * 7))
    # beta = -max - 2 lies within half an ulp of -max, so it rounds to -max
    @hypothesis.example((0.0, 0.0, 1.0, 1.0, -sys.float_info.max, 0.0, -1.0))
    def check(coeffs):
        _check_decisions(coeffs)

    check()
