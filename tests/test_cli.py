import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import slq
import slq.cli
import slq.inhomogeneous
import slq.montecarlo
import slq.riccati
import slq.stability
import slq.stabilizability
from conftest import ladder_plain_problem
from slq.cli import main


def write_problem(tmp_path, name="prob.json", **overrides):
    doc = {
        "n": 1, "m": 1,
        "A": [[0.0]], "C": [[0.0]], "B": [[1.0]], "D": [[0.0]],
        "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]],
        "x0": [1.0],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_check_stabilizable(tmp_path):
    prob = write_problem(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["check", prob, "--out", out]) == 0
    doc = read(out)
    assert doc["verdict"]["stabilizable"] is True
    assert doc["stabilizability"]["gamma"][0][0] == pytest.approx(-1.0, abs=1e-8)


def test_check_not_stabilizable(tmp_path):
    prob = write_problem(tmp_path, A=[[1.0]], B=[[0.0]])
    assert main(["check", prob, "--out", str(tmp_path / "r.json")]) == 2


def test_schema_error_dimension_mismatch(tmp_path, capsys):
    prob = write_problem(tmp_path, n=2, m=1,
                         A=[[0.0, 0.0], [0.0, 0.0]], C=[[0.0, 0.0], [0.0, 0.0]],
                         B=[[1.0], [0.0]], D=[[0.0], [0.0]],
                         S=[[0.0, 0.0]], x0=[1.0, 0.0])
    assert main(["solve", prob]) == 1
    assert "dimension mismatch: Q" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field, value, message", [
    ("A", lambda x: [[x]], "non-finite entries: A"),
    ("R", lambda x: [[x]], "non-finite entries: R"),
    ("x0", lambda x: [x], "non-finite entries: x0"),
    ("inhomogeneity", lambda x: {"grid": [0.0, 1.0], "b": [[x]]}, "b has non-finite entries"),
    ("inhomogeneity", lambda x: {"grid": [0.0, 1.0, x], "b": [[0.0], [0.0]]},
     "grid must be finite and strictly increasing"),
], ids=["A", "R", "x0", "forcing", "grid"])
def test_non_finite_problem_entries_exit_1(tmp_path, capsys, field, value, message, bad):
    prob = write_problem(tmp_path, **{field: value(bad)})
    out = tmp_path / "r.json"
    for command in ("solve", "check"):
        assert main([command, prob, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field, value, message", [
    ("A", [["a"]], "A must be a rectangular array of numbers"),
    ("Q", [[1.0, 2.0], [3.0]], "Q must be a rectangular array of numbers"),
    ("x0", ["a"], "x0 must be a rectangular array of numbers"),
    ("inhomogeneity", {"grid": [0.0, 1.0], "b": [["x"]]}, "malformed inhomogeneity block"),
], ids=["text", "ragged", "x0", "forcing"])
def test_non_numeric_problem_entries_exit_1(tmp_path, capsys, field, value, message):
    prob = write_problem(tmp_path, **{field: value})
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == 1
    assert f"error: {message}" in capsys.readouterr().err


def test_missing_file():
    assert main(["solve", "/nonexistent/prob.json"]) == 1


def test_solve_with_oracle(tmp_path):
    prob = write_problem(tmp_path)
    out = str(tmp_path / "report.json")
    assert main(["solve", prob, "--oracle", "--out", out]) == 0
    doc = read(out)
    assert doc["verdict"] == {"stabilizable": True, "solvable": True}
    assert doc["solution"]["P"][0][0] == pytest.approx(1.0, abs=1e-7)
    assert doc["solution"]["Theta"][0][0] == pytest.approx(-1.0, abs=1e-7)
    assert doc["value"]["V"] == pytest.approx(1.0, abs=1e-7)
    agree = doc["oracle_1d"]["agreement"]
    assert agree["verdicts_agree"] and agree["p_matches"] and agree["theta_matches"]


def test_solve_decides_stabilizability_once(tmp_path, monkeypatch):
    # the stabilizer found by the decision is the one the GARE solver reduces by
    calls = []
    original = slq.stabilizability.stabilizability_report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.cli, "stabilizability_report", counting)
    monkeypatch.setattr(slq.stabilizability, "stabilizability_report", counting)
    prob = write_problem(tmp_path)
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 1


def test_solve_lyapunov_budget(tmp_path, monkeypatch):
    # one stabilizability self-check, the terminal value G (which certifies
    # the reduction's Sigma) and the check of the selected feedback
    calls = []
    original = slq.stability.solve_lyapunov

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (slq, slq.cli, slq.montecarlo, slq.riccati, slq.stability,
                   slq.stabilizability):
        if getattr(module, "solve_lyapunov", None) is original:
            monkeypatch.setattr(module, "solve_lyapunov", counting)
    prob = write_problem(tmp_path, n=2, m=1,
                         A=[[0.3, 1.0], [0.0, -0.2]], C=[[0.2, 0.0], [0.1, 0.3]],
                         B=[[0.0], [1.0]], D=[[0.1], [0.0]],
                         Q=[[1.0, 0.0], [0.0, 2.0]], S=[[0.0, 0.0]], x0=[1.0, -0.5])
    out = str(tmp_path / "r.json")
    assert main(["solve", prob, "--out", out]) == 0
    assert read(out)["verdict"] == {"stabilizable": True, "solvable": True}
    assert 1 <= len(calls) <= 3


def test_inexact_newton_cuts_the_sylvester_sweeps(tmp_path, monkeypatch):
    # the stabilizer checks only certify, and Newton-Kleinman settles each
    # value to 0.01 r^2 relative: one n = 8, m = 4 solve made 133 triangular
    # Sylvester solves when every check and value ran the fixed point to 1e-13
    sylvester = []
    original = scipy.linalg.lapack.dtrsyl

    def counting(*args, **kwargs):
        sylvester.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", counting)
    prob = tmp_path / "prob.json"
    prob.write_text(json.dumps(ladder_plain_problem(8, 4)))
    out = str(tmp_path / "r.json")
    assert main(["solve", str(prob), "--out", out]) == 0
    assert read(out)["verdict"] == {"stabilizable": True, "solvable": True}
    assert len(sylvester) <= 0.6 * 133


@pytest.mark.parametrize("a, code", [(1.0, 2), (-1.0, 0)])
def test_solve_oracle_without_control_authority(tmp_path, a, code):
    # the closed form does not cover B = D = 0; the solver's report stands
    prob = write_problem(tmp_path, A=[[a]], B=[[0.0]])
    plain, with_oracle = str(tmp_path / "plain.json"), str(tmp_path / "oracle.json")
    assert main(["solve", prob, "--out", plain]) == code
    assert main(["solve", prob, "--oracle", "--out", with_oracle]) == code
    doc = read(with_oracle)
    assert doc["verdict"]["stabilizable"] is (code == 0)
    assert doc["oracle_1d"]["unsupported"].startswith("no control authority")
    del doc["oracle_1d"]
    assert doc == read(plain)
    assert main(["oracle1d", prob, "--out", str(tmp_path / "o.json")]) == 1


def test_solve_unsolvable_exit_code(tmp_path):
    # negative discriminant of the reduced quadratic
    prob = write_problem(tmp_path, A=[[-1.0]], Q=[[-2.0]])
    out = str(tmp_path / "r.json")
    assert main(["solve", prob, "--oracle", "--out", out]) == 3
    doc = read(out)
    assert doc["verdict"]["solvable"] is False
    assert doc["oracle_1d"]["agreement"]["verdicts_agree"] is True


def test_solve_reports_each_epsilon_route(tmp_path):
    solved, failed = str(tmp_path / "solved.json"), str(tmp_path / "failed.json")
    assert main(["solve", write_problem(tmp_path), "--out", solved]) == 0
    # R + D'PD > 0: one Newton solve at epsilon = 0, and no epsilon path
    solution = read(solved)["solution"]
    [route] = solution["diagnostics"]["epsilon_solves"]
    assert route.keys() == {"epsilon", "steps"}
    assert route["epsilon"] == 0.0 and route["steps"] >= 0
    assert "settled_at_epsilon" not in solution["diagnostics"]
    assert "sigma" not in solution      # the reduction used stabilizability.gamma
    # no strictly convex solution: Newton fails at the first epsilon and says why
    prob = write_problem(tmp_path, name="unsolvable.json", A=[[-1.0]], Q=[[-2.0]])
    assert main(["solve", prob, "--out", failed]) == 3
    unsolvable = read(failed)["unsolvable"]
    diag = unsolvable["diagnostics"]
    [route] = diag["epsilon_solves"]
    assert route["epsilon"] == 0.1 and route["steps"] > 0
    assert route["failed"] == "a Newton gain is not certified mean-square stabilizing"
    assert unsolvable["reason"].endswith(": " + route["failed"])
    assert "sigma" not in diag


_STABILIZABILITY_KEYS = {"gamma", "flow_status", "residual", "flow_steps", "newton_steps"}
_VERIFIED_KEYS = {"are_residual", "range_defect", "n_min_eig"}
_SETTLED_KEYS = {"settled_at_epsilon", "extrapolation_norm"}


# one problem per route; R = 0 makes N(P) singular, so the epsilon path
# runs, and with Q = 1 it does not settle
@pytest.mark.parametrize("command, overrides, code, block, diagnostics", [
    ("solve", {}, 0, "solution", _VERIFIED_KEYS | {"epsilon_solves"}),
    ("solve", {"A": [[-1.0]], "Q": [[0.0]], "R": [[0.0]]}, 0, "solution",
     _VERIFIED_KEYS | _SETTLED_KEYS | {"epsilon_solves"}),
    ("solve", {"A": [[-1.0]], "Q": [[-2.0]]}, 3, "unsolvable", {"epsilon_solves"}),
    ("solve", {"A": [[-1.0]], "R": [[0.0]]}, 3, "unsolvable", {"epsilon_solves"}),
    ("solve", {"A": [[1.0]], "B": [[0.0]]}, 2, None, None),
    ("check", {}, 0, None, None),
], ids=["direct", "epsilon-path", "unsolvable-first-epsilon", "unsolvable-unsettled",
        "not-stabilizable", "check"])
def test_report_keys_of_each_route(tmp_path, command, overrides, code, block, diagnostics):
    # each fact of a solve is written once: no intermediate matrices, and per
    # epsilon one entry whose "change" is ||P_eps - P_prev||
    out = str(tmp_path / "r.json")
    assert main([command, write_problem(tmp_path, **overrides), "--out", out]) == code
    doc = read(out)
    written = {"solution": {"solution", "value"}, "unsolvable": {"unsolvable"}, None: set()}
    assert doc.keys() == {"version", "command", "config", "verdict", "stabilizability",
                          *written[block]}
    assert doc["stabilizability"].keys() == _STABILIZABILITY_KEYS
    if block is None:
        return
    assert doc[block].keys() == ({"P", "Theta", "Pi", "diagnostics"} if block == "solution"
                                 else {"reason", "diagnostics"})
    diag = doc[block]["diagnostics"]
    assert diag.keys() == diagnostics
    first, *rest = diag["epsilon_solves"]
    assert first.keys() <= {"epsilon", "steps", "failed"}
    for entry in rest:
        assert entry.keys() <= {"epsilon", "steps", "change", "failed"}
        assert ("change" in entry) != ("failed" in entry)
        if "change" in entry:
            assert type(entry["change"]) is float and np.isfinite(entry["change"])
    if "settled_at_epsilon" in diag:
        assert diag["settled_at_epsilon"] in [e["epsilon"] for e in rest]


def test_forced_solve_checks_the_range_condition_once(tmp_path, monkeypatch):
    # assemble_value reads the check solve_eta made
    calls = []
    original = slq.inhomogeneous.check_range_ez

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.inhomogeneous, "check_range_ez", counting)
    prob = write_problem(tmp_path, inhomogeneity={
        "grid": [0.0, 0.5, 1.0], "b": [[0.4], [0.0]], "sigma": [[0.1], [0.2]],
        "q": [[0.0], [0.3]], "rho": [[0.0], [0.1]],
    })
    out = str(tmp_path / "r.json")
    assert main(["solve", prob, "--out", out]) == 0
    assert read(out)["inhomogeneous"]["range_ok"] is True
    assert len(calls) == 1


def test_forced_solve_reads_the_range_tolerance(tmp_path):
    # N(P) = R = 0, so w = rho = 1e-4 misses range(N(P)) by a defect of 1e-4:
    # over the default range_tol, within the one --tol sets
    prob = write_problem(tmp_path, A=[[-1.0]], Q=[[0.0]], R=[[0.0]],
                         inhomogeneity={"grid": [0.0, 1.0], "rho": [[1e-4]]})
    out = str(tmp_path / "r.json")
    assert main(["solve", prob, "--out", out]) == 3
    assert read(out)["inhomogeneous"]["range_defect"] == pytest.approx(1e-4, rel=1e-3)
    assert main(["solve", prob, "--tol", "1e-3", "--out", out]) == 0
    doc = read(out)
    assert doc["config"]["range_tol"] == 1e-3
    assert doc["inhomogeneous"]["range_ok"] is True


def _two_state(**overrides):
    """The default problem, with the overrides, as two decoupled copies: each
    1 x 1 matrix [[v]] becomes v I, and x0 is (1, 1)."""
    doc = {"n": 2, "m": 2, "A": [[0.0]], "C": [[0.0]], "B": [[1.0]], "D": [[0.0]],
           "Q": [[1.0]], "S": [[0.0]], "R": [[1.0]], **overrides}
    doc = {k: (np.eye(2) * v[0][0]).tolist() if isinstance(v, list) else v
           for k, v in doc.items()}
    return {**doc, "x0": [1.0, 1.0]}


@pytest.mark.parametrize("overrides, code", [({}, 0), ({"A": [[-1.0]], "Q": [[-2.0]]}, 3)],
                         ids=["solvable", "unsolvable"])
def test_solve_runs_one_riccati_flow(tmp_path, monkeypatch, overrides, code):
    # the stabilizability decision is the only flow of a solve: Newton alone
    # decides the GARE's strictly convex problems, also where they fail.  For
    # n = m = 1 the decision runs none either
    calls = []
    original = slq.riccati._adaptive_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.riccati, "_adaptive_flow", counting)
    prob = write_problem(tmp_path, **overrides)
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == code
    assert calls == []
    prob = write_problem(tmp_path, "two.json", **_two_state(**overrides))
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == code
    assert len(calls) == 1


@pytest.mark.parametrize("a, flow_steps", [(-1.0, 0), (0.0, 1)])
def test_check_reports_the_stabilizability_route(tmp_path, a, flow_steps):
    # the scalar decision runs no flow: its one gain is certified, and its
    # value is the solution, with no Newton step.  The decoupled
    # 2-state copy runs the flow: the open-loop stable pair certifies the
    # gain 0 at step 0, dX = u dt first certifies a gain at step 1, and
    # Newton finishes both
    for doc, steps, newton in (({"A": [[a]]}, 0, False), (_two_state(A=[[a]]), flow_steps, True)):
        prob = write_problem(tmp_path, **doc)
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["check", prob, "--out", out1]) == 0
        assert main(["check", prob, "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()
        block = read(out1)["stabilizability"]
        assert (block["flow_status"], block["flow_steps"]) == ("certified", steps)
        assert (block["newton_steps"] > 0) == newton
        # 2aP + 1 - P^2 = 0 at the positive root P, and the gain is -P
        gamma = np.asarray(block["gamma"])
        assert np.allclose(gamma, -(a + np.sqrt(a * a + 1.0)) * np.eye(len(gamma)),
                           rtol=0.0, atol=1e-10)


def test_check_decides_a_slowly_contracting_scalar_pair(tmp_path):
    # (B + CD)^2 - (2A + C^2) D^2 is 2e-5 of either term.  The flow from 0
    # hit its horizon cap after 61 steps here, and the pair counted as not
    # stabilizable; the closed-form gain is certified, at a closed-loop rate
    # of -5e-5, and P is the oracle's
    coeffs = {"A": [[-0.1529816865847594]], "C": [[0.575312559975854]],
              "B": [[-0.11699009605063626]], "D": [[0.2805686566564809]]}
    prob = write_problem(tmp_path, **coeffs)
    assert main(["check", prob, "--out", str(tmp_path / "r.json")]) == 0
    assert read(tmp_path / "r.json")["stabilizability"]["flow_status"] == "certified"
    A, C, B, D = (v[0][0] for v in coeffs.values())
    report = slq.stabilizability_report(slq.ControlledSystem([[A]], [[C]], [[B]], [[D]]))
    oracle = slq.solve_1d(A, C, B, D, 1.0, 0.0, 1.0)
    assert oracle.case == "D1-case-iii"
    assert report.P[0, 0] == pytest.approx(oracle.P, rel=1e-9)


def test_check_and_solve_decide_a_slowly_contracting_matrix_system(tmp_path):
    # the 2 x 2 system of test_a_slowly_contracting_stabilizable_system_is_decided,
    # with indefinite weights: at the gain of the limit the noise map has
    # spectral radius 0.99787, so the gain must be certified long before
    # its value settles.  The solution decouples, block by block, into the
    # oracle's
    coeffs = {"A": (-1.9574274652675498, -1.0), "C": (2.001084531891264, 0.0),
              "B": (1.9064999054518736, 1.0), "D": (-1.126848813914599, 0.0),
              "Q": (1.296235504881066, 1.0), "S": (1.0254891189720547, 0.0),
              "R": (-1.4047770759179612, 1.0)}
    prob = write_problem(tmp_path, n=2, m=2, x0=[1.0, 1.0],
                         **{k: np.diag(v).tolist() for k, v in coeffs.items()})
    assert main(["check", prob, "--out", str(tmp_path / "r.json")]) == 0
    doc = read(tmp_path / "r.json")
    assert doc["verdict"]["stabilizable"] is True
    assert doc["stabilizability"]["flow_status"] == "certified"
    assert main(["solve", prob, "--out", str(tmp_path / "s.json")]) == 0
    P = np.asarray(read(tmp_path / "s.json")["solution"]["P"])
    for i in range(2):
        oracle = slq.solve_1d(*(v[i] for v in coeffs.values()))
        assert P[i, i] == pytest.approx(oracle.P, rel=1e-9)


def test_solve_byte_identical_reports(tmp_path):
    prob = write_problem(tmp_path, inhomogeneity={
        "grid": [0.0, 0.5],
        "b": [[0.4]], "sigma": [[0.0]], "q": [[0.0]], "rho": [[0.0]],
    })
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["solve", prob, "--simulate", "200", "--out", out1]) == 0
    assert main(["solve", prob, "--simulate", "200", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_solve_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    prob = write_problem(tmp_path, C=[[0.4]])
    out = tmp_path / "r.json"
    assert main(["solve", prob, "--oracle"]) == 0
    printed = capsys.readouterr().out
    assert main(["solve", prob, "--oracle", "--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()


@pytest.fixture
def oracle_report(tmp_path, capsys):
    """A scalar problem and the bytes `solve --oracle` prints for it."""
    prob = write_problem(tmp_path, C=[[0.4]])
    assert main(["solve", prob, "--oracle"]) == 0
    printed = capsys.readouterr().out.encode()
    assert len(printed) > 100
    return prob, printed


@pytest.mark.parametrize("old", [b"x" * 100_000 + b"\n", b"{}\n"], ids=["longer", "shorter"])
def test_out_over_an_existing_file_holds_exactly_the_printed_bytes(tmp_path, oracle_report, old):
    prob, printed = oracle_report
    out = tmp_path / "r.json"
    out.write_bytes(old)
    assert main(["solve", prob, "--oracle", "--out", str(out)]) == 0
    assert out.read_bytes() == printed


def test_out_creates_a_file_with_the_mode_of_open(tmp_path, oracle_report):
    prob, _ = oracle_report
    reference = tmp_path / "reference"
    open(reference, "w").close()
    out = tmp_path / "r.json"
    assert main(["solve", prob, "--oracle", "--out", str(out)]) == 0
    assert out.stat().st_mode == reference.stat().st_mode


def test_out_writes_to_a_device(oracle_report, capsys):
    prob, _ = oracle_report
    assert main(["solve", prob, "--oracle", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_out_writes_exactly_the_printed_bytes_to_a_fifo(tmp_path, oracle_report):
    prob, printed = oracle_report
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)   # so the writer's open returns at once
    try:
        assert main(["solve", prob, "--oracle", "--out", str(fifo)]) == 0
        os.set_blocking(reader, True)
        received = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert received == printed


@pytest.mark.parametrize("target", ["{dir}", ""], ids=["directory", "empty-path"])
def test_out_that_cannot_be_written_exits_1(tmp_path, oracle_report, capsys, target):
    prob, _ = oracle_report
    assert main(["solve", prob, "--oracle", "--out", target.format(dir=tmp_path)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ")


def test_out_overwrites_in_place(tmp_path, oracle_report, monkeypatch):
    # truncating to zero first made ext4 start writeback on every rewrite
    prob, _ = oracle_report
    out = tmp_path / "r.json"
    out.write_bytes(b"x" * 4096)
    opened = []
    os_open = os.open

    def recording(path, flags, *args, **kwargs):
        opened.append((str(path), flags))
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording)
    assert main(["solve", prob, "--oracle", "--out", str(out)]) == 0
    writes = [flags for path, flags in opened if path == str(out)]
    assert len(writes) == 1
    assert writes[0] & os.O_TRUNC == 0
    assert writes[0] & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT


def _reference(obj):
    """The report encoding's model: numpy values as Python ones, arrays as
    lists of rows, and every non-finite number as None."""
    if isinstance(obj, np.ndarray):
        return [[float(v) if np.isfinite(v) else None for v in row] for row in np.atleast_2d(obj)]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj) if np.isfinite(obj) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _reference(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_reference(v) for v in obj]
    return obj


def _reference_text(obj) -> str:
    return json.dumps(_reference(obj), sort_keys=True, indent=2, allow_nan=False)


class _Disguised:
    """Overrides how a subclass of a built-in scalar prints itself; a report
    must still hold the built-in value, as json.dumps writes it."""

    def __repr__(self):
        return "disguised"

    __str__ = __repr__


class _Float(_Disguised, float):
    pass


class _Int(_Disguised, int):
    pass


class _Str(_Disguised, str):
    pass


_FLOATS = [0.0, -0.0, 1.0, -2.5, 1 / 3, 1e-300, 5e-324, 1.7976931348623157e308,
           np.nan, np.inf, -np.inf]
_SCALARS = [None, True, False, 0, -7, 2**70, "", "plain", "Σ, Γ and Θ*",
            "tab\tquote\"back\\slash", "line\nbreak", "日本",
            _Float(2.5), _Float(-1e-300), _Float("nan"), _Int(42), _Int(2**70), _Str("shown")]
_SHAPES = [(), (3,), (0,), (0, 3), (3, 0), (2, 3), (1, 1), (4, 2)]
_KEYS = ["b", "a", "Z", "é", "10", "9", 3, "key with space"]


def _random_document(rng, depth=0):
    """A nested document of every kind of value a report can hold."""
    def pick(seq):
        return seq[rng.integers(len(seq))]

    kind = rng.integers(0, 11 if depth < 3 else 6)
    if kind == 0:
        return pick(_FLOATS) if rng.random() < 0.5 else rng.normal() * 10.0 ** rng.integers(-20, 20)
    if kind == 1:
        return pick([np.float64, np.float32, np.int64, np.int32, np.bool_])(rng.normal() * 100)
    if kind == 2:
        return pick(_SCALARS)
    if kind in (3, 4, 5):
        a = np.array(rng.normal(size=pick(_SHAPES)) * 10.0 ** rng.integers(-8, 8))
        if a.size and rng.random() < 0.3:
            a.flat[rng.integers(a.size)] = pick(_FLOATS[-3:])
        elif rng.random() < 0.2:
            a = (a * 10).round().astype(int)
        elif rng.random() < 0.1:
            a = a > 0
        return a
    if kind in (6, 7):
        return {_KEYS[i]: _random_document(rng, depth + 1)
                for i in rng.permutation(len(_KEYS))[:rng.integers(0, 5)]}
    items = [_random_document(rng, depth + 1) for _ in range(rng.integers(0, 4))]
    return tuple(items) if kind == 8 else items


def test_encoder_matches_the_reference_on_random_documents():
    rng = np.random.default_rng(20141)
    for _ in range(400):
        doc = _random_document(rng)
        assert slq.cli._encode(doc) == _reference_text(doc)


def test_reports_match_the_reference_encoding(tmp_path, monkeypatch):
    # every kind of report, as written to --out, against json.dumps of its model
    written = []
    emit = slq.cli._emit

    def recording(doc, out_path):
        written.append((doc, out_path))
        emit(doc, out_path)

    monkeypatch.setattr(slq.cli, "_emit", recording)
    plain = write_problem(tmp_path, C=[[0.4]])
    forced = write_problem(tmp_path, name="forced.json", inhomogeneity={
        "grid": [0.0, 0.5], "b": [[0.4]], "sigma": [[0.1]], "q": [[0.0]], "rho": [[0.0]],
    })
    # R = 0: singular N(P), so the epsilon path runs; with Q = 1 it does not settle
    singular = write_problem(tmp_path, name="singular.json", A=[[-1.0]], Q=[[0.0]], R=[[0.0]])
    unsolvable = write_problem(tmp_path, name="unsolvable.json", A=[[-1.0]], R=[[0.0]])
    runs = [
        (["check", plain], 0),
        (["solve", plain, "--oracle", "--simulate", "20"], 0),
        (["solve", forced], 0),
        (["solve", singular], 0),
        (["solve", unsolvable, "--oracle"], 3),
        (["simulate", plain, "--simulate", "20"], 0),
        (["simulate", plain, "--theta", "0.0"], 2),
        (["oracle1d", plain], 0),
    ]
    for i, (argv, code) in enumerate(runs):
        assert main([*argv, "--out", str(tmp_path / f"r{i}.json")]) == code
    assert len(written) == len(runs)
    for block in ("solution", "unsolvable"):     # each carries an epsilon path
        assert any(len(doc[block]["diagnostics"]["epsilon_solves"]) > 1
                   for doc, _ in written if block in doc)
    for doc, out_path in written:
        with open(out_path, encoding="utf-8") as fh:
            assert fh.read() == _reference_text(doc) + "\n"


def test_non_finite_matrix_entries_are_written_as_null(capsys):
    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    doc = {"P": np.array([[np.nan, np.inf], [-np.inf, 1.0]]), "Theta": np.eye(2),
           "diagnostics": {"are_residual": np.float64(np.nan)}}
    slq.cli._emit(doc, None)
    parsed = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert parsed["P"] == [[None, None], [None, 1.0]]
    assert parsed["diagnostics"]["are_residual"] is None


@pytest.mark.parametrize("flags, solver, message", [
    (["--eps-schedule", "abc"], {}, "--eps-schedule must be comma-separated numbers"),
    (["--eps-schedule=-0.1,nan"], {}, "solver option epsilon_schedule must be finite"),
    ([], {"epsilon_schedule": [0.1, 0.0]}, "solver option epsilon_schedule must be finite"),
    ([], {"epsilon_schedule": [float("inf")]}, "solver option epsilon_schedule must be finite"),
    (["--eps-schedule", "0.1"], {},
     "solver option epsilon_schedule must have at least two entries"),
    ([], {"epsilon_schedule": []}, "solver option epsilon_schedule must have at least two entries"),
    (["--tol", "nan"], {}, "solver option path_tol must be finite and positive"),
    (["--tol", "0"], {}, "solver option path_tol must be finite and positive"),
    ([], {"res_tol": float("nan")}, "solver option res_tol must be finite and positive"),
    ([], {"stat_tol": -1e-10}, "solver option stat_tol must be finite and positive"),
    (["--seed", str(2**64), "--simulate", "10"], {}, "solver option seed must be in [0, 2**64)"),
    (["--seed", "-1", "--simulate", "10"], {}, "solver option seed must be in [0, 2**64)"),
    (["--simulate", "10"], {"seed": 2**64}, "solver option seed must be in [0, 2**64)"),
    (["--simulate", "0"], {}, "solver option simulate.paths must be at least 1"),
    ([], {"simulate": {"paths": 0}}, "solver option simulate.paths must be at least 1"),
], ids=["schedule-flag-text", "schedule-flag-negative-nan", "schedule-zero", "schedule-inf",
        "schedule-flag-one-entry", "schedule-empty", "tol-flag-nan", "tol-flag-zero", "tol-nan", "tol-negative", "seed-flag-2**64",
        "seed-flag-negative", "seed-2**64", "paths-flag-zero", "paths-zero"])
def test_solve_rejects_options_out_of_range(tmp_path, capsys, flags, solver, message):
    prob = write_problem(tmp_path, C=[[0.4]], solver=solver)
    out = tmp_path / "r.json"
    assert main(["solve", prob, *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_config_round_trip(tmp_path):
    prob = write_problem(tmp_path)
    out1 = str(tmp_path / "r1.json")
    assert main(["solve", prob, "--out", out1]) == 0
    doc = read(out1)
    prob2 = write_problem(tmp_path, name="prob2.json", solver=doc["config"])
    out2 = str(tmp_path / "r2.json")
    assert main(["solve", prob2, "--out", out2]) == 0
    assert read(out2)["solution"] == doc["solution"]
    assert read(out2)["config"] == doc["config"]


def test_solver_overrides_do_not_leak_into_the_next_call(tmp_path):
    # each call starts from its own copy of the defaults: the problem file's
    # options and the flags of one call, simulate's nested ones among them,
    # leave the next call's configuration as it was
    plain, out = write_problem(tmp_path), str(tmp_path / "r.json")
    assert main(["solve", plain, "--out", out]) == 0
    defaults = read(out)["config"]
    tuned = write_problem(tmp_path, name="tuned.json",
                          solver={"epsilon_schedule": [0.5, 0.25], "res_tol": 1e-6,
                                  "simulate": {"paths": 7, "dt": 0.01}})
    tuned_out = str(tmp_path / "t.json")
    assert main(["solve", tuned, "--simulate", "10", "--seed", "3", "--tol", "1e-7",
                 "--eps-schedule", "0.4,0.2", "--out", tuned_out]) == 0
    cfg = read(tuned_out)["config"]
    assert cfg["simulate"]["paths"] == 10 and cfg["simulate"]["dt"] == 0.01
    assert cfg["epsilon_schedule"] == [0.4, 0.2] and cfg["seed"] == 3
    assert cfg["res_tol"] == cfg["path_tol"] == 1e-7
    assert main(["solve", plain, "--out", out]) == 0
    assert read(out)["config"] == defaults


def test_flow_res_tol_is_not_an_option(tmp_path, capsys):
    # a converged flow is its own certificate: no residual bound to configure
    prob = write_problem(tmp_path, solver={"flow_res_tol": 1e-8})
    assert main(["solve", prob, "--out", str(tmp_path / "bad.json")]) == 1
    assert "unknown solver option: flow_res_tol" in capsys.readouterr().err
    out = str(tmp_path / "r.json")
    assert main(["solve", write_problem(tmp_path), "--out", out]) == 0
    assert "flow_res_tol" not in read(out)["config"]


@pytest.mark.parametrize("flags", [[], ["--simulate", "10"]], ids=["plain", "simulate"])
@pytest.mark.parametrize("solver, message", [
    ({"simulate": 5}, "solver option simulate must be an object"),
    ({"path_tol": "abc"}, "solver option path_tol must be a number"),
    ({"res_tol": None}, "solver option res_tol must be a number"),
    ({"epsilon_schedule": 0.1}, "solver option epsilon_schedule must be a list of numbers"),
    ({"simulate": {"pathz": 100}}, "unknown solver option: simulate.pathz"),
    ({"simulate": {"paths": "many"}}, "solver option simulate.paths must be an integer"),
    ({"seed": 1.5}, "solver option seed must be an integer"),
], ids=["simulate-number", "tol-string", "tol-null", "schedule-number", "unknown-nested",
        "paths-string", "seed-float"])
def test_solve_rejects_malformed_solver_options(tmp_path, capsys, solver, message, flags):
    prob = write_problem(tmp_path, solver=solver)
    out = tmp_path / "r.json"
    assert main(["solve", prob, *flags, "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_solve_inhomogeneous_value_block(tmp_path):
    prob = write_problem(tmp_path, inhomogeneity={
        "grid": [0.0, 1.0],
        "b": [[0.5]], "sigma": [[0.0]], "q": [[0.0]], "rho": [[0.0]],
    })
    out = str(tmp_path / "r.json")
    assert main(["solve", prob, "--out", out]) == 0
    doc = read(out)
    assert doc["inhomogeneous"]["range_ok"] is True
    assert doc["value"]["V"] == pytest.approx(1.7740374692, abs=1e-6)


def test_simulate_optimal_strategy(tmp_path):
    prob = write_problem(tmp_path, solver={"simulate": {"paths": 300, "dt": 1e-2}})
    out = str(tmp_path / "r.json")
    assert main(["simulate", prob, "--out", out]) == 0
    doc = read(out)
    sim = doc["simulation"]
    tol = max(3 * sim["std_error"], 0.02 * abs(sim["reference_value"]) + 0.01)
    assert abs(sim["estimate"] - sim["reference_value"]) <= tol


def test_simulate_non_stabilizer_gain(tmp_path):
    prob = write_problem(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["simulate", prob, "--theta", "0.0", "--out", out]) == 2
    # a_cl = 0: the detail names the failed condition
    assert "not Hurwitz" in read(out)["verdict"]["detail"]


def test_simulate_names_a_noise_map_that_does_not_contract(tmp_path):
    # a_cl = -1 per state, but the first state's noise map doubles its
    # second moment: c^2 / (2 |a_cl|) = 2
    prob = write_problem(tmp_path, n=2, m=2,
                         A=[[0.0, 0.0], [0.0, 0.0]], C=[[2.0, 0.0], [0.0, 0.0]],
                         B=[[1.0, 0.0], [0.0, 1.0]], D=[[0.0, 0.0], [0.0, 0.0]],
                         Q=[[1.0, 0.0], [0.0, 1.0]], S=[[0.0, 0.0], [0.0, 0.0]],
                         R=[[1.0, 0.0], [0.0, 1.0]], x0=[1.0, 0.0])
    out = str(tmp_path / "r.json")
    assert main(["simulate", prob, "--theta=-1,0;0,-1", "--out", out]) == 2
    verdict = read(out)["verdict"]
    assert verdict["stabilizer"] is False
    assert "does not contract" in verdict["detail"]


@pytest.mark.parametrize("simulate, name", [
    ({"dt": 0}, "dt"), ({"dt": -1e-2}, "dt"), ({"dt": float("nan")}, "dt"),
    ({"dt": float("inf")}, "dt"), ({"horizon": 0.0}, "horizon"),
    ({"horizon": float("nan")}, "horizon"), ({"horizon": float("inf")}, "horizon"),
])
def test_solve_rejects_bad_simulation_settings(tmp_path, capsys, simulate, name):
    prob = write_problem(tmp_path, solver={"simulate": simulate})
    assert main(["solve", prob, "--simulate", "10", "--out", str(tmp_path / "r.json")]) == 1
    assert f"error: {name} must be finite and positive" in capsys.readouterr().err


def test_solve_rejects_a_non_finite_derived_horizon(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(slq.cli, "_closed_loop_time_constant", lambda sys, Theta: np.inf)
    prob = write_problem(tmp_path)
    assert main(["solve", prob, "--simulate", "10", "--out", str(tmp_path / "r.json")]) == 1
    assert "error: the closed loop gives no finite horizon" in capsys.readouterr().err


def test_simulate_zero_state(tmp_path):
    prob = write_problem(tmp_path, x0=[0.0],
                         solver={"simulate": {"paths": 50, "dt": 1e-2}})
    out = str(tmp_path / "r.json")
    assert main(["simulate", prob, "--out", out]) == 0
    assert read(out)["simulation"]["estimate"] == 0.0


def test_solve_reads_the_rank_of_n_from_psd_tol(tmp_path):
    # R = diag(1, 1e-9): at the default psd_tol its small eigenvalue is
    # below the rank floor psd_tol (1 + ||N||), so the GARE residual, the
    # range condition and the feedback family all drop it, and the problem
    # is called ill-conditioned; at 1e-12 it is inverted, and the gain is
    # the CARE's -R^-1 B'P
    A, B, Q, R = np.eye(1), np.ones((1, 2)), np.eye(1), np.diag([1.0, 1e-9])
    data = {"m": 2, "A": A.tolist(), "B": B.tolist(), "D": [[0.0, 0.0]],
            "S": [[0.0], [0.0]], "R": R.tolist()}
    out = str(tmp_path / "r.json")
    assert main(["solve", write_problem(tmp_path, **data), "--out", out]) == 3
    assert read(out)["unsolvable"]["reason"].startswith("epsilon path did not settle")
    prob = write_problem(tmp_path, name="fine.json", solver={"psd_tol": 1e-12}, **data)
    assert main(["solve", prob, "--out", out]) == 0
    P = scipy.linalg.solve_continuous_are(A, B, Q, R)
    want = -np.linalg.solve(R, B.T @ P)
    assert np.asarray(read(out)["solution"]["Theta"]) == pytest.approx(want, rel=1e-6)


def test_oracle_subcommand(tmp_path):
    prob = write_problem(tmp_path)
    out = str(tmp_path / "r.json")
    assert main(["oracle1d", prob, "--out", out]) == 0
    doc = read(out)
    assert doc["oracle_1d"]["case"] == "D0-R-positive"
    assert doc["oracle_1d"]["P"] == pytest.approx(1.0)


def test_oracle_not_stabilizable_exit(tmp_path):
    prob = write_problem(tmp_path, A=[[1.0]], B=[[0.0]], D=[[0.1]])
    assert main(["oracle1d", prob, "--out", str(tmp_path / "r.json")]) == 2


def test_oracle_writes_values_beyond_the_float_range_as_null(tmp_path):
    # D = 2^-1022: alpha = (B/D + C)^2 - (2A + C^2) is about 2e615
    prob = write_problem(tmp_path, A=[[-1.0]], D=[[2.2250738585072014e-308]])
    out = str(tmp_path / "r.json")
    assert main(["oracle1d", prob, "--out", out]) in (0, 3)
    block = read(out)["oracle_1d"]
    assert block["alpha"] is block["Delta"] is None


def test_asymmetric_q_warning(tmp_path, capsys):
    prob = write_problem(tmp_path, n=2, m=1,
                         A=[[0.0, 0.0], [0.0, 0.0]], C=[[0.0, 0.0], [0.0, 0.0]],
                         B=[[1.0], [0.0]], D=[[0.0], [0.0]],
                         Q=[[1.0, 0.3], [0.0, 1.0]], S=[[0.0, 0.0]],
                         x0=[1.0, 0.0])
    main(["check", prob, "--out", str(tmp_path / "r.json")])
    assert "symmetrized" in capsys.readouterr().err


def test_seed_flag_changes_simulation(tmp_path):
    prob = write_problem(tmp_path, C=[[0.4]],
                         solver={"simulate": {"paths": 200, "dt": 1e-2}})
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["simulate", prob, "--seed", "1", "--out", out1]) == 0
    assert main(["simulate", prob, "--seed", "2", "--out", out2]) == 0
    assert read(out1)["simulation"]["estimate"] != read(out2)["simulation"]["estimate"]


def test_main_builds_one_parser(tmp_path, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        original(self, *args, **kwargs)
        if self.prog == "slq":
            built.append(self)

    clear = getattr(slq.cli._build_parser, "cache_clear", lambda: None)
    clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    prob = write_problem(tmp_path)
    try:
        assert main(["check", prob, "--out", str(tmp_path / "r1.json")]) == 0
        assert main(["check", prob, "--out", str(tmp_path / "r2.json")]) == 0
    finally:
        clear()
    assert len(built) == 1


@pytest.mark.parametrize("argv, code", [
    (["solve", "--bogus", "{prob}"], 1),
    ([], 1),
    (["solve", "{prob}", "--simulate", "abc"], 1),
    (["solve", "{prob}", "--seed", "x"], 1),
    (["check", "{prob}", "--tol", "x"], 1),
    (["--help"], 0),
    (["--version"], 0),
], ids=["unknown-flag", "no-command", "simulate", "seed", "tol", "help", "version"])
def test_command_line_usage_exit_codes(tmp_path, capsys, argv, code):
    prob = write_problem(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([arg.format(prob=prob) for arg in argv])
    assert exc.value.code == code
    err = capsys.readouterr().err
    assert (": error: " in err) == (code == 1)
    assert err.startswith("usage: slq") == (code == 1)


@pytest.mark.parametrize("theta", ["abc", "1,2;3"], ids=["not-a-number", "ragged"])
def test_simulate_rejects_a_malformed_theta(tmp_path, capsys, theta):
    prob = write_problem(tmp_path)
    assert main(["simulate", prob, "--theta", theta]) == 1
    assert capsys.readouterr().err.startswith(
        "error: --theta must be numbers, rows separated by ';' and entries by ','")


def test_simulate_takes_a_negative_matrix_gain_in_either_form(tmp_path, capsys):
    # argparse reads "-1,0;0,-1" after a space as an option unless main folds it in
    prob = write_problem(tmp_path, n=2, m=2,
                         A=[[0.0, 1.0], [0.0, 0.0]], C=[[0.5, 0.0], [0.0, 0.0]],
                         B=[[1.0, 0.0], [0.0, 1.0]], D=[[0.0, 0.0], [0.0, 0.0]],
                         Q=[[1.0, 0.0], [0.0, 1.0]], S=[[0.0, 0.0], [0.0, 0.0]],
                         R=[[1.0, 0.0], [0.0, 1.0]], x0=[1.0, 0.0])
    spaced, joined = str(tmp_path / "spaced.json"), str(tmp_path / "joined.json")
    assert main(["simulate", prob, "--theta", "-1,0;0,-1", "--simulate", "50",
                 "--out", spaced]) == 0
    assert main(["simulate", prob, "--theta=-1,0;0,-1", "--simulate", "50",
                 "--out", joined]) == 0
    with open(spaced) as a, open(joined) as b:
        assert a.read() == b.read()
    assert read(spaced)["verdict"] == {"stabilizer": True}
    capsys.readouterr()
    for argv in (["--theta", "-1,0;0,-1", "--bogus"], ["--theta"]):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", prob, *argv])
        assert exc.value.code == 1
        assert ": error: " in capsys.readouterr().err


_COLD_START = """
import json, sys
import slq.cli

scalar, matrix, out = sys.argv[1:]
steps = [["import", None, "scipy" in sys.modules]]
for argv in (["solve", scalar], ["check", scalar], ["oracle1d", scalar],
             ["solve", scalar, "--simulate", "200"], ["solve", matrix]):
    code = slq.cli.main(argv + ["--out", out])
    steps.append([" ".join(argv[:1] + argv[2:]), code, "scipy" in sys.modules])
print(json.dumps(steps))
"""


def test_unforced_scalar_commands_do_not_load_scipy(tmp_path):
    scalar = write_problem(tmp_path, "scalar.json", C=[[0.4]])
    matrix = write_problem(tmp_path, "matrix.json", n=2, m=1,
                           A=[[0.0, 1.0], [0.0, 0.0]], C=[[0.0, 0.0], [0.0, 0.0]],
                           B=[[0.0], [1.0]], D=[[0.0], [0.0]],
                           Q=[[1.0, 0.0], [0.0, 1.0]], S=[[0.0, 0.0]], x0=[1.0, 0.0])
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _COLD_START, scalar, matrix,
                          str(tmp_path / "r.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [
        ["import", None, False],
        ["solve", 0, False],
        ["check", 0, False],
        ["oracle1d", 0, False],
        ["solve --simulate 200", 0, False],
        ["solve", 0, True],
    ]
    version = subprocess.run([sys.executable, "-m", "slq.cli", "--version"],
                             env=env, capture_output=True, text=True, timeout=120)
    assert version.returncode == 0 and version.stdout.strip() == slq.__version__
