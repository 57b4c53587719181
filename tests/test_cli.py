import argparse
import json

import numpy as np
import pytest

import slq
import slq.cli
import slq.montecarlo
import slq.riccati
import slq.stability
import slq.stabilizability
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
    assert doc["stabilizability"]["P"][0][0] == pytest.approx(1.0, abs=1e-8)


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
    assert solution["epsilon_path"] == []
    assert "settled_at_epsilon" not in solution["diagnostics"]
    assert "sigma" not in solution      # the reduction used stabilizability.gamma
    # no strictly convex solution: Newton fails at the first epsilon and says why
    prob = write_problem(tmp_path, name="unsolvable.json", A=[[-1.0]], Q=[[-2.0]])
    assert main(["solve", prob, "--out", failed]) == 3
    unsolvable = read(failed)["unsolvable"]
    diag = unsolvable["diagnostics"]
    [route] = diag["epsilon_solves"]
    assert route["epsilon"] == diag["failed_epsilon"] and route["steps"] > 0
    assert route["failed"] == "a Newton gain is not certified mean-square stabilizing"
    assert unsolvable["reason"].endswith(": " + route["failed"])
    assert "sigma" not in diag


@pytest.mark.parametrize("overrides, code", [({}, 0), ({"A": [[-1.0]], "Q": [[-2.0]]}, 3)],
                         ids=["solvable", "unsolvable"])
def test_solve_runs_one_riccati_flow(tmp_path, monkeypatch, overrides, code):
    # the stabilizability decision is the only flow of a solve: Newton alone
    # decides the GARE's strictly convex problems, also where they fail
    calls = []
    original = slq.riccati._adaptive_flow

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(slq.riccati, "_adaptive_flow", counting)
    prob = write_problem(tmp_path, **overrides)
    assert main(["solve", prob, "--out", str(tmp_path / "r.json")]) == code
    assert len(calls) == 1


@pytest.mark.parametrize("a, flow_steps", [(-1.0, 0), (0.0, 1)])
def test_check_reports_the_stabilizability_route(tmp_path, a, flow_steps):
    # an open-loop stable pair certifies the gain 0 at step 0 of the flow;
    # dX = u dt first certifies a gain at step 1; Newton finishes both
    prob = write_problem(tmp_path, A=[[a]])
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["check", prob, "--out", out1]) == 0
    assert main(["check", prob, "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    block = read(out1)["stabilizability"]
    assert (block["flow_status"], block["flow_steps"]) == ("certified", flow_steps)
    assert block["newton_steps"] >= 1
    assert block["gamma"][0][0] == pytest.approx(-block["P"][0][0], abs=1e-10)


def test_solve_byte_identical_reports(tmp_path):
    prob = write_problem(tmp_path, inhomogeneity={
        "grid": [0.0, 0.5],
        "b": [[0.4]], "sigma": [[0.0]], "q": [[0.0]], "rho": [[0.0]],
    })
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["solve", prob, "--simulate", "200", "--out", out1]) == 0
    assert main(["solve", prob, "--simulate", "200", "--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


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


def test_no_control_check_reports_the_lyapunov_residual(tmp_path):
    # B = D = 0: the certificate P solves P A + A'P + C'P C + I = 0, and the
    # report carries that equation's residual for the P it prints
    A = [[-0.6, 0.3], [-0.2, -0.9]]
    C = [[0.3, 0.1], [0.0, 0.2]]
    prob = write_problem(tmp_path, n=2, m=1, A=A, C=C, B=[[0.0], [0.0]], D=[[0.0], [0.0]],
                         Q=[[1.0, 0.0], [0.0, 1.0]], S=[[0.0, 0.0]], x0=[1.0, 0.0])
    out = str(tmp_path / "r.json")
    assert main(["check", prob, "--out", out]) == 0
    block = read(out)["stabilizability"]
    P, A, C = np.array(block["P"]), np.array(A), np.array(C)
    want = np.linalg.norm(P @ A + A.T @ P + C.T @ P @ C + np.eye(2))
    assert want > 0.0
    assert block["residual"] == pytest.approx(want, rel=1e-9, abs=0.0)


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
