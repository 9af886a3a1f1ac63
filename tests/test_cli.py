"""End-to-end runs of the command-line driver."""

import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from hsverify.cli import main

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

# residual goal: true, unprovable here, and with no rational counterexample
HARD = """\
dataspace h {
  variables x : real;
}

program drift = { x' = 1 }

flow lin for drift = [x ~> x + tau] lipschitz 1

goal convex : { true } drift { exp(x) >= 1 + x } by wp
"""

# a wp goal over an ODE with no flow declared: gen_vcs raises MissingFlow
NO_FLOW = """\
dataspace d {
  variables x : real;
}

program dec = { x' = -x }

goal g : { x > 0 } dec { x > 0 } by wp
"""


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def hard_model(tmp_path):
    p = tmp_path / "hard.hsv"
    p.write_text(HARD)
    return p


def test_verify_proved(capsys):
    code, out, _ = run(capsys, "verify", MODELS / "pendulum.hsv")
    assert code == 0
    assert "goal radius: proved (dI)" in out


def test_verify_refuted_exit(capsys):
    code, out, _ = run(capsys, "verify", MODELS / "broken.hsv")
    assert code == 2
    assert "goal grows: refuted" in out
    assert "flow shrink: certified, L=1" in out


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", MODELS / "nonexistent.hsv")
    assert code == 1
    assert "error:" in err


def test_verify_parse_error(capsys, tmp_path):
    p = tmp_path / "bad.hsv"
    p.write_text("dataspace x {\n  variables h : real\n")
    code, _, err = run(capsys, "verify", p)
    assert code == 1
    assert "error:" in err and "bad.hsv" in err


def test_verify_unknown_goal_name(capsys):
    code, _, err = run(capsys, "verify", MODELS / "decay.hsv", "--goal", "nope")
    assert code == 1
    assert "no goal named" in err


def test_goal_filter_runs_one(capsys):
    code, out, _ = run(capsys, "verify", MODELS / "decay.hsv",
                       "--goal", "pos_flow")
    assert code == 0
    assert out.count("goal ") == 1
    assert "pos_flow: proved" in out


def test_json_report_shape(capsys, tmp_path):
    rp = tmp_path / "r.json"
    code, _, _ = run(capsys, "verify", MODELS / "decay.hsv", "--json", rp)
    assert code == 0
    rep = json.loads(rp.read_text())
    assert rep["schema"] == 2
    assert rep["file"] == "decay.hsv"
    assert set(rep["goals"]) == {"pos_ghost", "pos_flow", "pos_evol"}
    assert all(g["status"] == "proved" for g in rep["goals"].values())
    assert rep["flows"]["shrink"]["ok"] is True
    assert rep["summary"]["proved"] == 3


def test_json_two_runs_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", MODELS / "decay.hsv", "--seed", 7, "--json", a)
    run(capsys, "verify", MODELS / "decay.hsv", "--seed", 7, "--json", b)
    assert a.read_bytes() == b.read_bytes()


def test_timings_are_opt_in(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify", MODELS / "decay.hsv", "--json", a)
    run(capsys, "verify", MODELS / "decay.hsv", "--timings", "--json", b)
    plain = json.loads(a.read_text())["goals"].values()
    timed = json.loads(b.read_text())["goals"].values()
    assert all("elapsed_ms" not in g for g in plain)
    assert all(g["elapsed_ms"] >= 0 for g in timed)


def test_unknown_is_tolerated_by_default(capsys, hard_model):
    code, out, _ = run(capsys, "verify", hard_model, "--trials", 50)
    assert code == 0
    assert "convex: unknown" in out


def test_strict_flags_unknown(capsys, hard_model):
    code, _, _ = run(capsys, "verify", hard_model, "--trials", 50, "--strict")
    assert code == 3


def test_emit_smt_writes_residual(capsys, hard_model, tmp_path):
    d = tmp_path / "smt"
    run(capsys, "verify", hard_model, "--trials", 50, "--emit-smt", d)
    f = d / "convex_main.smt2"
    text = f.read_text()
    assert "(set-logic" in text
    assert "(declare-fun exp (Real) Real)" in text
    assert text.rstrip().endswith("(check-sat)")


@pytest.mark.parametrize("command", ["verify", "vcs", "falsify"])
def test_goal_without_flow_is_an_error(capsys, tmp_path, command):
    p = tmp_path / "noflow.hsv"
    p.write_text(NO_FLOW)
    code, out, err = run(capsys, command, p)
    assert code == 1
    assert "no certified flow" in out + err
    assert "Traceback" not in out + err


def test_non_utf8_file_is_an_error(capsys, tmp_path):
    p = tmp_path / "utf16.hsv"
    p.write_bytes(b"\xff\xfe" + "dataspace".encode("utf-16-le"))
    code, out, err = run(capsys, "verify", p)
    assert code == 1
    assert err.startswith(f"error: {p}: ")
    assert out == ""


@pytest.mark.parametrize("command", ["verify", "falsify"])
def test_negative_trials_rejected(capsys, command):
    code, out, err = run(capsys, command, MODELS / "broken.hsv", "--trials", -1)
    assert code == 1
    assert err.startswith("error: --trials")
    assert out == ""


@pytest.mark.parametrize("flag", ["--json", "--emit-smt", "--trace"])
def test_unwritable_output_is_an_error(capsys, tmp_path, flag):
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = tmp_path / "missing" / "out.txt"
    if flag == "--trace":
        argv = ["simulate", MODELS / "decay.hsv", "--program", "dec", "--init", "x=1",
                "--horizon", "1", flag, missing]
    else:
        # --emit-smt names a directory, which an existing file cannot be
        argv = ["verify", MODELS / "decay.hsv", flag, taken if flag == "--emit-smt" else missing]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ")
    assert "Traceback" not in out + err


def test_falsify_witness(capsys):
    code, out, _ = run(capsys, "falsify", MODELS / "broken.hsv")
    assert code == 2
    assert "counterexample" in out
    assert "x = 1" in out


def test_falsify_clean(capsys):
    code, out, _ = run(capsys, "falsify", MODELS / "pendulum.hsv",
                       "--trials", 100)
    assert code == 0
    assert "no counterexample" in out


def test_vcs_listing(capsys):
    code, out, _ = run(capsys, "vcs", MODELS / "pendulum.hsv")
    assert code == 0
    assert "goal radius (dInduct):" in out
    assert "induct-step [dI]" in out


def test_simulate_decay(capsys):
    code, out, _ = run(capsys, "simulate", MODELS / "decay.hsv",
                       "--program", "dec", "--init", "x=1",
                       "--step", "0.01", "--horizon", "1")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("1.000000\t")
    x = float(last.split("x=")[1].split()[0])
    assert abs(x - math.exp(-1)) < 1e-8


def test_simulate_seeded_repro(capsys):
    args = ("simulate", MODELS / "tank.hsv", "--program", "tank",
            "--init", "h=5,hm=5,hl=1,hu=9,ci=3,co=1", "--seed", 11,
            "--step", "0.05", "--horizon", "4")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert "flw=" in out1


def test_simulate_vector_init(capsys, tmp_path):
    p = tmp_path / "vec.hsv"
    p.write_text("dataspace m {\n  variables p : vec[2], s : real;\n}\n\n"
                 "program bump = s := s + 1\n")
    code, out, _ = run(capsys, "simulate", p, "--program", "bump",
                       "--init", "p=[1,2],s=1/2")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert "p=[1, 2]" in last
    assert "s=3/2" in last


def test_simulate_trace_file(capsys, tmp_path):
    tr = tmp_path / "t.txt"
    code, out, _ = run(capsys, "simulate", MODELS / "decay.hsv",
                       "--program", "dec", "--init", "x=1",
                       "--step", "0.5", "--horizon", "1", "--trace", tr)
    assert code == 0
    assert out == "" or "wrote" in out
    assert tr.read_text().startswith("0.000000\t")


@pytest.mark.parametrize("flag,value", [
    ("--step", "0"),
    ("--step", "-0.1"),
    ("--step", "nan"),
    ("--horizon", "-1"),
    ("--horizon", "inf"),
    ("--init", "x=1e400"),
    ("--init", "x=1/0"),
    ("--init", "nope=1"),
    ("--init", "x=[1,2]"),
])
def test_simulate_rejects_bad_arguments(capsys, flag, value):
    code, out, err = run(capsys, "simulate", MODELS / "decay.hsv",
                         "--program", "dec", "--horizon", "1", flag, value)
    assert code == 1
    assert err.startswith("error: ")
    assert out == ""


def test_simulate_evaluation_error_is_reported(capsys):
    # the all-zero default state divides 0 by co = 0 in the drain guard
    code, _, err = run(capsys, "simulate", MODELS / "tank.hsv", "--program", "tank",
                       "--step", "0.05", "--horizon", "4")
    assert code == 1
    assert err.startswith("error: simulation stopped:")


@pytest.mark.parametrize("ode,args", [
    # a quantified guard has no evaluation
    ("{ x' = 1 | forall y. (y - x)^2 >= 0 }", ()),
    # the guard region is thinner than the step can resolve
    ("{ x' = 1 | x <= 1/1000000 }", ("--init", "x=0.0000009", "--step", "0.5")),
])
def test_simulate_stop_is_reported(capsys, tmp_path, ode, args):
    p = tmp_path / "stop.hsv"
    p.write_text(f"dataspace d {{\n  variables x : real;\n}}\n\nprogram run = {ode}\n")
    code, out, err = run(capsys, "simulate", p, "--program", "run", "--horizon", "1", *args)
    assert code == 1
    assert err.startswith("error: simulation stopped: ")
    assert "Traceback" not in err
    assert out == ""


def test_deep_expression_is_an_error_not_a_traceback(capsys, tmp_path):
    p = tmp_path / "deep.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 "program run = x := " + " + ".join(["x"] * 600) + "\n")
    code, out, err = run(capsys, "simulate", p, "--program", "run", "--init", "x=1")
    assert code == 1
    assert err.startswith("error: ") and "levels deep" in err
    assert "Traceback" not in err
    assert out == ""


def test_deep_wp_condition_is_unknown_not_a_traceback(capsys, tmp_path):
    # each assignment is 150 levels deep, inside the parser's bound, but the
    # second substitutes the first into every x: the simplified condition
    # is a chain 22,502 levels deep
    s = " + ".join(["x"] * 150)
    p = tmp_path / "deep_wp.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 f"program p = x := {s} ; x := {s}\n\n"
                 "goal g : { x >= 0 } p { x >= 0 } by wp\n")
    for flags, exit_code in (((), 0), (("--strict",), 3)):
        code, out, err = run(capsys, "verify", p, *flags)
        assert (code, out) == (exit_code, "goal g: unknown (wp)\n")
        assert "Traceback" not in err


def test_long_sum_inside_deep_brackets_parses(capsys, tmp_path):
    # 63 brackets around (x + ... + x) * x with an 80-term sum: the parser's
    # own frames are on the stack when it checks the product's kinds
    s = " + ".join(["x"] * 80)
    e = "(" * 63 + f"({s}) * x" + ")" * 63
    p = tmp_path / "brackets.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 f"program p = x := {e}\n\n"
                 "goal g : { x >= 0 } p { x >= 0 } by wp\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out) == (0, "goal g: proved (wp)\n")
    assert "Traceback" not in err
    code, out, err = run(capsys, "simulate", p, "--program", "p", "--init", "x=1")
    assert code == 0 and "Traceback" not in err


def test_runtime_needs_only_the_standard_library():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys, hsverify.cli\n"
             "print('\\n'.join(sorted({m.partition('.')[0] for m in sys.modules})))")
    env = dict(os.environ, PYTHONPATH=str(src))
    # -S skips site hooks, so only hsverify's own imports can load a module
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    outside = set(out.split()) - set(sys.stdlib_module_names) - {"__main__", "hsverify"}
    assert not outside, sorted(outside)


def test_closed_pipe_ends_quietly():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    child = subprocess.Popen(
        [sys.executable, "-m", "hsverify.cli", "vcs", str(MODELS / "tank.hsv"), "--seed", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the reader goes away while the child is still starting, before it writes
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait() == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
