"""End-to-end runs of the command-line driver."""

import contextlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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


@pytest.mark.parametrize("method,where", [
    ("flow(nope)", "6:42: goal g uses unknown flow 'nope'"),
    ("dInductMega using cpos, nope", "6:61: goal g uses unknown assumption 'nope'"),
])
def test_unknown_reference_names_its_position(capsys, tmp_path, method, where):
    p = tmp_path / "f.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n  constants c : real; assumes cpos: c >= 0;\n}\n"
                 "program p = skip\n"
                 f"goal g : {{ x >= 0 }} p {{ x >= 0 }} by {method}\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out, err) == (1, "", f"error: {p}:{where}\n")


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


def test_emit_smt_asserts_each_assumption_once(capsys, tmp_path):
    p = tmp_path / "assumed.hsv"
    p.write_text("dataspace d {\n  constants c : real;\n  assumes cpos: c > 0;\n"
                 "  variables x : real;\n}\n\nprogram p = skip\n\n"
                 "goal g : { true } p { exp(c * x) >= 1 + c * x } by wp\n")
    d = tmp_path / "smt"
    assert run(capsys, "verify", p, "--trials", 50, "--emit-smt", d) \
        == (0, "goal g: unknown (wp)\n", "")
    text = (d / "g_main.smt2").read_text()
    assert text.count("(> c 0.0)") == 1
    assert "(assert (not (>= (exp (* c x)) (+ (* c x) 1.0))))" in text


def test_smt_text_is_built_only_for_emit_smt(capsys, hard_model, tmp_path, monkeypatch):
    from hsverify import arith

    calls = []
    emit = arith.emit_smtlib

    def counting(*args):
        calls.append(args[2])
        return emit(*args)

    monkeypatch.setattr(arith, "emit_smtlib", counting)
    code, out, _ = run(capsys, "verify", hard_model, "--trials", 50)
    assert "goal convex: unknown" in out and calls == []
    run(capsys, "verify", hard_model, "--trials", 50, "--emit-smt", tmp_path / "smt")
    assert calls == ["main"]


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


# valid goals whose atoms overflow a float at some draws: exp of a large
# square, and a rational power too large to convert for the comparison
OVERFLOW = """\
dataspace d {{
  variables x : real;
}}

program p = skip

goal g : {goal} by wp
"""


@pytest.mark.parametrize("goal", ["{ true } p { exp(x * x) >= x * x + 1 }",
                                  "{ x >= 50 } p { x^300 >= exp(x) }"])
@pytest.mark.parametrize("command, expected", [("verify", "goal g: unknown (wp)\n"),
                                               ("falsify", "goal g: no counterexample in 300 trials\n")])
def test_an_overflow_leaves_the_atom_undecided(capsys, tmp_path, goal, command, expected):
    p = tmp_path / "overflow.hsv"
    p.write_text(OVERFLOW.format(goal=goal))
    code, out, err = run(capsys, command, p)
    assert (code, out, err) == (0, expected, "")


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


@pytest.fixture
def vec_model(tmp_path):
    p = tmp_path / "vec.hsv"
    p.write_text("dataspace m {\n  variables p : vec[2], s : real;\n}\n\n"
                 "program bump = s := s + 1\n")
    return p


def test_simulate_vector_init(capsys, vec_model):
    code, out, _ = run(capsys, "simulate", vec_model, "--program", "bump",
                       "--init", "p=[1,2],s=1/2")
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert "p=[1, 2]" in last
    assert "s=3/2" in last


@pytest.mark.parametrize("value", ["p=[1,23", "p=[1,2", "p=["])
def test_simulate_unclosed_vector_init(capsys, vec_model, value):
    # a vector with no closing bracket is an error, not a shorter vector
    code, out, err = run(capsys, "simulate", vec_model, "--program", "bump",
                         "--init", value)
    assert code == 1
    assert err.startswith("error: bad initial state:")
    assert out == ""


def fresh_run(*argv):
    """(exit code, stdout, stderr) of hsverify in a process of its own."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", "hsverify.cli", *map(str, argv)],
                         env=env, capture_output=True, text=True)
    return out.returncode, out.stdout, out.stderr


def test_no_option_carries_over_between_calls(capsys, hard_model, tmp_path):
    # one process reuses one argument parser; each call must read as a fresh run
    tr = tmp_path / "t.txt"

    def take_trace():
        text = tr.read_text() if tr.exists() else None
        tr.unlink(missing_ok=True)
        return text

    sim = ("simulate", MODELS / "decay.hsv", "--program", "dec", "--init", "x=1",
           "--step", "0.5", "--horizon", "1")
    runs = (("verify", hard_model, "--trials", 50, "--strict"),
            ("verify", hard_model, "--trials", 50),
            sim + ("--trace", tr),
            sim)
    codes, traces = [], []
    for argv in runs:
        got = run(capsys, *argv)
        traces.append(take_trace())
        assert got == fresh_run(*argv)
        assert take_trace() == traces[-1]
        codes.append(got[0])
    assert codes == [3, 0, 0, 0]
    assert traces[2].startswith("0.000000\t") and traces[3] is None


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


@pytest.mark.parametrize("ode, goal", [
    # the guard region is thinner than the orbit search's step
    ("{ x' = 1, y' = x | x * y = 0 }", "{ x = 0 and y >= 1 } p { y >= 2 }"),
    # a quantified guard has no evaluation
    ("{ x' = 1 | exists v. v >= x }", "{ x >= 1 } p { x >= 5 }"),
])
def test_a_stopped_orbit_search_ends_in_a_verdict(capsys, tmp_path, ode, goal):
    p = tmp_path / "stop.hsv"
    p.write_text("dataspace d {\n  variables x : real, y : real;\n}\n\n"
                 f"program p = {ode}\n\ngoal g : {goal} by dInductMega\n")
    assert run(capsys, "verify", p) == (0, "goal g: unknown (dI*)\n", "")


# the prover cannot refute this goal, but the falsifier can at x = 1
SHRINK = """\
dataspace d {
  variables x : real;
}

program shrink = x := x * exp(-1)

goal by_wp : { x = 1 } shrink { x >= 1 } by wp
goal by_dprove : { x = 1 } shrink { x >= 1 } by dProve
"""


def test_trials_bound_the_wp_attempts_of_dprove(capsys, tmp_path):
    p = tmp_path / "shrink.hsv"
    p.write_text(SHRINK)
    code, out, _ = run(capsys, "verify", p, "--trials", 0)
    assert (code, out) == (0, "goal by_wp: unknown (wp)\ngoal by_dprove: unknown (wp)\n")
    code, out, _ = run(capsys, "verify", p)
    assert (code, out) == (2, "goal by_wp: refuted (wp)\ngoal by_dprove: refuted (wp)\n")


DECAY = """\
dataspace d {
  variables x : real;
}

program dec = { x' = -x }

flow shrink for dec = [x ~> x * exp(-tau)] lipschitz 1

goal by_wp : { x = 1 } dec { x >= 1 } by wp
goal by_dprove : { x = 1 } dec { x >= 1 } by dProve
goal by_mega : { x = 1 } dec { x >= 1 } by dInductMega
"""


def test_trials_zero_turns_off_the_orbit_search(capsys, tmp_path):
    p = tmp_path / "decay.hsv"
    p.write_text(DECAY)
    flow = "flow shrink: certified, L=1\n"
    code, out, _ = run(capsys, "verify", p, "--trials", 0)
    assert (code, out) == (0, "goal by_wp: unknown (wp)\ngoal by_dprove: unknown (wp)\n"
                              "goal by_mega: unknown (dI*)\n" + flow)
    code, out, _ = run(capsys, "verify", p)
    assert (code, out) == (2, "goal by_wp: refuted (wp)\ngoal by_dprove: refuted (wp)\n"
                              "goal by_mega: refuted (dI*)\n" + flow)


def test_vcs_simulates_no_orbit(capsys, tmp_path, monkeypatch):
    # vcs runs each goal at no trials and prints no verdict, so the orbit
    # search of an unflowed dInductMega goal has nothing to do
    from hsverify import tactics
    p = tmp_path / "decay.hsv"
    p.write_text(DECAY.split("flow shrink")[0] + "goal g : { x = 1 } dec { x >= 1 } by dInductMega\n")
    calls = []
    real = tactics.simulate_traced
    monkeypatch.setattr(tactics, "simulate_traced", lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "vcs", p)
    assert code == 0 and out and calls == []


DURATIONS = """\
dataspace d {
  variables s : real, x : real;
}

program blow = { s' = s^2 on 0..1/2 }
program clock = { s' = 1 on 0..1 }
program edge = { s' = 1, x' = ln(51/50 - s) on 0..1 }
"""


@pytest.fixture
def durations_model(tmp_path):
    p = tmp_path / "durations.hsv"
    p.write_text(DURATIONS)
    return p


def test_simulate_stops_at_the_end_of_the_duration(capsys, durations_model):
    # s' = s^2 from s = 1 overflows before tau = 1, after the interval ends;
    # the step after tau = 10 * 0.1 = 1 would take ln of a negative number
    for prog, init, step in (("blow", "s=1", "0.01"), ("edge", "s=0", "0.1")):
        code, out, err = run(capsys, "simulate", durations_model, "--program", prog,
                             "--init", init, "--step", step, "--horizon", "2")
        assert (code, err) == (0, "")


def test_simulate_keeps_the_end_of_the_duration(capsys, durations_model):
    # 1,000 steps of 0.001 sum to 1.0000000000000007, past the end; 1000 * 0.001 is 1
    code, out, _ = run(capsys, "simulate", durations_model, "--program", "clock",
                       "--init", "s=0", "--step", "0.001", "--horizon", "1")
    assert code == 0
    assert out.strip().splitlines()[-1].startswith("1.000000\t")


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


def test_valid_exists_beyond_the_box_is_not_refuted(capsys, tmp_path):
    # the witness v lies outside the falsifier's default box, so the grid
    # finds no instance and the goal stays unknown
    p = tmp_path / "far.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 "program inc = x := x + 1\n\n"
                 "goal g : { x >= 0 } inc { exists v. v > 1000 + x } by wp\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out, err) == (0, "goal g: unknown (wp)\n", "")


@pytest.mark.parametrize("goal", ["{ true } skip { x <= 101 }",
                                  "{ x >= 0 } skip { x * x <= 10001 }"])
def test_the_sampling_box_proves_nothing(capsys, tmp_path, goal):
    # x = 200, outside the falsifier's box, refutes both goals
    p = tmp_path / "box.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 f"program skip = skip\n\ngoal g : {goal} by wp\n")
    code, out, err = run(capsys, "verify", p)
    assert code == 0 and out == "goal g: unknown (wp)\n" and err == ""


def test_a_bound_beyond_float_range_is_no_traceback(capsys, tmp_path):
    p = tmp_path / "huge.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 "program skip = skip\n\n"
                 "goal g : { x <= 10^400 } skip { sin(x) <= 2 } by wp\n")
    code, out, err = run(capsys, "verify", p)
    assert out in ("goal g: proved (wp)\n", "goal g: unknown (wp)\n")
    assert code == 0 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "vcs", "falsify"])
def test_a_binder_with_a_store_name_is_an_error(capsys, tmp_path, command):
    p = tmp_path / "binder.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 "program skip = skip\n\n"
                 "goal g : { x >= 5 } skip { exists x. x <= 0 } by wp\n")
    code, out, err = run(capsys, command, p)
    assert code == 1 and out == ""
    assert err == f"error: {p}:7:35: bound variable 'x' is a declared name\n"


def test_a_superscript_digit_is_a_located_error(capsys, tmp_path):
    p = tmp_path / "digit.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\nprogram p = x := 2²\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out, err) == (1, "", f"error: {p}:4:19: stray character '²'\n")
    # x² once read as one name, an undeclared one and so a free logical
    p.write_text("dataspace d {\n  variables x : real;\n}\nprogram p = x := x²\n\n"
                 "goal g : { true } p { x >= 0 } by wp\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out, err) == (1, "", f"error: {p}:4:19: stray character '²'\n")


# invalid goals whose proof once replaced a term under a binder of one of
# its logicals, or resolved or split on an if under a binder of its
# condition's name
CAPTURE = {
    # false at v = 5, x = -1
    "r1": "{ v = 5 and x = -1 } p { x > 0 or forall v. v = 5 }",
    # false at x = w = 0, y = -1
    "r2": "{ x = w } p { y > 0 or forall w. x = w }",
    # false at v = 1, x = -1
    "r3": "{ forall v. (if v > 0 then v > 0 else true) } p { if v > 0 then x > 0 else true }",
    # false at x = -1
    "r4": "{ forall v. (if v > 0 then v > 0 else v < 1) } p { x > 0 }",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_binder_captures_a_substituted_term(capsys, tmp_path, seed):
    p = tmp_path / "capture.hsv"
    goals = [(f"{name}_{method}", goal, method) for method in ("wp", "dProve")
             for name, goal in CAPTURE.items()]
    p.write_text("dataspace capture {\n  variables x : real;\n}\n\nprogram p = skip\n\n"
                 + "".join(f"goal {name} : {goal} by {method}\n" for name, goal, method in goals))
    code, out, err = run(capsys, "verify", p, "--seed", seed)
    assert (code, err) == (0, "")
    assert out == "".join(f"goal {name}: unknown (wp)\n" for name, _, _ in goals)


# invalid goals that the monotone rule once proved from the derivative's
# sign at v alone, not on the segment from v to the endpoint
MONOTONE = {
    # false at v = 1: 2 - 2*v <= 0 holds for v >= 1, not on [0, 1)
    "m7": "{ true } p { forall v. v >= 1 -> v^2 - 2*v >= 0 }",
    # false at v = 1: the segment [v, 10] runs past the bound v <= 1
    "m4": "{ true } p { forall v. 0 <= v and v <= 1 and v <= 10 -> 2 - (v - 2)^2 <= 0 }",
    # false at tau = 5
    "m6": "{ x = 0 } e { x >= 5 -> 9 - (x - 3)^2 <= 0 }",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotone_shows_the_slope_on_the_whole_segment(capsys, tmp_path, seed):
    p = tmp_path / "monotone.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\nprogram p = skip\n"
                 "program e = { evol x = x + tau }\n\n"
                 + "".join(f"goal {name} : {goal} by wp\n" for name, goal in MONOTONE.items()))
    code, out, err = run(capsys, "verify", p, "--seed", seed)
    assert err == "" and code in (0, 2)
    verdicts = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(verdicts) == [f"goal {name}" for name in MONOTONE]
    assert not any(v.startswith("proved") for v in verdicts.values()), verdicts


# invalid goals, each false at g = 1/2 or x = 1/2, that were once proved: every
# condition, loop-post and the induction step included, takes the assumption
# as a hypothesis, so the assumption must hold in every state the program
# reaches
STORE_ASSUMPTIONS = [
    ("constants g : real;\n  assumes pos: g > 0;\n  variables x : real;",
     "loop g := g - 10 inv true", "g > 0", "wp", "7:18: constant 'g' cannot be written"),
    ("constants g : real;\n  assumes pos: g > 0;\n  variables x : real;",
     "loop g := g - 10 inv true", "g > 0", "dProve", "7:18: constant 'g' cannot be written"),
    ("constants g : real;\n  assumes pos: g > 0;\n  variables x : real;",
     "{ x' = 1, g' = -1 }", "g > 0", "dInductMega", "7:23: constant 'g' cannot be written"),
    ("variables x : real;\n  assumes pos: x > 0;",
     "loop x := x - 10 inv true", "x > 0", "wp",
     "3:16: assumption pos reads x, which is not a constant"),
    ("variables x : real;\n  assumes pos: x > 0;",
     "{ x' = -1 }", "x > 0", "dInductMega",
     "3:16: assumption pos reads x, which is not a constant"),
    # read before its declaration, g would be a free logical in every goal
    ("assumes pos: g > 0;\n  constants g : real;\n  variables x : real;",
     "x := g", "x > 0", "wp", "2:16: assumption pos reads g, which is not a constant"),
]


@pytest.mark.parametrize("decls, prog, post, method, where", STORE_ASSUMPTIONS)
def test_assumptions_hold_in_every_state(capsys, tmp_path, decls, prog, post, method, where):
    p = tmp_path / "consts.hsv"
    p.write_text(f"dataspace d {{\n  {decls}\n}}\n\nprogram p = {prog}\n\n"
                 f"goal g : {{ true }} p {{ {post} }} by {method}\n")
    assert run(capsys, "verify", p) == (1, "", f"error: {p}:{where}\n")


# loop goals over x and y: (name, pre, program, post, verdict by wp, verdict
# by dProve).  The frame rule proves those whose invariant leaves out a fact
# the loop never writes.  A falsified loop condition shows only that the
# invariant fails, so s1 (valid) and bad (invalid) are unknown, not refuted.
W1 = "loop x := x + y inv x >= 0"
LOOP_GOALS = [
    ("s1", "x >= 0", "loop x := x + 1 inv x >= 5", "x >= 0", "unknown (wp)", "unknown (wp)"),
    ("w1", "x >= 0 and y >= 0", W1, "x >= 0", "proved (wp)", "proved (wp)"),
    ("q1", "x >= 0 and y >= 0", "x := x + 1 ; loop x := x + y inv x >= 1", "x >= 1",
     "proved (wp)", None),
    ("f1", "x >= 0 and y > 0", W1, "x >= 0", "proved (wp)", "proved (wp)"),
    ("f5", "x >= 0 and y >= 0", W1, "x >= 0 and y >= 0", None, "proved (wp)"),
    ("f3", "x >= 0 and y >= 0", "loop { x' = y } inv x >= 0", "x >= 0", None, "proved (loop)"),
    ("bad", "x >= 0", W1, "x >= 0", "unknown (wp)", "unknown (wp)"),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_loop_goals_are_framed_and_never_refuted_by_a_condition(capsys, tmp_path, seed):
    p = tmp_path / "loops.hsv"
    text = "dataspace d {\n  variables x : real, y : real;\n}\n\n"
    want = []
    for name, pre, prog, post, *verdicts in LOOP_GOALS:
        text += f"program {name} = {prog}\n"
        for method, verdict in zip(("wp", "dProve"), verdicts):
            if verdict is not None:
                text += f"goal {name}_{method} : {{ {pre} }} {name} {{ {post} }} by {method}\n"
                want.append(f"goal {name}_{method}: {verdict}")
    p.write_text(text)
    assert run(capsys, "verify", p, "--seed", seed) == (0, "\n".join(want) + "\n", "")


# goals naming an assumption, which every condition takes as a hypothesis
# already: (method, program, post, verdict)
USING_GOALS = [
    ("dInduct", "{ x' = c }", "x >= 0", "unknown (dI)"),
    ("dInductAuto", "{ x' = c }", "x >= 0", "proved (dI)"),
    ("dWeaken", "{ x' = -c | x >= 0 }", "x >= 0", "proved (dW)"),
]


@pytest.mark.parametrize("method, prog, post, verdict", USING_GOALS)
def test_using_adds_no_hypothesis(capsys, tmp_path, method, prog, post, verdict):
    outs = []
    for tail in (" using cpos", ""):
        p = tmp_path / ("using" if tail else "plain") / "m.hsv"
        p.parent.mkdir()
        p.write_text("dataspace d {\n  constants c : real;\n  assumes cpos: c > 0;\n"
                     f"  variables x : real;\n}}\n\nprogram p = {prog}\n\n"
                     f"goal g : {{ x >= 0 }} p {{ {post} }} by {method}{tail}\n")
        outs.append((run(capsys, "vcs", p), run(capsys, "verify", p, "--json", "-")))
    assert outs[0] == outs[1]
    (_, vcs, _), (_, report, _) = outs[0]
    assert "c > 0" not in vcs
    assert report.startswith(f"goal g: {verdict}\n")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_negated_iff_is_proved(capsys, tmp_path, seed):
    p = tmp_path / "iff.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\nprogram p = skip\n\n"
                 "goal g1 : { x > 0 } p { not (x > 0 <-> x < 0) } by wp\n"
                 "goal g2 : { x > 0 } p { x > 0 <-> not (x < 0) } by wp\n")
    code, out, err = run(capsys, "verify", p, "--seed", seed)
    assert (code, out, err) == (0, "goal g1: proved (wp)\ngoal g2: proved (wp)\n", "")


OFF = "d/dtau of the p component is off by veclit(w[1],w[2])"


@pytest.mark.parametrize("flow, expected", [
    ("p + tau * w", (0, "goal g: proved (wp)\nflow slide: certified, L=1/2\n")),
    ("p + 2 * tau * w", (1, f"goal g: error -- flow 'slide' failed certification: {OFF}\n"
                            f"flow slide: rejected: {OFF}\n")),
])
def test_a_vector_flow_is_certified_by_coordinate(capsys, tmp_path, flow, expected):
    p = tmp_path / "slide.hsv"
    p.write_text("dataspace d {\n  variables p : vec[2], w : vec[2];\n}\n\n"
                 "program move = { p' = w }\n"
                 f"flow slide for move = [p ~> {flow}]\n\n"
                 "goal g : { w = [0, 0] and p = [1, 2] } move { p = [1, 2] } by flow(slide)\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out) == expected
    assert "Traceback" not in err


def test_a_constant_vector_is_invariant_by_normalization(capsys, tmp_path):
    p = tmp_path / "still.hsv"
    p.write_text("dataspace d {\n  variables p : vec[2], x : real;\n  constants P : vec[2];\n}\n\n"
                 "program still = { p' = [0, 0], x' = 1 }\n\n"
                 "goal g : { p = P } still { p = P } by dInduct\n")
    assert run(capsys, "verify", p) == (0, "goal g: proved (dI)\n", "")


# 1 / x has no symbolic derivative along x' = -x
NO_DERIVATIVE = "denominator moves with the frame: 1 / x"


@pytest.mark.parametrize("method, expected", [
    ("dInduct", (1, f"goal g: error -- {NO_DERIVATIVE}\n")),
    ("dInductAuto", (1, f"goal g: error -- {NO_DERIVATIVE}\n")),
    ("dInductMega", (0, "goal g: unknown (dI*)\n")),
    ("dProve", (0, "goal g: unknown (dI*)\n")),
])
def test_a_term_with_no_derivative_ends_the_goal_not_the_run(capsys, tmp_path, method, expected):
    p = tmp_path / "inv.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\nprogram dec = { x' = -x }\n\n"
                 f"goal g : {{ x > 0 }} dec {{ 1 / x > 0 }} by {method}\n")
    code, out, err = run(capsys, "verify", p)
    assert (code, out, err) == (*expected, "")


def test_a_flow_with_no_derivative_is_rejected(capsys, tmp_path):
    p = tmp_path / "other.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\nprogram dec = { x' = -x }\n\n"
                 "flow other for dec = [x ~> x / exp(tau)]\n\n"
                 "goal g : { x > 0 } dec { x > 0 } by flow(other)\n")
    cause = "no symbolic d/dtau of the x component: denominator moves with the frame: x / exp(tau)"
    why = f"flow 'other' failed certification: {cause}"
    assert run(capsys, "verify", p) == (1, f"goal g: error -- {why}\n"
                                           f"flow other: rejected: {cause}\n", "")
    assert run(capsys, "vcs", p) == (1, f"goal g (flow(other)):\n  error: {why}\n", "")
    assert run(capsys, "falsify", p) == (1, "", f"error: goal g: {why}\n")


def test_vcs_follows_the_flow_a_goal_names(capsys, tmp_path):
    # other is registered last for the field; pos_flow names shrink
    p = tmp_path / "two.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\nprogram dec = { x' = -x }\n\n"
                 "flow shrink for dec = [x ~> x * exp(-tau)]\n"
                 "flow other for dec = [x ~> x * exp(0 - tau)]\n\n"
                 "goal pos_flow : { x > 0 } dec { x > 0 } by flow(shrink)\n"
                 "goal pos_wp : { x > 0 } dec { x > 0 } by wp\n")
    code, out, err = run(capsys, "vcs", p)
    assert (code, err) == (0, "")
    assert out.splitlines()[1].endswith("x * exp(-tau) > 0)")
    assert out.splitlines()[3].endswith("x * exp(0 - tau) > 0)")


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


# -- fuzzing: mutated models and arguments end in a verdict or an error -------

_TOKEN = re.compile(r"\s+|\w+|[^\w\s]")
_MODEL_TOKENS = {p.name: _TOKEN.findall(p.read_text()) for p in sorted(MODELS.glob("*.hsv"))}
# about 2 s for the models and 0.6 s for the arguments
_FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def run_quietly(argv):
    """(exit code, stderr) of main(argv) in-process.  argparse's usage
    errors exit through SystemExit; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@st.composite
def mutated_model(draw):
    """A shipped model with one to three tokens dropped, duplicated or swapped."""
    toks = list(_MODEL_TOKENS[draw(st.sampled_from(sorted(_MODEL_TOKENS)))])
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.integers(0, len(toks) - 1)), draw(st.integers(0, len(toks) - 1))
        how = draw(st.sampled_from(["drop", "duplicate", "swap"]))
        if how == "drop":
            del toks[i]
        elif how == "duplicate":
            toks.insert(i, toks[i])
        else:
            toks[i], toks[j] = toks[j], toks[i]
    return "".join(toks)


@_FUZZ
@given(text=mutated_model(), command=st.sampled_from(["verify", "vcs", "falsify"]))
def test_mutated_models_end_in_a_verdict_or_an_error(text, command):
    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "m.hsv")
        with open(p, "w", encoding="utf-8") as f:
            f.write(text)
        code, err = run_quietly([command, p] + ([] if command == "vcs" else ["--trials", "20"]))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


_NUMBERS = st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "-inf", "1e309", "1/2", "x", ""])
_INITS = st.sampled_from(["x=1,y=0", "r=2", "x", "x=", "=1", "x=1,y", "x=nan", "y=inf", "x=1/0",
                          "x=(1,2)", "z=1", "x=1e400", "x=1,x=2", ",", ""])
# {dir} is a scratch directory holding an empty file {dir}/empty
_FILES = st.sampled_from([str(MODELS / "pendulum.hsv"), "{dir}/missing.hsv", "{dir}",
                          "{dir}/empty"])
_OUTPUTS = st.sampled_from(["{dir}/out", "{dir}/missing/out", "{dir}", "{dir}/empty"])


@st.composite
def mutated_arguments(draw):
    """An argument list for main with bad numbers, nan and inf, malformed
    initial states, missing or unreadable files and unwritable outputs."""
    command = draw(st.sampled_from(["verify", "vcs", "falsify", "simulate"]))
    argv = [command, draw(_FILES)]
    flags = [("--seed", _NUMBERS), ("--goal", st.sampled_from(["radius", "nope"]))]
    if command in ("verify", "falsify"):
        flags.append(("--trials", _NUMBERS))
    if command == "verify":
        flags += [("--json", _OUTPUTS | st.just("-")), ("--emit-smt", _OUTPUTS)]
    if command == "simulate":
        flags = [("--seed", _NUMBERS), ("--program", st.sampled_from(["rotate", "nope"])),
                 ("--init", _INITS), ("--init", _INITS), ("--step", _NUMBERS),
                 ("--horizon", _NUMBERS), ("--trace", _OUTPUTS)]
    for flag, values in flags:
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(_FUZZ, max_examples=150)
@given(argv=mutated_arguments())
def test_mutated_arguments_end_in_a_verdict_or_an_error(argv):
    with tempfile.TemporaryDirectory() as d:
        open(os.path.join(d, "empty"), "w").close()
        code, err = run_quietly([a.replace("{dir}", d) for a in argv])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


# Stiff fields whose float RK4 orbits overflow from a start state near the
# sampling box's edge; the last goal is invalid (x passes 100 before its
# orbit overflows).
STIFF_GOALS = [
    ("-x^3", "x > 0", True),
    ("-x^5", "x > 0", True),
    ("x^3", "x > 0", True),
    ("x^2", "x < 100", False),
]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tactic", ["dInductMega", "dProve"])
@pytest.mark.parametrize("field,post,valid", STIFF_GOALS)
def test_an_overflowing_orbit_is_no_traceback(capsys, tmp_path, field, post, valid,
                                              tactic, seed):
    p = tmp_path / "stiff.hsv"
    p.write_text("dataspace d {\n  variables x : real;\n}\n\n"
                 f"program flow = {{ x' = {field} }}\n\n"
                 f"goal g : {{ x > 0 }} flow {{ {post} }} by {tactic}\n")
    code, out, err = run(capsys, "verify", p, "--seed", seed)
    assert code == 0 and "Traceback" not in err
    assert out.startswith("goal g: ")
    assert ("refuted" if valid else "proved") not in out
