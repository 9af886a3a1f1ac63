"""Check that two source trees of hsverify give the same output, call by call.

Usage, from anywhere:

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

Each argument is the root of a checkout (the directory holding src/,
models/, demos/ and perfbench/).  Each tree runs in one subprocess of its
own, which imports hsverify from that tree's src/ and makes these calls:

  - every call of the four perfbench workloads at seeds 0-3, as
    perfbench/workloads.py of CHANGE_SRC generates them;
  - the benchmark's known-defect call;
  - ``verify MODEL --json -`` and ``falsify MODEL`` over each models/*.hsv
    at seeds 0 and 1; the models' store and logical names are real, vector
    and bool, every kind the falsifier samples;
  - ``verify PROBES --json -`` at seeds 0-2, where PROBES is the probe
    model below, written to the work directory;
  - ``falsify models/tank.hsv --trials 2000 --seed 0``, whose conditions
    through a guarded flow quantify the guard over time; q_eval can never
    make them False, so this call pins the falsifier's skip of their
    trials (falsify-generated's evol goals still sample binder grids);
  - ``vcs MODEL --seed 0`` over each models/*.hsv and each prove-generated
    model of seed 0, which prints every condition after substitution;
  - ``syntax.pretty(syntax.parse(text))`` over the same models, each
    falsify-generated model of seed 0 (guarded ``evol`` programs) and
    PROBES, which prints each model through the model writer;
  - ``falsify MODEL --seed 0`` over each prove-generated model of seed 0,
    whose conditions the falsifier either tries or skips;
  - ``verify MODEL --seed 0 --emit-smt DIR`` over each prove-generated model
    of seed 0, whose stdout digest also covers the sorted names and sha256
    of the files written to DIR;
  - every script under demos/.

For each call it compares the exit code and the sha256 of stdout and of
stderr; the tree's own path is replaced by ``<tree>`` first.  It prints the
call count, the number of .smt2 files compared, the number of differences,
every traceback, the line count of the *.py files under each tree's src/,
and each tree's total calls of arith._Prover.prove over the whole run (n/a
when the tree has no such method), so that a speedup can be told apart
from a change in the prover's work.  It exits 1 when any call differs, or
when no .smt2 file was compared.  Only the standard library is used.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
import tempfile
import traceback

SEEDS = (0, 1, 2, 3)
MODEL_SEEDS = (0, 1)
PROBE_SEEDS = (0, 1, 2)

# Goals whose verdicts mark what the prover can decide and where it once
# decided wrongly: four valid ODE goals that dInductMega leaves unknown (the
# ball's velocity is u here, since v is a binder below), eleven polynomial
# facts, three quantified goals, three invalid goals that the monotone rule
# once proved (m4, m6, m7), four invalid goals once proved by a capturing
# substitution (r1-r4) by wp and by dProve, two forms of one valid
# equivalence, one goal for each leaf rule of the sequent prover, and loop
# goals whose conditions hold only relative to the written invariant: s1,
# w1, q1, f1, f5 and f3 are valid and bad is not, by wp and by dProve; and
# goals by dInduct, dInductAuto and dWeaken that name an assumption, which
# every condition takes as a hypothesis already; and three dInductMega goals
# whose steps show how many cuts the ladder makes before it weakens: cut_lift
# and cut_held, and cut_back, whose domain is empty; and two dInductMega
# goals whose orbit search stops: on a guard region thinner than its step
# (orbit_thin) and on a quantified guard (orbit_quantified); and fm_cap,
# whose Fourier-Motzkin products pass the row cap, so it is proved on the
# hypotheses' rows without them.
PROBES = """\
dataspace probes {
  constants g : real, H : real;
  assumes gpos: g > 0;
  variables x : real, y : real, h : real, u : real;
}

program p = skip
program inc = x := x + 1
program e = { evol x = x + tau }
program decay = { x' = -x }
program prod = { x' = x * y, y' = 1 }
program ball = { h' = u, u' = -g | h >= 0 }
program count = loop x := x + 1 inv x >= 5
program add = loop x := x + y inv x >= 0
program add1 = x := x + 1 ; loop x := x + y inv x >= 1
program drift = loop { x' = y } inv x >= 0
program fall = { u' = -g }
program up = { x' = 1, y' = 1 }
program down = { x' = -1, y' = 1 | x <= 5 }
program back = { x' = -x | x >= 0 }
program thin = { x' = 1, y' = x | x * y = 0 }
program open_guard = { x' = 1 | exists v. v >= x }

goal decay_pos : { x > 0 } decay { x > 0 } by dInductMega
goal prod_zero : { x = 0 } prod { x = 0 } by dInductMega
goal prod_pos : { x > 0 } prod { x > 0 } by dInductMega
goal ball_drop : { h = H and u = 0 and H >= 0 } ball { h <= H } by dInductMega using gpos
goal sq1 : { true } p { x^2 - 2*x + 1 >= 0 } by wp
goal sq2 : { true } p { x^2 + x + 1 > 0 } by wp
goal sq3 : { true } p { x^2 - 3*x + 3 > 0 } by wp
goal sq4 : { true } p { x^4 - 2*x^2 + 1 >= 0 } by wp
goal sq5 : { true } p { x^4 + 1 >= 2*x^2 } by wp
goal sq6 : { true } p { x^2 + y^2 >= 2*x*y } by wp
goal cube : { x >= 1 } p { x^3 - x >= 0 } by wp
goal unit : { 0 <= x and x <= 1 } p { x - x^2 >= 0 } by wp
goal past2 : { x > 2 } p { x^2 > 4 } by wp
goal bad_sq : { true } p { x^2 - 3*x + 2 >= 0 } by wp
goal bad_quartic : { true } p { x^4 - 3*x^2 + 2 >= 0 } by wp
goal far : { x >= 0 } inc { exists v. v > 1000 + x } by wp
goal between : { x >= 0 } inc { exists v. v > x and v < x + 1 } by wp
goal no_seven : { true } p { not (exists v. v = 7) } by wp
goal m7 : { true } p { forall v. v >= 1 -> v^2 - 2*v >= 0 } by wp
goal m4 : { true } p { forall v. 0 <= v and v <= 1 and v <= 10 -> 2 - (v - 2)^2 <= 0 } by wp
goal m6 : { x = 0 } e { x >= 5 -> 9 - (x - 3)^2 <= 0 } by wp
goal r1 : { v = 5 and x = -1 } p { x > 0 or forall v. v = 5 } by wp
goal r2 : { x = w } p { y > 0 or forall w. x = w } by wp
goal r3 : { forall v. (if v > 0 then v > 0 else true) } p { if v > 0 then x > 0 else true } by wp
goal r4 : { forall v. (if v > 0 then v > 0 else v < 1) } p { x > 0 } by wp
goal r1_dprove : { v = 5 and x = -1 } p { x > 0 or forall v. v = 5 } by dProve
goal r2_dprove : { x = w } p { y > 0 or forall w. x = w } by dProve
goal r3_dprove : { forall v. (if v > 0 then v > 0 else true) } p { if v > 0 then x > 0 else true } by dProve
goal r4_dprove : { forall v. (if v > 0 then v > 0 else v < 1) } p { x > 0 } by dProve
goal not_iff : { x > 0 } p { not (x > 0 <-> x < 0) } by wp
goal iff_not : { x > 0 } p { x > 0 <-> not (x < 0) } by wp
goal leaf_neq : { x + y > 2 and x - y > 0 } p { x != 0 } by wp
goal leaf_false : { x > y and y > x } p { x > 0 } by wp
goal leaf_or : { x > 1 } p { x < 0 or x > 1/2 } by wp
goal leaf_eq : { x <= y and y <= x } p { x = y } by wp
goal leaf_interval : { x >= 2 } p { cos(x) < x } by wp
goal leaf_monotone : { x >= 0 } p { forall t. 0 <= t -> x * exp(-t) <= x } by wp
goal leaf_poly : { true } p { (x + y)^2 = x^2 + 2*x*y + y^2 } by wp
goal leaf_div : { x > 0 } p { sqrt(x)^2 / x = 1 } by wp
goal s1 : { x >= 0 } count { x >= 0 } by wp
goal s1_dprove : { x >= 0 } count { x >= 0 } by dProve
goal w1 : { x >= 0 and y >= 0 } add { x >= 0 } by wp
goal w1_dprove : { x >= 0 and y >= 0 } add { x >= 0 } by dProve
goal q1 : { x >= 0 and y >= 0 } add1 { x >= 1 } by wp
goal f1 : { x >= 0 and y > 0 } add { x >= 0 } by wp
goal f1_dprove : { x >= 0 and y > 0 } add { x >= 0 } by dProve
goal f5 : { x >= 0 and y >= 0 } add { x >= 0 and y >= 0 } by dProve
goal f3 : { x >= 0 and y >= 0 } drift { x >= 0 } by dProve
goal bad : { x >= 0 } add { x >= 0 } by wp
goal bad_dprove : { x >= 0 } add { x >= 0 } by dProve
goal fall_ind : { u <= 0 } fall { u <= 0 } by dInduct using gpos
goal fall_auto : { u <= 0 } fall { u <= 0 } by dInductAuto using gpos
goal ball_floor : { h >= 0 } ball { h >= 0 } by dWeaken using gpos
goal cut_lift : { x >= 1 and y >= 0 } up { x >= 0 } by dInductMega
goal cut_held : { x <= 5 } down { x <= 5 } by dInductMega
goal cut_back : { x <= 2 and x > -2 and x < 0 } back { x >= -1 and x <= -1 } by dInductMega
goal orbit_thin : { x = 0 and y >= 1 } thin { y >= 2 } by dInductMega
goal orbit_quantified : { x >= 1 } open_guard { x >= 5 } by dInductMega
goal fm_cap : { x >= 0 and x <= 2 and x < 0 and x > -2 } p { x <= -1 } by wp
"""


def _load(path: str, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod  # dataclasses look their module up here
    spec.loader.exec_module(mod)
    return mod


def _run(fn, tree: str) -> dict:
    """Call fn() with stdout and stderr captured; its outcome, hashed."""
    out, err = io.StringIO(), io.StringIO()
    rc, tb = None, None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fn()
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:
        tb = traceback.format_exc().replace(tree, "<tree>")

    def digest(text: str) -> str:
        return hashlib.sha256(text.replace(tree, "<tree>").encode()).hexdigest()

    return {"rc": rc, "out": digest(out.getvalue()), "err": digest(err.getvalue()),
            "traceback": tb}


def worker(tree: str, workloads_py: str, work: str) -> int:
    """Make every call against tree and print one JSON line per call,
    then one line with the count of arith._Prover.prove calls."""
    tree = os.path.realpath(tree)
    src = os.path.join(tree, "src")
    sys.path.insert(0, src)
    from hsverify import arith, cli, syntax
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"hsverify came from {cli.__file__}, not {src}")
    prove_calls = None
    prove = getattr(getattr(arith, "_Prover", None), "prove", None)
    if prove is not None:
        prove_calls = 0

        def counted(*args, **kwargs):
            nonlocal prove_calls
            prove_calls += 1
            return prove(*args, **kwargs)
        arith._Prover.prove = counted
    W = _load(workloads_py, "same_output_workloads")

    def emit(label, fn, smt=lambda: ()):
        result = _run(fn, tree)
        print(json.dumps({"label": label, **result, "smt": len(smt())}), flush=True)

    def main_of(argv):
        return lambda: cli.main(list(argv))

    # the prove-generated and falsify-generated models of seed 0
    seed0 = {"prove-generated": [], "falsify-generated": []}
    for name in W.WORKLOADS:
        for seed in SEEDS:
            where = os.path.join(work, f"{name}-{seed}")
            os.makedirs(where)
            for i, call in enumerate(W.GENERATORS[name](tree, seed, where)):
                emit(f"{name} seed {seed} #{i} {call.label}", main_of(call.argv))
                if seed == 0 and name in seed0:
                    seed0[name].append(call.argv[1])
    generated, falsified = seed0["prove-generated"], seed0["falsify-generated"]
    defect = list(W.KNOWN_DEFECT_ARGV)
    defect[1] = os.path.join(tree, defect[1])
    emit("known defect", main_of(defect))
    models = os.path.join(tree, "models")
    shipped = [os.path.join(models, m) for m in sorted(os.listdir(models))
               if m.endswith(".hsv")]
    for path in shipped:
        for seed in MODEL_SEEDS:
            emit(f"verify {os.path.basename(path)} seed {seed}",
                 main_of(["verify", path, "--json", "-", "--seed", str(seed)]))
            emit(f"falsify {os.path.basename(path)} seed {seed}",
                 main_of(["falsify", path, "--seed", str(seed)]))
    probes = os.path.join(work, "probes.hsv")
    with open(probes, "w", encoding="utf-8") as f:
        f.write(PROBES)
    for seed in PROBE_SEEDS:
        emit(f"verify probes.hsv seed {seed}",
             main_of(["verify", probes, "--json", "-", "--seed", str(seed)]))
    emit("falsify tank.hsv --trials 2000",
         main_of(["falsify", os.path.join(models, "tank.hsv"), "--trials", "2000",
                  "--seed", "0"]))
    for path in shipped + generated:
        emit(f"vcs {os.path.basename(path)}", main_of(["vcs", path, "--seed", "0"]))
    for path in shipped + generated + falsified + [probes]:
        def pretty(path=path):
            with open(path, encoding="utf-8") as f:
                print(syntax.pretty(syntax.parse(f.read())), end="")
            return 0
        emit(f"pretty {os.path.basename(path)}", pretty)
    for path in generated:
        emit(f"falsify {os.path.basename(path)}", main_of(["falsify", path, "--seed", "0"]))
    for path in generated:
        where = os.path.join(work, "smt", os.path.basename(path))

        def smt(where=where):
            return sorted(os.listdir(where)) if os.path.isdir(where) else []

        def verify_smt(path=path, where=where, smt=smt):
            rc = cli.main(["verify", path, "--seed", "0", "--emit-smt", where])
            for n in smt():
                with open(os.path.join(where, n), "rb") as f:
                    print(n, hashlib.sha256(f.read()).hexdigest())
            return rc
        emit(f"verify --emit-smt {os.path.basename(path)}", verify_smt, smt)
    demos = os.path.join(tree, "demos")
    for d in sorted(n for n in os.listdir(demos) if n.endswith(".py")):
        def demo(path=os.path.join(demos, d)):
            runpy.run_path(path, run_name="__main__")
            return 0
        emit(f"demo {d}", demo)
    print(json.dumps({"prove_calls": prove_calls}))
    return 0


def _src_lines(tree: str) -> int:
    """Lines in the *.py files under tree/src."""
    total = 0
    for root, _, files in os.walk(os.path.join(tree, "src")):
        for n in files:
            if n.endswith(".py"):
                with open(os.path.join(root, n), "rb") as f:
                    total += f.read().count(b"\n")
    return total


def _calls_of(tree: str, workloads_py: str, work: str) -> tuple:
    """The worker's calls over tree, and its count of prove calls."""
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--worker", tree,
                           workloads_py, work],
                          capture_output=True, text=True, cwd=work)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"same_output: the run over {tree} failed")
    *calls, prove_calls = [json.loads(line) for line in done.stdout.splitlines()]
    return calls, prove_calls["prove_calls"]


def main(argv) -> int:
    if len(argv) == 4 and argv[0] == "--worker":
        return worker(*argv[1:])
    if len(argv) != 2:
        print("usage: same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (os.path.realpath(a) for a in argv)
    workloads_py = os.path.join(change, "perfbench", "workloads.py")
    with tempfile.TemporaryDirectory() as tmp:
        work = os.path.join(tmp, "work")  # the same path for both trees
        runs, prove_calls = zip(*(_calls_of(tree, workloads_py, work)
                                  for tree in (parent, change)))
    a, b = runs
    diffs = 0
    if [c["label"] for c in a] != [c["label"] for c in b]:
        print("the two trees made different calls")
        diffs += 1
    for x, y in zip(a, b):
        if (x["rc"], x["out"], x["err"]) != (y["rc"], y["out"], y["err"]):
            diffs += 1
            print(f"differs: {x['label']}: exit {x['rc']} -> {y['rc']}, "
                  f"stdout {'same' if x['out'] == y['out'] else 'changed'}, "
                  f"stderr {'same' if x['err'] == y['err'] else 'changed'}")
    tracebacks = [(tree, c) for tree, run in zip(("parent", "change"), runs)
                  for c in run if c["traceback"]]
    for tree, c in tracebacks:
        print(f"traceback ({tree}) in {c['label']}:\n{c['traceback']}")
    smt = sum(c["smt"] for c in b)
    print(f"calls: {len(b)}  smt2 files: {smt}  differences: {diffs}  "
          f"tracebacks: {len(tracebacks)}  "
          f"src lines: {_src_lines(parent)} -> {_src_lines(change)}  "
          f"prove calls: {' -> '.join('n/a' if n is None else str(n) for n in prove_calls)}")
    if not smt:
        print("no .smt2 file was compared")
    return 1 if diffs or not smt else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
