"""Release gate: exact replays of the flagship derivations plus property suites.

One numbered test per gate item so `pytest -v` reads as a checklist.  The
randomized suites run at full volume here (the unit files keep smaller copies
for quick iteration); every seed and tolerance is pinned below.
"""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from hsverify.arith import ArithCtx, emit_smtlib, falsify, poly_of
from hsverify.cli import main, run_goal
from hsverify.deriv import DerivCtx, NotDifferentiable, fd_oracle, lie_deriv
from hsverify.expr import (
    Add,
    Eq,
    Exp,
    Ge,
    Gt,
    Le,
    LogicalVar,
    Lt,
    Mul,
    Neg,
    Pow,
    RatLit,
    Sub,
    Subst,
    VarRead,
    ZERO,
    eval_expr,
    num,
    read,
)
from hsverify.program import (
    Assign,
    Choice,
    If,
    ODE,
    Seq,
    SimConfig,
    Skip,
    StepSizeTooLarge,
    TAU,
    Test,
    modset,
    simulate,
    simulate_traced,
)
from hsverify.store import Coord, Dataspace, Frame, REAL, Var, lens_get, lens_indep, lens_put
from hsverify.syntax import parse
from hsverify.tactics import DerivativeMismatch, certify_flow, d_induct
from hsverify.vcg import FlowTable, wlp

from helpers import (
    rand_lens,
    rand_rat,
    rand_store,
    rand_total_expr,
    rand_value_for_lens,
    small_dataspace,
)

MODELS_DIR = pathlib.Path(__file__).resolve().parent.parent / "models"
FILES = {p.stem: p for p in sorted(MODELS_DIR.glob("*.hsv"))}

SEED = 7                 # CLI seed for every corpus run below
LAW_CASES = 1000         # per lens law
FD_CASES = 100           # derivative-vs-difference comparisons
FD_REL_TOL = 1e-4        # |symbolic - central difference| <= tol * (1 + |ref|)
SIM_RUNS = 100           # seeded simulations per corpus program
RK4_TOL = 1e-6           # max abs error at step 1e-3 over horizon 1
RK4_RATIO = 8.0          # minimum error contraction when halving the step
WLP_PROGRAMS = 50        # random loop-free discrete programs
WLP_RUNS = 10            # simulations per admitted start state
OPEN_GOAL_TRIALS = 10_000  # falsifier budget for a tolerated open verdict


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two full `verify` passes per model file, same seed, captured as bytes."""
    base = tmp_path_factory.mktemp("reports")
    runs = {}
    for name, path in FILES.items():
        pair = []
        for k in (0, 1):
            out = base / f"{name}.{k}.json"
            code = main(["verify", str(path), "--seed", str(SEED),
                         "--json", str(out)])
            assert code in (0, 2), f"{name}: unexpected exit {code}"
            pair.append(out.read_bytes())
        runs[name] = tuple(pair)
    return runs


def report(corpus, name: str) -> dict:
    return json.loads(corpus[name][0])


def test_01_pendulum_rotation_invariant(corpus):
    rep = report(corpus, "pendulum")
    assert rep["goals"]["radius"]["status"] == "proved"
    assert rep["goals"]["radius"]["method"] == "dInduct"

    model = parse(FILES["pendulum"].read_text())
    goal = model.goals[0]
    ctx = ArithCtx(model.dataspace, assumptions=model.assumptions(), seed=SEED)
    res = d_induct(model.programs["rotate"], goal.post, ctx, exact=True)
    assert res.proved
    (step,) = [o for o in res.outcomes if o.vc.origin == "dI"]
    prem = step.vc.formula
    assert isinstance(prem, Eq)
    # 2*y*x + 2*(-x)*y against 0: the difference is the zero polynomial,
    # no tolerance involved
    assert poly_of(Sub(prem.left, prem.right), ctx.dataspace).is_zero()


def test_02_directional_derivative_scaling():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    sq = Pow(read("x"), 2)

    unit = DerivCtx(Frame([Var("x")]), Subst(((Var("x"), num(1)),), ds))
    away = DerivCtx(Frame([Var("y")]), Subst(((Var("y"), num(1)),), ds))
    doubled = DerivCtx(Frame([Var("x")]), Subst(((Var("x"), num(2)),), ds))

    assert lie_deriv(unit, sq).expr == Mul(num(2), read("x"))
    assert lie_deriv(away, sq).expr == ZERO
    assert lie_deriv(doubled, sq).expr == Mul(num(4), read("x"))


def test_03_water_tank_three_routes(corpus):
    goals = report(corpus, "tank")["goals"]
    assert goals["fill_step"]["status"] == "proved"
    assert goals["fill_step"]["method"] == "dInductMega"
    assert goals["tank_correct"]["status"] == "proved"
    assert goals["tank_correct"]["method"] == "dProve"

    flows = report(corpus, "tank")["flows"]
    assert flows["rise"]["ok"] and flows["ebb"]["ok"]
    assert goals["level_flow"]["status"] == "proved"
    assert goals["level_flow"]["method"] == "wp"


def test_04_decay_three_routes(corpus):
    rep = report(corpus, "decay")
    goals = rep["goals"]
    assert goals["pos_ghost"]["status"] == "proved"
    assert goals["pos_ghost"]["method"].startswith("dGhost(y,")
    assert rep["flows"]["shrink"]["ok"]
    assert goals["pos_flow"]["status"] == "proved"
    assert goals["pos_flow"]["method"] == "flow(shrink)"
    assert goals["pos_evol"]["status"] == "proved"
    assert goals["pos_evol"]["method"] == "wp"


def test_05_boat_invariants(corpus):
    model = parse(FILES["boat"].read_text())
    ms = modset(model.programs["kin"])
    for n in ("rs", "rh", "wps", "org"):
        assert not ms.overlaps(Var(n))

    goals = report(corpus, "boat")["goals"]
    for name in ("steady_vel", "steady_heading"):
        assert goals[name]["status"] == "proved"
        assert goals[name]["method"] == "dInductMega"
    assert goals["speed_sq"]["status"] == "proved"
    assert goals["speed_sq"]["method"] == "dWeaken"

    aligned = goals["aligned"]
    if aligned["status"] != "proved":
        # an open verdict is tolerated when the export is usable and heavy
        # sampling stays clean
        assert aligned["status"] == "unknown"
        ctx = ArithCtx(model.dataspace, assumptions=model.assumptions(),
                       seed=SEED)
        goal = next(g for g in model.goals if g.name == "aligned")
        res = run_goal(model, goal, FlowTable(model.dataspace), {}, SEED)
        open_vcs = [o.vc.formula for o in res.outcomes if not o.verdict.valid]
        assert open_vcs
        for f in open_vcs:
            script = emit_smtlib(f, ctx, "aligned")
            assert script.splitlines()[1].startswith("(set-logic")
            assert script.rstrip().endswith("(check-sat)")
            assert falsify(f, ctx, trials=OPEN_GOAL_TRIALS) is None


def test_06_lens_laws_thousand_cases():
    rng = random.Random(601)
    ds = small_dataspace()
    for _ in range(LAW_CASES):
        l = rand_lens(rng, ds)
        s = rand_store(rng, ds)
        v = rand_value_for_lens(rng, ds, l)
        u = rand_value_for_lens(rng, ds, l)
        assert lens_get(l, lens_put(l, v, s)) == v
        assert lens_put(l, u, lens_put(l, v, s)) == lens_put(l, u, s)
        assert lens_put(l, lens_get(l, s), s) == s
    done = 0
    while done < LAW_CASES:
        l1, l2 = rand_lens(rng, ds), rand_lens(rng, ds)
        if not lens_indep(l1, l2):
            continue
        s = rand_store(rng, ds)
        v1 = rand_value_for_lens(rng, ds, l1)
        v2 = rand_value_for_lens(rng, ds, l2)
        assert (lens_put(l2, v2, lens_put(l1, v1, s))
                == lens_put(l1, v1, lens_put(l2, v2, s)))
        assert lens_get(l1, lens_put(l2, v2, s)) == lens_get(l1, s)
        done += 1


def test_07_derivative_matches_finite_difference():
    rng = random.Random(701)
    ds = small_dataspace()
    sigma = Subst(((Var("a"), rand_total_expr(rng, ds, 2)),
                   (Coord("v", 1), rand_total_expr(rng, ds, 2)),
                   (Var("b"), rand_total_expr(rng, ds, 2))), ds)
    ctx = DerivCtx(Frame(sigma.lenses()), sigma)
    checked = 0
    while checked < FD_CASES:
        e = rand_total_expr(rng, ds, 3)
        s = rand_store(rng, ds)
        try:
            sym = lie_deriv(ctx, e)
        except NotDifferentiable:
            continue
        got = float(eval_expr(sym.expr, s))
        want = fd_oracle(ctx, e, s)
        assert abs(got - want) <= FD_REL_TOL * (1.0 + abs(want)), (e, got, want)
        checked += 1


def _meets_assumes(model, s) -> bool:
    try:
        return all(bool(eval_expr(a, s)) for a in model.assumptions())
    except (ZeroDivisionError, ValueError, OverflowError):
        return False


def _start_state(model, rng):
    for _ in range(300):
        s = rand_store(rng, model.dataspace)
        if model.name == "amv":
            # the kinematic guard is an equality, so pick a start on the
            # manifold it carves out and a field that stays there: velocity
            # lined up with the heading, no thrust, no turn rate; floats
            # mirror the evaluator bit for bit
            cap = abs(s.get("S"))
            spd = min(abs(s.get("s")), cap)
            phi = s.get("phi")
            v = (float(spd) * math.sin(float(phi)),
                 float(spd) * math.cos(float(phi)))
            zero = Fraction(0)
            s = (s.put("S", cap).put("s", spd).put("v", v)
                 .put("a", (zero, zero)).put("w", zero))
        if _meets_assumes(model, s):
            return s
    raise AssertionError(f"no admissible start state for {model.name}")


def test_08_frames_bound_simulation_writes():
    for name, path in FILES.items():
        model = parse(path.read_text())
        rng = random.Random(801)
        for pname, prog in model.programs.items():
            ms = modset(prog)
            pinned = [n for n in model.dataspace.names()
                      if not ms.overlaps(Var(n))]
            done = attempts = 0
            while done < SIM_RUNS:
                attempts += 1
                assert attempts <= SIM_RUNS + 50, (name, pname)
                s0 = _start_state(model, rng)
                cfg = SimConfig(step=0.05, horizon=0.4, rng_seed=attempts)
                try:
                    samples = simulate_traced(prog, s0, cfg)
                except (StepSizeTooLarge, ZeroDivisionError,
                        ValueError, OverflowError):
                    continue
                for _, st in samples:
                    for n in pinned:
                        assert st.get(n) == s0.get(n), (name, pname, n)
                done += 1


def test_09_flow_certificate_gate():
    ds = Dataspace()
    ds.declare("x", REAL)
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))
    ctx = ArithCtx(ds, seed=9)
    grow = Subst(((Var("x"), Mul(read("x"), Exp(LogicalVar(TAU)))),), ds)
    decay = Subst(((Var("x"), Mul(read("x"), Exp(Neg(LogicalVar(TAU))))),), ds)
    with pytest.raises(DerivativeMismatch):
        certify_flow(ode, grow, ctx)
    cert = certify_flow(ode, decay, ctx)
    assert cert.lipschitz == Fraction(1)


def test_10_integrator_fourth_order():
    ds = Dataspace()
    ds.declare("x", REAL)
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))
    s0 = ds.make_store({"x": Fraction(1)})

    def max_err(step: float) -> float:
        cfg = SimConfig(step=step, horizon=1.0, samples_per_orbit=10_000)
        samples = simulate_traced(ode, s0, cfg)
        return max(abs(st.get("x") - math.exp(-t)) for t, st in samples)

    assert max_err(0.001) <= RK4_TOL
    assert max_err(0.02) / max_err(0.01) >= RK4_RATIO


def test_11_precondition_soundness_sampling():
    rng = random.Random(1101)
    ds = small_dataspace()
    reals = [Var("a"), Var("b"), Coord("v", 1), Coord("v", 2),
             Coord("w", 1), Coord("w", 2), Coord("w", 3)]

    def poly_expr(depth: int):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.4:
                return RatLit(rand_rat(rng, -4, 4))
            return VarRead(rng.choice(reals))
        a, b = poly_expr(depth - 1), poly_expr(depth - 1)
        pick = rng.random()
        if pick < 0.4:
            return Add(a, b)
        if pick < 0.7:
            return Sub(a, b)
        return Mul(a, b)

    def cmp_expr():
        rel = Eq if rng.random() < 0.1 else rng.choice([Le, Lt, Ge, Gt])
        return rel(poly_expr(1), poly_expr(1))

    def prog(depth: int):
        pick = rng.random()
        if depth == 0 or pick < 0.35:
            r = rng.random()
            if r < 0.6:
                return Assign(Subst(((rng.choice(reals), poly_expr(1)),), ds))
            if r < 0.8:
                return Test(cmp_expr())
            return Skip()
        a, b = prog(depth - 1), prog(depth - 1)
        if pick < 0.6:
            return Seq(a, b)
        if pick < 0.85:
            return Choice(a, b)
        return If(cmp_expr(), a, b)

    outcomes = 0
    for _ in range(WLP_PROGRAMS):
        p = prog(3)
        q = cmp_expr()
        pre = wlp(p, q)
        hits = 0
        for _ in range(60):
            s = rand_store(rng, ds)
            if not bool(eval_expr(pre, s)):
                continue
            hits += 1
            for k in range(WLP_RUNS):
                for out in simulate(p, s, SimConfig(rng_seed=k)):
                    assert bool(eval_expr(q, out)), (p, q)
                    outcomes += 1
            if hits >= 3:
                break
    assert outcomes > 200


def test_12_reports_are_reproducible(corpus):
    for name, (first, second) in corpus.items():
        assert first == second, f"report for {name} differs between runs"
