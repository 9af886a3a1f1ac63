"""Differential proof rules, flow certification, and the triple prover."""

import pathlib
import random
from fractions import Fraction
from functools import reduce

import pytest

from hsverify.arith import ArithCtx
from hsverify.cli import run_goal
from hsverify.expr import (
    Add,
    And,
    Cos,
    Div,
    Eq,
    Exp,
    Forall,
    Ge,
    Gt,
    Implies,
    Le,
    LogicalVar,
    Lt,
    Mul,
    Neg,
    Neq,
    Pow,
    Sin,
    Sub,
    Subst,
    TRUE,
    UnsupportedConstruct,
    ZERO,
    conjuncts,
    num,
    read,
)
from hsverify.program import TAU, Assign, Choice, Evol, If, Loop, ODE, Seq, Skip, Test
from hsverify.store import CONSTANT, Dataspace, Frame, GHOST, REAL, VARIABLE, Var
from hsverify.syntax import parse
from hsverify import tactics
from hsverify.tactics import (
    AllConstantsFailed,
    CertResult,
    DerivativeMismatch,
    GhostInGuardOrField,
    GhostNotFresh,
    LipschitzSampleFailure,
    NotAnODE,
    NotIdentityAtZero,
    ProofResult,
    UnsupportedRelation,
    certify_flow,
    d_cut,
    d_ghost,
    d_induct,
    d_induct_mega,
    d_prove,
    d_weaken,
    local_flow_auto,
)
from hsverify.vcg import FlowTable, MissingLoopInvariant, Triple

from helpers import reference_d_induct_mega, reference_d_prove

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def pendulum():
    ds = Dataspace()
    ds.declare("th", REAL, VARIABLE)
    ds.declare("w", REAL, VARIABLE)
    ds.declare("k", REAL, CONSTANT)
    frame = Frame((Var("th"), Var("w")))
    rhs = Subst(((Var("th"), read("w")),
                 (Var("w"), Neg(Mul(read("k"), Sin(read("th")))))), ds)
    return ds, ODE(frame, rhs)


def decay():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("y", REAL, GHOST)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), Neg(read("x"))),), ds))
    return ds, ode


def energy():
    # w^2/2 - k*cos(th), constant along the pendulum field
    return Sub(Mul(num(Fraction(1, 2)), Pow(read("w"), 2)),
               Mul(read("k"), Cos(read("th"))))


def test_d_induct_energy_exact():
    ds, ode = pendulum()
    ctx = ArithCtx(ds)
    e = energy()
    r = d_induct(ode, Eq(e, LogicalVar("E")), ctx, exact=True)
    assert r.proved
    assert r.rule == "dI"
    assert any("dI" in s for s in r.steps)


def test_d_induct_energy_full():
    ds, ode = pendulum()
    r = d_induct(ode, Eq(energy(), LogicalVar("E")), ArithCtx(ds))
    assert r.proved


def test_d_induct_strict_atom_weakens():
    # v < 0 stays invariant under v' = -1 via the weakened premise -1 <= 0
    ds = Dataspace()
    ds.declare("v", REAL, VARIABLE)
    ode = ODE(Frame((Var("v"),)), Subst(((Var("v"), num(-1)),), ds))
    r = d_induct(ode, Lt(read("v"), ZERO), ArithCtx(ds), exact=True)
    assert r.proved


def test_d_induct_uses_guard():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), read("c")),), ds),
              guard=Ge(read("c"), ZERO))
    r = d_induct(ode, Ge(read("x"), ZERO), ArithCtx(ds))
    assert r.proved
    # exact mode cannot use the guard hypothesis
    assert not d_induct(ode, Ge(read("x"), ZERO), ArithCtx(ds), exact=True).proved


def test_d_induct_not_inductive_is_unknown():
    ds, ode = decay()
    r = d_induct(ode, Ge(read("x"), num(1)), ArithCtx(ds))
    assert r.status == "unknown"
    assert r.residual


def test_d_induct_rejects_disequality():
    ds, ode = decay()
    with pytest.raises(UnsupportedRelation):
        d_induct(ode, Neq(read("x"), ZERO), ArithCtx(ds))


def test_d_induct_rejects_non_ode():
    ds, _ = decay()
    with pytest.raises(NotAnODE):
        d_induct(Skip(), Ge(read("x"), ZERO), ArithCtx(ds))


def test_d_weaken():
    ds, ode = decay()
    guarded = d_cut(ode, Ge(read("x"), ZERO))
    assert d_weaken(guarded, Ge(read("x"), num(-1)), ArithCtx(ds)).proved
    assert not d_weaken(ode, Ge(read("x"), ZERO), ArithCtx(ds)).proved


def test_d_cut_conjoins_guard():
    ds, ode = decay()
    cut = Ge(read("x"), ZERO)
    assert d_cut(ode, cut).guard == cut
    twice = d_cut(d_cut(ode, cut), Le(read("x"), num(5)))
    assert twice.guard == And(cut, Le(read("x"), num(5)))


# -- ghosts

GHOST_INV = Eq(Mul(read("x"), Pow(read("y"), 2)), num(1))


def test_d_ghost_decay():
    ds, ode = decay()
    r = d_ghost(ode, Gt(read("x"), ZERO), "y", num(Fraction(1, 2)),
                GHOST_INV, ArithCtx(ds))
    assert r.proved
    assert r.rule == "dG"


def test_d_ghost_rejects_driven_ghost():
    ds, ode = decay()
    with pytest.raises(GhostNotFresh):
        d_ghost(ode, Gt(read("x"), ZERO), "x", num(1), GHOST_INV, ArithCtx(ds))


def test_d_ghost_rejects_ghost_in_target():
    ds, ode = decay()
    with pytest.raises(GhostNotFresh):
        d_ghost(ode, Gt(read("y"), ZERO), "y", num(1), GHOST_INV, ArithCtx(ds))


def test_d_ghost_rejects_ghost_in_guard_or_field():
    ds, ode = decay()
    guarded = d_cut(ode, Ge(read("y"), ZERO))
    with pytest.raises(GhostInGuardOrField):
        d_ghost(guarded, Gt(read("x"), ZERO), "y", num(1), GHOST_INV, ArithCtx(ds))
    bad_field = ODE(ode.frame, Subst(((Var("x"), Neg(read("y"))),), ds))
    with pytest.raises(GhostInGuardOrField):
        d_ghost(bad_field, Gt(read("x"), ZERO), "y", num(1), GHOST_INV, ArithCtx(ds))


# -- flow certification

def decay_flow(ds, factor=Neg(LogicalVar(TAU))):
    return Subst(((Var("x"), Mul(read("x"), Exp(factor))),), ds)


def test_certify_flow_decay():
    ds, ode = decay()
    cert = certify_flow(ode, decay_flow(ds), ArithCtx(ds))
    assert cert == CertResult(Fraction(1), 1)


def test_certify_flow_catches_wrong_sign():
    ds, ode = decay()
    grows = decay_flow(ds, LogicalVar(TAU))
    with pytest.raises(DerivativeMismatch):
        certify_flow(ode, grows, ArithCtx(ds))


def test_certify_flow_catches_bad_start():
    ds, ode = decay()
    # right derivative, wrong value at tau = 0 unless x = 1
    shifted = Subst(((Var("x"), Exp(Neg(LogicalVar(TAU)))),), ds)
    with pytest.raises(NotIdentityAtZero):
        certify_flow(ode, shifted, ArithCtx(ds))


def stiff():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), Mul(read("c"), read("x"))),), ds))
    flow = Subst(((Var("x"), Mul(read("x"), Exp(Mul(read("c"), LogicalVar(TAU))))),), ds)
    ctx = ArithCtx(ds, assumptions=(Ge(read("c"), num(10)),))
    return ode, flow, ctx


def test_certify_flow_lipschitz_failure():
    ode, flow, ctx = stiff()
    with pytest.raises(LipschitzSampleFailure):
        certify_flow(ode, flow, ctx)


def shear():
    # x' = y, y' = 0: the x row moves by |y1 - y2|, so L = 1 is exact
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("y", REAL, VARIABLE)
    ode = ODE(Frame((Var("x"), Var("y"))),
              Subst(((Var("x"), read("y")), (Var("y"), ZERO)), ds))
    flow = Subst(((Var("x"), Add(read("x"), Mul(LogicalVar(TAU), read("y")))),
                  (Var("y"), read("y"))), ds)
    return ode, flow, ArithCtx(ds)


def test_certify_flow_two_rows():
    ode, flow, ctx = shear()
    cert = certify_flow(ode, flow, ctx)
    assert cert == CertResult(Fraction(1), 2)


def test_certify_flow_two_rows_too_tight():
    ode, flow, ctx = shear()
    with pytest.raises(LipschitzSampleFailure):
        certify_flow(ode, flow, ctx, lipschitz=Fraction(1, 2))


# a vec[2] member whose field reads a frame constant: d/dtau of p is the
# scalar 0 plus the derivative of tau * w
SLIDE = """\
dataspace d {
  variables p : vec[2], w : vec[2];
}

program move = { p' = w }
flow slide for move = [p ~> FLOW]
"""


def test_certify_flow_compares_a_vector_member_by_coordinate():
    model = parse(SLIDE.replace("FLOW", "p + tau * w"))
    ode, = (model.programs[d.target] for d in model.flows)
    cert = certify_flow(ode, model.flows[0].flow, ArithCtx(model.dataspace))
    assert cert == CertResult(Fraction(1), 2)  # one condition per coordinate row


def test_certify_flow_rejects_a_wrong_vector_member():
    model = parse(SLIDE.replace("FLOW", "p + 2 * tau * w"))
    ode, = (model.programs[d.target] for d in model.flows)
    with pytest.raises(DerivativeMismatch, match="d/dtau of the p component"):
        certify_flow(ode, model.flows[0].flow, ArithCtx(model.dataspace))


# x' = 1 with a logarithm in the flow: d/dtau of ln(u) has the proviso
# u > 0, proved under 0 <= tau and the assumptions
LOG_FLOW = """\
dataspace d {
  constants c : real;
  assumes cpos: c > 0;
  variables x : real;
}

program up = { x' = 1 }
flow log for up = [x ~> FLOW]
"""


@pytest.mark.parametrize("flow, assumed, message", [
    # the proviso holds through cpos; the derivative is then wrong
    ("x + ln(tau + c)", True, "d/dtau of the x component is off by add(div(1,add(?tau,c)),-1)"),
    ("x + ln(tau + c)", False, "side condition for x not discharged: gt(add(?tau,c),0)"),
    ("x + ln(tau)", True, "side condition for x not discharged: gt(?tau,0)"),
])
def test_certify_flow_proves_a_proviso_under_the_assumptions(flow, assumed, message):
    model = parse(LOG_FLOW.replace("FLOW", flow))
    ctx = ArithCtx(model.dataspace, assumptions=model.assumptions() if assumed else ())
    with pytest.raises(DerivativeMismatch) as err:
        certify_flow(model.programs["up"], model.flows[0].flow, ctx)
    assert str(err.value) == message


def test_local_flow_auto_picks_a_constant():
    ds, ode = decay()
    cert = local_flow_auto(ode, decay_flow(ds), ArithCtx(ds))
    assert cert.lipschitz == 1  # the 1/2 rung is too tight for x' = -x


def test_local_flow_auto_exhausts_ladder():
    ode, flow, ctx = stiff()
    with pytest.raises(AllConstantsFailed):
        local_flow_auto(ode, flow, ctx)


# -- the combined search

def test_mega_inflow_keeps_level():
    ds = Dataspace()
    ds.declare("h", REAL, VARIABLE)
    ds.declare("ci", REAL, CONSTANT)
    ds.declare("co", REAL, CONSTANT)
    ds.declare("Hl", REAL, CONSTANT)
    ode = ODE(Frame((Var("h"),)),
              Subst(((Var("h"), Sub(read("ci"), read("co"))),), ds))
    ctx = ArithCtx(ds, assumptions=(Gt(read("ci"), read("co")),))
    inv = Ge(read("h"), read("Hl"))
    r = d_induct_mega(ode, inv, inv, ctx)
    assert r.proved
    assert any(s.startswith("dC") for s in r.steps)


def test_mega_free_cut_feeds_induction():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), read("c")),), ds))
    pre = And(Gt(read("c"), ZERO), Ge(read("x"), ZERO))
    r = d_induct_mega(ode, pre, Ge(read("x"), ZERO), ArithCtx(ds))
    assert r.proved
    assert any(s.startswith("dD") for s in r.steps)


def test_mega_refutes_by_simulation():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), num(-1)),), ds))
    pre = And(Ge(read("x"), ZERO), Le(read("x"), num(2)))
    r = d_induct_mega(ode, pre, Ge(read("x"), ZERO), ArithCtx(ds))
    assert r.refuted
    assert r.witness is not None
    assert r.witness["time"] > 0
    assert float(r.witness["state"]["x"]) < 0


@pytest.mark.parametrize("rate,refuted", [(Fraction(1, 10**8), False),
                                          (Fraction(1, 10**6), True)])
def test_mega_refutes_only_beyond_the_margin(rate, refuted):
    # from x = 1 the orbit leaves x <= 1 by 4 * rate at the horizon of 4:
    # 4e-8 is inside the refuter's margin of 1e-7 * (1 + |x| + 1), 4e-6 is not
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), num(rate)),), ds))
    r = d_induct_mega(ode, Eq(read("x"), num(1)), Le(read("x"), num(1)), ArithCtx(ds))
    assert r.refuted == refuted


def test_mega_does_not_refute_through_a_quantified_guard():
    # the domain is empty (take y = x), so the goal holds; a grid over y
    # passes every x the orbit meets, so a grid-checked guard would let the
    # orbit leave x <= 1 and refute a valid goal
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    x = read("x")
    dom = Forall("y", Ge(Pow(Sub(LogicalVar("y"), x), 2), num(Fraction(1, 100))))
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), num(1)),), ds), guard=dom)
    try:
        r = d_induct_mega(ode, Eq(x, num(Fraction(1, 2))), Le(x, num(1)), ArithCtx(ds))
    except UnsupportedConstruct:
        return
    assert not r.refuted


def test_mega_unknown_keeps_residual():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), num(1)),), ds))
    # true on every run the simulator can reach, but not inductive
    r = d_induct_mega(ode, Le(read("x"), ZERO), Le(read("x"), num(5)),
                      ArithCtx(ds))
    assert r.status == "unknown"
    assert r.residual
    assert r.smt


def test_mega_tank_fill_step_weakens_once(monkeypatch):
    model = parse((MODELS / "tank.hsv").read_text(encoding="utf-8"))
    goal = next(g for g in model.goals if g.name == "fill_step")
    weakened = []

    def counted(ode, post, ctx):
        weakened.append(post)
        return d_weaken(ode, post, ctx)

    monkeypatch.setattr(tactics, "d_weaken", counted)
    r = run_goal(model, goal, FlowTable(model.dataspace), {}, 0)
    assert r.proved
    assert r.steps == (
        "dC le(0,t) by dI",
        "dC eq(h,add(mul(sub(ci,co),t),hm)) by dI",
        "dC le(hl,h) by dI",
        "dW and(and(and(le(0,t),eq(h,add(mul(sub(ci,co),t),hm))),le(hl,h)),le(h,hu))",
    )
    assert len(weakened) == 1


# goals whose ladder cuts inductive candidates that a weakening tried
# after fewer cuts would not have needed
_CUT_FIRST = """
dataspace cuts {
  variables x : real, z : real;
}
program up = { x' = 1, z' = 1 }
program down = { x' = -1, z' = 1 | x <= 5 }
goal lift : { x >= 1 and z >= 0 } up { x >= 0 } by dInductMega
goal held : { x <= 5 } down { x <= 5 } by dInductMega
"""


@pytest.mark.parametrize("name,steps", [
    ("lift", ("dC ge(x,1) by dI", "dC ge(z,0) by dI", "dC ge(x,0) by dI", "dW ge(x,0)")),
    ("held", ("dC le(x,5) by dI", "dW le(x,5)")),
], ids=["lift", "held"])
def test_mega_cuts_every_inductive_candidate_then_weakens(name, steps):
    model = parse(_CUT_FIRST)
    goal = next(g for g in model.goals if g.name == name)
    r = run_goal(model, goal, FlowTable(model.dataspace), {}, 0)
    assert r.proved
    assert r.steps == steps
    assert [(o.vc.vc_id, o.verdict.rule) for o in r.outcomes] == [("weaken", "assumption")]


def test_mega_weakens_the_whole_chain_once(monkeypatch):
    # the domain x >= 0 and x < 0 is empty; with x <= 2 and x > -2 cut in
    # as well, the products of the prover's Fourier-Motzkin rule pass its
    # row cap, and the rows without them close the one weakening
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    x = read("x")
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), Neg(x)),), ds), Ge(x, ZERO))
    pre = And(And(Le(x, num(2)), Gt(x, num(-2))), Lt(x, ZERO))
    post = And(Ge(x, num(-1)), Le(x, num(-1)))
    cuts = []

    def counted(ode, post, ctx):
        cuts.append(len(conjuncts(ode.guard)) - 1)
        return d_weaken(ode, post, ctx)

    monkeypatch.setattr(tactics, "d_weaken", counted)
    r = d_induct_mega(ode, pre, post, ArithCtx(ds))
    assert r.proved
    assert r.steps == ("dC le(x,2) by dI", "dC lt(x,0) by dI", "dC gt(x,-2) by dI",
                       "dW and(ge(x,-1),le(x,-1))")
    assert cuts == [3]


def _rand_poly(rng, names):
    monos = [num(1)] + [read(n) for n in names] + [
        Mul(read(a), read(b)) for i, a in enumerate(names) for b in names[i:]]
    terms = []
    for _ in range(rng.randint(1, 2)):
        c, m = rng.choice((-2, -1, 1, 1, 2, Fraction(1, 2))), rng.choice(monos)
        terms.append(m if c == 1 else Mul(num(c), m))
    return reduce(Add, terms)


def _rand_atom(rng, names):
    side = read(rng.choice(names)) if rng.random() < 0.7 else _rand_poly(rng, names)
    return rng.choice((Ge, Le, Gt, Lt, Eq))(side, num(rng.randint(-2, 2)))


def _rand_conj(rng, names, pool=()):
    atoms = [rng.choice(pool) if pool and rng.random() < 0.5 else _rand_atom(rng, names)
             for _ in range(rng.randint(1, 3))]
    return reduce(And, atoms)


def _rand_mega_goal(rng, ds):
    """A polynomial ODE over one or two of ds's variables x and y, an
    optional guard, and one to three conjuncts in pre and post."""
    names = ["x", "y"][:rng.randint(1, 2)]
    guard = _rand_atom(rng, names) if rng.random() < 0.4 else TRUE
    ode = ODE(Frame(tuple(Var(n) for n in names)),
              Subst(tuple((Var(n), _rand_poly(rng, names)) for n in names), ds), guard)
    pre = _rand_conj(rng, names)
    return ode, pre, _rand_conj(rng, names, pool=conjuncts(pre))


def _xy_dataspace():
    ds = Dataspace()
    for n in ("x", "y"):
        ds.declare(n, REAL, VARIABLE)
    return ds


def test_mega_keeps_the_reference_ladder_verdicts():
    """The ladder that cuts to a fixpoint and weakens once gives the
    verbatim reference's status on seeded polynomial ODE goals over one or
    two variables, with one to three conjuncts in pre and post."""
    rng = random.Random(33)
    ds = _xy_dataspace()
    seen = set()
    for i in range(60):
        ode, pre, post = _rand_mega_goal(rng, ds)
        ctx = ArithCtx(ds, seed=i)
        got = d_induct_mega(ode, pre, post, ctx)
        want = reference_d_induct_mega(ode, pre, post, ctx)
        assert got.status == want.status, (ode, pre, post)
        if not want.proved:
            # six candidates at most: neither ladder reaches its 8-cut limit
            assert _proof_summary(got) == _proof_summary(want), (ode, pre, post)
        seen.add(got.status)
    assert seen == {"proved", "refuted", "unknown"}


# goals of _rand_mega_goal, by generator seed and draw index, that the
# whole chain's one weakening proves only because a capped Fourier-Motzkin
# group is decided on its rows without products
_CAPPED_SWEEP_GOALS = (
    (1, 111), (1, 587), (1, 1756), (2, 10), (2, 41), (2, 610), (2, 1787),
    (3, 38), (3, 1368), (3, 1374), (4, 431), (4, 1007), (4, 1113), (5, 394),
)


@pytest.mark.parametrize("seed,index", _CAPPED_SWEEP_GOALS,
                         ids=[f"{s}:{i}" for s, i in _CAPPED_SWEEP_GOALS])
def test_mega_proves_capped_goals_with_one_weakening(monkeypatch, seed, index):
    rng = random.Random(seed)
    ds = _xy_dataspace()
    for _ in range(index + 1):
        ode, pre, post = _rand_mega_goal(rng, ds)
    weakened = []

    def counted(ode, post, ctx):
        weakened.append(post)
        return d_weaken(ode, post, ctx)

    monkeypatch.setattr(tactics, "d_weaken", counted)
    r = d_induct_mega(ode, pre, post, ArithCtx(ds, seed=index))
    assert r.proved, (ode, pre, post)
    assert len(weakened) == 1


def test_d_prove_discrete_assignment():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    step = Assign(Subst(((Var("x"), Sub(read("x"), num(-1))),), ds))
    t = Triple(Ge(read("x"), num(1)), step, Ge(read("x"), num(2)))
    assert d_prove(t, ArithCtx(ds)).proved


def test_d_prove_refutes_discrete():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    step = Assign(Subst(((Var("x"), Sub(read("x"), num(2))),), ds))
    t = Triple(Ge(read("x"), ZERO), step, Ge(read("x"), ZERO))
    r = d_prove(t, ArithCtx(ds))
    assert r.refuted
    assert r.witness is not None


def test_d_prove_discrete_loop_closes_by_wp():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    body = Assign(Subst(((Var("x"), Sub(read("x"), num(-1))),), ds))
    prog = Loop(body, invariant=Ge(read("x"), num(2)))
    t = Triple(Ge(read("x"), num(2)), prog, Ge(read("x"), num(1)))
    r = d_prove(t, ArithCtx(ds))
    assert r.proved
    assert r.rule == "wp"


def test_d_prove_loop_rule_around_unflowed_ode():
    ds = Dataspace()
    ds.declare("h", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    bump = Assign(Subst(((Var("h"), Sub(read("h"), num(-1))),), ds))
    dyn = ODE(Frame((Var("h"),)), Subst(((Var("h"), read("c")),), ds))
    prog = Loop(Seq(bump, dyn), invariant=Ge(read("h"), ZERO))
    ctx = ArithCtx(ds, assumptions=(Ge(read("c"), ZERO),))
    t = Triple(Ge(read("h"), ZERO), prog, Ge(read("h"), num(-1)))
    r = d_prove(t, ctx)
    assert r.proved
    assert r.rule == "loop"


def test_d_prove_seq_chains_through_post():
    ds = Dataspace()
    ds.declare("h", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    bump = Assign(Subst(((Var("h"), Sub(read("h"), num(-1))),), ds))
    dyn = ODE(Frame((Var("h"),)), Subst(((Var("h"), read("c")),), ds))
    ctx = ArithCtx(ds, assumptions=(Ge(read("c"), ZERO),))
    t = Triple(Ge(read("h"), ZERO), Seq(bump, dyn), Ge(read("h"), ZERO))
    r = d_prove(t, ctx)
    assert r.proved
    assert any(s.startswith("chain") for s in r.steps)


def test_d_prove_if_split():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    up = Assign(Subst(((Var("x"), Sub(read("x"), num(-1))),), ds))
    prog = If(Ge(read("x"), ZERO), up, Skip())
    t = Triple(TRUE, prog, Implies(Ge(read("x"), num(1)), Gt(read("x"), ZERO)))
    assert d_prove(t, ArithCtx(ds)).proved


def test_d_prove_ode_with_registered_flow():
    ds, ode = decay()
    flows = FlowTable(ds)
    flows.register(ode.frame, ode.rhs, decay_flow(ds))
    t = Triple(And(Ge(read("x"), ZERO), Le(read("x"), LogicalVar("y0"))),
               ode, Le(read("x"), LogicalVar("y0")))
    r = d_prove(t, ArithCtx(ds), flows)
    assert r.proved
    assert r.rule == "wp"


def test_d_prove_evol_direct():
    ds, _ = decay()
    ev = Evol(Frame((Var("x"),)), decay_flow(ds), guard=Ge(read("x"), ZERO))
    t = Triple(And(Ge(read("x"), ZERO), Le(read("x"), LogicalVar("y0"))),
               ev, Le(read("x"), LogicalVar("y0")))
    assert d_prove(t, ArithCtx(ds)).proved


def _rand_fact(rng):
    x = read("x")
    if rng.random() < 0.15:
        return TRUE
    atom = rng.choice((Ge, Le, Gt, Lt, Eq))(x, num(rng.randint(-2, 2)))
    if rng.random() < 0.25:
        return And(atom, rng.choice((Ge, Le))(x, num(rng.randint(-2, 2))))
    return atom


def _rand_prog(rng, ds, odes, depth):
    """A small program over x : real from Skip, Assign, Test, the given
    ODEs and, above depth 0, Seq, If, Choice and an invariant Loop."""
    x = read("x")
    pick = rng.randrange(9 if depth > 0 else 5)
    if pick == 0:
        return Skip()
    if pick == 1:
        rhs = rng.choice((Add(x, num(rng.randint(-2, 2))), Mul(num(rng.choice((-1, 2))), x)))
        return Assign(Subst(((Var("x"), rhs),), ds))
    if pick == 2:
        return Test(rng.choice((Ge, Le, Gt))(x, num(rng.randint(-2, 2))))
    if pick < 5:
        return rng.choice(odes)
    a = _rand_prog(rng, ds, odes, depth - 1)
    b = _rand_prog(rng, ds, odes, depth - 1)
    if pick == 5:
        return Seq(a, b)
    if pick == 6:
        return If(_rand_fact(rng), a, b)
    if pick == 7:
        return Choice(a, b)
    return Loop(a, invariant=_rand_fact(rng))


def _proof_summary(r):
    return (r.status, r.rule, r.steps,
            tuple((o.vc.vc_id, o.verdict.status, o.verdict.rule) for o in r.outcomes),
            r.witness)


def test_d_prove_matches_the_reference_on_small_triples():
    """d_prove gives the verbatim reference's result: status, rule, steps,
    each condition's verdict, and the witness.  Seeded random triples, and
    a few that reach the paths random ones seldom do: a loop, a chain and
    a choice closed by structure, and a refuted later branch."""
    rng = random.Random(20)
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    x = read("x")
    _, flowed = decay()
    flowed = ODE(flowed.frame, Subst(flowed.rhs.entries, ds))
    unflowed = ODE(Frame((Var("x"),)), Subst(((Var("x"), read("c")),), ds))
    flows = FlowTable(ds)
    flows.register(flowed.frame, flowed.rhs, decay_flow(ds))
    bump = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    drop = Assign(Subst(((Var("x"), Add(x, num(-2))),), ds))
    fixed = [
        Triple(Ge(x, ZERO), Loop(Seq(bump, unflowed), invariant=Ge(x, ZERO)), Ge(x, num(-1))),
        Triple(Ge(x, ZERO), Seq(bump, unflowed), Ge(x, ZERO)),
        Triple(Ge(x, num(1)), Seq(bump, unflowed), Ge(x, ZERO)),
        Triple(TRUE, If(Ge(x, ZERO), drop, unflowed), Ge(x, ZERO)),
        Triple(TRUE, If(Ge(x, ZERO), unflowed, drop), Ge(x, ZERO)),
        Triple(Ge(x, ZERO), Choice(drop, unflowed), Ge(x, ZERO)),
        Triple(Ge(x, ZERO), Choice(unflowed, drop), Ge(x, ZERO)),
        Triple(Ge(x, ZERO), Choice(unflowed, bump), Ge(x, ZERO)),
    ]
    kws = [dict(depth=d, exact=e, trials=20) for d in (1, 2, 3) for e in (True, False)]
    cases = [(t, kw) for t in fixed for kw in kws]
    for _ in range(150):
        t = Triple(_rand_fact(rng), _rand_prog(rng, ds, (flowed, unflowed), 2), _rand_fact(rng))
        kw = dict(depth=rng.randint(1, 3), exact=rng.random() < 0.5, trials=rng.randint(1, 3))
        cases.append((t, kw))
    seen = set()
    for i, (t, kw) in enumerate(cases):
        ctx = ArithCtx(ds, assumptions=(Ge(read("c"), ZERO),), seed=i)
        got = d_prove(t, ctx, flows, **kw)
        want = reference_d_prove(t, ctx, flows, **kw)
        assert _proof_summary(got) == _proof_summary(want), (t, kw)
        seen.add((got.status, got.rule))
    # a refuted branch comes back as it is, under its own rule
    assert {("proved", r) for r in ("wp", "dI*", "loop", "seq", "if", "choice")} <= seen
    assert {("refuted", "wp"), ("refuted", "dI*"), ("unknown", "dProve")} <= seen
    # a loop without an invariant stops both the same way
    t = Triple(TRUE, Loop(unflowed), TRUE)
    for prove in (d_prove, reference_d_prove):
        with pytest.raises(MissingLoopInvariant):
            prove(t, ArithCtx(ds), flows)


# a falling ball with two assumptions that its goals do not read
_BALL = """
dataspace ball {
  constants g : real, a : real, k : real, H : real;
  assumes gpos: g > 0, apos: a > 0, kpos: k > 0;
  variables x : real, y : real, z : real, h : real, v : real;
}
program fall = { h' = v, v' = -g | h >= 0 }
program noop = skip
goal ball_energy :
  { 2*g*h + v^2 = 2*g*H and H >= 0 } fall { h <= H } by dInductMega using gpos
goal vacuous :
  { a > 0 and a < 0 } noop { x > 0 } by wp
"""


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unrelated_assumptions_do_not_lose_a_proof(seed):
    # the vacuous goal is proved only through rows that never reach x > 0
    model = parse(_BALL)
    got = {g.name: run_goal(model, g, FlowTable(model.dataspace), {}, seed).status
           for g in model.goals}
    assert got == {"ball_energy": "proved", "vacuous": "proved"}
