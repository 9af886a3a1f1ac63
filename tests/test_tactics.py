"""Differential proof rules, flow certification, and the triple prover."""

import random
from fractions import Fraction

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
    num,
    read,
)
from hsverify.program import TAU, Assign, Choice, Evol, If, Loop, ODE, Seq, Skip, Test
from hsverify.store import CONSTANT, Dataspace, Frame, GHOST, REAL, VARIABLE, Var
from hsverify.syntax import parse
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
    d_discrete_atoms,
    d_ghost,
    d_induct,
    d_induct_mega,
    d_prove,
    d_weaken,
    local_flow_auto,
)
from hsverify.vcg import FlowTable, MissingLoopInvariant, Triple

from helpers import reference_d_prove


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


def test_d_discrete_atoms():
    ds = Dataspace()
    ds.declare("x", REAL, VARIABLE)
    ds.declare("c", REAL, CONSTANT)
    ode = ODE(Frame((Var("x"),)), Subst(((Var("x"), read("c")),), ds))
    pre = And(Gt(read("c"), ZERO), Ge(read("x"), ZERO))
    assert d_discrete_atoms(ode, pre) == [Gt(read("c"), ZERO)]


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
