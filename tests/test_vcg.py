"""Weakest liberal preconditions and the flow table."""

import random
from fractions import Fraction

import pytest

from hsverify.arith import ArithCtx, prove_vc
from hsverify.expr import (
    Add,
    And,
    Eq,
    Exp,
    Forall,
    Ge,
    Implies,
    Le,
    LogicalVar,
    Mul,
    Neg,
    Not,
    Sub,
    Subst,
    TRUE,
    ZERO,
    eval_expr,
    num,
    read,
    subst_apply_expr,
)
from hsverify.program import (
    Abort,
    Assign,
    Choice,
    Evol,
    If,
    Loop,
    ODE,
    Seq,
    Skip,
    Test,
    interval,
)
from hsverify.store import Dataspace, Frame, REAL, Var
from hsverify.vcg import (
    FlowTable,
    MissingFlow,
    MissingLoopInvariant,
    Triple,
    VC,
    gen_vcs,
    wlp,
)

from helpers import rand_store, rand_subst, rand_total_expr, small_dataspace


def xy_ds():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    return ds


x, y = read("x"), read("y")
tau = LogicalVar("tau")
sig = LogicalVar("sig")


# -- discrete wlp -----------------------------------------------------------


def test_wlp_skip_abort_test():
    q = Ge(x, ZERO)
    assert wlp(Skip(), q) == q
    assert wlp(Abort(), q) == TRUE
    assert wlp(Test(Ge(y, ZERO)), q) == Implies(Ge(y, ZERO), q)


def test_wlp_assign_substitutes():
    ds = xy_ds()
    p = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    got = wlp(p, Ge(x, ZERO))
    assert got == Ge(Add(x, num(1)), ZERO)


def test_wlp_seq_choice_if():
    ds = xy_ds()
    bump = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    q = Ge(x, ZERO)
    assert wlp(Seq(bump, bump), q) == Ge(Add(Add(x, num(1)), num(1)), ZERO)
    c = wlp(Choice(bump, Skip()), q)
    assert c == And(Ge(Add(x, num(1)), ZERO), q)
    b = Ge(y, ZERO)
    i = wlp(If(b, bump, Skip()), q)
    assert i == And(Implies(b, Ge(Add(x, num(1)), ZERO)),
                    Implies(Not(b), q))


def test_wlp_random_soundness_against_enumeration():
    # all terminating outcomes satisfy Q exactly when the wlp holds initially
    ds = small_dataspace()
    rng = random.Random(424)

    def rand_formula(depth=2):
        a = rand_total_expr(rng, ds, depth=depth)
        b = rand_total_expr(rng, ds, depth=depth)
        return rng.choice((Le, Ge, Eq))(a, b)

    def rand_prog(depth):
        if depth == 0:
            k = rng.randrange(4)
            if k == 0:
                return Skip()
            if k == 1:
                return Abort()
            if k == 2:
                return Test(rand_formula(1))
            return Assign(rand_subst(rng, ds))
        k = rng.randrange(3)
        a, b = rand_prog(depth - 1), rand_prog(depth - 1)
        if k == 0:
            return Seq(a, b)
        if k == 1:
            return Choice(a, b)
        return If(rand_formula(1), a, b)

    def outcomes(p, s):
        if isinstance(p, Skip):
            return [s]
        if isinstance(p, Abort):
            return []
        if isinstance(p, Test):
            return [s] if eval_expr(p.cond, s) else []
        if isinstance(p, Assign):
            return [p.subst.apply(s)]
        if isinstance(p, Seq):
            return [o for m in outcomes(p.first, s) for o in outcomes(p.second, m)]
        if isinstance(p, Choice):
            return outcomes(p.left, s) + outcomes(p.right, s)
        if isinstance(p, If):
            return outcomes(p.then if eval_expr(p.cond, s) else p.other, s)
        raise AssertionError(p)

    for _ in range(100):
        p = rand_prog(rng.randrange(1, 3))
        q = rand_formula()
        s = rand_store(rng, ds)
        want = all(bool(eval_expr(q, o)) for o in outcomes(p, s))
        got = bool(eval_expr(wlp(p, q), s))
        assert got == want


# -- loops ------------------------------------------------------------------


def test_loop_needs_invariant():
    with pytest.raises(MissingLoopInvariant):
        gen_vcs(Triple(TRUE, Loop(Skip()), TRUE))


def test_loop_generates_three_conditions():
    ds = xy_ds()
    bump = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    inv = Ge(x, ZERO)
    t = Triple(Ge(x, num(1)), Loop(bump, invariant=inv), Ge(x, num(-1)))
    vcs = gen_vcs(t)
    assert [v.vc_id for v in vcs] == ["main", "loop-preserve", "loop-post"]
    assert vcs[0].formula == Implies(Ge(x, num(1)), inv)
    assert vcs[1].formula == Implies(inv, Ge(Add(x, num(1)), ZERO))
    assert vcs[2].formula == Implies(inv, Ge(x, num(-1)))
    c = ArithCtx(ds)
    assert all(prove_vc(v.formula, c).valid for v in vcs)


# -- flows ------------------------------------------------------------------


def linear_flow(ds):
    # x' = 1 solved by x + tau
    frame = Frame((Var("x"),))
    rhs = Subst(((Var("x"), num(1)),), ds)
    flow = Subst(((Var("x"), Add(x, tau)),), ds)
    return frame, rhs, flow


def test_wlp_ode_without_flow_raises():
    ds = xy_ds()
    frame, rhs, _ = linear_flow(ds)
    ode = ODE(frame, rhs)
    with pytest.raises(MissingFlow):
        wlp(ode, Ge(x, ZERO), FlowTable(ds))
    with pytest.raises(MissingFlow):
        wlp(ode, Ge(x, ZERO))


def test_flow_table_matches_normalized_rhs():
    ds = Dataspace()
    ds.declare("ci", REAL)
    ds.declare("co", REAL)
    ds.declare("h", REAL)
    frame = Frame((Var("h"),))
    rate1 = Sub(read("ci"), read("co"))
    rate2 = Add(Neg(read("co")), read("ci"))  # same polynomial, reordered
    flow = Subst(((Var("h"), Add(Mul(rate1, tau), read("h"))),), ds)
    ft = FlowTable(ds)
    ft.register(frame, Subst(((Var("h"), rate1),), ds), flow)
    ode = ODE(frame, Subst(((Var("h"), rate2),), ds))
    assert ft.lookup(ode) == flow
    other = ODE(Frame((Var("ci"),)), Subst(((Var("ci"), rate2),), ds))
    assert ft.lookup(other) is None


def test_flow_wlp_shape():
    ds = xy_ds()
    frame, rhs, flow = linear_flow(ds)
    ft = FlowTable(ds)
    ft.register(frame, rhs, flow)
    got = wlp(ODE(frame, rhs), Le(x, num(5)), ft)
    # a trivially true guard contributes no down-closure hypothesis
    want = Forall("tau", Implies(Le(num(0), tau), Le(Add(x, tau), num(5))))
    assert got == want

    guarded = ODE(frame, rhs, guard=Le(x, num(9)))
    got = wlp(guarded, Le(x, num(5)), ft)
    want = Forall("tau", Implies(
        Le(num(0), tau),
        Implies(Forall("sig", Implies(And(Le(num(0), sig), Le(sig, tau)),
                                      Le(Add(x, sig), num(9)))),
                Le(Add(x, tau), num(5)))))
    assert got == want


def test_flow_wlp_binders_avoid_capture():
    ds = xy_ds()
    frame, rhs, flow = linear_flow(ds)
    ft = FlowTable(ds)
    ft.register(frame, rhs, flow)
    q = Le(x, LogicalVar("tau"))  # free tau in the postcondition
    got = wlp(ODE(frame, rhs), q, ft)
    assert isinstance(got, Forall)
    assert got.var != "tau"


def test_flow_wlp_duration_interval():
    ds = xy_ds()
    frame, rhs, flow = linear_flow(ds)
    ode = ODE(frame, rhs, dur=interval(0, 2))
    ft = FlowTable(ds)
    ft.register(frame, rhs, flow)
    got = wlp(ode, Le(x, num(5)), ft)
    assert isinstance(got, Forall)
    bounds = got.body.left
    assert bounds == And(Le(num(0), tau), Le(tau, num(2)))


def test_evol_wlp_provable_decay_bound():
    ds = xy_ds()
    frame = Frame((Var("x"),))
    flow = Subst(((Var("x"), Mul(x, Exp(Neg(tau)))),), ds)
    ev = Evol(frame, flow, guard=Ge(x, ZERO))
    f = Implies(And(Ge(x, ZERO), Le(x, read("y"))), wlp(ev, Le(x, read("y"))))
    out = prove_vc(f, ArithCtx(ds))
    assert out.valid


def test_guard_down_closure_hypothesis_is_usable():
    # guard h <= 10 along the flow justifies the postcondition at tau
    ds = Dataspace()
    ds.declare("h", REAL)
    h = read("h")
    frame = Frame((Var("h"),))
    rhs = Subst(((Var("h"), num(1)),), ds)
    flow = Subst(((Var("h"), Add(h, tau)),), ds)
    ft = FlowTable(ds)
    ft.register(frame, rhs, flow)
    got = wlp(ODE(frame, rhs, guard=Le(h, num(10))), Le(h, num(10)), ft)
    assert prove_vc(got, ArithCtx(ds)).valid


# -- frame rule -------------------------------------------------------------


def test_frame_rule_conjoins_untouched_invariant():
    """Each loop condition has the precondition's conjuncts that read
    nothing the program writes as a hypothesis, each once and true
    dropped; a loop-free program gets none."""
    ds = xy_ds()
    bump = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    inv, seven = Ge(x, ZERO), Eq(y, num(7))
    pre = And(And(inv, And(seven, TRUE)), seven)
    vcs = gen_vcs(Triple(pre, Loop(bump, invariant=inv), Ge(x, num(-1))))
    assert [(vc.vc_id, vc.formula) for vc in vcs] == [
        ("main", Implies(pre, inv)),
        ("loop-preserve", Implies(seven, Implies(inv, Ge(Add(x, num(1)), ZERO)))),
        ("loop-post", Implies(seven, Implies(inv, Ge(x, num(-1))))),
    ]
    vcs = gen_vcs(Triple(pre, bump, Ge(x, num(1))))
    assert [vc.formula for vc in vcs] == [Implies(pre, Ge(Add(x, num(1)), num(1)))]


def test_frame_rule_rejects_observing_invariant():
    """A precondition conjunct that reads a name the program writes is no
    hypothesis of the loop conditions."""
    ds = xy_ds()
    bump = Assign(Subst(((Var("x"), Add(x, num(1))),), ds))
    inv = Ge(x, ZERO)
    vcs = gen_vcs(Triple(inv, Loop(bump, invariant=inv), Ge(x, num(-1))))
    assert [(vc.vc_id, vc.formula) for vc in vcs] == [
        ("main", Implies(inv, inv)),
        ("loop-preserve", Implies(inv, Ge(Add(x, num(1)), ZERO))),
        ("loop-post", Implies(inv, Ge(x, num(-1)))),
    ]
