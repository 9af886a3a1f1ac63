import math
import random
from fractions import Fraction

import pytest

from hsverify.expr import (
    Add,
    And,
    BoolLit,
    Eq,
    Ge,
    Le,
    Neg,
    Not,
    Subst,
    TRUE,
    num,
    read,
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
    SimConfig,
    Skip,
    StepSizeTooLarge,
    Test,
    eval_guard,
    format_trace,
    interval,
    modset,
    nmods,
    simulate,
    simulate_traced,
)
from hsverify.store import Coord, Dataspace, Frame, REAL, Var, vec
from hsverify.expr import Exp, LogicalVar, Mul

from helpers import small_dataspace


def xy_ds():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("t", REAL)
    return ds


def decay(ds):
    return ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))


def test_modset_structure():
    ds = small_dataspace()
    p = Seq(Assign(Subst(((Var("a"), num(1)),), ds)),
            If(read("flag"),
               Assign(Subst(((Coord("v", 1), num(0)),), ds)),
               Skip()))
    assert modset(p).members == (Var("a"), Coord("v", 1))
    assert nmods(p, Frame([Var("b"), Coord("v", 2)]))
    assert not nmods(p, Frame([Var("v")]))
    loop = Loop(p, invariant=TRUE)
    assert modset(loop) == modset(p)


def test_skip_abort_test():
    ds = xy_ds()
    s = ds.make_store({"x": 1, "t": 0})
    assert simulate(Skip(), s) == [s]
    assert simulate(Abort(), s) == []
    assert simulate(Test(Ge(read("x"), num(0))), s) == [s]
    assert simulate(Test(Ge(read("x"), num(2))), s) == []


def test_assign_and_seq():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": Fraction(0)})
    p = Seq(Assign(Subst(((Var("x"), num(5)),), ds)),
            Assign(Subst(((Var("t"), read("x")),), ds)))
    out = simulate(p, s)
    assert len(out) == 1
    assert out[0].get("x") == 5 and out[0].get("t") == 5


def test_choice_seeded_and_explored():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": 0})
    p = Choice(Assign(Subst(((Var("x"), num(1)),), ds)),
               Assign(Subst(((Var("x"), num(2)),), ds)))
    a = simulate(p, s, SimConfig(rng_seed=1))
    b = simulate(p, s, SimConfig(rng_seed=1))
    assert a == b
    both = simulate(p, s, SimConfig(explore_both=True))
    assert {st.get("x") for st in both} == {1, 2}


def test_decay_reaches_inverse_e():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})
    out = simulate(decay(ds), s, SimConfig(step=0.01, horizon=1.0, samples_per_orbit=200))
    assert abs(out[-1].get("x") - math.exp(-1)) < 1e-8


def test_rk4_fourth_order_convergence():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})

    def max_err(step):
        cfg = SimConfig(step=step, horizon=1.0, samples_per_orbit=100000)
        worst = 0.0
        for t, st in simulate_traced(decay(ds), s, cfg):
            worst = max(worst, abs(st.get("x") - math.exp(-t)))
        return worst

    assert max_err(0.001) <= 1e-6
    assert max_err(0.02) / max_err(0.01) >= 8.0


def test_guard_stops_orbit_with_down_closure():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                guard=Le(read("t"), num(1)))
    out = simulate_traced(clock, s, SimConfig(step=0.25, horizon=10.0))
    times = [t for t, _ in out]
    assert times[-1] <= 1.0 + 1e-6
    assert max(st.get("t") for _, st in out) <= 1.0 + 1e-6
    # Guard false at entry: the orbit is empty.
    s_bad = ds.make_store({"x": 0, "t": Fraction(2)})
    assert simulate(clock, s_bad, SimConfig(step=0.25, horizon=2.0)) == []


def test_guard_boundary_is_refined_by_bisection():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                guard=Le(read("t"), num("0.35")))
    out = simulate_traced(clock, s, SimConfig(step=0.2, horizon=2.0))
    last = out[-1][1].get("t")
    assert 0.34 < last <= 0.35 + 1e-6


def test_guard_holds_unless_false_beyond_the_margin():
    ds = xy_ds()
    near = ds.make_store({"x": 1.0 + 1e-12, "t": 0})
    assert eval_guard(Le(read("x"), num(1)), near)
    assert eval_guard(Not(Le(read("x"), num(1))), near)
    exact = ds.make_store({"x": Fraction(1), "t": 0})
    assert not eval_guard(Not(Le(read("x"), num(1))), exact)
    far = ds.make_store({"x": 1.0 + 1e-6, "t": 0})
    assert not eval_guard(Le(read("x"), num(1)), far)


def test_step_too_large_for_thin_guard():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    thin = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
               guard=Le(read("t"), num("1e-9")))
    with pytest.raises(StepSizeTooLarge):
        simulate(thin, s, SimConfig(step=10.0, horizon=20.0))


def test_duration_interval_filters_samples():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                dur=interval(Fraction(1, 2), 1))
    out = simulate_traced(clock, s, SimConfig(step=0.25, horizon=2.0, samples_per_orbit=1000))
    assert all(0.5 <= t <= 1.0 + 1e-9 for t, _ in out)


def test_duration_bounds_compare_exactly():
    s = xy_ds().make_store({"x": 0, "t": 0})
    tenth = interval(0, Fraction(1, 10))
    assert not tenth.contains(0.1, s)  # the double nearest 0.1 exceeds 1/10
    assert tenth.contains(Fraction(1, 10), s)
    unit = interval(0, 1)
    for tau in (-1e-300, -0.0, 0.0, 0.5, 1.0, 1.0000000000000002, 2.0, math.inf,
                Fraction(1), Fraction(3, 2), 1):
        assert unit.contains(tau, s) == (Fraction(0) <= tau <= Fraction(1))


def test_test_after_guard_uses_the_guard_margin():
    # RK4 lands on x = 0.30000000000000004, which the guard admits within
    # its margin; the test after it must admit that state too.
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": 0})
    bound = Le(read("x"), num("3/10"))
    flow = ODE(Frame([Var("x")]), Subst(((Var("x"), num(1)),), ds), guard=bound)
    cfg = SimConfig(step=0.1, horizon=1.0)
    alone = simulate_traced(flow, s, cfg)
    tested = simulate_traced(Seq(flow, Test(bound)), s, cfg)
    assert tested == alone
    assert tested[-1][0] == pytest.approx(0.3)


def test_discrete_vars_constant_through_ode():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("k", REAL)
    s = ds.make_store({"x": Fraction(1), "k": Fraction(42)})
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))
    for st in simulate(ode, s, SimConfig(step=0.1, horizon=1.0)):
        assert st.get("k") == Fraction(42)


def test_ode_over_coordinates_keeps_the_rest_of_the_vector():
    ds = small_dataspace()
    s = ds.make_store({"a": 0, "b": 0, "v": (Fraction(5), Fraction(0)),
                       "w": (Fraction(0), Fraction(7), Fraction(0)), "flag": False})
    rhs = Subst(((Coord("v", 2), num(1)), (Coord("w", 1), read("v", 2)),
                 (Coord("w", 3), Neg(num(1)))), ds)
    ode = ODE(Frame([Coord("v", 2), Coord("w", 1), Coord("w", 3)]), rhs)
    last = simulate(ode, s, SimConfig(step=0.25, horizon=1.0))[-1]
    assert last.get("v") == (Fraction(5), 1.0)
    assert last.get("w") == (pytest.approx(0.5), Fraction(7), -1.0)
    assert type(last.get("w")[1]) is Fraction


def test_evol_matches_closed_form():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})
    flow = Subst(((Var("x"), Mul(read("x"), Exp(Neg(LogicalVar("tau"))))),), ds)
    ev = Evol(Frame([Var("x")]), flow)
    out = simulate_traced(ev, s, SimConfig(step=0.125, horizon=1.0, samples_per_orbit=100))
    for t, st in out:
        assert abs(st.get("x") - math.exp(-t)) < 1e-12


def test_loop_iterations_bounded_by_horizon():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(0), "t": 0})
    bump = Assign(Subst(((Var("x"), Add(read("x"), num(1))),), ds))
    out = simulate(Loop(bump), s, SimConfig(horizon=3.0))
    assert {st.get("x") for st in out} == {0, 1, 2, 3}


def test_trace_format():
    ds = small_dataspace()
    s = ds.make_store({"a": Fraction(1, 2), "b": 0, "v": (1, 2), "w": (0, 0, 0),
                       "flag": True})
    text = format_trace([(0.0, s)])
    line = text.strip()
    head, fields = line.split("\t")
    assert head == "0.000000"
    assert fields == "a=1/2 b=0 v=[1, 2] w=[0, 0, 0] flag=true"
