import math
import random
from fractions import Fraction

import pytest

from hsverify.deriv import DerivCtx, NotDifferentiable, deriv_in_var, fd_oracle, lie_deriv
from hsverify.expr import (
    Add,
    Cos,
    Div,
    Exp,
    Gt,
    Inner,
    Ite,
    Ln,
    LogicalVar,
    Mul,
    Neg,
    Eq,
    Pow,
    RatLit,
    Sin,
    Sqrt,
    Subst,
    VecLit,
    ZERO,
    eval_expr,
    num,
    read,
)
from hsverify.store import Coord, Dataspace, Frame, REAL, Var, vec

from helpers import rand_store, rand_total_expr, small_dataspace


def ctx_for(ds, entries):
    sigma = Subst(tuple(entries), ds)
    return DerivCtx(Frame(sigma.lenses()), sigma)


def one_var_ds():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    return ds


def test_square_along_unit_direction():
    ds = one_var_ds()
    ctx = DerivCtx(Frame([Var("x")]), Subst(((Var("x"), num(1)),), ds))
    d = lie_deriv(ctx, Pow(read("x"), 2))
    assert d.expr == Mul(num(2), read("x"))
    assert d.provisos == ()


def test_square_framed_away_is_zero():
    ds = one_var_ds()
    ctx = DerivCtx(Frame([Var("y")]), Subst(((Var("y"), num(1)),), ds))
    d = lie_deriv(ctx, Pow(read("x"), 2))
    assert d.expr == ZERO


def test_square_along_doubled_direction():
    ds = one_var_ds()
    ctx = DerivCtx(Frame([Var("x")]), Subst(((Var("x"), num(2)),), ds))
    d = lie_deriv(ctx, Pow(read("x"), 2))
    assert d.expr == Mul(num(4), read("x"))


def test_rotation_field_cancels_radius():
    # x' = y, y' = -x keeps x^2 + y^2 still: the derivative is 2yx + 2(-x)y.
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), read("y")), (Var("y"), Neg(read("x")))])
    d = lie_deriv(ctx, Add(Pow(read("x"), 2), Pow(read("y"), 2)))
    assert d.expr == Add(Mul(Mul(num(2), read("y")), read("x")),
                         Mul(Mul(num(2), Neg(read("x"))), read("y")))
    rng = random.Random(3)
    for _ in range(20):
        s = rand_store(rng, small_dataspace())
        s2 = ds.make_store({"x": s.get("a"), "y": s.get("b")})
        assert eval_expr(d.expr, s2) == 0


def test_constants_and_logicals_have_zero_rate():
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), num(1))])
    assert lie_deriv(ctx, num(5)).expr == ZERO
    assert lie_deriv(ctx, LogicalVar("T")).expr == ZERO
    assert lie_deriv(ctx, read("y")).expr == ZERO


def test_chain_rules_and_provisos():
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), num(1))])
    x = read("x")
    d = lie_deriv(ctx, Ln(x))
    assert d.expr == Div(num(1), x)
    assert d.provisos == (Gt(x, ZERO),)
    d = lie_deriv(ctx, Sqrt(x))
    assert d.provisos == (Gt(x, ZERO),)
    assert lie_deriv(ctx, Exp(x)).expr == Exp(x)
    assert lie_deriv(ctx, Sin(x)).expr == Cos(x)
    assert lie_deriv(ctx, Cos(x)).expr == Neg(Sin(x))


def test_division_needs_still_denominator():
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), num(1))])
    d = lie_deriv(ctx, Div(Pow(read("x"), 2), read("y")))
    assert d.expr == Div(Mul(num(2), read("x")), read("y"))
    with pytest.raises(NotDifferentiable):
        lie_deriv(ctx, Div(num(1), read("x")))


def test_ite_condition_must_not_move():
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), num(1))])
    d = lie_deriv(ctx, Ite(Gt(read("y"), ZERO), Pow(read("x"), 2), read("x")))
    assert d.expr == Ite(Gt(read("y"), ZERO), Mul(num(2), read("x")), num(1))
    with pytest.raises(NotDifferentiable):
        lie_deriv(ctx, Ite(Gt(read("x"), ZERO), read("x"), read("y")))


def test_vector_field_inner_product():
    ds = Dataspace()
    ds.declare("p", vec(2))
    ds.declare("q", vec(2))
    sigma = Subst(((Var("p"), read("q")), (Var("q"), VecLit((ZERO, ZERO)))), ds)
    ctx = DerivCtx(Frame([Var("p"), Var("q")]), sigma)
    d = lie_deriv(ctx, Inner(read("q"), read("p")))
    # q' = 0, p' = q: expect <q, q> after dropping the zero half.
    s = ds.make_store({"p": (1, 2), "q": (3, 4)})
    assert eval_expr(d.expr, s) == 25


def test_partially_framed_vector():
    ds = Dataspace()
    ds.declare("p", vec(2))
    sigma = Subst(((Coord("p", 1), num(1)),), ds)
    ctx = DerivCtx(Frame([Coord("p", 1)]), sigma)
    d = lie_deriv(ctx, read("p"))
    assert d.expr == VecLit((num(1), ZERO))


def test_deriv_in_var():
    tau = LogicalVar("tau")
    e = Mul(read("x"), Exp(Neg(tau)))
    d = deriv_in_var(e, "tau")
    assert d.expr == Mul(Mul(num(-1), read("x")), Exp(Neg(tau)))
    assert deriv_in_var(Add(tau, read("x")), "tau").expr == num(1)
    assert deriv_in_var(read("x"), "tau").expr == ZERO


def test_fd_oracle_matches_symbolic_small():
    rng = random.Random(21)
    ds = small_dataspace()
    frame_entries = [(Var("a"), rand_total_expr(rng, ds, 2)),
                     (Coord("v", 1), rand_total_expr(rng, ds, 2))]
    ctx = ctx_for(ds, frame_entries)
    checked = 0
    while checked < 40:
        e = rand_total_expr(rng, ds, 3)
        s = rand_store(rng, ds)
        try:
            sym = lie_deriv(ctx, e)
        except NotDifferentiable:
            continue
        got = float(eval_expr(sym.expr, s))
        want = fd_oracle(ctx, e, s)
        assert abs(got - want) <= 1e-4 * (1.0 + abs(want)), (e, got, want)
        checked += 1


def test_fd_oracle_simple_value():
    ds = one_var_ds()
    ctx = ctx_for(ds, [(Var("x"), num(1))])
    s = ds.make_store({"x": Fraction(3), "y": Fraction(0)})
    assert abs(fd_oracle(ctx, Pow(read("x"), 2), s) - 6.0) < 1e-6
