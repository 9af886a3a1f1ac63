"""Symbolic derivatives of store expressions along a framed direction field.

The framed derivative of e along field f within frame A is the rate of change
of e when exactly the A-part of the store moves with velocity f.  Reads
outside the frame are constants; reads inside pull their rate out of the
field.  Partiality (ln, sqrt, norm) surfaces as proviso formulas attached to
the result rather than silent assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import expr as ex
from .expr import (
    Add,
    Cos,
    Div,
    Exp,
    Expr,
    Gt,
    Inner,
    Ite,
    Ln,
    LogicalVar,
    Mul,
    Neg,
    Norm,
    Pow,
    RatLit,
    ScalarMul,
    Sin,
    Sqrt,
    Sub,
    Subst,
    VarRead,
    VecLit,
    ZERO,
    eval_expr,
    simplify,
    unrest,
)
from .store import Frame, Store, Var


class NotDifferentiable(Exception):
    """The node has no derivative in the supported fragment."""


@dataclass(frozen=True)
class DerivResult:
    expr: Expr
    provisos: tuple


@dataclass(frozen=True)
class DerivCtx:
    """Direction data for a framed derivative: which lenses move, and how."""

    frame: Frame
    field: Subst


def _free_of(name: str, e: Expr) -> bool:
    return name not in ex.free_logicals(e)


def _no_derivative(why: str, e: Expr) -> NotDifferentiable:
    from .syntax import pretty_expr  # syntax imports this module through arith
    return NotDifferentiable(f"{why} {pretty_expr(e)}")


def _derive(e: Expr, is_const: Callable[[Expr], bool],
            d_atom: Callable[[Expr], Expr], provisos: list) -> Expr:
    if is_const(e):
        return ZERO

    def d(e):
        return _derive(e, is_const, d_atom, provisos)

    if isinstance(e, (VarRead, LogicalVar)):
        return d_atom(e)
    if isinstance(e, Neg):
        return Neg(d(e.arg))
    if isinstance(e, Add):
        return Add(d(e.left), d(e.right))
    if isinstance(e, Sub):
        return Sub(d(e.left), d(e.right))
    if isinstance(e, Mul):
        return Add(Mul(e.left, d(e.right)), Mul(d(e.left), e.right))
    if isinstance(e, Div):
        if is_const(e.right):
            return Div(d(e.left), e.right)
        raise _no_derivative("denominator moves with the frame:", e)
    if isinstance(e, Pow):
        if e.exp == 0:
            return ZERO
        return Mul(Mul(RatLit(e.exp), d(e.base)), Pow(e.base, e.exp - 1))
    if isinstance(e, Ln):
        provisos.append(Gt(e.arg, ZERO))
        return Div(d(e.arg), e.arg)
    if isinstance(e, Exp):
        return Mul(d(e.arg), Exp(e.arg))
    if isinstance(e, Sin):
        return Mul(d(e.arg), Cos(e.arg))
    if isinstance(e, Cos):
        return Neg(Mul(d(e.arg), Sin(e.arg)))
    if isinstance(e, Sqrt):
        provisos.append(Gt(e.arg, ZERO))
        return Div(d(e.arg), Mul(RatLit(2), Sqrt(e.arg)))
    if isinstance(e, Norm):
        provisos.append(Gt(Norm(e.arg), ZERO))
        return Div(Inner(e.arg, d(e.arg)), Norm(e.arg))
    if isinstance(e, Inner):
        return Add(Inner(e.left, d(e.right)), Inner(d(e.left), e.right))
    if isinstance(e, ScalarMul):
        return Add(ScalarMul(e.scalar, d(e.arg)), ScalarMul(d(e.scalar), e.arg))
    if isinstance(e, VecLit):
        return VecLit(tuple(d(i) for i in e.items))
    if isinstance(e, Ite):
        if is_const(e.cond):
            return Ite(e.cond, d(e.then), d(e.other))
        raise _no_derivative("branch condition moves with the frame:", e.cond)
    raise _no_derivative("no derivative rule for", e)


def lie_deriv(ctx: DerivCtx, e: Expr) -> DerivResult:
    """Framed derivative of e along ctx.field within ctx.frame.

    Returns the simplified derivative plus any positivity provisos the chain
    rules required.
    """
    provisos: list = []

    def is_const(t: Expr) -> bool:
        return unrest(ctx.frame, t)

    def d_atom(t: Expr) -> Expr:
        if isinstance(t, LogicalVar):
            return ZERO
        l = t.lens
        if ctx.frame.covers(l):
            return ctx.field.lookup(l)
        if not ctx.frame.overlaps(l):
            return ZERO
        # A whole vector only some of whose coordinates move.
        if isinstance(l, Var):
            ds = ctx.field.dataspace
            if ds is None:
                raise NotDifferentiable(f"partially framed vector {l!r} without a dataspace")
            return VecLit(tuple(ctx.field.lookup(c) if ctx.frame.covers(c) else ZERO
                                for c in ds.coords(l.name)))
        raise NotDifferentiable(f"lens {l!r} straddles the frame")

    return DerivResult(simplify(_derive(e, is_const, d_atom, provisos)),
                       tuple(provisos))


def deriv_in_var(e: Expr, name: str) -> DerivResult:
    """Plain d/d(name) where name is a logical variable (flow time, usually)
    and every store read is held constant."""
    provisos: list = []

    def is_const(t: Expr) -> bool:
        return _free_of(name, t)

    def d_atom(t: Expr) -> Expr:
        if isinstance(t, LogicalVar) and t.name == name:
            return ex.ONE
        return ZERO

    raw = _derive(e, is_const, d_atom, provisos)
    return DerivResult(simplify(raw), tuple(provisos))


def fd_oracle(ctx: DerivCtx, e: Expr, s: Store, h: float = 1e-5,
              env: Optional[dict] = None) -> float:
    """Central finite difference of t -> e(put_A(get_A(s) + t*get_A(f(s)), s)).

    Numeric ground truth for lie_deriv; binary64 throughout.
    """
    moved = ctx.field.apply(s, env)
    base = ctx.frame.get(s)
    direction = ctx.frame.get(moved)

    def shift(t: float) -> Store:
        vals = []
        for b, d in zip(base, direction):
            if isinstance(b, tuple):
                vals.append(tuple(float(bc) + t * float(dc) for bc, dc in zip(b, d)))
            else:
                vals.append(float(b) + t * float(d))
        return ctx.frame.put(tuple(vals), s)

    up = eval_expr(e, shift(h), env)
    down = eval_expr(e, shift(-h), env)
    return (float(up) - float(down)) / (2.0 * h)
