"""Seeded random generators shared by the unit and acceptance suites, and
the reference expression evaluator."""

import math
import random
from fractions import Fraction

from hsverify.store import (
    BOOL,
    Coord,
    Dataspace,
    Frame,
    KindMismatch,
    REAL,
    SumLens,
    Var,
    lens_get,
    lens_indep,
    vec,
)
from hsverify import expr as ex


def small_dataspace() -> Dataspace:
    ds = Dataspace("testspace")
    ds.declare("a", REAL)
    ds.declare("b", REAL)
    ds.declare("v", vec(2))
    ds.declare("w", vec(3))
    ds.declare("flag", BOOL)
    return ds


def rand_rat(rng: random.Random, lo: int = -8, hi: int = 8, den: int = 4) -> Fraction:
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_value(rng: random.Random, kind):
    if kind == REAL:
        return rand_rat(rng)
    if kind == BOOL:
        return rng.random() < 0.5
    return tuple(rand_rat(rng) for _ in range(kind.dim))


def rand_store(rng: random.Random, ds: Dataspace):
    return ds.make_store({n: rand_value(rng, ds.kind_of(n)) for n in ds.names()})


def rand_prim(rng: random.Random, ds: Dataspace):
    name = rng.choice(ds.names())
    kind = ds.kind_of(name)
    if kind.base == "vec" and rng.random() < 0.6:
        return Coord(name, rng.randint(1, kind.dim))
    return Var(name)


def rand_lens(rng: random.Random, ds: Dataspace):
    l = rand_prim(rng, ds)
    if rng.random() < 0.25:
        for _ in range(8):
            other = rand_prim(rng, ds)
            if lens_indep(l, other):
                return SumLens((l, other))
    return l


def lens_kind(ds: Dataspace, l):
    if isinstance(l, Var):
        return ds.kind_of(l.name)
    if isinstance(l, Coord):
        return REAL
    return None


def rand_value_for_lens(rng: random.Random, ds: Dataspace, l):
    if isinstance(l, SumLens):
        return tuple(rand_value_for_lens(rng, ds, p) for p in l.parts)
    return rand_value(rng, lens_kind(ds, l))


# -- expressions -------------------------------------------------------------

def real_reads(ds: Dataspace):
    out = []
    for n in ds.names():
        k = ds.kind_of(n)
        if k == REAL:
            out.append(ex.VarRead(Var(n)))
        elif k.base == "vec":
            out.extend(ex.VarRead(Coord(n, i)) for i in range(1, k.dim + 1))
    return out


def rand_total_expr(rng: random.Random, ds: Dataspace, depth: int = 3) -> ex.Expr:
    """Real-valued, total (no div/ln/sqrt), transcendentals with tamed args."""
    atoms = real_reads(ds)
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.35:
            return ex.RatLit(rand_rat(rng, -4, 4))
        return rng.choice(atoms)
    pick = rng.random()
    a = rand_total_expr(rng, ds, depth - 1)
    if pick < 0.30:
        return ex.Add(a, rand_total_expr(rng, ds, depth - 1))
    if pick < 0.50:
        return ex.Sub(a, rand_total_expr(rng, ds, depth - 1))
    if pick < 0.72:
        return ex.Mul(a, rand_total_expr(rng, ds, depth - 1))
    if pick < 0.82:
        return ex.Pow(a, rng.randint(2, 3))
    tamed = ex.Mul(ex.RatLit(Fraction(1, 8)), a)
    return rng.choice([ex.Sin, ex.Cos, ex.Exp])(tamed)


def rand_subst(rng: random.Random, ds: Dataspace, nmax: int = 3) -> ex.Subst:
    sigma = ex.Subst((), ds)
    targets = []
    for _ in range(rng.randint(1, nmax)):
        l = rand_prim(rng, ds)
        k = lens_kind(ds, l)
        if k == BOOL:
            rhs = ex.BoolLit(rng.random() < 0.5)
        elif k == REAL:
            rhs = rand_total_expr(rng, ds, 2)
        else:
            rhs = ex.VecLit(tuple(rand_total_expr(rng, ds, 1) for _ in range(k.dim)))
        targets.append((l, rhs))
    for l, rhs in targets:
        sigma = sigma.update(l, rhs)
    return sigma


# -- the reference evaluator -------------------------------------------------

def reference_eval(e, s, env=None):
    """The tree-walking evaluator that compiled closures replaced, kept as
    the reference they are checked against."""
    env = env or {}

    def ev(e):
        if isinstance(e, ex.RatLit):
            return e.value
        if isinstance(e, ex.BoolLit):
            return e.value
        if isinstance(e, ex.VarRead):
            return lens_get(e.lens, s)
        if isinstance(e, ex.LogicalVar):
            try:
                return env[e.name]
            except KeyError:
                raise ex.UnboundLogicalVar(e.name) from None
        if isinstance(e, ex.Neg):
            v = ev(e.arg)
            return tuple(-c for c in v) if isinstance(v, tuple) else -v
        if isinstance(e, ex.Add):
            a, b = ev(e.left), ev(e.right)
            if isinstance(a, tuple) or isinstance(b, tuple):
                a, b = ex._as_vec(a), ex._as_vec(b)
                if len(a) != len(b):
                    raise KindMismatch("vector dimensions differ in +")
                return tuple(x + y for x, y in zip(a, b))
            return a + b
        if isinstance(e, ex.Sub):
            a, b = ev(e.left), ev(e.right)
            if isinstance(a, tuple) or isinstance(b, tuple):
                a, b = ex._as_vec(a), ex._as_vec(b)
                if len(a) != len(b):
                    raise KindMismatch("vector dimensions differ in -")
                return tuple(x - y for x, y in zip(a, b))
            return a - b
        if isinstance(e, ex.Mul):
            return ev(e.left) * ev(e.right)
        if isinstance(e, ex.Div):
            a, b = ev(e.left), ev(e.right)
            if b == 0:
                raise ex.DivisionByZero(f"{a} / 0")
            if isinstance(a, Fraction) and isinstance(b, (int, Fraction)):
                return Fraction(a) / Fraction(b)
            return a / b
        if isinstance(e, ex.Pow):
            return ev(e.base) ** e.exp
        if isinstance(e, ex.Ln):
            v = ev(e.arg)
            if v <= 0:
                raise ex.LnNonPositive(f"ln({v})")
            return math.log(v)
        if isinstance(e, ex.Exp):
            v = ev(e.arg)
            if v == 0:
                return Fraction(1)
            return math.exp(v)
        if isinstance(e, ex.Sin):
            return math.sin(ev(e.arg))
        if isinstance(e, ex.Cos):
            return math.cos(ev(e.arg))
        if isinstance(e, ex.Sqrt):
            v = ev(e.arg)
            if v < 0:
                raise ex.SqrtNegative(f"sqrt({v})")
            if isinstance(v, (int, Fraction)):
                r = ex._exact_sqrt(Fraction(v))
                if r is not None:
                    return r
            return math.sqrt(v)
        if isinstance(e, ex.Norm):
            v = ex._as_vec(ev(e.arg))
            q = sum(c * c for c in v)
            if isinstance(q, (int, Fraction)):
                r = ex._exact_sqrt(Fraction(q))
                if r is not None:
                    return r
            return math.sqrt(q)
        if isinstance(e, ex.Inner):
            a, b = ex._as_vec(ev(e.left)), ex._as_vec(ev(e.right))
            if len(a) != len(b):
                raise KindMismatch("vector dimensions differ in inner product")
            return sum(x * y for x, y in zip(a, b))
        if isinstance(e, ex.ScalarMul):
            k = ev(e.scalar)
            v = ex._as_vec(ev(e.arg))
            return tuple(k * c for c in v)
        if isinstance(e, ex.VecLit):
            return tuple(ev(i) for i in e.items)
        if isinstance(e, ex.Eq):
            return ev(e.left) == ev(e.right)
        if isinstance(e, ex.Neq):
            return ev(e.left) != ev(e.right)
        if isinstance(e, ex.Le):
            return ev(e.left) <= ev(e.right)
        if isinstance(e, ex.Lt):
            return ev(e.left) < ev(e.right)
        if isinstance(e, ex.Ge):
            return ev(e.left) >= ev(e.right)
        if isinstance(e, ex.Gt):
            return ev(e.left) > ev(e.right)
        if isinstance(e, ex.And):
            a, b = ev(e.left), ev(e.right)
            return a and b
        if isinstance(e, ex.Or):
            a, b = ev(e.left), ev(e.right)
            return a or b
        if isinstance(e, ex.Not):
            return not ev(e.arg)
        if isinstance(e, ex.Implies):
            a, b = ev(e.left), ev(e.right)
            return (not a) or b
        if isinstance(e, ex.Iff):
            return ev(e.left) == ev(e.right)
        if isinstance(e, ex.Ite):
            return ev(e.then) if ev(e.cond) else ev(e.other)
        if isinstance(e, (ex.Exists, ex.Forall)):
            raise ex.UnsupportedConstruct("quantifiers have no direct evaluation")
        raise ex.UnsupportedConstruct(f"cannot evaluate {e!r}")

    return ev(e)


_LEAVES = (ex.RatLit, ex.BoolLit, ex.VarRead, ex.LogicalVar)
_UNARY = (ex.Neg, ex.Ln, ex.Exp, ex.Sin, ex.Cos, ex.Sqrt, ex.Norm, ex.Not)
_BINARY = (ex.Add, ex.Sub, ex.Mul, ex.Div, ex.Inner, ex.ScalarMul, ex.Eq, ex.Neq, ex.Le,
           ex.Lt, ex.Ge, ex.Gt, ex.And, ex.Or, ex.Implies, ex.Iff)


def rand_any_expr(rng: random.Random, ds: Dataspace, depth: int = 3) -> ex.Expr:
    """Any node over ds with kinds unchecked, so partial operations, kind
    errors, out-of-range coordinates and the logical variables p (bound by
    callers) and q (left unbound) all occur."""
    if depth == 0 or rng.random() < 0.2:
        leaf = rng.choice(_LEAVES)
        if leaf is ex.RatLit:
            return ex.RatLit(rand_rat(rng, -3, 3, 2))
        if leaf is ex.BoolLit:
            return ex.BoolLit(rng.random() < 0.5)
        if leaf is ex.LogicalVar:
            return ex.LogicalVar(rng.choice("ppq"))
        if rng.random() < 0.05:
            return ex.VarRead(Coord(rng.choice(ds.names()), rng.randint(1, 4)))
        return ex.VarRead(rand_lens(rng, ds))
    kid = lambda: rand_any_expr(rng, ds, depth - 1)  # noqa: E731
    pick = rng.random()
    if pick < 0.3:
        return rng.choice(_UNARY)(kid())
    if pick < 0.8:
        return rng.choice(_BINARY)(kid(), kid())
    if pick < 0.85:
        return ex.Pow(kid(), rng.randint(0, 3))
    if pick < 0.9:
        return ex.VecLit(tuple(kid() for _ in range(rng.randint(1, 3))))
    if pick < 0.97:
        return ex.Ite(kid(), kid(), kid())
    return rng.choice((ex.Exists, ex.Forall))("p", kid())
