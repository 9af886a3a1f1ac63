"""Seeded random generators shared by the unit and acceptance suites, and
the reference expression evaluator, simplifier, traversals, falsifier
samplers, three-valued evaluator, falsifier, kind checker, polynomial
builder, polynomial normalizer, condition prover and triple prover."""

import dataclasses
import math
import random
from fractions import Fraction

from hsverify.store import (
    BOOL,
    Coord,
    Dataspace,
    Frame,
    Kind,
    KindMismatch,
    REAL,
    Store,
    SumLens,
    Var,
    lens_get,
    lens_indep,
    vec,
)
from hsverify import expr as ex
from hsverify.arith import (
    _GRID, _NICE, ArithCtx, Box, Poly, Unpolyable, Verdict, _Budget, _Prover, _bound_terms,
    _inexact, _sampler, _store_samplers, expr_key, falsify, negate, norm_rel, peel, poly_of,
    poly_to_expr, reduce_trig,
)
from hsverify.expr import (
    FALSE, ONE, TRUE, ZERO, Add, And, BoolLit, Cos, Div, Eq, Exists, Exp, Expr, Forall, Ge, Gt,
    Iff, Implies, Inner, Ite, Le, Ln, LogicalVar, Lt, Mul, Neg, Neq, Norm, Not, Or, Pow, RatLit,
    ScalarMul, Sin, Sqrt, Sub, UnsupportedConstruct, VarRead, VecLit, _exact_sqrt, _fold_binop,
    _rebalance, children, conj, eval_expr, free_logicals, rebuild, simplify, subterms, total,
)
from hsverify.program import ODE, Choice, If, Loop, Seq
from hsverify.tactics import (
    UNKNOWN, ProofResult, _dedup, _discrete, check_vc, d_induct_mega, settle,
)
from hsverify.vcg import VC, MissingFlow, MissingLoopInvariant, Triple, gen_vcs, wlp


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


# -- the reference simplifier ------------------------------------------------

def _reference_flatten(cls, e):
    if isinstance(e, cls):
        return _reference_flatten(cls, e.left) + _reference_flatten(cls, e.right)
    return [e]


def reference_simplify(e: Expr) -> Expr:
    """The recursive simplifier that the cached walk replaced, kept as the
    reference it is checked against: local, evaluation-preserving cleanup
    (constant folding, units, and literal branches).  Rewrites that drop a
    subterm require it total."""

    def go(e) -> Expr:
        kids = tuple(go(k) for k in children(e))
        e = rebuild(e, kids)

        if isinstance(e, Neg):
            a = e.arg
            if isinstance(a, RatLit):
                return RatLit(-a.value)
            if isinstance(a, Neg):
                return a.arg
            if isinstance(a, VecLit) and all(isinstance(i, RatLit) for i in a.items):
                return VecLit(tuple(RatLit(-i.value) for i in a.items))
            return e

        if isinstance(e, Add):
            terms = _reference_flatten(Add, e)
            c = Fraction(0)
            rest = []
            for t in terms:
                if isinstance(t, RatLit):
                    c += t.value
                else:
                    rest.append(t)
            if c != 0 or not rest:
                rest = rest + [RatLit(c)] if rest else [RatLit(c)]
            return _rebalance(Add, rest, ZERO)

        if isinstance(e, Sub):
            f = _fold_binop(e, e.left, e.right)
            if f is not None:
                return f
            if isinstance(e.right, RatLit) and e.right.value == 0:
                return e.left
            if isinstance(e.left, RatLit) and e.left.value == 0:
                return go(Neg(e.right))
            return e

        if isinstance(e, Mul):
            factors = _reference_flatten(Mul, e)
            c = Fraction(1)
            rest = []
            for t in factors:
                if isinstance(t, RatLit):
                    c *= t.value
                else:
                    rest.append(t)
            if c == 0 and all(total(t) for t in rest):
                return ZERO
            if not rest:
                return RatLit(c)
            if c != 1:
                rest = [RatLit(c)] + rest
            return _rebalance(Mul, rest, ONE)

        if isinstance(e, Div):
            f = _fold_binop(e, e.left, e.right)
            if f is not None:
                return f
            if isinstance(e.right, RatLit) and e.right.value == 1:
                return e.left
            return e

        if isinstance(e, Pow):
            if e.exp == 0 and total(e.base):
                return ONE
            if e.exp == 1:
                return e.base
            if isinstance(e.base, RatLit):
                return RatLit(e.base.value ** e.exp)
            return e

        if isinstance(e, Exp):
            if isinstance(e.arg, RatLit) and e.arg.value == 0:
                return ONE
            return e
        if isinstance(e, Ln):
            if isinstance(e.arg, RatLit) and e.arg.value == 1:
                return ZERO
            return e
        if isinstance(e, Sin):
            if isinstance(e.arg, RatLit) and e.arg.value == 0:
                return ZERO
            return e
        if isinstance(e, Cos):
            if isinstance(e.arg, RatLit) and e.arg.value == 0:
                return ONE
            return e
        if isinstance(e, Sqrt):
            if isinstance(e.arg, RatLit) and e.arg.value >= 0:
                r = _exact_sqrt(e.arg.value)
                if r is not None:
                    return RatLit(r)
            return e

        if isinstance(e, Norm):
            if isinstance(e.arg, VecLit) and all(isinstance(i, RatLit) for i in e.arg.items):
                q = sum((i.value * i.value for i in e.arg.items), Fraction(0))
                r = _exact_sqrt(q)
                if r is not None:
                    return RatLit(r)
            return e

        if isinstance(e, Inner):
            a, b = e.left, e.right
            if isinstance(a, VecLit) and isinstance(b, VecLit) and len(a.items) == len(b.items):
                terms = [go(Mul(x, y)) for x, y in zip(a.items, b.items)]
                return go(_rebalance(Add, terms, ZERO))
            return e

        if isinstance(e, ScalarMul):
            if isinstance(e.scalar, RatLit) and e.scalar.value == 1:
                return e.arg
            if isinstance(e.arg, VecLit):
                return go(VecLit(tuple(Mul(e.scalar, i) for i in e.arg.items)))
            return e

        if isinstance(e, (Eq, Neq, Le, Lt, Ge, Gt)):
            a, b = e.left, e.right
            if isinstance(a, RatLit) and isinstance(b, RatLit):
                av, bv = a.value, b.value
                return BoolLit({Eq: av == bv, Neq: av != bv, Le: av <= bv,
                                Lt: av < bv, Ge: av >= bv, Gt: av > bv}[type(e)])
            if isinstance(a, BoolLit) and isinstance(b, BoolLit) and isinstance(e, (Eq, Neq)):
                return BoolLit((a.value == b.value) == isinstance(e, Eq))
            if a == b and total(a) and isinstance(e, (Eq, Le, Ge)):
                return TRUE
            if a == b and total(a) and isinstance(e, (Neq, Lt, Gt)):
                return FALSE
            if isinstance(e, Eq) and isinstance(a, VecLit) and isinstance(b, VecLit) \
                    and len(a.items) == len(b.items):
                return go(conj(Eq(x, y) for x, y in zip(a.items, b.items)))
            return e

        if isinstance(e, And):
            a, b = e.left, e.right
            if isinstance(a, BoolLit):
                return b if a.value else (FALSE if total(b) else e)
            if isinstance(b, BoolLit):
                return a if b.value else (FALSE if total(a) else e)
            return e
        if isinstance(e, Or):
            a, b = e.left, e.right
            if isinstance(a, BoolLit):
                return (TRUE if total(b) else e) if a.value else b
            if isinstance(b, BoolLit):
                return (TRUE if total(a) else e) if b.value else a
            return e
        if isinstance(e, Not):
            if isinstance(e.arg, BoolLit):
                return BoolLit(not e.arg.value)
            if isinstance(e.arg, Not):
                return e.arg.arg
            return e
        if isinstance(e, Implies):
            a, b = e.left, e.right
            if isinstance(a, BoolLit):
                return b if a.value else (TRUE if total(b) else e)
            if isinstance(b, BoolLit) and b.value and total(a):
                return TRUE
            return e
        if isinstance(e, Iff):
            a, b = e.left, e.right
            if isinstance(a, BoolLit) and isinstance(b, BoolLit):
                return BoolLit(a.value == b.value)
            if isinstance(a, BoolLit):
                return b if a.value else go(Not(b))
            if isinstance(b, BoolLit):
                return a if b.value else go(Not(a))
            return e

        if isinstance(e, Ite):
            if isinstance(e.cond, BoolLit):
                return e.then if e.cond.value else e.other
            if e.then == e.other and total(e.cond):
                return e.then
            return e

        return e

    return go(e)


def reference_subterms(e: Expr, stop: tuple = ()) -> list:
    """expr.subterms by plain recursion: e, then each child's sub-terms."""
    out = [e]
    if not isinstance(e, stop):
        for k in children(e):
            out += reference_subterms(k, stop)
    return out


def reference_rewrite(e: Expr, fn) -> Expr:
    """expr.rewrite by plain recursion, rebuilding every node above a leaf."""
    new = fn(e)
    if new is not None:
        return new
    kids = children(e)
    return rebuild(e, tuple(reference_rewrite(k, fn) for k in kids)) if kids else e


# -- the reference substitutions ---------------------------------------------
# subst_logical and subst_apply_expr as they were, each with its own copy of
# the binder rules, before both became calls of expr.substitute.


def reference_subst_logical(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace the free logical variable name by replacement."""
    repl_free = free_logicals(replacement)

    def fn(t):
        if isinstance(t, LogicalVar) and t.name == name:
            return replacement
        if isinstance(t, (Exists, Forall)):
            if t.var == name:
                return t
            if t.var in repl_free:
                newv = ex.fresh_logical(t.var, repl_free | free_logicals(t.body) | {name})
                body = reference_subst_logical(t.body, t.var, LogicalVar(newv))
                return type(t)(newv, ex.rewrite(body, fn))
        return None

    return ex.rewrite(e, fn)


def reference_subst_apply_expr(q: Expr, sigma: ex.Subst) -> Expr:
    """Push sigma through q so that evaluating the result in s matches
    evaluating q in sigma(s)."""
    rhs_free = set()
    for _, e in sigma.entries:
        rhs_free |= free_logicals(e)

    def fn(t):
        if isinstance(t, VarRead):
            return sigma.lookup(t.lens)
        if isinstance(t, (Exists, Forall)) and t.var in rhs_free:
            newv = ex.fresh_logical(t.var, rhs_free | free_logicals(t.body))
            return type(t)(newv, ex.rewrite(reference_subst_logical(t.body, t.var,
                                                                    LogicalVar(newv)), fn))
        return None

    return ex.rewrite(q, fn)


# -- the reference structural facts ------------------------------------------
# The walks that the cached per-node facts replaced, as they were.


def reference_depth(e: Expr) -> int:
    """The number of levels in e's tree, counted from an explicit stack."""
    most = 0
    stack = [(e, 1)]
    while stack:
        node, d = stack.pop()
        most = max(most, d)
        stack.extend((k, d + 1) for k in children(node))
    return most


def reference_free_logicals(e: Expr) -> set:
    """Logical variables of e not bound by a quantifier around them."""
    out, bound, stack = set(), [], [e]
    while stack:
        t = stack.pop()
        if t is None:  # the walk leaves the innermost binder's body
            bound.pop()
        elif isinstance(t, LogicalVar):
            if t.name not in bound:
                out.add(t.name)
        elif isinstance(t, (Exists, Forall)):
            bound.append(t.var)
            stack += (None, t.body)
        else:
            stack += children(t)
    return out


def reference_total(e: Expr) -> bool:
    """No partial operation anywhere in e (safe to duplicate or drop)."""
    return not any(isinstance(t, (Div, Ln, Sqrt)) for t in subterms(e))


def reference_has_div(e: Expr) -> bool:
    return any(isinstance(t, Div) for t in subterms(e))


def reference_has_vector_op(atom: Expr) -> bool:
    """The prover's scan for a scalar comparison over vector sub-terms."""
    return any(isinstance(t, (Inner, Norm, VecLit, ScalarMul)) for t in subterms(atom))


def reference_ite_cond(concl: Expr, flat: list):
    """The prover's pick: the leftmost Ite outside every binder whose
    condition holds no Ite."""
    return next((t.cond for h in [concl] + flat for t in reference_subterms(h, (Exists, Forall))
                 if isinstance(t, Ite)
                 and not any(isinstance(u, Ite) for u in subterms(t.cond))), None)


class _HashesAs:
    """Stands in for a node in a field tuple: Python uses the hash it returns
    as the node's own."""

    def __init__(self, h: int):
        self.h = h

    def __hash__(self):
        return self.h


def reference_hash(e: Expr) -> int:
    """The dataclass hash of e, the hash of its fields' tuple, worked out by
    plain recursion and without calling any node's __hash__."""
    def stand_in(v):
        if isinstance(v, Expr):
            return _HashesAs(reference_hash(v))
        if isinstance(v, tuple):
            return tuple(stand_in(i) for i in v)
        return v
    return hash(tuple(stand_in(getattr(e, f.name)) for f in dataclasses.fields(e)))


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


def reference_sample_real(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """The falsifier's draw of one real that the per-name samplers replaced,
    kept as the reference they are checked against: it works out the
    in-range nice values and the 1/1024 range again at every draw."""
    if rng.random() < 0.3:
        nice = [v for v in _NICE if lo <= v <= hi]
        if nice:
            return nice[rng.randrange(len(nice))]
    a, b = math.ceil(lo * 1024), math.floor(hi * 1024)
    if a > b:
        a = b = math.floor((lo + hi) / 2 * 1024)
    return Fraction(rng.randint(a, b), 1024)


def reference_sample_store(rng: random.Random, ctx) -> dict:
    """One draw of every store name, in the dataspace's order."""
    vals = {}
    for n in ctx.dataspace.names():
        k = ctx.dataspace.kind_of(n)
        lo, hi = ctx.box.for_name(n)
        if k == REAL:
            vals[n] = reference_sample_real(rng, lo, hi)
        elif k == BOOL:
            vals[n] = rng.random() < 0.5
        else:
            vals[n] = tuple(reference_sample_real(rng, lo, hi) for _ in range(k.dim))
    return vals


def reference_sample_logicals(rng: random.Random, ctx, logicals) -> dict:
    """One draw of every logical in the sorted list logicals; each is real."""
    env: dict = {}
    for n in logicals:
        lo, hi = ctx.box.for_name(n)
        env[n] = reference_sample_real(rng, lo, hi)
    return env


# -- the reference three-valued evaluator and kind checker -----------------

def _reference_binder_range(body: Expr, v: str, s, env, box: Box):
    lo, hi = box.for_name(v)
    # decide which side a bound sits on from the comparison shapes
    atoms = [a for a in map(norm_rel, subterms(body)) if isinstance(a, (Le, Lt))]
    for t, _ in _bound_terms(subterms(body, stop=(Le, Lt, Ge, Gt)), v):
        try:
            val = eval_expr(t, s, env)
        except (ex.EvalError, OverflowError):
            continue
        if not isinstance(val, (Fraction, int)):
            continue
        for atom in atoms:
            if isinstance(atom.left, LogicalVar) and atom.left.name == v \
                    and atom.right == t:
                hi = min(hi, Fraction(val))
            if isinstance(atom.right, LogicalVar) and atom.right.name == v \
                    and atom.left == t:
                lo = max(lo, Fraction(val))
    return lo, hi


_COMPARISONS = (Eq, Neq, Le, Lt, Ge, Gt)


def _cmp_vals(op: type, a, b, tol: float):
    """Three-valued a op b; a float decides only outside tol * (1 + |a| + |b|).

    Vectors compare by component under = and !=; their order is undecided.
    """
    if not _inexact(a) and not _inexact(b):
        if op is Eq:
            return a == b
        if op is Neq:
            return a != b
        if op is Le:
            return a <= b
        if op is Lt:
            return a < b
        if op is Ge:
            return a >= b
        return a > b
    if isinstance(a, tuple) or isinstance(b, tuple):
        if op not in (Eq, Neq) or not (isinstance(a, tuple) and isinstance(b, tuple)) \
                or len(a) != len(b):
            return None
        same = [_cmp_vals(Eq, x, y, tol) for x, y in zip(a, b)]
        if False in same:
            return op is Neq
        return None if None in same else op is Eq
    fa, fb = float(a), float(b)
    m = tol * (1.0 + abs(fa) + abs(fb))
    if op is Eq:
        return False if abs(fa - fb) > m else None
    if op is Neq:
        return True if abs(fa - fb) > m else None
    if op in (Le, Lt):
        fa, fb = fb, fa
    if fa > fb + m:
        return True
    if fa < fb - m:
        return False
    return None


def reference_q_eval(e: Expr, s, env: dict, box: Box, tol: float = 1e-9,
                     strict: bool = False):
    """arith.q_eval as a tree walk that dispatches every node, negates every
    Implies and derives every binder range again at each call, kept as the
    reference the compiled truth closures are checked against.

    Three-valued truth of a formula at a store: True, False or None.

    Connectives follow Kleene's logic.  A quantifier is sampled on a
    deterministic grid over the binder's box range and decides only through
    the instance it exhibits: a Forall can be False, an Exists True, and
    neither is ever decided the other way.  Exact values compare
    exactly; a comparison with a float decides only outside
    tol * (1 + |a| + |b|).  An atom that cannot be evaluated, or whose
    evaluation or comparison overflows a float, is None, or raises when
    strict.  Strict mode also raises UnsupportedConstruct on a quantifier:
    a grid can pass a guard that fails between its points.  Returns
    (truth, instantiations), where the instantiations pin binder values
    along any definite-False path.
    """
    soft = () if strict else (ex.EvalError, UnsupportedConstruct, OverflowError)

    def walk(e: Expr, env: dict):
        if isinstance(e, BoolLit):
            return e.value, {}
        if isinstance(e, _COMPARISONS):
            try:
                a = eval_expr(e.left, s, env)
                b = eval_expr(e.right, s, env)
                return _cmp_vals(type(e), a, b, tol), {}
            except soft:
                return None, {}
        if isinstance(e, And):
            a, ia = walk(e.left, env)
            if a is False:
                return False, ia
            b, ib = walk(e.right, env)
            if b is False:
                return False, ib
            if a is True and b is True:
                return True, {**ia, **ib}
            return None, {}
        if isinstance(e, Or):
            a, ia = walk(e.left, env)
            if a is True:
                return True, ia
            b, ib = walk(e.right, env)
            if b is True:
                return True, ib
            if a is False and b is False:
                return False, {**ia, **ib}
            return None, {}
        if isinstance(e, Not):
            r, inst = walk(e.arg, env)
            return (None if r is None else not r), inst
        if isinstance(e, Implies):
            return walk(Or(negate(e.left), e.right), env)
        if isinstance(e, Iff):
            a, ia = walk(e.left, env)
            b, ib = walk(e.right, env)
            if a is None or b is None:
                return None, {}
            return a == b, {**ia, **ib}
        if isinstance(e, Ite):
            c, ic = walk(e.cond, env)
            if c is not None:
                r, ir = walk(e.then if c else e.other, env)
                return r, {**ic, **ir}
            a, ia = walk(e.then, env)
            b, ib = walk(e.other, env)
            return (a, {**ia, **ib}) if a == b else (None, {})
        if strict and isinstance(e, (Forall, Exists)):
            raise UnsupportedConstruct("quantified guards have no evaluation")
        if isinstance(e, Forall):
            lo, hi = _reference_binder_range(e.body, e.var, s, env, box)
            for val in reference_grid(lo, hi):
                r, inst = walk(e.body, {**env, e.var: val})
                if r is False:
                    return False, {e.var: val, **inst}
            return None, {}
        if isinstance(e, Exists):
            lo, hi = _reference_binder_range(e.body, e.var, s, env, box)
            for val in reference_grid(lo, hi):
                r, inst = walk(e.body, {**env, e.var: val})
                if r is True:
                    return True, {e.var: val, **inst}
            return None, {}
        try:
            v = eval_expr(e, s, env)
        except soft:
            return None, {}
        return (v, {}) if isinstance(v, bool) else (None, {})

    return walk(e, env)


def reference_grid(lo: Fraction, hi: Fraction) -> list:
    """arith._grid as a plain list built again at every call, its points
    worked out here rather than from arith._STEPS, so that a wrong step
    table fails against it."""
    # keep the endpoints exact, thin duplicates
    return list(dict.fromkeys(lo + Fraction(i, _GRID - 1) * (hi - lo) for i in range(_GRID)))


def reference_falsify(formula: Expr, ctx: ArithCtx, trials: int = 300,
                      seed=None):
    """arith.falsify with reference_q_eval, whose grid is reference_grid,
    in place of q_eval: the same search without the compiled truth closures
    or the grid cache."""
    if trials < 1:
        return None
    rng = random.Random(ctx.seed if seed is None else seed)
    stores = _store_samplers(ctx)
    logicals = [(n, _sampler(REAL, *ctx.box.for_name(n))) for n in sorted(free_logicals(formula))]
    for _ in range(trials):
        # each sampler draws in its name's kind, so the store needs no check
        vals = {n: draw(rng) for n, draw in stores}
        s = Store(ctx.dataspace, vals)
        env = {n: draw(rng) for n, draw in logicals}
        ok = True
        for a in ctx.assumptions:
            r, _ = reference_q_eval(a, s, env, ctx.box)
            if r is not True:
                ok = False
                break
        if not ok:
            continue
        r, inst = reference_q_eval(formula, s, env, ctx.box)
        if r is False:
            witness = {"store": vals, "env": {**env, **inst}}
            if not _reference_recheck(formula, ctx, witness):
                return witness
    return None


def _reference_recheck(formula: Expr, ctx: ArithCtx, witness: dict) -> bool:
    s = ctx.dataspace.make_store(witness["store"])
    r, _ = reference_q_eval(formula, s, dict(witness["env"]), ctx.box)
    return r is not False


def reference_kind_of(e: Expr, dataspace: Dataspace) -> Kind:
    """expr.kind_of by plain recursion, kept as the reference for the
    generator walk.  Infer the kind of e, checking child kinds along the way; logicals are real."""

    def ko(e) -> Kind:
        if isinstance(e, RatLit):
            return REAL
        if isinstance(e, BoolLit):
            return BOOL
        if isinstance(e, VarRead):
            l = e.lens
            if isinstance(l, Var):
                return dataspace.kind_of(l.name)
            if isinstance(l, Coord):
                k = dataspace.kind_of(l.name)
                if k.base != "vec":
                    raise KindMismatch(f"{l.name} is {k!r}, not a vector")
                if not 1 <= l.index <= k.dim:
                    raise KindMismatch(f"{l.name}[{l.index}] out of range for {k!r}")
                return REAL
            raise KindMismatch(f"cannot kind {l!r}")
        if isinstance(e, LogicalVar):
            return REAL
        if isinstance(e, (Neg, Add, Sub)):
            kids = [ko(k) for k in children(e)]
            k0 = kids[0]
            if any(k != k0 for k in kids) or k0 == BOOL:
                raise KindMismatch(f"arithmetic on mixed kinds in {e!r}")
            return k0
        if isinstance(e, (Mul, Div)):
            for k in children(e):
                if ko(k) != REAL:
                    raise KindMismatch(f"non-real operand in {e!r}")
            return REAL
        if isinstance(e, Pow):
            if ko(e.base) != REAL:
                raise KindMismatch("power base must be real")
            return REAL
        if isinstance(e, (Ln, Exp, Sin, Cos, Sqrt)):
            if ko(e.arg) != REAL:
                raise KindMismatch(f"non-real argument in {e!r}")
            return REAL
        if isinstance(e, Norm):
            k = ko(e.arg)
            if k.base != "vec":
                raise KindMismatch("norm of a non-vector")
            return REAL
        if isinstance(e, Inner):
            ka, kb = ko(e.left), ko(e.right)
            if ka.base != "vec" or ka != kb:
                raise KindMismatch("inner product needs two vectors of equal dimension")
            return REAL
        if isinstance(e, ScalarMul):
            if ko(e.scalar) != REAL:
                raise KindMismatch("scalar of a scaling must be real")
            k = ko(e.arg)
            if k.base != "vec":
                raise KindMismatch("scaling a non-vector")
            return k
        if isinstance(e, VecLit):
            for i in e.items:
                if ko(i) != REAL:
                    raise KindMismatch("vector literal components must be real")
            return vec(len(e.items))
        if isinstance(e, (Eq, Neq)):
            ka, kb = ko(e.left), ko(e.right)
            if ka != kb:
                raise KindMismatch(f"comparing {ka!r} with {kb!r}")
            return BOOL
        if isinstance(e, (Le, Lt, Ge, Gt)):
            if ko(e.left) != REAL or ko(e.right) != REAL:
                raise KindMismatch(f"ordering on non-reals in {e!r}")
            return BOOL
        if isinstance(e, (And, Or, Implies, Iff)):
            if ko(e.left) != BOOL or ko(e.right) != BOOL:
                raise KindMismatch(f"connective over non-bools in {e!r}")
            return BOOL
        if isinstance(e, Not):
            if ko(e.arg) != BOOL:
                raise KindMismatch("negating a non-bool")
            return BOOL
        if isinstance(e, Ite):
            if ko(e.cond) != BOOL:
                raise KindMismatch("if-condition must be bool")
            kt, ke = ko(e.then), ko(e.other)
            if kt != ke:
                raise KindMismatch(f"if-branches disagree: {kt!r} vs {ke!r}")
            return kt
        if isinstance(e, (Exists, Forall)):
            if ko(e.body) != BOOL:
                raise KindMismatch("quantifier body must be bool")
            return BOOL
        raise UnsupportedConstruct(f"cannot kind {e!r}")

    return ko(e)


# -- the reference polynomial builder ---------------------------------------

def _reference_vec_polys(e: Expr, ds) -> list:
    """Componentwise polynomials of a vector-valued expression."""
    dim = ex.vec_dim(e, ds)
    if dim is None:
        raise Unpolyable(f"unknown vector shape: {e!r}")
    if isinstance(e, VecLit):
        return [reference_poly_of(i, ds) for i in e.items]
    if isinstance(e, VarRead) and isinstance(e.lens, Var):
        return [Poly.atom(VarRead(Coord(e.lens.name, i))) for i in range(1, dim + 1)]
    if isinstance(e, Neg):
        return [p.neg() for p in _reference_vec_polys(e.arg, ds)]
    if isinstance(e, Add):
        return [a.add(b) for a, b in zip(_reference_vec_polys(e.left, ds),
                                         _reference_vec_polys(e.right, ds))]
    if isinstance(e, Sub):
        return [a.sub(b) for a, b in zip(_reference_vec_polys(e.left, ds),
                                         _reference_vec_polys(e.right, ds))]
    if isinstance(e, ScalarMul):
        k = reference_poly_of(e.scalar, ds)
        return [k.mul(p) for p in _reference_vec_polys(e.arg, ds)]
    raise Unpolyable(f"cannot expand vector expression {e!r}")


def _reference_canon_arg(e: Expr, ds) -> Expr:
    try:
        return poly_to_expr(reference_poly_of(e, ds))
    except Unpolyable:
        return e


def reference_poly_of(e: Expr, ds) -> Poly:
    """arith.poly_of by plain recursion, with no cache."""
    if isinstance(e, RatLit):
        return Poly.const(e.value)
    if isinstance(e, VarRead):
        if ex.vec_dim(e, ds) is not None:
            raise Unpolyable(f"vector read {e!r} in scalar position")
        return Poly.atom(e)
    if isinstance(e, LogicalVar):
        return Poly.atom(e)
    if isinstance(e, Neg):
        return reference_poly_of(e.arg, ds).neg()
    if isinstance(e, Add):
        return reference_poly_of(e.left, ds).add(reference_poly_of(e.right, ds))
    if isinstance(e, Sub):
        return reference_poly_of(e.left, ds).sub(reference_poly_of(e.right, ds))
    if isinstance(e, Mul):
        return reference_poly_of(e.left, ds).mul(reference_poly_of(e.right, ds))
    if isinstance(e, Pow):
        return reference_poly_of(e.base, ds).pow(e.exp)
    if isinstance(e, Div):
        d = reference_poly_of(e.right, ds).as_const() if ex.vec_dim(e.right, ds) is None else None
        if d is not None:
            if d == 0:
                raise Unpolyable("literal division by zero")
            return reference_poly_of(e.left, ds).scale(Fraction(1) / d)
        return Poly.atom(Div(_reference_canon_arg(e.left, ds),
                             _reference_canon_arg(e.right, ds)))
    if isinstance(e, (Exp, Ln, Sin, Cos, Sqrt)):
        return Poly.atom(type(e)(_reference_canon_arg(e.arg, ds)))
    if isinstance(e, Inner):
        try:
            a, b = _reference_vec_polys(e.left, ds), _reference_vec_polys(e.right, ds)
            if len(a) == len(b):
                out = Poly()
                for x, y in zip(a, b):
                    out = out.add(x.mul(y))
                return out
        except Unpolyable:
            pass
        l, r = sorted((e.left, e.right), key=expr_key)
        return Poly.atom(Inner(l, r))
    if isinstance(e, Norm):
        try:
            comp = _reference_vec_polys(e.arg, ds)
            q = Poly()
            for x in comp:
                q = q.add(x.mul(x))
            return Poly.atom(Sqrt(poly_to_expr(q)))
        except Unpolyable:
            return Poly.atom(Norm(e.arg))
    raise Unpolyable(f"not polynomial: {e!r}")


def reference_poly_normalize(e: Expr, ds=None) -> Expr:
    """arith.poly_normalize by plain recursion, rebuilding every node it
    goes through."""

    def norm(e: Expr) -> Expr:
        if isinstance(e, (Eq, Neq, Le, Lt, Ge, Gt)):
            return type(e)(norm(e.left), norm(e.right))
        if isinstance(e, (And, Or, Implies, Iff)):
            return type(e)(norm(e.left), norm(e.right))
        if isinstance(e, Not):
            return Not(norm(e.arg))
        if isinstance(e, (Exists, Forall)):
            return type(e)(e.var, norm(e.body))
        if isinstance(e, Ite):
            return Ite(norm(e.cond), norm(e.then), norm(e.other))
        if isinstance(e, BoolLit):
            return e
        try:
            return poly_to_expr(reduce_trig(poly_of(e, ds)))
        except Unpolyable:
            return e

    return norm(simplify(e))


def reference_prove_vc(formula: Expr, ctx: ArithCtx, *, vc_name: str = "vc",
                       falsify_trials: int = 300) -> Verdict:
    """arith.prove_vc as it was when it tried every sequent of a condition,
    so its residual holds every sequent that failed to prove."""
    full = simplify(formula)
    if ex.depth(full) > ex.MAX_DEPTH:
        # the prover's semantic walks (poly_of, ==) recurse once per level
        return Verdict("unknown", rule="depth", residual=(formula,))
    for a in reversed(ctx.assumptions):
        full = Implies(a, full)
    try:
        seqs = peel(full)
    except _Budget:
        return Verdict("unknown", rule="split-budget", residual=(formula,))
    prover = _Prover(ctx.dataspace)
    residual = []
    for sq in seqs:
        try:
            ok = prover.prove(sq.hyps, sq.concl, 0)
        except (_Budget, RecursionError):
            ok = False
        if not ok:
            residual.append(sq)
    if not residual:
        rule = ",".join(sorted(prover.rules)) or "trivial"
        return Verdict("valid", rule=rule)
    w = falsify(formula, ctx, trials=falsify_trials)
    if w is not None:
        return Verdict("invalid", rule="falsify", witness=w)
    return Verdict("unknown", rule="residual",
                   residual=tuple(sq.formula() for sq in residual),
                   query=(full, ctx, vc_name))


def reference_d_prove(triple: Triple, ctx: ArithCtx, flows=None,
                      depth: int = 8, exact: bool = True, trials: int = 300) -> ProofResult:
    """tactics.d_prove as it was before its recursion, branch split and
    fallback were each written once; it recurses into itself."""
    pre, p, post = triple.pre, triple.prog, triple.post
    if depth <= 0:
        return ProofResult(UNKNOWN, "depth", ("search depth exhausted",))

    try:
        vcs = gen_vcs(triple, flows)
    except (MissingFlow, MissingLoopInvariant):
        vcs = None
    if vcs is not None:
        r = settle("wp", [check_vc(vc, ctx, trials) for vc in vcs], exact=exact)
        if r.status != UNKNOWN:
            return r
        wp_fallback = r
    else:
        wp_fallback = None

    best = None
    if isinstance(p, Loop):
        if p.invariant is None:
            raise MissingLoopInvariant("loop rule needs an invariant")
        inv = p.invariant
        init = check_vc(VC("loop-init", Implies(pre, inv), "loop"), ctx)
        keep = reference_d_prove(Triple(inv, p.body, inv), ctx, flows, depth - 1,
                                 exact=False, trials=trials)
        final = check_vc(VC("loop-post", Implies(inv, post), "loop"), ctx)
        parts = [settle("loop", (init,), exact=False), keep,
                 settle("loop", (final,), exact=False)]
        r = settle("loop", parts=parts, steps=(f"loop invariant {expr_key(inv)}",))
        if r.proved:
            return r
        best = r
    elif isinstance(p, Seq):
        a, b = p.first, p.second
        if _discrete(b):
            mid = wlp(b, post)
            r = reference_d_prove(Triple(pre, a, mid), ctx, flows, depth - 1, exact=exact, trials=trials)
            if r.status != UNKNOWN:
                return r
            best = r
        for mid in _dedup([post, pre]):
            ra = reference_d_prove(Triple(pre, a, mid), ctx, flows, depth - 1, exact=False, trials=trials)
            if not ra.proved:
                continue
            rb = reference_d_prove(Triple(mid, b, post), ctx, flows, depth - 1, exact=False, trials=trials)
            if rb.proved:
                return settle("seq", parts=(ra, rb),
                              steps=(f"chain through {expr_key(mid)}",))
    elif isinstance(p, If):
        rt = reference_d_prove(Triple(And(pre, p.cond), p.then, post), ctx, flows,
                               depth - 1, exact=exact, trials=trials)
        if rt.refuted:
            return rt
        rf = reference_d_prove(Triple(And(pre, Not(p.cond)), p.other, post), ctx, flows,
                               depth - 1, exact=exact, trials=trials)
        if rf.refuted:
            return rf
        r = settle("if", parts=(rt, rf), steps=("split on the branch condition",))
        if r.proved:
            return r
        best = r
    elif isinstance(p, Choice):
        rl = reference_d_prove(Triple(pre, p.left, post), ctx, flows, depth - 1, exact=exact, trials=trials)
        if rl.refuted:
            return rl
        rr = reference_d_prove(Triple(pre, p.right, post), ctx, flows, depth - 1, exact=exact, trials=trials)
        if rr.refuted:
            return rr
        r = settle("choice", parts=(rl, rr))
        if r.proved:
            return r
        best = r
    elif isinstance(p, ODE):
        r = d_induct_mega(p, pre, post, ctx, refute=exact)
        if r.status != UNKNOWN:
            return r
        best = r

    if wp_fallback is not None:
        return wp_fallback
    if best is not None:
        return best
    return ProofResult(UNKNOWN, "dProve", ("no rule closed the goal",))
