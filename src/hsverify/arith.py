"""Arithmetic discharge of verification conditions.

The pipeline, in order: polynomial normalization over exact rationals
(transcendental subterms kept as opaque atoms, cosine squares reduced),
sequent peeling with case splits, equality substitution and division clearing
against sign-entailed denominators, then the leaf rules: zero-polynomial
equalities, monomial sign analysis, Fourier-Motzkin elimination over monomial
atoms with a bounded product augmentation, monotonicity checks for
flow-parameter goals and outward-rounded interval evaluation with subdivision;
then seeded numeric falsification.  What survives all of that is reported
Unknown together with an SMT-LIB export.

Verdicts are deterministic functions of (formula, context, seed).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Optional

from . import expr as ex
from .deriv import deriv_in_var, NotDifferentiable
from .expr import (
    Add,
    And,
    BoolLit,
    Cos,
    Div,
    Eq,
    Exists,
    Exp,
    Expr,
    FALSE,
    Forall,
    Ge,
    Gt,
    Iff,
    Implies,
    Inner,
    Ite,
    JUNCTIONS,
    Le,
    Ln,
    LogicalVar,
    Lt,
    Mul,
    Neg,
    Neq,
    Norm,
    Not,
    ONE,
    Or,
    Pow,
    RELATIONS,
    RatLit,
    ScalarMul,
    Sin,
    Sqrt,
    Sub,
    UnsupportedConstruct,
    VarRead,
    VecLit,
    ZERO,
    cached,
    compile_expr,
    fresh_logical,
    free_logicals,
    has_type,
    num,
    rewrite,
    simplify,
    subst_logical,
    subst_term,
    substitute,
    subterms,
    vec_component,
    vec_dim,
)
from .store import BOOL, Coord, Dataspace, Kind, NotPartOf, REAL, Store, Var


# ---------------------------------------------------------------------------
# Canonical keys


def expr_key(e: Expr) -> str:
    """Deterministic total order key; fully parenthesized structural form."""
    if isinstance(e, RatLit):
        return str(e.value)
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRead):
        return repr(e.lens)
    if isinstance(e, LogicalVar):
        return f"?{e.name}"
    if isinstance(e, Pow):
        return f"pow({expr_key(e.base)},{e.exp})"
    if isinstance(e, (Exists, Forall)):
        return f"{type(e).__name__.lower()}({e.var},{expr_key(e.body)})"
    name = type(e).__name__.lower()
    return f"{name}({','.join(expr_key(k) for k in ex.children(e))})"


# ---------------------------------------------------------------------------
# Polynomials over opaque atoms


class Unpolyable(Exception):
    pass


# A monomial maps atom-key -> (atom, power); stored as a sorted tuple of
# (key, atom, power) so it can be a dict key.
Mono = tuple

MONO_ONE: Mono = ()


def mono_mul(a: Mono, b: Mono) -> Mono:
    acc = {k: (at, p) for k, at, p in a}
    for k, at, p in b:
        if k in acc:
            acc[k] = (at, acc[k][1] + p)
        else:
            acc[k] = (at, p)
    return tuple(sorted((k, at, p) for k, (at, p) in acc.items()))


def mono_degree(m: Mono) -> int:
    return sum(p for _, _, p in m)


class Poly:
    """Sum of monomials with exact rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @staticmethod
    def const(c) -> "Poly":
        c = Fraction(c)
        return Poly({MONO_ONE: c} if c != 0 else {})

    @staticmethod
    def atom(e: Expr) -> "Poly":
        return Poly({((expr_key(e), e, 1),): Fraction(1)})

    def add(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(out)

    def neg(self) -> "Poly":
        return Poly({m: -c for m, c in self.terms.items()})

    def sub(self, other: "Poly") -> "Poly":
        return self.add(other.neg())

    def mul(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = mono_mul(m1, m2)
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        return Poly({m: c * k for m, k in self.terms.items()})

    def pow(self, n: int) -> "Poly":
        out = Poly.const(1)
        for _ in range(n):
            out = out.mul(self)
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def as_const(self) -> Optional[Fraction]:
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and MONO_ONE in self.terms:
            return self.terms[MONO_ONE]
        return None

    def monomials(self) -> list:
        return sorted(self.terms, key=_mono_sort_key)

    def free_of_atom_key(self, key: str) -> bool:
        return all(k != key for m in self.terms for k, _, _ in m)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        return f"Poly({self.terms!r})"


def _mono_sort_key(m: Mono):
    return (-mono_degree(m), tuple((k, -p) for k, _, p in m))


def _square_out(p: Poly, m: Mono, k: str, at: Expr, pw: int, sq: Poly) -> Poly:
    """p with the factor at^pw (atom key k) of its monomial m rewritten
    through at^2 = sq."""
    base = Poly({tuple(f for f in m if f[0] != k): p.terms[m]})
    if pw % 2:
        base = base.mul(Poly.atom(at))
    out = dict(p.terms)
    del out[m]
    return Poly(out).add(base.mul(sq.pow(pw // 2)))


def reduce_trig(p: Poly) -> Poly:
    """Rewrite cos(u)^2 as 1 - sin(u)^2 until no cosine square remains."""
    while True:
        hit = next(((m, k, at, pw) for m in p.terms for k, at, pw in m
                    if isinstance(at, Cos) and pw >= 2), None)
        if hit is None:
            return p
        sin2 = Poly.atom(Sin(hit[2].arg)).pow(2)
        p = _square_out(p, *hit, Poly.const(1).sub(sin2))


def vec_polys(e: Expr, ds: Optional[Dataspace]) -> list:
    """Componentwise polynomials of a vector-valued expression: poly_of of
    each coordinate vec_component projects out.  Raises Unpolyable when e
    has no vector shape, its vector operands' dimensions differ, or a
    coordinate does not project."""
    dim = vec_dim(e, ds)
    if dim is None:
        raise Unpolyable(f"unknown vector shape: {e!r}")
    # every vector sub-term has e's dimension; the scan stops at literals,
    # whose items are scalars, at norms and inner products, whose values
    # are, and at Ite, which no coordinate expands through
    if any(vec_dim(t, ds) not in (None, dim) for t in subterms(e, (VecLit, Ite, Norm, Inner))):
        raise Unpolyable(f"vector dimensions differ in {e!r}")
    try:
        parts = [vec_component(e, i) for i in range(1, dim + 1)]
    except (UnsupportedConstruct, NotPartOf) as err:
        raise Unpolyable(str(err)) from None
    return [poly_of(p, ds) for p in parts]


def _vec_eq(atom: Expr, ds: Optional[Dataspace]) -> Optional[Expr]:
    """A vector = as the conjunction of its coordinate equations, and a
    vector != as its negation; None for any other atom.  Raises Unpolyable
    when a side does not expand or the dimensions differ."""
    if not (isinstance(atom, (Eq, Neq)) and vec_dim(atom.left, ds) is not None):
        return None
    ls, rs = vec_polys(atom.left, ds), vec_polys(atom.right, ds)
    if len(ls) != len(rs):
        raise Unpolyable(f"vector dimensions differ: {len(ls)} and {len(rs)}")
    out = ex.conj(Eq(poly_to_expr(a), poly_to_expr(b)) for a, b in zip(ls, rs))
    return negate(out) if isinstance(atom, Neq) else out


def _canon_arg(e: Expr, ds: Optional[Dataspace]) -> Expr:
    try:
        return poly_to_expr(poly_of(e, ds))
    except Unpolyable:
        return e


def _poly_kids(e: Expr) -> tuple:
    """The operands _poly_node reads through poly_of."""
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, (Neg, Exp, Ln, Sin, Cos, Sqrt)):
        return (e.arg,)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


def _unslot(slot: tuple) -> Poly:
    """The polynomial of a (dataspace, result) cache slot.  An Unpolyable
    is kept as its message and raised afresh, so no traceback piles up on
    a cached instance."""
    out = slot[1]
    if isinstance(out, str):
        raise Unpolyable(out)
    return out


def poly_of(e: Expr, ds: Optional[Dataspace]) -> Poly:
    """e as a polynomial over opaque atoms, or Unpolyable.

    The result is cached in the frozen node's __dict__, in one slot that
    holds the dataspace it was built for: vector reads make the answer
    depend on it, and a node asked under another dataspace builds again
    and takes the slot over.  Operands are built first, from an explicit
    stack.  The cached polynomials are shared, so no Poly is changed in
    place."""
    slot = e.__dict__.get("_poly")
    if slot is None or slot[0] is not ds:
        stack = [(e, False)]
        while stack:
            node, kids_done = stack.pop()
            slot = node.__dict__.get("_poly")
            if slot is not None and slot[0] is ds:
                continue
            if not kids_done:
                stack.append((node, True))
                stack.extend((k, False) for k in _poly_kids(node))
                continue
            try:
                out = _poly_node(node, ds)
            except Unpolyable as err:
                out = str(err)
            except Exception:
                # any other error is left uncached: the node that reads this
                # operand builds it again and raises in its own order
                if node is e:
                    raise
                continue
            node.__dict__["_poly"] = (ds, out)
        slot = e.__dict__["_poly"]
    return _unslot(slot)


def _poly_node(e: Expr, ds: Optional[Dataspace]) -> Poly:
    """poly_of of one node; poly_of has built its operands."""
    if isinstance(e, RatLit):
        return Poly.const(e.value)
    if isinstance(e, VarRead):
        if vec_dim(e, ds) is not None:
            raise Unpolyable(f"vector read {e!r} in scalar position")
        return Poly.atom(e)
    if isinstance(e, LogicalVar):
        return Poly.atom(e)
    if isinstance(e, Neg):
        return poly_of(e.arg, ds).neg()
    if isinstance(e, Add):
        return poly_of(e.left, ds).add(poly_of(e.right, ds))
    if isinstance(e, Sub):
        return poly_of(e.left, ds).sub(poly_of(e.right, ds))
    if isinstance(e, Mul):
        return poly_of(e.left, ds).mul(poly_of(e.right, ds))
    if isinstance(e, Pow):
        return poly_of(e.base, ds).pow(e.exp)
    if isinstance(e, Div):
        d = poly_of(e.right, ds).as_const() if vec_dim(e.right, ds) is None else None
        if d is not None:
            if d == 0:
                raise Unpolyable("literal division by zero")
            return poly_of(e.left, ds).scale(Fraction(1) / d)
        return Poly.atom(Div(_canon_arg(e.left, ds), _canon_arg(e.right, ds)))
    if isinstance(e, (Exp, Ln, Sin, Cos, Sqrt)):
        return Poly.atom(type(e)(_canon_arg(e.arg, ds)))
    if isinstance(e, Inner):
        try:
            a, b = vec_polys(e.left, ds), vec_polys(e.right, ds)
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
            comp = vec_polys(e.arg, ds)
            q = Poly()
            for x in comp:
                q = q.add(x.mul(x))
            return Poly.atom(Sqrt(poly_to_expr(q)))
        except Unpolyable:
            return Poly.atom(Norm(e.arg))
    raise Unpolyable(f"not polynomial: {e!r}")


def _mono_to_expr(m: Mono, c: Fraction) -> Expr:
    factors = []
    for _, at, p in m:
        factors.append(at if p == 1 else Pow(at, p))
    if not factors:
        return RatLit(c)
    out = factors[0]
    for f in factors[1:]:
        out = Mul(out, f)
    if c == 1:
        return out
    if c == -1:
        return Neg(out)
    return Mul(RatLit(c), out)


def poly_to_expr(p: Poly) -> Expr:
    if p.is_zero():
        return ZERO
    terms = [_mono_to_expr(m, p.terms[m]) for m in p.monomials()]
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


# The nodes poly_normalize goes through rather than normalizes.
_STRUCTURE = (Eq, Neq, Le, Lt, Ge, Gt, And, Or, Implies, Iff, Not, Exists, Forall, Ite,
              BoolLit)


def poly_normalize(e: Expr, ds: Optional[Dataspace] = None) -> Expr:
    """Canonical sum-of-monomials form for real-valued (sub)expressions.

    Comparisons get both sides normalized; boolean structure is preserved;
    anything outside the polynomial fragment is left as it stands.
    """
    def fn(t: Expr) -> Optional[Expr]:
        if isinstance(t, _STRUCTURE):
            return None
        try:
            return poly_to_expr(reduce_trig(poly_of(t, ds)))
        except Unpolyable:
            return t

    return rewrite(simplify(e), fn)


# ---------------------------------------------------------------------------
# Boxes


BOX_LO = Fraction(-100)
BOX_HI = Fraction(100)


class Box:
    """Per-name real bounds for sampling only: the falsifier's draws and
    q_eval's binder grids.  The prover reads none of them."""

    def __init__(self, bounds: Optional[dict] = None):
        self.bounds = dict(bounds or {})

    def for_name(self, name: str) -> tuple:
        return self.bounds.get(name, (BOX_LO, BOX_HI))

    @staticmethod
    def from_assumptions(assumptions: Iterable[Expr]) -> "Box":
        """The default box, narrowed by each conjunct of the assumptions
        that bounds a store name by a literal."""
        box = Box()
        for a in assumptions:
            for atom in ex.conjuncts(a):
                atom = norm_rel(atom)
                if not isinstance(atom, (Le, Lt)):
                    continue
                for read, c, upper in ((atom.left, atom.right, True),
                                       (atom.right, atom.left, False)):
                    if isinstance(read, VarRead) and isinstance(read.lens, Var) \
                            and isinstance(c, RatLit):
                        lo, hi = box.for_name(read.lens.name)
                        box.bounds[read.lens.name] = ((lo, min(hi, c.value)) if upper
                                                      else (max(lo, c.value), hi))
        return box


# ---------------------------------------------------------------------------
# Negation and atom normalization


# The operand value that settles each junction by itself (expr.JUNCTIONS),
# an Implies read as an Or of its negated antecedent, as _truth_kids reads
# it; and the junction each value settles, so that a junction's De Morgan
# dual is the one the other value settles.
_SETTLES = {**JUNCTIONS, Implies: JUNCTIONS[Or]}
_SETTLED_BY = {v: c for c, v in JUNCTIONS.items()}


def negate(e: Expr) -> Expr:
    if isinstance(e, BoolLit):
        return BoolLit(not e.value)
    if isinstance(e, Not):
        return e.arg
    if type(e) in RELATIONS:
        return norm_rel(RELATIONS[type(e)].complement(e.left, e.right))
    if type(e) in _SETTLES:
        # an Implies's negated antecedent negates back to the antecedent
        first = e.left if isinstance(e, Implies) else negate(e.left)
        return _SETTLED_BY[not _SETTLES[type(e)]](first, negate(e.right))
    if isinstance(e, Iff):
        return Iff(e.left, negate(e.right))
    if isinstance(e, Ite):
        return Ite(e.cond, negate(e.then), negate(e.other))
    if isinstance(e, Forall):
        return Exists(e.var, negate(e.body))
    if isinstance(e, Exists):
        return Forall(e.var, negate(e.body))
    return Not(e)


def norm_rel(e: Expr) -> Expr:
    """Ge/Gt flipped so only Eq, Neq, Le, Lt remain."""
    if isinstance(e, (Ge, Gt)):
        return RELATIONS[type(e)].converse(e.right, e.left)
    return e


# ---------------------------------------------------------------------------
# Context and verdicts


@dataclass
class ArithCtx:
    """Everything the prover needs beyond the formula itself."""

    dataspace: Dataspace
    assumptions: tuple = ()
    box: Optional[Box] = None
    seed: int = 0

    def __post_init__(self):
        if self.box is None:
            self.box = Box.from_assumptions(self.assumptions)


@dataclass(frozen=True)
class Verdict:
    status: str                      # "valid" | "invalid" | "unknown"
    rule: str = ""
    witness: Optional[dict] = None   # {"store": {...}, "env": {...}}
    # the formula of the first sequent that failed to prove: a condition
    # is decided there, and the sequents after it are not tried
    residual: tuple = ()
    # emit_smtlib's arguments (formula, ctx, name) for an unknown verdict
    query: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def valid(self) -> bool:
        return self.status == "valid"

    @property
    def smt(self) -> Optional[str]:
        """The SMT-LIB text of the query, built on first read; None when
        there is no query or it has no SMT-LIB form."""
        if "_smt" not in self.__dict__:
            text = None
            if self.query is not None:
                try:
                    text = emit_smtlib(*self.query)
                except UnsupportedConstruct:
                    pass
            self.__dict__["_smt"] = text
        return self.__dict__["_smt"]


@dataclass
class Sequent:
    hyps: list
    concl: Expr

    def formula(self) -> Expr:
        out = self.concl
        for h in reversed(self.hyps):
            out = Implies(h, out)
        return out


_SPLIT_BUDGET = 900


class _Budget(Exception):
    pass


# ---------------------------------------------------------------------------
# Peeling a formula into sequents


def _split(hyps: list, concl: Expr, used: set) -> Optional[list]:
    """The structural rule: the premises, pairs (hyps, concl), that prove
    hyps |- concl when concl is true, an and, ->, <-> or forall, or a not
    of anything but a store read; None for any other conclusion.  A
    forall's binder is renamed apart from used."""
    if isinstance(concl, BoolLit) and concl.value:
        return []
    if isinstance(concl, And):
        return [(hyps, concl.left), (hyps, concl.right)]
    if isinstance(concl, Implies):
        return [(hyps + [concl.left], concl.right)]
    if isinstance(concl, Iff):
        return [(hyps + [concl.left], concl.right), (hyps + [concl.right], concl.left)]
    if isinstance(concl, Forall):
        return [(hyps, _open(concl, used))]
    if isinstance(concl, Not) and not isinstance(concl.arg, VarRead):
        return [(hyps, negate(concl.arg))]
    return None


def _peel(hyps: list, concl: Expr, out: list, count: list, used: set) -> None:
    if count[0] > _SPLIT_BUDGET:
        raise _Budget()
    count[0] += 1
    concl = simplify(concl)
    premises = _split(hyps, concl, used)
    if premises is None:
        out.append(Sequent(list(hyps), concl))
        return
    for h, c in premises:
        _peel(h, c, out, count, used)


def _open(q: Expr, used: set) -> Expr:
    """The body of the binder q, its variable renamed apart from used; the
    name it ends up with joins used."""
    v, body = q.var, q.body
    if v in used:
        v = fresh_logical(v, used)
        body = subst_logical(body, q.var, LogicalVar(v))
    used.add(v)
    return body


def peel(formula: Expr) -> list:
    out: list = []
    used = set(free_logicals(formula))
    _peel([], formula, out, [0], used)
    return out


# ---------------------------------------------------------------------------
# Hypothesis normalization within a sequent


def _flatten_hyp(h: Expr, acc: list) -> None:
    h = simplify(h)
    if isinstance(h, BoolLit):
        if not h.value:
            acc.append(FALSE)
        return
    if isinstance(h, And):
        _flatten_hyp(h.left, acc)
        _flatten_hyp(h.right, acc)
        return
    if isinstance(h, Not) and isinstance(h.arg, (And, Or, Implies)):
        _flatten_hyp(negate(h.arg), acc)
        return
    acc.append(norm_rel(h))


def _skolemize(hyps: list, used: set) -> list:
    out = []
    for h in hyps:
        while isinstance(h, Exists):
            h = _open(h, used)
        out.append(h)
    return out


def _set_ite_cond(e: Expr, cond: Expr, value: bool) -> Expr:
    """Resolve every Ite whose condition is syntactically `cond`, outside the
    binders of cond's logicals."""
    def fn(t):
        if isinstance(t, Ite) and t.cond == cond:
            return substitute(t.then if value else t.other, fn, (cond,), ())
        return None
    return substitute(e, fn, (cond,), ())


# ---------------------------------------------------------------------------
# Rows and Fourier-Motzkin


@dataclass(frozen=True)
class Row:
    poly: Poly
    strict: bool  # poly > 0 when strict else poly >= 0


_FM_MAX_VARS = 26
_FM_MAX_ROWS = 700


def _fm_infeasible(rows: list) -> Optional[bool]:
    """True when the conjunction of rows (each poly >= 0 / > 0) is
    impossible, False when elimination leaves it possible, None when
    elimination passes _FM_MAX_VARS or _FM_MAX_ROWS and gives up."""
    rows = [r for r in rows if r.poly.terms or r.strict]
    sup: dict = {}
    for r in rows:
        for m in r.poly.terms:
            if m != MONO_ONE:
                sup.setdefault(m, 0)
                sup[m] += 1
    variables = sorted(sup, key=lambda m: (sup[m], _mono_sort_key(m)))
    if len(variables) > _FM_MAX_VARS:
        return None
    for v in variables:
        lower, upper, rest = [], [], []
        for r in rows:
            c = r.poly.terms.get(v, Fraction(0))
            if c > 0:
                lower.append(r)
            elif c < 0:
                upper.append(r)
            else:
                rest.append(r)
        new = rest
        if lower and upper:
            for r1 in lower:
                c1 = r1.poly.terms[v]
                for r2 in upper:
                    c2 = r2.poly.terms[v]
                    combined = r1.poly.scale(-c2).add(r2.poly.scale(c1))
                    new.append(Row(combined, r1.strict or r2.strict))
                    if len(new) > _FM_MAX_ROWS:
                        return None
        rows = new
    for r in rows:
        c = r.poly.as_const()
        if c is None:
            continue
        if c < 0 or (c == 0 and r.strict):
            return True
    return False


def _independent(rows: list) -> list:
    """rows split into groups, two rows in one group when a chain of rows
    sharing atoms links them; in the order of each group's first row, the
    rows with no atom making one group."""
    root: dict = {}

    def find(k):
        while root[k] != k:
            root[k] = root[root[k]]
            k = root[k]
        return k

    keys = [[k for m in r.poly.terms for k, _, _ in m] for r in rows]
    for ks in keys:
        for k in ks:
            root.setdefault(k, k)
        for k in ks[1:]:
            root[find(k)] = find(ks[0])
    groups: dict = {}
    for r, ks in zip(rows, keys):
        groups.setdefault(find(ks[0]) if ks else None, []).append(r)
    return list(groups.values())


def _sign_facts(rows: list) -> list:
    """Nonnegativity facts implied by atom shapes in the current support."""
    atoms: dict = {}
    for r in rows:
        for m in r.poly.terms:
            for k, at, p in m:
                atoms.setdefault(k, (at, p))
                if p > atoms[k][1]:
                    atoms[k] = (at, p)
    facts = []
    for k in sorted(atoms):
        at, maxp = atoms[k]
        if isinstance(at, Exp):
            facts.append(Row(Poly.atom(at), True))
        elif isinstance(at, (Sqrt, Norm)):
            facts.append(Row(Poly.atom(at), False))
        if maxp >= 2:
            facts.append(Row(Poly.atom(at).mul(Poly.atom(at)), False))
    return facts


def _augment(rows: list) -> list:
    """One round of pairwise products between small rows."""
    small = [r for r in rows if len(r.poly.terms) <= 2]
    out = list(rows)
    added = 0
    for i, r1 in enumerate(small):
        for r2 in small[i:]:
            prod = r1.poly.mul(r2.poly)
            if prod.as_const() is not None:
                continue
            out.append(Row(prod, r1.strict and r2.strict))
            added += 1
            if added >= 60:
                return out
    return out


# ---------------------------------------------------------------------------
# Interval evaluation (floats, outward rounding)


class _Indef(Exception):
    pass


def _out(lo: float, hi: float) -> tuple:
    return (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))


def _iv_add(a, b):
    return _out(a[0] + b[0], a[1] + b[1])


def _iv_neg(a):
    return (-a[1], -a[0])


def _iv_mul(a, b):
    # 0 * inf is 0: an infinite endpoint stands for a side with no bound,
    # every point of which is finite (Moore, Kearfott & Cloud 2009)
    cs = [p * q if p and q else 0.0 for p in a for q in b]
    return _out(min(cs), max(cs))


_WHOLE = (-math.inf, math.inf)


def iv_eval(e: Expr, bnds: dict) -> tuple:
    """An interval holding e's value for every value of each atom in
    bnds[expr_key(atom)]; an atom not in bnds is unbounded."""
    if isinstance(e, RatLit):
        v = float(e.value)
        return (v, v)
    if isinstance(e, (VarRead, LogicalVar)):
        return bnds.get(expr_key(e), _WHOLE)
    if isinstance(e, Neg):
        return _iv_neg(iv_eval(e.arg, bnds))
    if isinstance(e, Add):
        return _iv_add(iv_eval(e.left, bnds), iv_eval(e.right, bnds))
    if isinstance(e, Sub):
        return _iv_add(iv_eval(e.left, bnds), _iv_neg(iv_eval(e.right, bnds)))
    if isinstance(e, Mul):
        return _iv_mul(iv_eval(e.left, bnds), iv_eval(e.right, bnds))
    if isinstance(e, Pow):
        out = (1.0, 1.0)
        base = iv_eval(e.base, bnds)
        for _ in range(e.exp):
            out = _iv_mul(out, base)
        if e.exp % 2 == 0 and out[0] < 0.0:
            out = (0.0, out[1])
        return out
    if isinstance(e, Div):
        den = iv_eval(e.right, bnds)
        if den[0] <= 0.0 <= den[1]:
            raise _Indef()
        inv = _out(1.0 / den[1], 1.0 / den[0])
        return _iv_mul(iv_eval(e.left, bnds), inv)
    if isinstance(e, Exp):
        a = iv_eval(e.arg, bnds)
        try:
            return _out(math.exp(a[0]), math.exp(a[1]))
        except OverflowError:
            raise _Indef()
    if isinstance(e, Ln):
        a = iv_eval(e.arg, bnds)
        if a[0] <= 0.0:
            raise _Indef()
        return _out(math.log(a[0]), math.log(a[1]))
    if isinstance(e, Sqrt):
        a = iv_eval(e.arg, bnds)
        if a[1] < 0.0:
            raise _Indef()
        lo = math.sqrt(a[0]) if a[0] > 0.0 else 0.0
        return _out(lo, math.sqrt(a[1]))
    if isinstance(e, (Sin, Cos)):
        iv_eval(e.arg, bnds)
        return (-1.0, 1.0)
    if isinstance(e, Ite):
        t = iv_eval(e.then, bnds)
        o = iv_eval(e.other, bnds)
        return (min(t[0], o[0]), max(t[1], o[1]))
    raise _Indef()


def _iv_check(concl: Expr, bnds: dict) -> bool:
    """Definitely-true check of a Le or Lt under interval bounds."""
    try:
        hi = iv_eval(Sub(concl.left, concl.right), bnds)[1]
    except (_Indef, ValueError, OverflowError, ZeroDivisionError):
        return False
    return hi <= 0.0 if isinstance(concl, Le) else hi < 0.0


_SUBDIV_DEPTH = 12


def _iv_subdivide(concl: Expr, bnds: dict, key: str, lo: float, hi: float,
                  depth: int) -> bool:
    b = dict(bnds)
    b[key] = (lo, hi)
    if _iv_check(concl, b):
        return True
    if depth >= _SUBDIV_DEPTH:
        return False
    mid = 0.5 * (lo + hi)
    if not (lo < mid < hi):
        return False
    return (_iv_subdivide(concl, bnds, key, lo, mid, depth + 1)
            and _iv_subdivide(concl, bnds, key, mid, hi, depth + 1))


# ---------------------------------------------------------------------------
# The sequent prover


_DEPTH_CAP = 60
_ORDERS = (Le, Lt, Ge, Gt)
# the signs of a comparison's difference that prove it
_SIGNS = {Neq: (">", "<"), Le: ("<=", "<", "0"), Lt: ("<",)}


class _Prover:
    """Proves sequents from their hypotheses alone; ds gives the kinds of
    the dataspace's names."""

    def __init__(self, ds: Optional[Dataspace]):
        self.ds = ds
        self.rules: set = set()
        self.splits = 0
        # sub-proofs already made, by _antecedent and _entails
        self.memo: dict = {}

    # -- polynomial helpers -------------------------------------------------

    def _poly(self, e: Expr, hyps: Optional[list] = None) -> Poly:
        p = reduce_trig(poly_of(e, self.ds))
        if hyps is not None:
            p = self._reduce_sqrt(p, hyps)
        return p

    def _reduce_sqrt(self, p: Poly, hyps: list) -> Poly:
        """sqrt(u)^2 -> u, only when u >= 0 is entailed."""
        for _ in range(8):
            hit = next(((m, k, at, pw) for m in p.terms for k, at, pw in m
                        if isinstance(at, Sqrt) and pw >= 2
                        and self._entails(hyps, Ge(at.arg, ZERO), reduce_radicals=False)),
                       None)
            if hit is None:
                return p
            p = _square_out(p, *hit, self._poly(hit[2].arg))
        return p

    def _diff(self, h: Expr, left_first: bool, hyps: Optional[list] = None) -> Poly:
        """The polynomial of h.left - h.right for the comparison h, as
        self._poly gives it with hyps, or of h.right - h.left when not
        left_first.  A hypothesis is the same node at every prove level, so
        the polynomial before _reduce_sqrt, which reads hyps, is cached on
        h: one slot per orientation, each holding its dataspace as poly_of's
        slot does."""
        key = "_diff_lr" if left_first else "_diff_rl"
        ds = self.ds
        slot = h.__dict__.get(key)
        if slot is None or slot[0] is not ds:
            try:
                out = reduce_trig(poly_of(Sub(h.left, h.right) if left_first
                                          else Sub(h.right, h.left), self.ds))
            except Unpolyable as err:
                out = str(err)
            slot = h.__dict__[key] = (ds, out)
        p = _unslot(slot)
        return p if hyps is None else self._reduce_sqrt(p, hyps)

    def _rows(self, hyps: list, reduce_radicals: bool = True) -> list:
        rows = []
        rh = hyps if reduce_radicals else None
        for h in hyps:
            if isinstance(h, Eq) and vec_dim(h.left, self.ds) is None:
                try:
                    p = self._diff(h, True, rh)
                except Unpolyable:
                    continue
                rows.append(Row(p, False))
                rows.append(Row(p.neg(), False))
            else:
                rows.extend(Row(q, strict) for q, strict in self._bounds((h,), rh))
        return rows

    def _fm(self, hyps: list, neg_rows: list, quick: bool = False,
            reduce_radicals: bool = True) -> bool:
        # groups share no atom, so the rows are infeasible exactly when
        # one group is; each group is decided on its own, under the caps.
        # When the products pass a cap, the group is decided on its rows
        # without them, a subset: added hypotheses then cost no proof
        # that needs no product
        for rows in _independent(self._rows(hyps, reduce_radicals) + neg_rows):
            rows = rows + _sign_facts(rows) + self._radical_facts(hyps, rows)
            got = None
            if not quick:
                more = _augment(rows)
                got = _fm_infeasible(more + _sign_facts(more))
            if got is None:
                got = _fm_infeasible(rows)
            if got:
                return True
        return False

    def _radical_facts(self, hyps: list, rows: list) -> list:
        """sqrt(u) is strictly positive whenever some hypothesis says u > 0."""
        out = []
        for r in rows:
            for m in r.poly.terms:
                for _, at, _ in m:
                    if isinstance(at, Sqrt) and self._syntactic_pos(hyps, at.arg):
                        s = Poly.atom(at)
                        out.append(Row(s, True))
                        out.append(Row(s.mul(s), True))
        return out

    def _syntactic_pos(self, hyps: list, arg: Expr) -> bool:
        try:
            target = self._poly(arg)
        except Unpolyable:
            return False
        return any(strict and q == target for q, strict in self._bounds(hyps))

    def _bounds(self, hyps, rh: Optional[list] = None):
        """Each order hypothesis read as norm_rel reads it, 0 <= q or
        0 < q: the pairs (q, strict), in hypothesis order.  With rh, q's
        radicals are reduced under the hypotheses rh."""
        for h in hyps:
            if not isinstance(h, _ORDERS):
                continue
            try:
                q = self._diff(h, isinstance(h, (Ge, Gt)), rh)
            except Unpolyable:
                continue
            yield q, isinstance(h, (Lt, Gt))

    def _entails(self, hyps: list, atom: Expr, reduce_radicals: bool = True) -> bool:
        """hyps entail the comparison atom by a quick Fourier-Motzkin
        check.  The check proves nothing through prove, so it is made once
        per prover and its answer kept in the memo, under a key tagged
        apart from _antecedent's, whose depth 1 equals True."""
        key = ("entails", tuple(hyps), atom, reduce_radicals)
        got = self.memo.get(key)
        if got is None:
            got = self.memo[key] = self._entailed(hyps, atom, reduce_radicals)
        return got

    def _entailed(self, hyps: list, atom: Expr, reduce_radicals: bool) -> bool:
        atom = norm_rel(atom)
        if not isinstance(atom, (Le, Lt)):
            return False
        try:
            if not has_type(atom, Div):
                p = self._diff(atom, True)
            else:
                n, d = _ratfunc(Sub(atom.left, atom.right), self.ds)
                dexpr = poly_to_expr(d)
                if d.as_const() is not None and d.as_const() > 0:
                    pass
                elif self._entails(hyps, Gt(dexpr, ZERO), reduce_radicals=False):
                    pass
                elif self._entails(hyps, Lt(dexpr, ZERO), reduce_radicals=False):
                    n = n.neg()
                else:
                    return False
                p = self._poly(poly_to_expr(n))
        except Unpolyable:
            return False
        return self._fm(hyps, [Row(p, not isinstance(atom, Lt))], quick=True,
                        reduce_radicals=reduce_radicals)

    def _sign(self, e: Expr, hyps: list) -> Optional[str]:
        """Best provable sign of e: one of '>', '>=', '<', '<=', '0', None."""
        try:
            p = self._poly(e, hyps)
        except Unpolyable:
            return None
        if p.is_zero():
            return "0"
        # p may be a positive multiple of a hypothesis difference plus a
        # constant, e.g. ci - co under co < ci; the per-monomial analysis
        # below cannot see that
        bounds = list(self._bounds(hyps))
        for q, strict in bounds:
            got = _scaled_sign(p, q, strict)
            if got is not None:
                return got
        signs = {}
        for q, strict in bounds:
            lin = _linear_bound(q)
            if lin is None:
                continue
            key, c, bound = lin
            if c > 0 and bound >= 0 and signs.get(key) != ">":
                signs[key] = ">" if (strict or bound > 0) else ">="
            elif c < 0 and bound <= 0 and signs.get(key) != "<":
                signs[key] = "<" if (strict or bound < 0) else "<="

        def atom_sign(key, at):
            if isinstance(at, Exp):
                return ">"
            got = signs.get(key)
            if got:
                return got
            if isinstance(at, (Sqrt, Norm)):
                return ">="
            return None

        total = None  # running sign of the sum
        for m, c in p.terms.items():
            s = ">" if c > 0 else "<"
            for key, at, pw in m:
                a = atom_sign(key, at)
                if pw % 2 == 0:
                    f = ">" if a in (">", "<") else ">="
                else:
                    if a is None:
                        return None
                    f = a
                s = _sign_mul(s, f)
            total = _sign_add(total, s)
            if total is None:
                return None
        return total

    # -- the sequent rules ----------------------------------------------------

    def prove(self, hyps_in: list, concl: Expr, depth: int = 0) -> bool:
        """hyps_in |- concl by the first rule of _RULES that applies.  A
        rule answers None when it does not apply, else a verdict or its
        premises, which are proved in order one level deeper."""
        if depth > _DEPTH_CAP or self.splits > _SPLIT_BUDGET:
            return False
        self.splits += 1

        flat: list = []
        for h in hyps_in:
            _flatten_hyp(h, flat)
        used = set(free_logicals(concl)).union(*map(free_logicals, flat))
        sk = _skolemize(flat, used)
        flat = []
        for h in sk:
            _flatten_hyp(h, flat)

        concl = norm_rel(simplify(concl))
        if isinstance(concl, BoolLit) and concl.value:
            return True
        for name, rule in _RULES:
            got = rule(self, flat, concl, depth, used)
            if got is None:
                continue
            if got is False:
                return False
            if name:
                self.rules.add(name)
            return got is True or all(self.prove(h, c, depth + 1) for h, c in got)

    def _bool_prop(self, flat: list, concl: Expr, depth: int, used: set):
        """Each bool a hypothesis fixes, replaced by its value elsewhere."""
        facts = {}
        for h in flat:
            if isinstance(h, (VarRead, LogicalVar)):
                facts[h] = True
            elif isinstance(h, Not) and isinstance(h.arg, (VarRead, LogicalVar)):
                facts[h.arg] = False
            elif isinstance(h, Eq) and isinstance(h.right, BoolLit) \
                    and isinstance(h.left, (VarRead, LogicalVar)):
                facts[h.left] = h.right.value
        new_flat, new_concl = flat, concl
        for target, val in facts.items():
            lit = BoolLit(val)
            nf = [subst_term(h, target, lit) if h is not target
                  and not (isinstance(h, Not) and h.arg is target)
                  and not (isinstance(h, Eq) and h.left is target) else h
                  for h in new_flat]
            nc = subst_term(new_concl, target, lit)
            if nf != new_flat or nc != new_concl:
                new_flat, new_concl = nf, nc
        if new_flat is flat and new_concl is concl:
            return None
        return [(new_flat, new_concl)]

    def _case_split(self, flat: list, concl: Expr, depth: int, used: set):
        """The first hypothesis that is an or or an <->, split in two."""
        for i, h in enumerate(flat):
            if isinstance(h, (Or, Iff)):
                rest = flat[:i] + flat[i + 1:]
                if isinstance(h, Or):
                    return [(rest + [h.left], concl), (rest + [h.right], concl)]
                return [(rest + [h.left, h.right], concl),
                        (rest + [negate(h.left), negate(h.right)], concl)]
        return None

    def _ite_split(self, flat: list, concl: Expr, depth: int, used: set):
        """One if condition outside its logicals' binders, true then false."""
        cond = _ite_cond([concl] + flat)
        if cond is None:
            return None
        return [([_set_ite_cond(h, cond, value) for h in flat]
                 + [cond if value else negate(cond)], _set_ite_cond(concl, cond, value))
                for value in (True, False)]

    def _split_vectors(self, flat: list, concl: Expr, depth: int, used: set):
        """Vector equalities split by component, and scalar comparisons
        over vector terms read by coordinate."""
        def split(atom):
            try:
                comps = _vec_eq(atom, self.ds)
            except Unpolyable:
                return atom
            if comps is not None:
                return comps
            # scalar comparison over vector subterms: expose the coordinates
            if isinstance(atom, (Eq, Neq, Le, Lt)) and has_type(
                    atom, (Inner, Norm, VecLit, ScalarMul)):
                try:
                    l = poly_to_expr(self._poly(atom.left))
                    r = poly_to_expr(self._poly(atom.right))
                except Unpolyable:
                    return atom
                new = type(atom)(l, r)
                return new if new != atom else atom
            return atom

        old = flat + [concl]
        *hyps, goal = new = [split(e) for e in old]
        if all(a is b for a, b in zip(new, old)):
            return None
        return [(hyps, goal)]

    def _instantiate(self, flat: list, concl: Expr, depth: int, used: set):
        """Each forall hypothesis replaced by its instances at 0 and at the
        terms that bound its variable."""
        if not any(isinstance(h, Forall) for h in flat):
            return None
        out = []
        for h in flat:
            if not isinstance(h, Forall):
                out.append(h)
                continue
            cands = [ZERO]
            for t, _ in _bound_terms(subterms(h.body, stop=_ORDERS), h.var):
                if t not in cands:
                    cands.append(t)
            out.extend(simplify(subst_logical(h.body, h.var, t)) for t in cands)
        return [(out, concl)]

    def _modus_ponens(self, flat: list, concl: Expr, depth: int, used: set):
        """Each implication hypothesis replaced by its consequent when the
        others prove its antecedent, else dropped: no row reads it."""
        if not any(isinstance(h, Implies) for h in flat):
            return None
        plain = [h for h in flat if not isinstance(h, Implies)]
        out = []
        for h in flat:
            if not isinstance(h, Implies):
                out.append(h)
            elif self._antecedent(plain, h.left, depth + 1):
                out.append(h.right)
        return [(out, concl)]

    def _antecedent(self, plain: list, goal: Expr, depth: int) -> bool:
        """self.prove(plain, goal, depth), made once per prover.  The memo
        keeps the answer with the splits its proof spent; a repeat adds
        those splits when the budget still holds them and proves again when
        it does not.  A proof the budget cut is never reused, since splits
        only grow, and a repeat's rule names are in rules already.  So
        splits, rules and every verdict are those of proving each time."""
        key = (tuple(plain), goal, depth)
        hit = self.memo.get(key)
        if hit is not None and self.splits + hit[1] <= _SPLIT_BUDGET:
            self.splits += hit[1]
            return hit[0]
        start = self.splits
        got = self.prove(plain, goal, depth)
        self.memo[key] = (got, self.splits - start)
        return got

    def _subst_eqs(self, flat: list, concl: Expr, depth: int, used: set):
        """The first solved equality substituted out of the sequent."""
        for i, h in enumerate(flat):
            if not isinstance(h, Eq) or vec_dim(h.left, self.ds) is not None:
                continue
            for lhs, rhs in ((h.left, h.right), (h.right, h.left)):
                if isinstance(lhs, (LogicalVar,)) or \
                        (isinstance(lhs, VarRead) and isinstance(lhs.lens, (Var, Coord))):
                    if lhs in subterms(rhs):
                        continue
                    rest = flat[:i] + flat[i + 1:]
                    new = [simplify(subst_term(g, lhs, rhs)) for g in rest]
                    return [(new, simplify(subst_term(concl, lhs, rhs)))]
            # linear solve: c*a + rest = 0 with constant coefficient c
            try:
                p = self._diff(h, True)
            except Unpolyable:
                continue
            for m in p.monomials():
                if len(m) != 1 or m[0][2] != 1:
                    continue
                key, at = m[0][0], m[0][1]
                if not isinstance(at, (VarRead, LogicalVar)):
                    continue
                rem = Poly({mm: c for mm, c in p.terms.items() if mm != m})
                if not rem.free_of_atom_key(key):
                    continue
                sol = poly_to_expr(rem.scale(Fraction(-1) / p.terms[m]))
                if at in subterms(sol):
                    continue
                rest = flat[:i] + flat[i + 1:]
                new = [simplify(subst_term(g, at, sol)) for g in rest]
                return [(new, simplify(subst_term(concl, at, sol)))]
        return None

    def _clear_divisions(self, flat: list, concl: Expr, depth: int, used: set):
        """Each comparison's divisions cleared against a denominator whose
        sign the other hypotheses entail."""
        def clear(atom, hyps):
            if not isinstance(atom, (Le, Lt, Eq, Neq)) or not has_type(atom, Div):
                return atom
            if vec_dim(atom.left, self.ds) is not None:
                return atom
            try:
                n, d = _ratfunc(Sub(atom.left, atom.right), self.ds)
            except Unpolyable:
                return atom
            if d.as_const() == 1:
                return atom
            dexpr = poly_to_expr(d)
            if self._entails(hyps, Gt(dexpr, ZERO)):
                flip = False
            elif self._entails(hyps, Lt(dexpr, ZERO)):
                flip = True
            else:
                return atom
            nexpr = poly_to_expr(n)
            if flip and isinstance(atom, (Le, Lt)):
                return type(atom)(ZERO, nexpr)
            return type(atom)(nexpr, ZERO)

        hyps = [clear(h, [g for g in flat if g is not h]) for h in flat]
        goal = clear(concl, hyps)
        if goal is concl and all(a is b for a, b in zip(hyps, flat)):
            return None
        return [(hyps, goal)]

    def _witness(self, flat: list, concl: Expr, depth: int, used: set):
        """An exists proved at a root of one of its equalities or at a
        small constant."""
        if not isinstance(concl, Exists):
            return None
        v, body = concl.var, concl.body
        cands = [ZERO, ONE, num(-1), num(Fraction(1, 2)), num(Fraction(-1, 2))]
        for atom in (t for t in subterms(body) if isinstance(t, Eq)):
            try:
                p = self._diff(atom, True)
            except Unpolyable:
                continue
            by_pow: dict = {}
            ok = True
            for m, c in p.terms.items():
                pw = 0
                rest = []
                for k, at, q in m:
                    if isinstance(at, LogicalVar) and at.name == v:
                        pw = q
                    else:
                        rest.append((k, at, q))
                by_pow.setdefault(pw, Poly())
                by_pow[pw] = by_pow[pw].add(Poly({tuple(rest): c}))
                if pw not in (0, 1, 2):
                    ok = False
            if not ok:
                continue
            c0 = by_pow.get(0, Poly())
            c1 = by_pow.get(1, Poly())
            c2 = by_pow.get(2, Poly())
            if not c1.is_zero() and c2.is_zero():
                # linear: v = -c0 / c1
                cc = c1.as_const()
                if cc is not None:
                    cands.insert(0, poly_to_expr(c0.scale(Fraction(-1) / cc)))
                else:
                    cands.insert(0, Div(poly_to_expr(c0.neg()), poly_to_expr(c1)))
            elif c1.is_zero() and not c2.is_zero():
                # quadratic: v^2 = -c0 / c2
                sq = Div(poly_to_expr(c0.neg()), poly_to_expr(c2))
                w = Sqrt(simplify(sq))
                cands.insert(0, Neg(w))
                cands.insert(0, w)
        return any(self.prove(flat, subst_logical(body, v, w), depth + 1) for w in cands)

    def _or(self, flat: list, concl: Expr, depth: int, used: set):
        """An or, proved by either side under the other side's negation."""
        if not isinstance(concl, Or):
            return None
        return (self.prove(flat + [negate(concl.right)], concl.left, depth + 1)
                or self.prove(flat + [negate(concl.left)], concl.right, depth + 1))

    def _exposed_division(self, flat: list, concl: Expr, depth: int, used: set):
        """A scalar comparison restated as its difference against 0 when
        radical reduction exposes a division that still needs clearing."""
        if not isinstance(concl, (Eq, Neq, Le, Lt)) or vec_dim(concl.left, self.ds) is not None:
            return None
        try:
            red = poly_to_expr(self._diff(concl, True, flat))
        except Unpolyable:
            return None
        rebuilt = type(concl)(red, ZERO)
        return [(flat, rebuilt)] if has_type(red, Div) and rebuilt != concl else None

    def _poly_eq(self, flat: list, concl: Expr, depth: int, used: set):
        """An equality whose difference is the zero polynomial; one with no
        polynomial is not proved."""
        if not isinstance(concl, Eq):
            return None
        try:
            return self._diff(concl, True, flat).is_zero() or None
        except Unpolyable:
            return False

    def _signed(self, flat: list, concl: Expr, depth: int, used: set):
        """A !=, <= or < whose difference has one of the type's _SIGNS."""
        want = _SIGNS.get(type(concl))
        if want is None:
            return None
        return self._sign(Sub(concl.left, concl.right), flat) in want or None

    def _refute_eq(self, flat: list, concl: Expr, depth: int, used: set):
        """a != b by refuting a = b; the name is recorded once that holds."""
        if not isinstance(concl, Neq):
            return None
        return self.prove(flat + [Eq(concl.left, concl.right)], FALSE, depth + 1)

    def _fourier_motzkin(self, flat: list, concl: Expr, depth: int, used: set):
        """false, <= or < by Fourier-Motzkin on the hypotheses and the
        conclusion's negation; false is not proved otherwise."""
        if concl == FALSE:
            return self._fm(flat, [])
        if not isinstance(concl, (Le, Lt)):
            return None
        try:
            return self._fm(flat, [Row(self._diff(concl, True, flat),
                                       isinstance(concl, Le))]) or None
        except Unpolyable:
            return None

    def _monotone(self, flat: list, concl: Expr, depth: int) -> bool:
        """concl, f(v) <= 0 or f(v) < 0, for a logical v >= 0, from f at an
        end of a segment on which f is monotone: f(0) when df/dv <= 0 on
        [0, v], or f(t) at an upper bound t of v when df/dv >= 0 on
        [v, t].  The sign and the derivative's provisos are shown at a
        fresh logical w on the segment."""
        diff = simplify(Sub(concl.left, concl.right))
        used = set(free_logicals(concl)).union(*map(free_logicals, flat))
        w = LogicalVar(fresh_logical("w", used))
        for v in sorted(free_logicals(diff)):
            if not self._entails(flat, Ge(LogicalVar(v), ZERO)):
                continue
            try:
                dr = deriv_in_var(diff, v)
            except (NotDifferentiable, UnsupportedConstruct):
                continue
            slope = simplify(subst_logical(dr.expr, v, w))
            provisos = [subst_logical(pv, v, w) for pv in dr.provisos]

            def signed(lo: Expr, hi: Expr, want: tuple) -> bool:
                hyps = flat + [Le(lo, w), Le(w, hi)]
                return (all(self._entails(hyps, pv) for pv in provisos)
                        and self._sign(slope, hyps) in want)

            if signed(ZERO, LogicalVar(v), ("<=", "<", "0")):
                at0 = type(concl)(subst_logical(concl.left, v, ZERO),
                                  subst_logical(concl.right, v, ZERO))
                if self.prove(flat, at0, depth + 1):
                    return True
            for t, upper in _bound_terms(flat, v):
                if not upper or not signed(LogicalVar(v), t, (">=", ">", "0")):
                    continue
                atT = type(concl)(subst_logical(concl.left, v, t),
                                  subst_logical(concl.right, v, t))
                if self.prove(flat, atT, depth + 1):
                    return True
        return False

    def _interval(self, flat: list, concl: Expr) -> bool:
        """concl checked by interval evaluation, subdivided over each of
        its logicals.  Each atom is bounded only by the hypotheses that
        bound it linearly, rounded outward; a side with no such
        hypothesis is open, and an atom with none is unbounded.  concl
        is a Le or Lt."""
        bnds: dict = {}
        for q, _ in self._bounds(flat):
            lin = _linear_bound(q)
            if lin is None:
                continue
            key, c, b = lin
            try:
                b = float(b)
            except OverflowError:
                continue  # beyond float range: dropping it only widens
            lo, hi = bnds.get(key, _WHOLE)
            if c > 0:
                bnds[key] = (max(lo, math.nextafter(b, -math.inf)), hi)
            else:
                bnds[key] = (lo, min(hi, math.nextafter(b, math.inf)))
        if _iv_check(concl, bnds):
            return True
        for key in sorted(expr_key(LogicalVar(v)) for v in free_logicals(concl)):
            lo, hi = bnds.get(key, _WHOLE)
            if lo < hi and hi - lo <= 1.0e6 and _iv_subdivide(concl, bnds, key, lo, hi, 0):
                return True
        return False


# _Prover.prove's rules in the order tried, each with the name it records
# when it gives premises or proves the sequent.  The rows after div-clear
# take the conclusions no earlier row takes apart; the last always answers.
# A row may rely on the rows before it: the = split takes only an equality
# that poly left open, which has a polynomial.
_RULES = (
    ("absurd-hyp", lambda prover, flat, concl, depth, used: True if FALSE in flat else None),
    (None, lambda prover, flat, concl, depth, used: _split(flat, concl, used)),
    ("assumption", lambda prover, flat, concl, depth, used: [] if concl in flat else None),
    ("bool-prop", _Prover._bool_prop),
    ("case-split", _Prover._case_split),
    ("ite-split", _Prover._ite_split),
    ("vec-split", _Prover._split_vectors),
    ("instantiate", _Prover._instantiate),
    ("modus-ponens", _Prover._modus_ponens),
    ("witness", _Prover._witness),
    ("eq-subst", _Prover._subst_eqs),
    ("div-clear", _Prover._clear_divisions),
    (None, _Prover._or),
    (None, _Prover._exposed_division),
    ("poly", _Prover._poly_eq),
    ("sign", _Prover._signed),
    ("fourier-motzkin", _Prover._refute_eq),
    (None, lambda prover, flat, concl, depth, used: [
        (flat, Le(concl.left, concl.right)), (flat, Le(concl.right, concl.left))]
        if isinstance(concl, Eq) else None),
    ("fourier-motzkin", _Prover._fourier_motzkin),
    ("monotone", lambda prover, flat, concl, depth, used:
        isinstance(concl, (Le, Lt)) and prover._monotone(flat, concl, depth) or None),
    ("interval", lambda prover, flat, concl, depth, used:
        isinstance(concl, (Le, Lt)) and prover._interval(flat, concl) or None),
    (None, lambda prover, flat, concl, depth, used: False),
)


def _bound_terms(atoms: Iterable[Expr], v: str) -> list:
    """The pairs (t, upper), each once and in order, for the comparisons
    among atoms that bound the logical v by a term t free of v: upper for
    v <= t or v < t, lower for t <= v or t < v."""
    out = []
    for a in atoms:
        if not isinstance(a, _ORDERS):
            continue
        a = norm_rel(a)
        for side, t, upper in ((a.left, a.right, True), (a.right, a.left, False)):
            if isinstance(side, LogicalVar) and side.name == v \
                    and v not in free_logicals(t) and (t, upper) not in out:
                out.append((t, upper))
    return out


def _ite_cond(terms: list) -> Optional[Expr]:
    """The condition of the leftmost Ite outside every binder in terms whose
    condition holds no Ite; only a term that holds an Ite is walked.  An Ite
    under a binder waits for the stage that opens the binder."""
    return next((t.cond for h in terms if has_type(h, Ite)
                 for t in subterms(h, stop=(Exists, Forall))
                 if isinstance(t, Ite) and not has_type(t.cond, Ite)), None)


def _ratfunc(e: Expr, ds: Optional[Dataspace]):
    """e as N/D with polynomial N, D; divisions inside opaque atoms stay put."""
    if not has_type(e, Div):
        return poly_of(e, ds), Poly.const(1)
    if isinstance(e, Div):
        na, da = _ratfunc(e.left, ds)
        nb, db = _ratfunc(e.right, ds)
        if nb.is_zero():
            raise Unpolyable("division by syntactic zero")
        return na.mul(db), da.mul(nb)
    if isinstance(e, Neg):
        n, d = _ratfunc(e.arg, ds)
        return n.neg(), d
    if isinstance(e, Add):
        na, da = _ratfunc(e.left, ds)
        nb, db = _ratfunc(e.right, ds)
        return na.mul(db).add(nb.mul(da)), da.mul(db)
    if isinstance(e, Sub):
        na, da = _ratfunc(e.left, ds)
        nb, db = _ratfunc(e.right, ds)
        return na.mul(db).sub(nb.mul(da)), da.mul(db)
    if isinstance(e, Mul):
        na, da = _ratfunc(e.left, ds)
        nb, db = _ratfunc(e.right, ds)
        return na.mul(nb), da.mul(db)
    if isinstance(e, Pow):
        n, d = _ratfunc(e.base, ds)
        return n.pow(e.exp), d.pow(e.exp)
    # division buried inside a transcendental argument: opaque
    return poly_of(e, ds), Poly.const(1)


def _linear_bound(q: Poly) -> Optional[tuple]:
    """(key, c, b) when q is c*(a - b) for one atom a, to the first power,
    with atom key key; None otherwise."""
    nc = [(m, c) for m, c in q.terms.items() if m != MONO_ONE]
    if len(nc) != 1 or len(nc[0][0]) != 1 or nc[0][0][0][2] != 1:
        return None
    (((key, _, _),), c), = nc
    return key, c, -q.terms.get(MONO_ONE, Fraction(0)) / c


def _sign_mul(a: str, b: str) -> str:
    neg = (a in ("<", "<=")) != (b in ("<", "<="))
    strict = a in (">", "<") and b in (">", "<")
    if neg:
        return "<" if strict else "<="
    return ">" if strict else ">="


def _sign_add(a: Optional[str], b: str) -> Optional[str]:
    if a is None:
        return b
    an, bn = a in ("<", "<="), b in ("<", "<=")
    if an != bn:
        return None
    strict = a in (">", "<") or b in (">", "<")
    if an:
        return "<" if strict else "<="
    return ">" if strict else ">="


# ---------------------------------------------------------------------------
# Falsification


_GRID = 9
# The grid's steps, as fractions of the binder's range.
_STEPS = tuple(Fraction(i, _GRID - 1) for i in range(_GRID))


def _binder_bounds(body: Expr, v: str) -> list:
    """(closure, upper) for each _bound_terms pair (t, upper) of the
    comparisons of body that sit inside no other comparison."""
    return [(compile_expr(t), upper)
            for t, upper in _bound_terms(subterms(body, stop=_ORDERS), v)]


def _binder_range(bounds: list, v: str, s, env, box: Box):
    lo, hi = box.for_name(v)
    for f, upper in bounds:
        try:
            val = f(s, env)
        except (ex.EvalError, OverflowError):
            continue
        if not isinstance(val, (Fraction, int)):
            continue
        if upper:
            hi = min(hi, Fraction(val))
        else:
            lo = max(lo, Fraction(val))
    return lo, hi


def _truth_kids(e: Expr) -> tuple:
    """The formulas whose truth e's truth is built from."""
    if isinstance(e, (And, Or, Iff)):
        return (e.left, e.right)
    if isinstance(e, Not):
        return (e.arg,)
    if isinstance(e, Implies):
        # negate, not Not: the negation of a Forall is an Exists, which
        # finds its witness on the grid
        negated = e.__dict__.get("_negated")
        if negated is None:
            negated = e.__dict__["_negated"] = negate(e.left)
        return (negated, e.right)
    if isinstance(e, Ite):
        return (e.cond, e.then, e.other)
    if isinstance(e, (Forall, Exists)):
        return (e.body,)
    return ()


def _junction(settle: bool) -> Callable:
    def combine(a, b):
        if a is settle or b is settle:
            return settle
        return None if a is None or b is None else not settle
    return combine


# Each connective's truth in Kleene's strong three-valued logic, True,
# False or None, from the truths of its _truth_kids formulas.  The closures
# of _truth_node compute it, and _answers_node takes its image.
_KLEENE = {**{c: _junction(v) for c, v in _SETTLES.items()},
           Not: lambda a: None if a is None else not a,
           Iff: lambda a, b: None if a is None or b is None else a == b,
           Ite: lambda c, a, b: (a if a == b else None) if c is None else (a if c else b)}


def _truth_node(e: Expr) -> Callable:
    """The truth closure of one node; its formulas' closures are cached."""
    kids = [_truth(k) for k in _truth_kids(e)]
    if isinstance(e, BoolLit):
        value = e.value
        return lambda s, env, q: (value, {})
    if type(e) in RELATIONS:
        fa, fb, test = compile_expr(e.left), compile_expr(e.right), _COMPARE[type(e)]

        def compare(s, env, q):
            try:
                return test(fa(s, env), fb(s, env), q[1]), {}
            except q[2]:
                return None, {}
        return compare
    if type(e) in _SETTLES:
        fa, fb = kids
        settle = _SETTLES[type(e)]

        def junction(s, env, q):
            a, ia = fa(s, env, q)
            if a is settle:
                return a, ia
            b, ib = fb(s, env, q)
            if b is settle:
                return b, ib
            if a is None or b is None:
                return None, {}
            return b, {**ia, **ib}
        return junction
    if isinstance(e, (Not, Iff)):
        combine = _KLEENE[type(e)]
        drop = type(e) is Iff  # an undecided iff keeps no instances; a not its operand's

        def every(s, env, q):
            outs = [f(s, env, q) for f in kids]
            r = combine(*(r for r, _ in outs))
            return r, ({} if r is None and drop else {k: v for _, i in outs for k, v in i.items()})
        return every
    if isinstance(e, Ite):
        fc, ft, fo = kids

        def branch(s, env, q):
            c, ic = fc(s, env, q)
            if c is not None:
                r, ir = (ft if c else fo)(s, env, q)
                return r, {**ic, **ir}
            a, ia = ft(s, env, q)
            b, ib = fo(s, env, q)
            return (a, {**ia, **ib}) if a == b else (None, {})
        return branch
    if isinstance(e, (Forall, Exists)):
        return _quantifier(e, kids[0])
    f = compile_expr(e)

    def value(s, env, q):
        try:
            v = f(s, env)
        except q[2]:
            return None, {}
        return (v, {}) if isinstance(v, bool) else (None, {})
    return value


def _quantifier(e: Expr, body: Callable) -> Callable:
    """Forall or Exists sampled on the grid over the binder's range; the
    range's bound terms are found once, and evaluated at each store.

    It decides only through an instance it exhibits: a Forall is False at
    a grid point where its body is False, an Exists True at one where its
    body is True, and anything else is None, since the grid cannot show
    that no other point answers otherwise.  The binder shadows any value
    env holds for its name."""
    var, bounds = e.var, _binder_bounds(e.body, e.var)
    seek = isinstance(e, Exists)  # the body's value that ends the search

    def sample(s, env, q):
        if not q[2]:
            raise UnsupportedConstruct("quantified guards have no evaluation")
        lo, hi = _binder_range(bounds, var, s, env, q[0])
        for val in _grid(lo, hi):
            r, inst = body(s, {**env, var: val}, q)
            if r is seek:
                return seek, {var: val, **inst}
        return None, {}
    return sample


def _truth(e: Expr) -> Callable:
    """e as a closure (store, env, q) -> (truth, instantiations) for q_eval,
    with q = (box, tol, soft exceptions), cached on the node like
    compile_expr's closure."""
    return cached(e, "_truth", _truth_kids, _truth_node)


def _answers_node(e: Expr) -> frozenset:
    """The answers of one node; its formulas' sets are cached.  A
    connective's are the image of its _KLEENE rule over its kids' answers
    and None, which every kid can give."""
    if isinstance(e, BoolLit):
        return frozenset((e.value,))
    kids = [k.__dict__["_answers"] | {None} for k in _truth_kids(e)]
    combine = _KLEENE.get(type(e))
    if combine is not None:
        return frozenset(combine(*truths) for truths in product(*kids)) - {None}
    if isinstance(e, (Forall, Exists)):
        return kids[0] & {isinstance(e, Exists)}  # the body's value it seeks
    return frozenset((True, False))


def _answers(e: Expr) -> frozenset:
    """The truth values (True, False) that q_eval of e can return, None
    aside, whatever the store, env, box or tol: a sound over-approximation
    built children-first, once per node.  A comparison or any other term
    can give either value; a Forall can only be False and an Exists only
    True, as their grids decide only through an instance."""
    return cached(e, "_answers", _truth_kids, _answers_node)


def q_eval(e: Expr, s, env: dict, box: Box, tol: float = 1e-9,
           strict: bool = False):
    """Three-valued truth of a formula at a store: True, False or None.

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
    return _truth(e)(s, env, (box, tol, soft))


def _inexact(v) -> bool:
    if isinstance(v, float):
        return True
    if isinstance(v, tuple):
        return any(isinstance(u, float) for u in v)
    return False


def _comparison(op: type) -> Callable:
    """The three-valued test (a, b, tol) -> True, False or None of the
    comparison class op, with op's exact test bound here, once per class
    (_COMPARE).

    Exact values compare exactly; a float decides only outside
    tol * (1 + |a| + |b|).  Vectors compare by component under = and !=;
    their order is undecided."""
    test = RELATIONS[op].test
    if op in (Eq, Neq):
        apart = op is Neq  # the answer for values further apart than the margin

        def compare(a, b, tol):
            if not _inexact(a) and not _inexact(b):
                return test(a, b)
            if isinstance(a, tuple) and isinstance(b, tuple):
                if len(a) != len(b):
                    return None
                same = [_COMPARE[Eq](x, y, tol) for x, y in zip(a, b)]
                if False in same:
                    return apart
                return None if None in same else not apart
            if isinstance(a, tuple) or isinstance(b, tuple):
                return None
            fa, fb = float(a), float(b)
            return apart if abs(fa - fb) > tol * (1.0 + abs(fa) + abs(fb)) else None
        return compare
    above = op in (Ge, Gt)  # the answer when a exceeds b by the margin

    def compare(a, b, tol):
        if not _inexact(a) and not _inexact(b):
            return test(a, b)
        if isinstance(a, tuple) or isinstance(b, tuple):
            return None
        fa, fb = float(a), float(b)
        m = tol * (1.0 + abs(fa) + abs(fb))
        hi, lo = (fa, fb) if above else (fb, fa)
        if hi > lo + m:
            return True
        if hi < lo - m:
            return False
        return None
    return compare


_COMPARE = {op: _comparison(op) for op in RELATIONS}


def _scaled_sign(p: Poly, q: Poly, strict: bool) -> Optional[str]:
    """Sign of p given q >= 0 (or > 0), when p = k*q + c for rationals k, c."""
    nc_p = {m: c for m, c in p.terms.items() if m != MONO_ONE}
    nc_q = {m: c for m, c in q.terms.items() if m != MONO_ONE}
    if not nc_q or set(nc_p) != set(nc_q):
        return None
    m0 = next(iter(nc_q))
    k = nc_p[m0] / nc_q[m0]
    if k == 0 or any(nc_p[m] != k * c for m, c in nc_q.items()):
        return None
    c = p.terms.get(MONO_ONE, Fraction(0)) - k * q.terms.get(MONO_ONE, Fraction(0))
    if k > 0:
        if c > 0:
            return ">"
        if c == 0:
            return ">" if strict else ">="
        return None
    if c < 0:
        return "<"
    if c == 0:
        return "<" if strict else "<="
    return None


@functools.lru_cache(maxsize=256)
def _grid(lo: Fraction, hi: Fraction) -> tuple:
    # keep the endpoints exact, thin duplicates; built once per range, as
    # most binders range over the same box at every trial
    width = hi - lo
    return tuple(dict.fromkeys(lo + k * width for k in _STEPS))


_NICE = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2),
         Fraction(2), Fraction(-2), Fraction(10), Fraction(-10))


def _sampler(kind: Kind, lo: Fraction, hi: Fraction) -> Callable[[random.Random], object]:
    """Draws of one value of kind in [lo, hi].

    A real is one of the in-range _NICE values three times in ten, when there
    is one, and otherwise a multiple of 1/1024 (the midpoint's, when no such
    multiple lies in range).  Both are worked out here, once per sampler.
    """
    if kind == BOOL:
        return lambda rng: rng.random() < 0.5
    nice = [v for v in _NICE if lo <= v <= hi]
    a, b = math.ceil(lo * 1024), math.floor(hi * 1024)
    if a > b:
        a = b = math.floor((lo + hi) / 2 * 1024)

    def real(rng: random.Random) -> Fraction:
        if rng.random() < 0.3 and nice:
            return nice[rng.randrange(len(nice))]
        return Fraction(rng.randint(a, b), 1024)

    return real if kind == REAL else lambda rng: tuple(real(rng) for _ in range(kind.dim))


def _store_samplers(ctx: ArithCtx) -> list:
    ds = ctx.dataspace
    return [(n, _sampler(ds.kind_of(n), *ctx.box.for_name(n))) for n in ds.names()]


def sample_store(ctx: ArithCtx, rng: random.Random) -> dict:
    """Raw store values drawn inside the ambient box; assumptions unchecked."""
    return {n: draw(rng) for n, draw in _store_samplers(ctx)}


def falsify(formula: Expr, ctx: ArithCtx, trials: int = 300,
            seed: Optional[int] = None):
    """Search for a counterexample satisfying the ambient assumptions.

    Returns {"store": {...}, "env": {...}} or None.  Deterministic in
    (formula, ctx, seed); any returned witness re-checks False exactly.
    It draws nothing when no trial can find one: when q_eval can never
    make the formula False, or some assumption True (_answers).
    """
    if trials < 1 or False not in _answers(formula) \
            or any(True not in _answers(a) for a in ctx.assumptions):
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
            r, _ = q_eval(a, s, env, ctx.box)
            if r is not True:
                ok = False
                break
        if not ok:
            continue
        r, inst = q_eval(formula, s, env, ctx.box)
        if r is False:
            witness = {"store": vals, "env": {**env, **inst}}
            if not recheck(formula, ctx, witness):
                return witness
    return None


def recheck(formula: Expr, ctx: ArithCtx, witness: dict) -> bool:
    """Exact truth of the formula at a witness; False confirms the refutation."""
    s = ctx.dataspace.make_store(witness["store"])
    r, _ = q_eval(formula, s, dict(witness["env"]), ctx.box)
    return r is not False


# ---------------------------------------------------------------------------
# SMT-LIB export


_SMT_SIMPLE = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789~!@$%^&*_+=<>.?/-"


def _smt_sym(name: str) -> str:
    if name and all(c in _SMT_SIMPLE for c in name) and not name[0].isdigit():
        return name
    return f"|{name}|"


def _smt_rat(v: Fraction) -> str:
    if v < 0:
        return f"(- {_smt_rat(-v)})"
    if v.denominator == 1:
        return f"{v.numerator}.0"
    return f"(/ {v.numerator}.0 {v.denominator}.0)"


# the SMT-LIB operator of each node that translates child by child
_SMT_OPS = {Neg: "-", Add: "+", Sub: "-", Mul: "*", Div: "/", Eq: "=", Le: "<=", Lt: "<",
            Ge: ">=", Gt: ">", Neq: "distinct", And: "and", Or: "or", Implies: "=>",
            Iff: "=", Not: "not", Ite: "ite"}


class _SmtOut:
    def __init__(self, ds: Dataspace):
        self.ds = ds
        self.funs: list = []

    def _fun(self, name: str) -> str:
        if name not in self.funs:
            self.funs.append(name)
        return name

    def term(self, e: Expr) -> str:
        if isinstance(e, RatLit):
            return _smt_rat(e.value)
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, VarRead):
            l = e.lens
            if isinstance(l, Var):
                if vec_dim(e, self.ds) is not None:
                    raise UnsupportedConstruct(
                        f"whole-vector read of {l.name} has no scalar translation")
                return _smt_sym(l.name)
            if isinstance(l, Coord):
                return _smt_sym(f"{l.name}#{l.index}")
            raise UnsupportedConstruct(f"lens {l!r} has no translation")
        if isinstance(e, LogicalVar):
            return _smt_sym(e.name)
        if type(e) in _SMT_OPS:
            args = " ".join(self.term(c) for c in ex.children(e))
            return f"({_SMT_OPS[type(e)]} {args})"
        if isinstance(e, Pow):
            if e.exp == 0:
                return "1.0"
            b = self.term(e.base)
            return b if e.exp == 1 else f"(* {' '.join([b] * e.exp)})"
        if isinstance(e, (Exp, Ln, Sin, Cos, Sqrt)):
            f = self._fun(type(e).__name__.lower())
            return f"({f} {self.term(e.arg)})"
        if isinstance(e, Forall):
            return f"(forall (({_smt_sym(e.var)} Real)) {self.term(e.body)})"
        if isinstance(e, Exists):
            return f"(exists (({_smt_sym(e.var)} Real)) {self.term(e.body)})"
        raise UnsupportedConstruct(f"no SMT translation for {type(e).__name__}")


def _smt_prepare(e: Expr, ds: Dataspace) -> Expr:
    """Expand vector structure so only scalar terms remain."""

    def fn(q: Expr) -> Optional[Expr]:
        try:
            return _vec_eq(q, ds)
        except Unpolyable as err:
            raise UnsupportedConstruct(str(err))

    return poly_normalize(rewrite(e, fn), ds)


def emit_smtlib(formula: Expr, ctx: ArithCtx, name: str = "vc") -> str:
    """Counterexample query: assumptions asserted, the condition negated."""
    ds = ctx.dataspace
    body = _smt_prepare(simplify(formula), ds)
    assumes = [_smt_prepare(a, ds) for a in ctx.assumptions]
    out = _SmtOut(ds)
    neg = out.term(Not(body))
    assume_terms = [out.term(a) for a in assumes]

    has_q = any(has_type(a, (Forall, Exists)) for a in [body] + assumes)
    has_fun = bool(out.funs)
    if has_fun:
        logic = "UFNRA" if has_q else "QF_UFNRA"
    else:
        logic = "NRA" if has_q else "QF_NRA"

    lines = [f"; {name}: unsat means the condition holds", f"(set-logic {logic})"]
    for n in ds.names():
        k = ds.kind_of(n)
        if k == REAL:
            lines.append(f"(declare-const {_smt_sym(n)} Real)")
        elif k == BOOL:
            lines.append(f"(declare-const {_smt_sym(n)} Bool)")
        else:
            lines.extend(f"(declare-const {out.term(VarRead(c))} Real)" for c in ds.coords(n))
    for n in sorted(free_logicals(body) | set().union(*[free_logicals(a) for a in assumes] or [set()])):
        lines.append(f"(declare-const {_smt_sym(n)} Real)")
    for f in out.funs:
        lines.append(f"(declare-fun {f} (Real) Real)")
    for t in assume_terms:
        lines.append(f"(assert {t})")
    lines.append(f"(assert {neg})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# NOTE on Coord translation: _smt_prepare rewrites whole-vector reads into
# coordinates, and the term printer maps Coord(v, i) to v#i, so vector state
# reaches the solver as plain reals.


# ---------------------------------------------------------------------------
# Top-level verdicts


def prove_vc(formula: Expr, ctx: ArithCtx, *, vc_name: str = "vc",
             falsify_trials: int = 300) -> Verdict:
    """Decide a verification condition under the context's assumptions."""
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
        except RecursionError:
            ok = False
        if not ok:
            residual.append(sq)
            break
    if not residual:
        rule = ",".join(sorted(prover.rules)) or "trivial"
        return Verdict("valid", rule=rule)
    w = falsify(formula, ctx, trials=falsify_trials)
    if w is not None:
        return Verdict("invalid", rule="falsify", witness=w)
    return Verdict("unknown", rule="residual",
                   residual=tuple(sq.formula() for sq in residual),
                   query=(formula, ctx, vc_name))
