"""Expression language: terms, predicates, substitutions.

Terms are real-, bool-, or vector-valued and read the store through lenses.
Logical variables are a separate namespace (goal parameters, quantifier
binders, flow time); they never alias store names.  Evaluation is exact over
rationals wherever the operation allows it and falls back to binary64 for
transcendentals.

Substitutions are ordered lens/expression pairs with simultaneous-read
semantics: every right-hand side is evaluated in the pre-state, then the
updates are written in entry order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Union

from .store import (
    BOOL,
    REAL,
    Coord,
    Dataspace,
    Frame,
    Kind,
    KindMismatch,
    LensRef,
    NotPartOf,
    Store,
    Var,
    lens_get,
    lens_indep,
    lens_le,
    lens_put,
    vec,
)


class EvalError(Exception):
    pass


class DivisionByZero(EvalError):
    pass


class LnNonPositive(EvalError):
    pass


class SqrtNegative(EvalError):
    pass


class UnboundLogicalVar(EvalError):
    pass


class UnsupportedConstruct(Exception):
    pass


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class RatLit(Expr):
    value: Fraction

    def __init__(self, value):
        object.__setattr__(self, "value", Fraction(value))


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@dataclass(frozen=True)
class VarRead(Expr):
    lens: LensRef


@dataclass(frozen=True)
class LogicalVar(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exp: int

    def __post_init__(self):
        if not isinstance(self.exp, int) or isinstance(self.exp, bool) or self.exp < 0:
            raise KindMismatch(f"power exponent must be a natural number, got {self.exp!r}")


@dataclass(frozen=True)
class Ln(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True)
class Norm(Expr):
    arg: Expr


@dataclass(frozen=True)
class Inner(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class ScalarMul(Expr):
    scalar: Expr
    arg: Expr


@dataclass(frozen=True)
class VecLit(Expr):
    items: tuple

    def __init__(self, items):
        object.__setattr__(self, "items", tuple(items))


@dataclass(frozen=True)
class Eq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Le(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Lt(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ge(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Gt(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neq(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr


@dataclass(frozen=True)
class Implies(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Iff(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Ite(Expr):
    cond: Expr
    then: Expr
    other: Expr


@dataclass(frozen=True)
class Folded(Expr):
    """A sub-term replaced by its exact value (see fold_constants)."""

    value: object


@dataclass(frozen=True)
class Exists(Expr):
    var: str
    body: Expr


@dataclass(frozen=True)
class Forall(Expr):
    var: str
    body: Expr


TRUE = BoolLit(True)
FALSE = BoolLit(False)
ZERO = RatLit(0)
ONE = RatLit(1)


class Relation(NamedTuple):
    test: Callable      # the exact test on two values
    converse: type      # a <= b is b >= a
    complement: type    # not (a <= b) is a > b


# What each comparison means, for the evaluator, the simplifier, negation
# and atom normalization alike.
RELATIONS = {Eq: Relation(operator.eq, Eq, Neq), Le: Relation(operator.le, Ge, Gt),
             Lt: Relation(operator.lt, Gt, Ge), Ge: Relation(operator.ge, Le, Lt),
             Gt: Relation(operator.gt, Lt, Le), Neq: Relation(operator.ne, Neq, Eq)}
COMPARISONS = tuple(RELATIONS)
# What and and or mean in Kleene's strong three-valued logic, for the
# simplifier, negation and q_eval alike: each maps to the operand value
# that settles it by itself.  An Implies reads as an Or of its negated
# antecedent.
JUNCTIONS = {And: False, Or: True}
CONNECTIVES = (And, Or, Not, Implies, Iff)


def num(x) -> RatLit:
    return RatLit(Fraction(x))


def read(name: str, index: Optional[int] = None) -> VarRead:
    return VarRead(Coord(name, index) if index is not None else Var(name))


def conj(parts) -> Expr:
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def conjuncts(e: Expr) -> list:
    if isinstance(e, And):
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


# ---------------------------------------------------------------------------
# Evaluation


def _exact_sqrt(v: Fraction) -> Optional[Fraction]:
    if v < 0:
        return None
    n, d = v.numerator, v.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _as_vec(v):
    if isinstance(v, tuple):
        return v
    raise KindMismatch(f"expected vector value, got {v!r}")


def _vec_zip(op, sym: str, a, b) -> tuple:
    a, b = _as_vec(a), _as_vec(b)
    if len(a) != len(b):
        raise KindMismatch(f"vector dimensions differ in {sym}")
    return tuple(op(x, y) for x, y in zip(a, b))


def _raiser(cls: type, msg: str) -> Callable:
    def fail(s, env):
        raise cls(msg)
    return fail


# Binary nodes that combine two values with no check of their own; both
# sides are evaluated, connectives included.
_COMBINE = {**{c: r.test for c, r in RELATIONS.items()}, Iff: operator.eq,
            And: lambda a, b: a and b, Or: lambda a, b: a or b,
            Implies: lambda a, b: (not a) or b}


def _compile(e) -> Callable:
    """The closure for one node; children come from compile_expr."""
    if isinstance(e, (RatLit, BoolLit, Folded)):
        value = e.value
        return lambda s, env: value
    if isinstance(e, VarRead):
        lens = e.lens
        if isinstance(lens, Var):
            name = lens.name
            return lambda s, env: s.get(name)
        return lambda s, env: lens_get(lens, s)
    if isinstance(e, LogicalVar):
        name = e.name

        def logical(s, env):
            try:
                return env[name]
            except KeyError:
                raise UnboundLogicalVar(name) from None
        return logical
    if isinstance(e, Neg):
        f = compile_expr(e.arg)

        def neg(s, env):
            v = f(s, env)
            return tuple(-c for c in v) if isinstance(v, tuple) else -v
        return neg
    if isinstance(e, Add):
        fa, fb = compile_expr(e.left), compile_expr(e.right)

        def add(s, env):
            a, b = fa(s, env), fb(s, env)
            if isinstance(a, tuple) or isinstance(b, tuple):
                return _vec_zip(operator.add, "+", a, b)
            return a + b
        return add
    if isinstance(e, Sub):
        fa, fb = compile_expr(e.left), compile_expr(e.right)

        def sub(s, env):
            a, b = fa(s, env), fb(s, env)
            if isinstance(a, tuple) or isinstance(b, tuple):
                return _vec_zip(operator.sub, "-", a, b)
            return a - b
        return sub
    if isinstance(e, Mul):
        fa, fb = compile_expr(e.left), compile_expr(e.right)

        def mul(s, env):
            a, b = fa(s, env), fb(s, env)
            ta, tb = type(a), type(b)
            if (ta is Fraction and tb is float) or (ta is float and tb is Fraction):
                # what Fraction's * does with a float operand, without its
                # operator dispatch
                return float(a) * float(b)
            return a * b
        return mul
    if isinstance(e, Div):
        fa, fb = compile_expr(e.left), compile_expr(e.right)

        def div(s, env):
            a, b = fa(s, env), fb(s, env)
            if b == 0:
                raise DivisionByZero(f"{a} / 0")
            if isinstance(a, Fraction) and isinstance(b, (int, Fraction)):
                return Fraction(a) / Fraction(b)
            return a / b
        return div
    if isinstance(e, Pow):
        f, n = compile_expr(e.base), e.exp
        return lambda s, env: f(s, env) ** n
    if isinstance(e, Ln):
        f = compile_expr(e.arg)

        def ln(s, env):
            v = f(s, env)
            if v <= 0:
                raise LnNonPositive(f"ln({v})")
            return math.log(v)
        return ln
    if isinstance(e, Exp):
        f = compile_expr(e.arg)

        def exp(s, env):
            v = f(s, env)
            if v == 0:
                return Fraction(1)
            return math.exp(v)
        return exp
    if isinstance(e, (Sin, Cos)):
        f, fn = compile_expr(e.arg), math.sin if isinstance(e, Sin) else math.cos
        return lambda s, env: fn(f(s, env))
    if isinstance(e, Sqrt):
        f = compile_expr(e.arg)

        def sqrt(s, env):
            v = f(s, env)
            if v < 0:
                raise SqrtNegative(f"sqrt({v})")
            if isinstance(v, (int, Fraction)):
                r = _exact_sqrt(Fraction(v))
                if r is not None:
                    return r
            return math.sqrt(v)
        return sqrt
    if isinstance(e, Norm):
        f = compile_expr(e.arg)

        def norm(s, env):
            q = sum(c * c for c in _as_vec(f(s, env)))
            if isinstance(q, (int, Fraction)):
                r = _exact_sqrt(Fraction(q))
                if r is not None:
                    return r
            return math.sqrt(q)
        return norm
    if isinstance(e, Inner):
        fa, fb = compile_expr(e.left), compile_expr(e.right)

        def inner(s, env):
            a, b = _as_vec(fa(s, env)), _as_vec(fb(s, env))
            if len(a) != len(b):
                raise KindMismatch("vector dimensions differ in inner product")
            return sum(x * y for x, y in zip(a, b))
        return inner
    if isinstance(e, ScalarMul):
        fk, f = compile_expr(e.scalar), compile_expr(e.arg)

        def scale(s, env):
            k = fk(s, env)
            return tuple(k * c for c in _as_vec(f(s, env)))
        return scale
    if isinstance(e, VecLit):
        fs = tuple(compile_expr(i) for i in e.items)
        return lambda s, env: tuple(f(s, env) for f in fs)
    if type(e) in _COMBINE:
        fa, fb, op = compile_expr(e.left), compile_expr(e.right), _COMBINE[type(e)]
        return lambda s, env: op(fa(s, env), fb(s, env))
    if isinstance(e, Not):
        f = compile_expr(e.arg)
        return lambda s, env: not f(s, env)
    if isinstance(e, Ite):
        fc, ft, fo = compile_expr(e.cond), compile_expr(e.then), compile_expr(e.other)
        return lambda s, env: ft(s, env) if fc(s, env) else fo(s, env)
    if isinstance(e, (Exists, Forall)):
        return _raiser(UnsupportedConstruct, "quantifiers have no direct evaluation")
    return _raiser(UnsupportedConstruct, f"cannot evaluate {e!r}")


def cached(e: Expr, key: str, kids: Callable, build: Callable):
    """build(e), built once per node and cached in the frozen node's
    __dict__ under key, outside its fields, so ==, hash and repr do not see
    it.  The nodes kids(node) names are built before node, from an explicit
    stack: build then finds each of them cached, so a deep tree builds
    without deep recursion."""
    out = e.__dict__.get(key)
    if out is None:
        stack = [(e, False)]
        while stack:
            node, kids_done = stack.pop()
            if key in node.__dict__:
                continue
            if kids_done:
                node.__dict__[key] = build(node)
                continue
            stack.append((node, True))
            stack.extend((k, False) for k in kids(node))
        out = e.__dict__[key]
    return out


def compile_expr(e: Expr) -> Callable:
    """e as a closure (store, env) -> value, cached on the node.

    It reads whatever the store holds: exact rationals evaluate exactly and
    floats in binary64.  Errors are raised when the closure is called."""
    if not isinstance(e, Expr):
        return _compile(e)
    return cached(e, "_compiled", _kids, _compile)


def eval_expr(e: Expr, s: Store, env: Optional[dict] = None) -> Union[Fraction, float, bool, tuple]:
    """Evaluate e in store s with env supplying logical variables."""
    return compile_expr(e)(s, env or {})


# Nodes fold_constants leaves as they are: those whose value is a truth
# value whatever the store holds, and literals, which are their value.
_UNFOLDED = (BoolLit, Exists, Forall, RatLit, Folded) + COMPARISONS + CONNECTIVES


def fold_constants(e: Expr, s: Store, frame: Frame, formula: bool = False) -> Expr:
    """e with each maximal sub-term that stays constant along an orbit from s
    replaced by Folded(its value at s), exact as eval_expr computes it.

    A sub-term is constant when it reads no lens that overlaps frame and no
    logical variable, so flow time tau never folds.  Truth values never fold,
    so every comparison keeps its float margin under q_eval.  A sub-term
    whose evaluation raises stays as it is, and raises (or is soft) where it
    did; its constant parts still fold.  Quantifiers are kept whole, and so,
    when e is a formula for q_eval, is an if-then-else in a truth position,
    which q_eval splits.  An if-then-else that does not fold whole folds in
    its condition only: its branches stay as they are, so a constant branch
    is still evaluated only when the orbit reaches it.  The walk is
    rewrite's, with one callback for term positions and one for truth
    positions, and a nested rewrite for an if-then-else's condition."""
    def cond_only(t, fn):
        c = rewrite(t.cond, fn)
        return t if c is t.cond else Ite(c, t.then, t.other)

    def term(t):
        if isinstance(t, (Exists, Forall)):
            return t
        if not (isinstance(t, _UNFOLDED) or free_logicals(t)
                or has_type(t, (Exists, Forall)) or not unrest(frame, t)):
            try:
                v = compile_expr(t)(s, {})
            except Exception:
                pass  # whatever it is, the unfolded node raises it again
            else:
                if not isinstance(v, bool):
                    return Folded(v)
        return cond_only(t, term) if isinstance(t, Ite) else None

    def truth(t):
        if isinstance(t, CONNECTIVES):
            return None
        if isinstance(t, Ite):
            return cond_only(t, truth)
        return rewrite(t, term)

    return rewrite(e, truth if formula else term)


# ---------------------------------------------------------------------------
# Structure queries


# Each node type's children, as a tuple.
_CHILDREN = {
    **dict.fromkeys((RatLit, BoolLit, VarRead, LogicalVar, Folded), lambda e: ()),
    **dict.fromkeys((Neg, Ln, Exp, Sin, Cos, Sqrt, Norm, Not), lambda e: (e.arg,)),
    Pow: lambda e: (e.base,),
    **dict.fromkeys((Add, Sub, Mul, Div, Inner, Eq, Le, Lt, Ge, Gt, Neq, And, Or, Implies, Iff),
                    operator.attrgetter("left", "right")),
    ScalarMul: operator.attrgetter("scalar", "arg"),
    VecLit: operator.attrgetter("items"),
    Ite: operator.attrgetter("cond", "then", "other"),
    **dict.fromkeys((Exists, Forall), lambda e: (e.body,)),
}


def children(e: Expr) -> tuple:
    try:
        return _CHILDREN[type(e)](e)
    except KeyError:
        raise UnsupportedConstruct(f"unknown node {e!r}") from None


# How many levels an expression tree may have, in a parsed model and in a
# condition the prover takes on.  A left-associated chain such as
# x + x + ... + x is one level per operator, and kind checking, evaluation,
# polynomial normalization and dataclass == recurse over it, up to two
# interpreter frames per level.  This keeps them inside the interpreter's
# limit; every shipped model stays under 10 levels.
MAX_DEPTH = 256


def _kids(e: Expr) -> tuple:
    """The children cached values are built from: none for an unknown node."""
    get = _CHILDREN.get(type(e))
    return () if get is None else get(e)


# Each node's structural facts are built once, children first, through
# cached, and only when asked for: its hash, its depth, its free logicals,
# the lenses it reads and the set of node types in its tree, as a bitmask.
# Nodes are immutable, so a fact never goes stale.

_NODE_TYPES = tuple(Expr.__subclasses__())
_BIT = {cls: 1 << i for i, cls in enumerate(_NODE_TYPES)}
_MASKS = {}  # a type or tuple of types -> the bits of the node types it covers
# The dataclass hash of each node type: the hash of its fields' tuple.  A
# node's children are hashed, and so cached, before it.
_FIELDS_HASH = {cls: cls.__hash__ for cls in _NODE_TYPES}


def _fields_hash(e: Expr) -> int:
    return _FIELDS_HASH.get(type(e), type(e).__hash__)(e)


def _hash(e: Expr) -> int:
    h = e.__dict__.get("_hash")  # the common case, ahead of a call to cached
    return h if h is not None else cached(e, "_hash", _kids, _fields_hash)


for _cls in _NODE_TYPES:
    _cls.__hash__ = _hash


def _depth_of(e: Expr) -> int:
    return 1 + max((k.__dict__["_depth"] for k in _kids(e)), default=0)


def depth(e: Expr) -> int:
    """The number of levels in e's tree."""
    return cached(e, "_depth", _kids, _depth_of)


def _kinds_of(e: Expr) -> int:
    out = _BIT.get(type(e), 0)
    for k in _kids(e):
        out |= k.__dict__["_kinds"]
    return out


def has_type(e: Expr, types) -> bool:
    """Some sub-term of e, e included, is an instance of types (a type or a
    tuple of types), as a subterms scan with isinstance would tell."""
    kinds = cached(e, "_kinds", _kids, _kinds_of)
    mask = _MASKS.get(types)
    if mask is None:
        mask = _MASKS[types] = sum(b for cls, b in _BIT.items() if issubclass(cls, types))
    return bool(kinds & mask)


def rebuild(e: Expr, kids: tuple) -> Expr:
    if isinstance(e, (RatLit, BoolLit, VarRead, LogicalVar, Folded)):
        return e
    if isinstance(e, Pow):
        return Pow(kids[0], e.exp)
    if isinstance(e, (Neg, Ln, Exp, Sin, Cos, Sqrt, Norm, Not)):
        return type(e)(kids[0])
    if isinstance(e, ScalarMul):
        return ScalarMul(kids[0], kids[1])
    if isinstance(e, VecLit):
        return VecLit(kids)
    if isinstance(e, Ite):
        return Ite(kids[0], kids[1], kids[2])
    if isinstance(e, (Exists, Forall)):
        return type(e)(e.var, kids[0])
    return type(e)(*kids)


def subterms(e: Expr, stop: tuple = ()):
    """Every sub-term of e, e first, in pre-order, left to right, from an
    explicit stack.  The walk does not go below a node of a type in stop."""
    stack = [e]
    while stack:
        t = stack.pop()
        yield t
        if not isinstance(t, stop):
            stack += children(t)[::-1]


def rewrite(e: Expr, fn: Callable) -> Expr:
    """e with each outermost sub-term t for which fn(t) is not None replaced
    by fn(t), found top-down from an explicit stack.  A node is rebuilt only
    when one of its children changed; otherwise it is returned as it is, so
    caches on untouched sub-trees (compile_expr, simplify) survive."""
    done = []  # the results of finished sub-terms, left to right
    stack = [(e, None)]
    while stack:
        t, kids = stack.pop()
        if kids is None:
            new = fn(t)
            if new is not None:
                done.append(new)
                continue
            kids = children(t)
            if not kids:
                done.append(t)
                continue
            stack.append((t, kids))
            stack += [(k, None) for k in kids[::-1]]
            continue
        new = tuple(done[-len(kids):])
        del done[-len(kids):]
        same = all(a is b for a, b in zip(new, kids))
        done.append(t if same else rebuild(t, new))
    return done[0]


def _lenses_of(e: Expr) -> tuple:
    if isinstance(e, VarRead):
        return (e.lens,)
    out = ()
    for k in _kids(e):
        more = k.__dict__["_lenses"]
        if more:
            out = tuple(dict.fromkeys(out + more)) if out else more
    return out


def free_lenses(e: Expr) -> tuple:
    """Primitive lenses read anywhere in e, in first-occurrence order."""
    return cached(e, "_lenses", _kids, _lenses_of)


_NO_NAMES = frozenset()


def _free_of(e: Expr) -> frozenset:
    if isinstance(e, LogicalVar):
        return frozenset((e.name,))
    out = _NO_NAMES
    for k in _kids(e):
        more = k.__dict__["_free"]
        if more:
            out = out | more if out else more
    if isinstance(e, (Exists, Forall)) and e.var in out:
        out = out - {e.var}
    return out


def free_logicals(e: Expr) -> frozenset:
    """Logical variables of e not bound by a quantifier around them."""
    return cached(e, "_free", _kids, _free_of)


def fresh_logical(base: str, avoid: set) -> str:
    if base not in avoid:
        return base
    i = 1
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def unrest(a: Frame, e: Expr) -> bool:
    """e cannot observe writes through a: no lens read in e overlaps the frame.

    Checked syntactically, which is sound (never claims unrest of an
    observing expression) but incomplete for reads that cancel out.
    """
    return not any(a.overlaps(l) for l in free_lenses(e))


def total(e: Expr) -> bool:
    """No partial operation anywhere in e (safe to duplicate or drop)."""
    return not has_type(e, (Div, Ln, Sqrt))


def substitute(e: Expr, fn: Callable, matched: tuple, returned: tuple) -> Expr:
    """e with each outermost free sub-term t for which fn(t) is not None
    replaced by fn(t).  fn matches only terms whose logicals are among those
    of the matched terms, and returns only terms whose logicals are among
    those of the returned terms.  The walk does not go below a binder of a
    logical of the matched terms, where a match would not be free, and it
    renames apart a binder of a logical of the returned terms before going
    below it, so that no replacement is captured."""
    if not has_type(e, (Exists, Forall)):
        return rewrite(e, fn)
    bound = _NO_NAMES.union(*map(free_logicals, matched))
    free = _NO_NAMES.union(*map(free_logicals, returned))

    def walk(t):
        new = fn(t)
        if new is not None or not isinstance(t, (Exists, Forall)):
            return new
        if t.var in bound:
            return t
        if t.var not in free:
            return None
        var = fresh_logical(t.var, free | free_logicals(t.body) | bound)
        return type(t)(var, rewrite(subst_logical(t.body, t.var, LogicalVar(var)), walk))

    return rewrite(e, walk)


def subst_term(e: Expr, target: Expr, repl: Expr) -> Expr:
    """Replace each free occurrence of the term target by repl."""
    return substitute(e, lambda t: repl if t == target else None, (target,), (repl,))


def subst_logical(e: Expr, name: str, replacement: Expr) -> Expr:
    """Replace the free logical variable name by replacement."""
    return subst_term(e, LogicalVar(name), replacement)


# ---------------------------------------------------------------------------
# Substitutions


def vec_dim(e: Expr, ds: Optional[Dataspace]) -> Optional[int]:
    """The dimension of a vector-valued expression, or None when e is no
    vector term; whole-vector reads need ds to tell."""
    if isinstance(e, VecLit):
        return len(e.items)
    if isinstance(e, VarRead) and isinstance(e.lens, Var) and ds:
        k = ds.kind_of(e.lens.name)
        return k.dim if k.base == "vec" else None
    if isinstance(e, (Neg, ScalarMul)):
        return vec_dim(e.arg, ds)
    if isinstance(e, (Add, Sub)):
        return vec_dim(e.left, ds) or vec_dim(e.right, ds)
    if isinstance(e, Ite):
        return vec_dim(e.then, ds) or vec_dim(e.other, ds)
    return None


def vec_component(e: Expr, i: int) -> Expr:
    """Project component i (1-based) out of a vector-valued expression."""
    if e == ZERO:  # what differentiation returns for a frame constant
        return ZERO
    if isinstance(e, VecLit):
        if not 1 <= i <= len(e.items):
            raise NotPartOf(f"component {i} of {len(e.items)}-vector literal")
        return e.items[i - 1]
    if isinstance(e, VarRead) and isinstance(e.lens, Var):
        return VarRead(Coord(e.lens.name, i))
    if isinstance(e, ScalarMul):
        return Mul(e.scalar, vec_component(e.arg, i))
    if isinstance(e, (Add, Sub)):
        return type(e)(vec_component(e.left, i), vec_component(e.right, i))
    if isinstance(e, Neg):
        return Neg(vec_component(e.arg, i))
    if isinstance(e, Ite):
        return Ite(e.cond, vec_component(e.then, i), vec_component(e.other, i))
    raise UnsupportedConstruct(f"cannot project component {i} of {e!r}")


class Subst:
    """Ordered lens updates with all right-hand sides read in the pre-state."""

    __slots__ = ("entries", "dataspace")

    def __init__(self, entries=(), dataspace: Optional[Dataspace] = None):
        self.entries = tuple((l, e) for l, e in entries)
        self.dataspace = dataspace

    def update(self, l: LensRef, e: Expr) -> "Subst":
        return Subst(self.entries + ((l, e),), self.dataspace)

    def apply(self, s: Store, env: Optional[dict] = None) -> Store:
        vals = [eval_expr(e, s, env) for _, e in self.entries]
        out = s
        for (l, _), v in zip(self.entries, vals):
            out = lens_put(l, v, out)
        return out

    def lookup(self, x: LensRef) -> Expr:
        """The expression this substitution assigns through x."""
        return self._lookup(x, self.entries)

    def _lookup(self, x: LensRef, entries) -> Expr:
        if not entries:
            return VarRead(x)
        m, e = entries[-1]
        rest = entries[:-1]
        if lens_le(x, m):
            if x == m:
                return e
            if isinstance(x, Coord) and isinstance(m, Var):
                return vec_component(e, x.index)
            raise NotPartOf(f"cannot read {x!r} out of update through {m!r}")
        if lens_indep(x, m):
            return self._lookup(x, rest)
        # Partial overlap: x is a whole vector, m a coordinate of it.
        if isinstance(x, Var) and isinstance(m, Coord) and x.name == m.name:
            if self.dataspace is None:
                raise NotPartOf(f"need a dataspace to assemble {x!r} from coordinate updates")
            return VecLit(tuple(self._lookup(c, entries) for c in self.dataspace.coords(x.name)))
        raise NotPartOf(f"cannot resolve read of {x!r} against update of {m!r}")

    def lenses(self) -> tuple:
        return tuple(l for l, _ in self.entries)

    def __eq__(self, other):
        return isinstance(other, Subst) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        inside = ", ".join(f"{l!r} ~> {e!r}" for l, e in self.entries)
        return f"[{inside}]"


def subst_apply_expr(q: Expr, sigma: Subst) -> Expr:
    """Push sigma through q so that evaluating the result in s matches
    evaluating q in sigma(s)."""
    return substitute(q, lambda t: sigma.lookup(t.lens) if isinstance(t, VarRead) else None,
                      (), tuple(e for _, e in sigma.entries))


# ---------------------------------------------------------------------------
# Kinds


def kind_of(e: Expr, dataspace: Dataspace) -> Kind:
    """Infer the kind of e, checking child kinds along the way; logicals are real.

    ko is a generator that yields each child whose kind it needs and is sent
    that kind back; an explicit stack of them replaces recursion, so a deep
    tree is kinded without deep interpreter frames, and the checks run in
    the order a recursive walk would run them."""

    def ko(e):
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
            kids = []
            for k in children(e):
                kids.append((yield k))
            k0 = kids[0]
            if any(k != k0 for k in kids) or k0 == BOOL:
                raise KindMismatch(f"arithmetic on mixed kinds in {e!r}")
            return k0
        if isinstance(e, (Mul, Div)):
            for k in children(e):
                if (yield k) != REAL:
                    raise KindMismatch(f"non-real operand in {e!r}")
            return REAL
        if isinstance(e, Pow):
            if (yield e.base) != REAL:
                raise KindMismatch("power base must be real")
            return REAL
        if isinstance(e, (Ln, Exp, Sin, Cos, Sqrt)):
            if (yield e.arg) != REAL:
                raise KindMismatch(f"non-real argument in {e!r}")
            return REAL
        if isinstance(e, Norm):
            k = (yield e.arg)
            if k.base != "vec":
                raise KindMismatch("norm of a non-vector")
            return REAL
        if isinstance(e, Inner):
            ka, kb = (yield e.left), (yield e.right)
            if ka.base != "vec" or ka != kb:
                raise KindMismatch("inner product needs two vectors of equal dimension")
            return REAL
        if isinstance(e, ScalarMul):
            if (yield e.scalar) != REAL:
                raise KindMismatch("scalar of a scaling must be real")
            k = (yield e.arg)
            if k.base != "vec":
                raise KindMismatch("scaling a non-vector")
            return k
        if isinstance(e, VecLit):
            for i in e.items:
                if (yield i) != REAL:
                    raise KindMismatch("vector literal components must be real")
            return vec(len(e.items))
        if isinstance(e, (Eq, Neq)):
            ka, kb = (yield e.left), (yield e.right)
            if ka != kb:
                raise KindMismatch(f"comparing {ka!r} with {kb!r}")
            return BOOL
        if isinstance(e, (Le, Lt, Ge, Gt)):
            if (yield e.left) != REAL or (yield e.right) != REAL:
                raise KindMismatch(f"ordering on non-reals in {e!r}")
            return BOOL
        if isinstance(e, (And, Or, Implies, Iff)):
            if (yield e.left) != BOOL or (yield e.right) != BOOL:
                raise KindMismatch(f"connective over non-bools in {e!r}")
            return BOOL
        if isinstance(e, Not):
            if (yield e.arg) != BOOL:
                raise KindMismatch("negating a non-bool")
            return BOOL
        if isinstance(e, Ite):
            if (yield e.cond) != BOOL:
                raise KindMismatch("if-condition must be bool")
            kt, ke = (yield e.then), (yield e.other)
            if kt != ke:
                raise KindMismatch(f"if-branches disagree: {kt!r} vs {ke!r}")
            return kt
        if isinstance(e, (Exists, Forall)):
            if (yield e.body) != BOOL:
                raise KindMismatch("quantifier body must be bool")
            return BOOL
        raise UnsupportedConstruct(f"cannot kind {e!r}")

    stack, kind = [ko(e)], None
    while True:
        try:
            child = stack[-1].send(kind)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            kind = done.value
        else:
            stack.append(ko(child))
            kind = None


# ---------------------------------------------------------------------------
# Simplification


def _fold_binop(e, a, b):
    """The literal a - b or a / b, for e a Sub or a Div; None when either
    operand is not a literal or the divisor is 0."""
    if isinstance(a, RatLit) and isinstance(b, RatLit):
        if isinstance(e, Sub):
            return RatLit(a.value - b.value)
        if isinstance(e, Div) and b.value != 0:
            return RatLit(a.value / b.value)
    return None


def _flatten(cls, e):
    """The operands of a chain of cls nodes, left to right, from an explicit
    stack."""
    out, stack = [], [e]
    while stack:
        t = stack.pop()
        if isinstance(t, cls):
            stack.append(t.right)
            stack.append(t.left)
        else:
            out.append(t)
    return out


def _rebalance(cls, terms, unit):
    if not terms:
        return unit
    out = terms[0]
    for t in terms[1:]:
        out = cls(out, t)
    return out


_SAME = object()  # the cached result of a node that is its own simplification


def _simplified(t: Expr) -> Expr:
    """t's cached simplification; t itself when it caches _SAME or nothing."""
    out = t.__dict__.get("_simplified", _SAME)
    return t if out is _SAME else out


def simplify(e: Expr) -> Expr:
    """Local, evaluation-preserving cleanup: constant folding, units, and
    literal branches.  Rewrites that drop a subterm require it total.

    Each node's result is computed once and cached in the frozen node's
    __dict__, outside its fields, as compile_expr caches its closure.  The
    walk goes children first, from an explicit stack.  A node whose
    simplified children are its own is kept, not rebuilt, and a normal sum
    or product chain comes back whole; so a term that is its own
    simplification comes back as the same object, and a later pass over it
    is one lookup.  A second pass can fold further, so the cache maps an
    input node to its result and nothing else: a result is never marked as
    simplified.  A childless node is its own result and caches nothing; a
    node that is its own result caches _SAME, not itself, so that it holds
    no reference to itself and reference counting frees it."""
    if isinstance(e, Expr):
        out = e.__dict__.get("_simplified")
        if out is not None:
            return e if out is _SAME else out
    stack = [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            if "_simplified" not in node.__dict__:
                kids = children(node)
                if kids:
                    stack.append((node, kids))
                    stack.extend((k, None) for k in kids)
            continue
        new = tuple(_simplified(k) for k in kids)
        same = all(a is b for a, b in zip(new, kids))
        out = _simplify_node(node if same else rebuild(node, new))
        node.__dict__["_simplified"] = _SAME if out is node else out
    return _simplified(e)


def _simplify_node(e: Expr) -> Expr:
    """The rewrite at e's root; e's children are simplified already.  A
    rewrite that builds a new node simplifies it whole, as a fresh input.

    A simplified sum is a left-nested chain of terms that are neither sums
    nor literals, but for one nonzero literal last; a simplified product is
    a chain of factors the same way, with its one literal (never 1) first.
    So a sum keeps its left chain, bar the literal, and appends the right
    operand's terms, in time linear in the right chain only; a term that is
    not a product joins a product chain in O(1).  Neither chain is flattened
    and rebuilt at each level, and a chain already in that form is returned
    as it is; the full rule gives an equal tree."""
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
        a, b, c = e.left, e.right, Fraction(0)
        if isinstance(a, Add) and isinstance(a.right, RatLit):
            a, c = a.left, a.right.value
        elif isinstance(a, RatLit):
            a, c = None, a.value
        # a normal chain plus one term, or plus its one nonzero literal
        if a is e.left and not isinstance(b, Add) and not (
                isinstance(b, RatLit) and b.value == 0):
            return e
        for t in _flatten(Add, b):
            if isinstance(t, RatLit):
                c += t.value
            else:
                a = t if a is None else Add(a, t)
        if c != 0 or a is None:
            a = RatLit(c) if a is None else Add(a, RatLit(c))
        return a

    if isinstance(e, Sub):
        f = _fold_binop(e, e.left, e.right)
        if f is not None:
            return f
        if isinstance(e.right, RatLit) and e.right.value == 0:
            return e.left
        if isinstance(e.left, RatLit) and e.left.value == 0:
            return simplify(Neg(e.right))
        return e

    if isinstance(e, Mul):
        a, b = e.left, e.right
        if not isinstance(b, (Mul, RatLit)):
            if not isinstance(a, RatLit):
                return e
            # its one literal first: normal unless 1, or a 0 that can drop b
            if a.value != 1 and (a.value != 0 or not total(b)):
                return e
        factors = _flatten(Mul, e)
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
            terms = [simplify(Mul(x, y)) for x, y in zip(a.items, b.items)]
            return simplify(_rebalance(Add, terms, ZERO))
        return e

    if isinstance(e, ScalarMul):
        if isinstance(e.scalar, RatLit) and e.scalar.value == 1:
            return e.arg
        if isinstance(e.arg, VecLit):
            return simplify(VecLit(tuple(Mul(e.scalar, i) for i in e.arg.items)))
        return e

    if isinstance(e, COMPARISONS):
        a, b = e.left, e.right
        if isinstance(a, RatLit) and isinstance(b, RatLit):
            return BoolLit(RELATIONS[type(e)].test(a.value, b.value))
        if isinstance(a, BoolLit) and isinstance(b, BoolLit) and isinstance(e, (Eq, Neq)):
            return BoolLit((a.value == b.value) == isinstance(e, Eq))
        if a == b and total(a) and isinstance(e, (Eq, Le, Ge)):
            return TRUE
        if a == b and total(a) and isinstance(e, (Neq, Lt, Gt)):
            return FALSE
        if isinstance(e, Eq) and isinstance(a, VecLit) and isinstance(b, VecLit) \
                and len(a.items) == len(b.items):
            return simplify(conj(Eq(x, y) for x, y in zip(a.items, b.items)))
        return e

    if type(e) in JUNCTIONS:
        settle = JUNCTIONS[type(e)]
        for lit, other in ((e.left, e.right), (e.right, e.left)):
            if isinstance(lit, BoolLit):
                if lit.value != settle:
                    return other
                return BoolLit(settle) if total(other) else e
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
            return b if a.value else simplify(Not(b))
        if isinstance(b, BoolLit):
            return a if b.value else simplify(Not(a))
        return e

    if isinstance(e, Ite):
        if isinstance(e.cond, BoolLit):
            return e.then if e.cond.value else e.other
        if e.then == e.other and total(e.cond):
            return e.then
        return e

    return e
