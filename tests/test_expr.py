import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsverify import expr as ex
from hsverify.expr import (
    Add,
    And,
    BoolLit,
    DivisionByZero,
    Div,
    Eq,
    Exists,
    Forall,
    Implies,
    Inner,
    Ite,
    Le,
    LnNonPositive,
    Ln,
    LogicalVar,
    Mul,
    Neg,
    Norm,
    Not,
    Pow,
    RatLit,
    ScalarMul,
    Sqrt,
    SqrtNegative,
    Sub,
    Subst,
    TRUE,
    UnboundLogicalVar,
    VarRead,
    VecLit,
    compile_expr,
    eval_expr,
    free_lenses,
    free_logicals,
    kind_of,
    num,
    read,
    simplify,
    subst_apply_expr,
    subst_logical,
    unrest,
)
from hsverify.store import (
    BOOL, Coord, CoordOutOfRange, Dataspace, Frame, KindMismatch, REAL, Var, lens_put, vec,
)

from helpers import (
    rand_any_expr,
    rand_rat,
    rand_store,
    rand_subst,
    rand_total_expr,
    reference_eval,
    small_dataspace,
)


def _store(**kw):
    ds = small_dataspace()
    base = {"a": 0, "b": 0, "v": (0, 0), "w": (0, 0, 0), "flag": False}
    base.update(kw)
    return ds.make_store(base)


def test_eval_exact_rationals():
    s = _store(a=Fraction(1, 3), b=Fraction(1, 6))
    e = Add(read("a"), read("b"))
    assert eval_expr(e, s) == Fraction(1, 2)
    assert eval_expr(Div(read("a"), read("b")), s) == 2
    assert eval_expr(Pow(read("a"), 2), s) == Fraction(1, 9)


def test_eval_partial_ops_raise():
    s = _store(a=Fraction(0), b=Fraction(-1))
    with pytest.raises(DivisionByZero):
        eval_expr(Div(num(1), read("a")), s)
    with pytest.raises(LnNonPositive):
        eval_expr(Ln(read("a")), s)
    with pytest.raises(SqrtNegative):
        eval_expr(Sqrt(read("b")), s)
    with pytest.raises(UnboundLogicalVar):
        eval_expr(LogicalVar("T"), s)
    assert eval_expr(LogicalVar("T"), s, {"T": Fraction(5)}) == 5


def test_eval_vector_ops_exact():
    s = _store(v=(Fraction(3), Fraction(4)))
    assert eval_expr(Norm(read("v")), s) == 5
    assert isinstance(eval_expr(Norm(read("v")), s), Fraction)
    assert eval_expr(Inner(read("v"), read("v")), s) == 25
    assert eval_expr(ScalarMul(num(2), read("v")), s) == (6, 8)
    assert eval_expr(VecLit((num(1), read("a"))), s) == (1, 0)
    assert eval_expr(Eq(read("v"), VecLit((num(3), num(4)))), s) is True


def test_eval_ite_is_lazy():
    s = _store(a=Fraction(0))
    e = Ite(Eq(read("a"), num(0)), num(7), Div(num(1), read("a")))
    assert eval_expr(e, s) == 7


def _outcome(evaluate, e, s, env):
    """What evaluating e gives: each value with its type, or the error."""
    def canon(v):
        return tuple(canon(c) for c in v) if isinstance(v, tuple) else (type(v), repr(v))
    try:
        return canon(evaluate(e, s, env))
    except Exception as err:
        return type(err), str(err)


def _float_twin(s):
    """The store s with every real, and every vector component, as a float."""
    def f(v):
        if isinstance(v, tuple):
            return tuple(float(c) for c in v)
        return v if isinstance(v, bool) else float(v)
    return s.dataspace.make_store({n: f(v) for n, v in s.items()})


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compiled_matches_reference_walker(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    e = rand_any_expr(rng, ds, 4)
    exact = rand_store(rng, ds)
    p = rand_rat(rng)
    for s, env in ((exact, {"p": p}), (_float_twin(exact), {"p": float(p)})):
        assert _outcome(eval_expr, e, s, env) == _outcome(reference_eval, e, s, env)


@pytest.mark.parametrize("e,err", [
    (Div(read("a"), Sub(read("b"), read("b"))), DivisionByZero),
    (Ln(Neg(read("a"))), LnNonPositive),
    (Sqrt(Neg(read("a"))), SqrtNegative),
    (Add(read("a"), LogicalVar("q")), UnboundLogicalVar),
    (Add(read("v"), read("w")), KindMismatch),
    (Norm(read("a")), KindMismatch),
    (read("flag", 1), KindMismatch),
    (read("v", 3), CoordOutOfRange),
    (Exists("p", Eq(LogicalVar("p"), read("a"))), ex.UnsupportedConstruct),
])
def test_compiled_raises_what_the_reference_raises(e, err):
    exact = _store(a=Fraction(1, 2), b=Fraction(3), v=(Fraction(1), Fraction(2)))
    for s in (exact, _float_twin(exact)):
        got = _outcome(eval_expr, e, s, {"p": 1})
        assert got[0] is err
        assert got == _outcome(reference_eval, e, s, {"p": 1})


def test_compiled_cache_is_invisible():
    e = Add(read("x"), read("v", 2))
    twin = Add(read("x"), read("v", 2))
    before = (repr(e), hash(e))
    narrow = Dataspace("narrow")
    narrow.declare("x", REAL)
    narrow.declare("v", vec(2))
    wide = Dataspace("wide")
    wide.declare("v", vec(3))
    wide.declare("y", BOOL)
    wide.declare("x", REAL)
    s1 = narrow.make_store({"x": Fraction(1, 2), "v": (Fraction(1), Fraction(2))})
    s2 = wide.make_store({"v": (1.0, 2.5, 4.0), "y": True, "x": 3.0})
    assert eval_expr(e, s1) == Fraction(5, 2)
    assert eval_expr(e, s2) == 5.5
    assert eval_expr(e, s1) == Fraction(5, 2)
    assert compile_expr(e) is compile_expr(e)
    assert (repr(e), hash(e)) == before
    assert e == twin and twin == e and e in {twin}
    # the coordinate check reads each store's own dataspace
    third = read("v", 3)
    assert eval_expr(third, s2) == 4.0
    with pytest.raises(CoordOutOfRange):
        eval_expr(third, s1)


def test_deep_tree_compiles_without_deep_recursion():
    # a left-nested product 600 deep: evaluation needs one frame per level,
    # as the walker did, and compiling must need no more
    e = read("a")
    for _ in range(600):
        e = Mul(e, read("a"))
    s = _store(a=Fraction(-1))
    assert eval_expr(e, s) == reference_eval(e, s) == -1  # 601 factors


def test_subst_simultaneous_read():
    ds = small_dataspace()
    s = _store(a=Fraction(1), b=Fraction(2))
    swap = Subst(((Var("a"), read("b")), (Var("b"), read("a"))), ds)
    s2 = swap.apply(s)
    assert s2.get("a") == 2 and s2.get("b") == 1


def test_subst_later_entry_wins():
    ds = small_dataspace()
    s = _store(a=Fraction(1))
    sigma = Subst((), ds).update(Var("a"), num(5)).update(Var("a"), num(9))
    assert sigma.apply(s).get("a") == 9
    assert sigma.lookup(Var("a")) == num(9)


def test_subst_lookup_through_vector_updates():
    ds = small_dataspace()
    sigma = Subst(((Var("v"), VecLit((read("a"), read("b")))),), ds)
    assert sigma.lookup(Coord("v", 1)) == read("a")
    assert sigma.lookup(Var("a")) == read("a")

    sigma2 = Subst(((Coord("v", 2), num(7)),), ds)
    assert sigma2.lookup(Coord("v", 2)) == num(7)
    assert sigma2.lookup(Var("v")) == VecLit((read("v", 1), num(7)))


def test_subst_lookup_independent_passthrough():
    ds = small_dataspace()
    sigma = Subst(((Var("a"), num(1)),), ds)
    assert sigma.lookup(Var("b")) == read("b")


def test_subst_apply_expr_coherence_random():
    rng = random.Random(42)
    ds = small_dataspace()
    for _ in range(150):
        e = rand_total_expr(rng, ds)
        sigma = rand_subst(rng, ds)
        s = rand_store(rng, ds)
        lhs = eval_expr(subst_apply_expr(e, sigma), s)
        rhs = eval_expr(e, sigma.apply(s))
        assert lhs == rhs or abs(float(lhs) - float(rhs)) < 1e-9


def test_subst_apply_expr_renames_captured_binders():
    q = Exists("u", Eq(read("a"), LogicalVar("u")))
    sigma = Subst(((Var("a"), LogicalVar("u")),))
    out = subst_apply_expr(q, sigma)
    assert isinstance(out, Exists)
    assert out.var != "u"
    assert out.body == Eq(LogicalVar("u"), LogicalVar(out.var))


def test_subst_logical():
    e = Add(LogicalVar("tau"), read("a"))
    assert subst_logical(e, "tau", num(0)) == Add(num(0), read("a"))
    q = Forall("tau", Le(LogicalVar("tau"), read("a")))
    assert subst_logical(q, "tau", num(1)) == q


def test_free_sets():
    e = And(Eq(read("a"), LogicalVar("F")), Exists("G", Le(read("v", 1), LogicalVar("G"))))
    assert free_lenses(e) == (Var("a"), Coord("v", 1))
    assert free_logicals(e) == {"F"}


def test_unrest_examples():
    assert unrest(Frame([Var("a")]), Add(read("b"), num(1)))
    assert not unrest(Frame([Var("a")]), Pow(read("a"), 2))
    assert not unrest(Frame([Coord("v", 1)]), Norm(read("v")))
    assert unrest(Frame([Coord("v", 1)]), read("v", 2))


def test_unrest_sound_on_random_writes():
    rng = random.Random(7)
    ds = small_dataspace()
    fr = Frame([Var("a"), Coord("v", 1)])
    for _ in range(100):
        e = rand_total_expr(rng, ds)
        if not unrest(fr, e):
            continue
        s = rand_store(rng, ds)
        s2 = lens_put(Var("a"), rand_rat(rng), s)
        s2 = lens_put(Coord("v", 1), rand_rat(rng), s2)
        assert eval_expr(e, s) == eval_expr(e, s2)


def test_simplify_folds():
    x = read("a")
    assert simplify(Add(num(2), num(3))) == num(5)
    assert simplify(Mul(num(1), x)) == x
    assert simplify(Mul(num(0), x)) == num(0)
    assert simplify(Add(x, num(0))) == x
    assert simplify(Pow(x, 1)) == x
    assert simplify(Sub(x, num(0))) == x
    assert simplify(Neg(Neg(x))) == x
    assert simplify(Eq(x, x)) == TRUE
    assert simplify(Implies(BoolLit(False), Eq(x, num(1)))) == TRUE
    assert simplify(Ite(BoolLit(True), x, num(9))) == x
    assert simplify(And(TRUE, Le(x, num(1)))) == Le(x, num(1))
    assert simplify(Norm(VecLit((num(3), num(4))))) == num(5)


def test_simplify_keeps_partial_subterms():
    # 0 * (1/a) must not fold away the division.
    e = Mul(num(0), Div(num(1), read("a")))
    assert simplify(e) == e
    e2 = Eq(Div(num(1), read("a")), Div(num(1), read("a")))
    assert simplify(e2) == e2


def test_simplify_sound_random():
    rng = random.Random(9)
    ds = small_dataspace()
    for _ in range(200):
        e = rand_total_expr(rng, ds)
        s = rand_store(rng, ds)
        v1 = eval_expr(e, s)
        v2 = eval_expr(simplify(e), s)
        assert v1 == v2 or abs(float(v1) - float(v2)) < 1e-9


@settings(max_examples=200)
@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(0, 4))
def test_simplify_sound_hypothesis(p, q, n):
    s = _store(a=Fraction(p), b=Fraction(q))
    e = Add(Mul(read("a"), read("b")), Pow(Sub(read("a"), read("b")), n))
    assert eval_expr(simplify(e), s) == eval_expr(e, s)


def test_kind_inference():
    ds = small_dataspace()
    assert kind_of(Add(read("a"), read("b")), ds) == REAL
    assert kind_of(Eq(read("v"), VecLit((num(0), num(0)))), ds) == BOOL
    assert kind_of(ScalarMul(read("a"), read("v")), ds) == vec(2)
    assert kind_of(Norm(read("w")), ds) == REAL
    with pytest.raises(KindMismatch):
        kind_of(Add(read("a"), read("flag")), ds)
    with pytest.raises(KindMismatch):
        kind_of(Inner(read("v"), read("w")), ds)
    with pytest.raises(KindMismatch):
        kind_of(Ite(read("a"), num(1), num(2)), ds)
    with pytest.raises(KindMismatch):
        kind_of(read("v", 3), ds)
    lk = {"F": BOOL}
    assert kind_of(Eq(read("flag"), LogicalVar("F")), ds, lk) == BOOL


def test_pow_exponent_must_be_natural():
    with pytest.raises(KindMismatch):
        Pow(read("a"), -1)
    with pytest.raises(KindMismatch):
        Pow(read("a"), Fraction(1, 2))
