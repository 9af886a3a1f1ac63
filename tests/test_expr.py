import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsverify import expr as ex
from hsverify.arith import Box, _ite_cond, _set_ite_cond, q_eval
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
    Lt,
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
    UnsupportedConstruct,
    VarRead,
    VecLit,
    compile_expr,
    eval_expr,
    free_lenses,
    free_logicals,
    has_type,
    kind_of,
    num,
    read,
    rewrite,
    simplify,
    subst_apply_expr,
    subst_logical,
    subst_term,
    subterms,
    total,
    unrest,
)
from hsverify.store import (
    BOOL, Coord, CoordOutOfRange, Dataspace, Frame, KindMismatch, NotPartOf, REAL, Var, lens_put,
    vec,
)

from helpers import (
    rand_any_expr,
    rand_rat,
    rand_store,
    rand_subst,
    rand_total_expr,
    reference_depth,
    reference_eval,
    reference_free_logicals,
    reference_has_div,
    reference_has_vector_op,
    reference_hash,
    reference_ite_cond,
    reference_kind_of,
    reference_rewrite,
    reference_simplify,
    reference_subst_apply_expr,
    reference_subst_logical,
    reference_subterms,
    reference_total,
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
    # subst_term renames the same way, past a name the body reads free
    u, u1, w = LogicalVar("u"), LogicalVar("u1"), LogicalVar("w")
    q = Forall("u", And(Eq(read("a"), u), Le(u1, w)))
    assert subst_term(q, read("a"), Add(u, w)) == \
        Forall("u2", And(Eq(Add(u, w), LogicalVar("u2")), Le(u1, w)))
    assert subst_term(q, read("a"), w) == Forall("u", And(Eq(w, u), Le(u1, w)))


def test_subst_logical():
    e = Add(LogicalVar("tau"), read("a"))
    assert subst_logical(e, "tau", num(0)) == Add(num(0), read("a"))
    q = Forall("tau", Le(LogicalVar("tau"), read("a")))
    assert subst_logical(q, "tau", num(1)) == q
    # subst_term replaces a term only where its logicals are free
    u, w = LogicalVar("u"), LogicalVar("w")
    target = Add(read("a"), u)
    e = And(Le(target, w), Exists("w", Forall("u", Le(target, w))))
    assert subst_term(e, target, num(2)) == \
        And(Le(num(2), w), Exists("w", Forall("u", Le(target, w))))
    e = And(Le(target, w), Exists("w", Le(target, w)))
    assert subst_term(e, target, w) == And(Le(w, w), Exists("w1", Le(w, LogicalVar("w1"))))
    # _set_ite_cond resolves an if only where its condition is free
    cond = Lt(u, num(0))
    ite = Ite(cond, u, Ite(cond, w, num(1)))
    e = And(Le(ite, w), Forall("w", Le(ite, w)))
    assert _set_ite_cond(e, cond, False) == And(Le(num(1), w), Forall("w", Le(num(1), w)))
    assert _set_ite_cond(e, cond, True) == And(Le(u, w), Forall("w", Le(u, w)))
    e = And(Le(ite, w), Forall("u", Le(ite, w)))
    assert _set_ite_cond(e, cond, True) == And(Le(u, w), Forall("u", Le(ite, w)))
    # f[t/n] at env is f at env with n taken to t's value, for binder-heavy f
    rng = random.Random(2417)
    ds = small_dataspace()
    p, q, r = (LogicalVar(n) for n in "pqr")
    repls = (num(Fraction(3, 2)), q, Add(r, num(1)), read("a"), Add(read("a"), p), Sub(p, q))
    decided = renamed = 0
    for _ in range(400):
        f = _rand_binder_formula(rng, 4)
        s = rand_store(rng, ds)
        env = {n: rand_rat(rng, -2, 2) for n in "pqr"}
        n, t = rng.choice("pqr"), rng.choice(repls)
        out = subst_logical(f, n, t)
        want = q_eval(f, s, {**env, n: eval_expr(t, s, env)}, Box())[0]
        assert q_eval(out, s, env, Box())[0] == want, (f, n, t)
        decided += want in (True, False)
        renamed += _binder_names(out) != _binder_names(f)
    assert decided > 200 and renamed > 40


def _rand_binder_formula(rng, depth):
    """A well-kinded formula over a, b, p, q and r: comparisons of sums and
    products, if-terms and if-formulas, under quantifiers over p, q and r
    that shadow one another."""
    def term(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice((read("a"), read("b"), num(rand_rat(rng, -2, 2)),
                               *(LogicalVar(n) for n in "pqrpqr")))
        if rng.random() < 0.15:
            return Ite(form(d - 1), term(d - 1), term(d - 1))
        return rng.choice((Add, Sub, Mul))(term(d - 1), term(d - 1))

    def form(d):
        pick = rng.random()
        if d == 0 or pick < 0.3:
            return rng.choice((Eq, Le, Lt))(term(1), term(1))
        if pick < 0.6:
            return rng.choice((Exists, Forall, Forall))(rng.choice("pqr"), form(d - 1))
        if pick < 0.85:
            return rng.choice((And, Implies))(form(d - 1), form(d - 1))
        return Ite(form(d - 1), form(d - 1), form(d - 1))

    return form(depth)


def _binder_names(e):
    return [t.var for t in subterms(e) if isinstance(t, (Exists, Forall))]


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_simplify_matches_reference_walker(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    e = rand_any_expr(rng, ds, 4) if seed % 2 else rand_total_expr(rng, ds, 4)
    once, ref = simplify(e), reference_simplify(e)
    assert once == ref and repr(once) == repr(ref)
    # a second pass can fold further, and starts from the first pass's result
    twice, ref_twice = simplify(once), reference_simplify(ref)
    assert twice == ref_twice and repr(twice) == repr(ref_twice)
    assert simplify(e) is once


def test_simplify_cache_is_invisible():
    def build():
        return Add(Mul(num(2), Sub(read("a"), num(0))), Mul(num(3), read("b")))
    e, twin = build(), build()
    before = (repr(e), hash(e))
    out = simplify(e)
    assert simplify(e) is out
    assert (repr(e), hash(e)) == before
    assert e == twin and twin == e and e in {twin}
    assert simplify(twin) == out and repr(simplify(twin)) == repr(out)
    # childless nodes are their own result and hold no cache
    x = read("a")
    assert simplify(x) is x and "_simplified" not in x.__dict__


def test_simplify_is_not_idempotent():
    # 0 * a only meets its zero once the first pass has put them together
    p = LogicalVar("p")
    e = Mul(read("a"), Mul(Ln(Sqrt(p)), Add(ex.Sin(num(0)), num(0))))
    once = simplify(e)
    assert once == Mul(Mul(num(0), read("a")), Ln(Sqrt(p)))  # 0 * a * ln(sqrt(p))
    twice = simplify(once)
    assert twice == Mul(num(0), Ln(Sqrt(p)))  # 0 * ln(sqrt(p))
    assert simplify(e) is once and simplify(once) is twice
    assert (once, twice) == (reference_simplify(e), reference_simplify(once))


def _fresh_copy(e):
    """An equal tree of new nodes, none of which holds a cache."""
    kids = ex.children(e)
    return ex.rebuild(e, tuple(_fresh_copy(k) for k in kids)) if kids else e


def _simplify_counting_rebuilds(e):
    """simplify(e), and the number of ex.rebuild calls it made."""
    calls, real = [], ex.rebuild
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "rebuild", lambda *a: calls.append(a) or real(*a))
        out = simplify(e)
    return out, len(calls)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_simplified_fixed_point_comes_back_as_itself(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    e = rand_any_expr(rng, ds, 4) if seed % 2 else rand_total_expr(rng, ds, 4)
    r = simplify(e)
    copy = _fresh_copy(r)
    again, rebuilt = _simplify_counting_rebuilds(r)
    if again == r:
        # every node of a fixed point is kept, so no pass rebuilds one
        assert again is r and rebuilt == 0
        again, rebuilt = _simplify_counting_rebuilds(r)
        assert again is r and rebuilt == 0
        again, rebuilt = _simplify_counting_rebuilds(copy)
        assert again is copy and rebuilt == 0
    assert again == reference_simplify(r)


def test_a_kept_node_does_not_cache_itself():
    # a node caching itself is a reference cycle that only the cyclic
    # collector frees
    rng = random.Random(7)
    ds = small_dataspace()
    kept = 0
    for _ in range(300):
        e = rand_any_expr(rng, ds, 4)
        r = simplify(e)
        for t in list(subterms(e)) + list(subterms(r)):
            assert t.__dict__.get("_simplified") is not t
            kept += simplify(t) is t and bool(ex.children(t))
    assert kept > 300


@pytest.mark.parametrize("e", [
    Add(read("a"), read("b")),
    Add(read("a"), num(3)),  # a sum that ends in its one literal
    Mul(num(2), read("a")),  # a product that starts with its one literal
    Mul(num(0), Div(num(1), read("a"))),  # a zero that cannot drop a partial factor
    Add(Add(Mul(num(2), read("a")), read("b")), num(-1)),
])
def test_a_normal_term_simplifies_to_itself(e):
    out, rebuilt = _simplify_counting_rebuilds(e)
    assert out is e and rebuilt == 0


@pytest.mark.parametrize("cls,last", [(Add, num(1)), (Mul, num(2))])
def test_deep_chain_simplifies_without_deep_recursion(cls, last):
    # 4,999 reads and then a literal, left-associated: the literal makes the
    # last rewrite flatten the whole 5,000-term chain
    e = read("a")
    for i in range(4998):
        e = cls(e, read("b") if i % 2 else read("a"))
    e = cls(e, last)
    terms = ex._flatten(cls, simplify(e))
    assert len(terms) == 5000
    if cls is Add:
        assert terms[-1] == num(1) and terms[:3] == [read("a"), read("a"), read("b")]
    else:
        assert terms[0] == num(2) and terms[1:4] == [read("a"), read("a"), read("b")]


def _check_identity(e, out, target):
    """Each sub-tree of e that holds no copy of target comes back as the
    identical object."""
    if target not in reference_subterms(e):
        assert out is e
    elif e != target:
        for k, new in zip(ex.children(e), ex.children(out)):
            _check_identity(k, new, target)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_subterms_and_rewrite_match_reference_walkers(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    e = rand_any_expr(rng, ds, 4) if seed % 2 else rand_total_expr(rng, ds, 4)
    ref = reference_subterms(e)
    got = list(subterms(e))
    assert len(got) == len(ref) and all(a is b for a, b in zip(got, ref))
    stop = ex.COMPARISONS
    got = list(subterms(e, stop))
    assert [id(t) for t in got] == [id(t) for t in reference_subterms(e, stop)]

    target, repl = rng.choice(ref), rand_any_expr(rng, ds, 2)

    def fn(t):
        return repl if t == target else None
    out, want = rewrite(e, fn), reference_rewrite(e, fn)
    assert out == want and repr(out) == repr(want)
    _check_identity(e, out, target)
    assert rewrite(e, lambda t: None) is e


def test_free_logicals_bind_only_inside_the_quantifier():
    p, q = LogicalVar("p"), LogicalVar("q")
    assert free_logicals(And(p, Forall("p", Le(p, q)))) == {"p", "q"}
    assert free_logicals(And(Exists("q", Forall("p", Le(p, q))), q)) == {"q"}


def _rand_binder_expr(rng, ds, depth):
    """rand_any_expr terms under nested quantifiers over p, q and r, so
    binders shadow one another and bind some names and not others."""
    if depth == 0 or rng.random() < 0.3:
        return rand_any_expr(rng, ds, rng.randint(0, 3))
    kid = lambda: _rand_binder_expr(rng, ds, depth - 1)  # noqa: E731
    pick = rng.random()
    if pick < 0.4:
        return rng.choice((Exists, Forall))(rng.choice("pqr"), kid())
    if pick < 0.8:
        return rng.choice((And, Implies, Add, Le))(kid(), kid())
    return Ite(kid(), kid(), kid())


_TYPE_QUERIES = (Div, Ite, (Div, Ln, Sqrt), (Inner, Norm, VecLit, ScalarMul), (Exists, Forall),
                 LogicalVar, VarRead)


def test_cached_facts_match_the_reference_walks():
    ds = small_dataspace()
    rng = random.Random(2207)
    seen_bound = 0
    for _ in range(300):
        e = _rand_binder_expr(rng, ds, 4)
        want_hash = reference_hash(e)
        # the top node first, so its children's facts are built by the cache
        # walk, then every sub-term on its own
        for t in [e] + reference_subterms(e):
            assert ex.depth(t) == reference_depth(t)
            assert free_logicals(t) == reference_free_logicals(t)
            assert isinstance(free_logicals(t), frozenset)
            for types in _TYPE_QUERIES:
                want = any(isinstance(u, types) for u in reference_subterms(t))
                assert has_type(t, types) == want, (t, types)
            assert total(t) == reference_total(t)
            assert has_type(t, Div) == reference_has_div(t)
            assert has_type(t, (Inner, Norm, VecLit, ScalarMul)) == reference_has_vector_op(t)
            assert hash(t) == reference_hash(t)
            if isinstance(t, (Exists, Forall)):
                seen_bound += t.var not in free_logicals(t)
        assert hash(e) == want_hash
        flat = [_rand_binder_expr(rng, ds, 2) for _ in range(rng.randint(0, 3))]
        assert _ite_cond([e] + flat) == reference_ite_cond(e, flat)
    assert seen_bound > 100


def test_substitutions_match_the_reference_copies():
    # binder names included: == compares each binder's variable
    ds = small_dataspace()
    rng = random.Random(2424)
    p, q, r = (LogicalVar(n) for n in "pqr")
    repls = (num(1), p, q, Add(q, r), Mul(read("a"), p), Forall("q", Le(q, r)))
    renamed = 0
    for _ in range(400):
        e = _rand_binder_expr(rng, ds, 4)
        n, t = rng.choice("pqr"), rng.choice(repls)
        out = subst_logical(e, n, t)
        assert out == reference_subst_logical(e, n, t), (e, n, t)
        renamed += _binder_names(out) != _binder_names(e)
        sigma = Subst(((Var("a"), rng.choice(repls[:5])), (Coord("v", 2), rng.choice(repls[:5])),
                       (Var("w"), VecLit((r, num(0), q)))), ds)
        try:
            want = reference_subst_apply_expr(e, sigma)
        except (NotPartOf, UnsupportedConstruct) as err:  # a read sigma cannot resolve
            with pytest.raises(type(err)):
                subst_apply_expr(e, sigma)
            continue
        assert subst_apply_expr(e, sigma) == want, (e, sigma)
    assert renamed > 40


def test_cached_facts_are_invisible():
    p = LogicalVar("p")
    e = Forall("q", And(Le(Div(read("a"), p), LogicalVar("q")), Eq(read("v"), VecLit((p, p)))))
    twin = Forall("q", And(Le(Div(read("a"), p), LogicalVar("q")), Eq(read("v"), VecLit((p, p)))))
    before = (repr(e), reference_hash(e))
    assert not any("_hash" in t.__dict__ for t in subterms(e))
    assert (ex.depth(e), free_logicals(e), has_type(e, Div), total(e)) == (5, {"p"}, True, False)
    assert hash(e) == before[1]
    assert (repr(e), hash(e)) == before
    assert all({"_hash", "_depth", "_free", "_kinds"} <= set(t.__dict__) for t in subterms(e))
    assert e == twin and twin == e and e in {twin} and twin in {e: 1}
    assert hash(twin) == hash(e) and repr(twin) == repr(e)
    assert [f.name for f in dataclasses.fields(e)] == ["var", "body"]


def test_facts_of_a_10000_deep_chain():
    # == and repr would recurse, and so would the dataclass hash
    def chain():
        e = Forall("p", Le(LogicalVar("p"), read("a")))
        for i in range(9997):
            e = Add(e, LogicalVar("q") if i % 3 == 0 else read("b"))
        return e
    e, twin = chain(), chain()
    assert ex.depth(e) == 10000
    assert free_logicals(e) == {"q"}
    assert has_type(e, Forall) and not has_type(e, Div) and total(e)
    assert isinstance(hash(e), int) and hash(twin) == hash(e)
    assert hash(Add(e, read("a"))) == hash((e, read("a")))


def test_deep_chain_walks_without_deep_recursion():
    # a left-associated chain 5,000 levels deep; == and repr would recurse,
    # so the results are checked through the iterative walks themselves
    e = read("a")
    for i in range(4999):
        e = Add(e, LogicalVar("p") if i % 2 else read("b"))
    assert ex.depth(e) == 5000
    assert sum(1 for _ in subterms(e)) == 9999
    assert total(e) and not total(Div(e, num(2)))
    assert free_lenses(e) == (Var("a"), Var("b"))
    assert free_logicals(e) == {"p"} and free_logicals(Forall("p", e)) == set()
    out = rewrite(e, lambda t: read("a") if t == read("b") else None)
    assert free_lenses(out) == (Var("a"),) and ex.depth(out) == 5000
    sigma = Subst(((Var("b"), LogicalVar("q")),), small_dataspace())
    out = subst_apply_expr(e, sigma)
    assert free_lenses(out) == (Var("a"),) and free_logicals(out) == {"p", "q"}
    out = subst_logical(out, "q", num(1))
    assert free_logicals(out) == {"p"} and ex.depth(out) == 5000
    assert kind_of(out, small_dataspace()) == REAL


def _kind_outcome(kinder, e, ds):
    try:
        return kinder(e, ds)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kind_of_matches_the_reference_walker(seed):
    # rand_any_expr leaves kinds unchecked, so most trees are ill-kinded and
    # the first failing check, and its message, must be the reference's
    rng = random.Random(seed)
    ds = small_dataspace()
    e = rand_any_expr(rng, ds, 4)
    assert _kind_outcome(kind_of, e, ds) == _kind_outcome(reference_kind_of, e, ds)


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
    # a logical variable is real, so it cannot stand for a bool
    assert kind_of(LogicalVar("F"), ds) == REAL
    with pytest.raises(KindMismatch):
        kind_of(Eq(read("flag"), LogicalVar("F")), ds)


def test_pow_exponent_must_be_natural():
    with pytest.raises(KindMismatch):
        Pow(read("a"), -1)
    with pytest.raises(KindMismatch):
        Pow(read("a"), Fraction(1, 2))
