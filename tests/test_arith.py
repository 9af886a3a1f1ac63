"""Polynomial normalization and the VC prover."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsverify.arith import (
    ArithCtx,
    BOX_HI,
    BOX_LO,
    Box,
    PolyEnv,
    Verdict,
    _bound_terms,
    _linear_bound,
    _sampler,
    emit_smtlib,
    expr_key,
    falsify,
    peel,
    poly_normalize,
    poly_of,
    prove_vc,
    q_eval,
    recheck,
    sample_store,
)
from hsverify.expr import (
    Add,
    BoolLit,
    Iff,
    And,
    Cos,
    Div,
    Eq,
    Exists,
    Exp,
    Forall,
    Ge,
    Gt,
    Implies,
    Inner,
    Ite,
    Le,
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
    Sin,
    Sqrt,
    Sub,
    TRUE,
    UnsupportedConstruct,
    VecLit,
    ZERO,
    eval_expr,
    num,
    read,
)
from hsverify.store import BOOL, CONSTANT, Dataspace, REAL, vec

from helpers import (
    rand_any_expr,
    rand_store,
    rand_total_expr,
    reference_poly_normalize,
    reference_q_eval,
    reference_sample_logicals,
    reference_sample_store,
    small_dataspace,
)


def ctx_for(ds, **kw):
    return ArithCtx(ds, **kw)


x, y, z = read("x"), read("y"), read("z")


def simple_ds():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    ds.declare("z", REAL)
    return ds


# -- normalization ----------------------------------------------------------


def test_normalize_cancels_expansion():
    lhs = Pow(Add(x, ONE), 2)
    rhs = Add(Add(Pow(x, 2), Mul(num(2), x)), ONE)
    ds = simple_ds()
    assert poly_normalize(Sub(lhs, rhs), ds) == ZERO


def test_normalize_commutative_canonical():
    ds = simple_ds()
    assert poly_normalize(Mul(x, y), ds) == poly_normalize(Mul(y, x), ds)
    assert poly_normalize(Add(x, y), ds) == poly_normalize(Add(y, x), ds)


def test_normalize_trig_square():
    ds = simple_ds()
    e = Add(Pow(Sin(x), 2), Pow(Cos(x), 2))
    assert poly_normalize(e, ds) == ONE


def test_normalize_inner_expands_coordinates():
    ds = Dataspace()
    ds.declare("v", vec(2))
    v = read("v")
    got = poly_normalize(Inner(v, v), ds)
    want = Add(Pow(read("v", 1), 2), Pow(read("v", 2), 2))
    assert got == want


def test_normalize_preserves_value():
    ds = small_dataspace()
    rng = random.Random(77)
    for _ in range(120):
        e = rand_total_expr(rng, ds, depth=3)
        n = poly_normalize(e, ds)
        s = rand_store(rng, ds)
        a, b = eval_expr(e, s), eval_expr(n, s)
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            assert a == b
        else:
            assert abs(float(a) - float(b)) <= 1e-7 * (1.0 + abs(float(a)))


def test_normalize_idempotent_and_deterministic():
    ds = small_dataspace()
    rng = random.Random(5)
    for _ in range(60):
        e = rand_total_expr(rng, ds, depth=3)
        n1 = poly_normalize(e, ds)
        assert poly_normalize(n1, ds) == n1
        assert poly_normalize(e, ds) == n1


def _rand_normalize_input(rng, ds, depth):
    """Terms of rand_total_expr and rand_any_expr inside comparisons,
    connectives, quantifiers, Ite and vector equations, or standing alone."""
    def term():
        return (rand_total_expr if rng.random() < 0.6 else rand_any_expr)(rng, ds, 2)
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.15:
            return rng.choice((Eq, Neq))(read("v"), VecLit((term(), term())))
        if pick < 0.25:
            return term()
        return rng.choice((Eq, Neq, Le, Lt, Ge, Gt))(term(), term())
    kid = lambda: _rand_normalize_input(rng, ds, depth - 1)  # noqa: E731
    pick = rng.random()
    if pick < 0.35:
        return rng.choice((And, Or, Implies, Iff))(kid(), kid())
    if pick < 0.45:
        return Not(kid())
    if pick < 0.65:
        return Ite(kid(), kid(), kid())
    if pick < 0.8:
        return rng.choice((Le, Eq))(Ite(kid(), term(), term()), term())
    return rng.choice((Exists, Forall))("p", kid())


def _normalize_outcome(normalize, e, ds):
    try:
        out = normalize(e, ds)
    except Exception as err:
        return type(err), str(err)
    return out, repr(out)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_normalize_matches_the_reference_walker(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    e = _rand_normalize_input(rng, ds, 3)
    for space in (ds, None):
        assert _normalize_outcome(poly_normalize, e, space) \
            == _normalize_outcome(reference_poly_normalize, e, space)


def test_expr_key_total_order():
    keys = [expr_key(e) for e in (x, y, Mul(x, y), Pow(x, 2), num(3))]
    assert len(set(keys)) == len(keys)


# -- prover: valid cases ----------------------------------------------------


def test_square_nonneg():
    ds = simple_ds()
    v = prove_vc(Ge(Pow(x, 2), ZERO), ctx_for(ds))
    assert v.valid


def test_strict_product_positive():
    ds = simple_ds()
    f = Implies(And(Gt(x, ZERO), Gt(y, ZERO)), Gt(Mul(x, y), ZERO))
    assert prove_vc(f, ctx_for(ds)).valid


def test_linear_fourier_motzkin():
    ds = simple_ds()
    f = Implies(And(Le(x, y), Le(y, z)), Le(x, z))
    assert prove_vc(f, ctx_for(ds)).valid


def test_nonlinear_product_augmentation():
    # tau >= 0 and c > 0 entail x <= x + c*tau
    ds = Dataspace()
    ds.declare("c", REAL)
    ds.declare("x", REAL)
    tau = LogicalVar("tau")
    f = Implies(And(Le(ZERO, tau), Gt(read("c"), ZERO)),
                Le(x, Add(x, Mul(read("c"), tau))))
    assert prove_vc(f, ctx_for(ds)).valid


def test_equality_substitution_chain():
    ds = simple_ds()
    f = Implies(And(Eq(x, Add(y, ONE)), Le(y, num(4))), Le(x, num(5)))
    assert prove_vc(f, ctx_for(ds)).valid


def test_division_cleared_by_entailed_sign():
    ds = simple_ds()
    f = Implies(And(Gt(y, ZERO), Le(x, Mul(z, y))), Le(Div(x, y), z))
    assert prove_vc(f, ctx_for(ds)).valid


def test_bool_propagation_folds_conditionals():
    ds = Dataspace()
    ds.declare("flw", BOOL)
    ds.declare("a", REAL)
    ds.declare("b", REAL)
    f = Implies(read("flw"),
                Eq(Ite(read("flw"), read("a"), read("b")), read("a")))
    assert prove_vc(f, ctx_for(ds)).valid


def test_ite_case_split():
    ds = simple_ds()
    f = Le(Ite(Le(x, ZERO), ZERO, x), Ite(Le(x, ZERO), ZERO, Add(x, ONE)))
    assert prove_vc(f, ctx_for(ds)).valid


def test_vector_equality_splits_componentwise():
    ds = Dataspace()
    ds.declare("a", vec(2))
    a = read("a")
    f = Implies(Eq(a, VecLit((ZERO, ZERO))), Eq(Inner(a, a), ZERO))
    assert prove_vc(f, ctx_for(ds)).valid


def test_forall_conclusion_and_sigma_instantiation():
    ds = Dataspace()
    ds.declare("h", REAL)
    tau, sig = LogicalVar("tau"), LogicalVar("sig")
    guard_all = Forall("sig", Implies(And(Le(ZERO, sig), Le(sig, tau)),
                                      Le(Add(read("h"), sig), num(10))))
    f = Forall("tau", Implies(And(Le(ZERO, tau), guard_all),
                              Le(Add(read("h"), tau), num(10))))
    assert prove_vc(f, ctx_for(ds)).valid


def test_exists_witness_search():
    ds = simple_ds()
    v = LogicalVar("v")
    f = Implies(Gt(x, ZERO), Exists("v", Eq(Mul(x, Pow(v, 2)), ONE)))
    out = prove_vc(f, ctx_for(ds))
    assert out.valid
    assert "witness" in out.rule


def test_exists_backward_sign_argument():
    ds = simple_ds()
    v = LogicalVar("v")
    f = Implies(Eq(Mul(x, Pow(v, 2)), ONE), Gt(x, ZERO))
    assert prove_vc(f, ctx_for(ds)).valid


def test_ghost_equivalence_both_directions():
    ds = simple_ds()
    v = LogicalVar("v")
    f = Iff(Gt(x, ZERO), Exists("v", Eq(Mul(x, Pow(v, 2)), ONE)))
    assert prove_vc(f, ctx_for(ds)).valid


def test_monotone_decay_bound():
    ds = simple_ds()
    tau = LogicalVar("tau")
    f = Implies(And(Le(ZERO, tau), Ge(x, ZERO)),
                Le(Mul(x, Exp(Neg(tau))), x))
    assert prove_vc(f, ctx_for(ds)).valid


def test_interval_with_subdivision():
    ds = simple_ds()
    t = LogicalVar("t")
    f = Implies(And(Le(ZERO, t), Le(t, ONE)),
                Le(Mul(t, Sub(ONE, t)), num(Fraction(3, 10))))
    out = prove_vc(f, ctx_for(ds))
    assert out.valid
    assert "interval" in out.rule


def test_exp_positive_fact():
    ds = simple_ds()
    f = Implies(Gt(x, ZERO), Gt(Mul(x, Exp(Neg(y))), ZERO))
    assert prove_vc(f, ctx_for(ds)).valid


def test_sqrt_square_reduction_gated():
    ds = simple_ds()
    f = Implies(Gt(x, ZERO), Eq(Mul(x, Pow(Div(ONE, Sqrt(x)), 2)), ONE))
    assert prove_vc(f, ctx_for(ds)).valid


def test_assumptions_are_ambient():
    ds = Dataspace()
    ds.declare("ci", REAL, CONSTANT)
    ds.declare("co", REAL, CONSTANT)
    ds.declare("h", REAL)
    assumes = (Gt(read("ci"), read("co")), Gt(read("co"), ZERO))
    c = ctx_for(ds, assumptions=assumes)
    tau = LogicalVar("tau")
    f = Implies(Le(ZERO, tau),
                Le(read("h"), Add(read("h"),
                                  Mul(Sub(read("ci"), read("co")), tau))))
    assert prove_vc(f, c).valid


# -- prover: invalid and unknown -------------------------------------------


def test_invalid_with_rechecked_witness():
    ds = simple_ds()
    out = prove_vc(Ge(x, ZERO), ctx_for(ds))
    assert out.status == "invalid"
    assert out.witness is not None
    assert not recheck(Ge(x, ZERO), ctx_for(ds), out.witness)


def test_witness_respects_assumptions():
    ds = simple_ds()
    assumes = (Ge(x, num(5)),)
    c = ctx_for(ds, assumptions=assumes)
    out = prove_vc(Le(x, num(6)), c)
    assert out.status == "invalid"
    assert out.witness["store"]["x"] >= 5


def test_falsify_deterministic():
    ds = simple_ds()
    c = ctx_for(ds, seed=11)
    w1 = falsify(Ge(x, ZERO), c)
    w2 = falsify(Ge(x, ZERO), c)
    assert w1 == w2 and w1 is not None


_BOUND = st.fractions(-12, 12, max_denominator=4096)
# either order, so some are inverted; a range 1/4096 wide often holds no
# multiple of 1/1024; and the default box
_RANGE = st.one_of(st.tuples(_BOUND, _BOUND),
                   _BOUND.map(lambda lo: (lo, lo + Fraction(1, 4096))),
                   st.just((BOX_LO, BOX_HI)))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from([REAL, BOOL, vec(1), vec(2), vec(3)]), max_size=5),
       logicals=st.integers(0, 3),
       ranges=st.lists(_RANGE, min_size=8, max_size=8),
       trials=st.integers(1, 4))
def test_samplers_draw_as_the_reference(seed, kinds, logicals, ranges, trials):
    ds = Dataspace()
    for i, k in enumerate(kinds):
        ds.declare(f"s{i}", k)
    names = [f"L{i}" for i in range(logicals)]
    box = Box(dict(zip([*ds.names(), *names], ranges)))
    ctx = ArithCtx(ds, box=box)
    rng, ref = random.Random(seed), random.Random(seed)
    draws = [(n, _sampler(REAL, *box.for_name(n))) for n in names]
    for _ in range(trials):
        assert sample_store(ctx, rng) == reference_sample_store(ref, ctx)
        assert {n: d(rng) for n, d in draws} == reference_sample_logicals(ref, ctx, names)
        assert rng.getstate() == ref.getstate()
    # falsify draws the store, then the logicals in sorted order: a formula
    # false everywhere is refuted by its first draw
    total = ZERO
    for n in names:
        total = Add(total, LogicalVar(n))
    w = falsify(Lt(total, total), ctx, trials=trials, seed=seed)
    ref = random.Random(seed)
    assert w == {"store": reference_sample_store(ref, ctx),
                 "env": reference_sample_logicals(ref, ctx, names)}


def test_unknown_carries_smt():
    ds = simple_ds()
    f = Le(Mul(num(2), x), Add(Pow(x, 2), ONE))  # true, outside the fragment
    out = prove_vc(f, ctx_for(ds))
    assert out.status == "unknown"
    assert out.residual
    assert out.smt is not None
    assert "(set-logic" in out.smt and "(check-sat)" in out.smt


def test_condition_deeper_than_the_parser_bound_is_unknown():
    # 300 alternating terms stay a 300-level chain under simplify
    chain = x
    for i in range(299):
        chain = Add(chain, y if i % 2 == 0 else x)
    f = Ge(chain, ZERO)
    out = prove_vc(f, ctx_for(simple_ds()))
    assert (out.status, out.rule, out.smt) == ("unknown", "depth", None)
    assert len(out.residual) == 1 and out.residual[0] is f


def test_quantified_falsification_instantiates():
    ds = simple_ds()
    f = Forall("t", Implies(And(Le(ZERO, LogicalVar("t")),
                                Le(LogicalVar("t"), ONE)),
                            Le(Add(x, LogicalVar("t")), x)))
    out = prove_vc(f, ctx_for(ds))
    assert out.status == "invalid"
    assert "t" in out.witness["env"]


def test_bound_terms_skip_comparisons_inside_a_comparison():
    # v < x sits in the if operand of the outer v <= ...: it bounds nothing
    v = LogicalVar("v")
    nested = Le(v, Ite(Lt(v, x), y, ONE))
    assert _bound_terms(nested, "v") == []
    assert _bound_terms(And(nested, Ge(v, z)), "v") == [z]
    assert _bound_terms(And(Lt(v, x), Ge(v, z)), "v") == [x, z]


# -- the three-valued evaluator ----------------------------------------------


def truth(formula, tol=1e-9, **vals):
    ds = Dataspace()
    for n, v in vals.items():
        ds.declare(n, vec(len(v)) if isinstance(v, tuple) else REAL)
    return q_eval(formula, ds.make_store(vals), {}, Box(), tol)[0]


def test_exact_tie_on_strict_order_is_false():
    assert truth(Lt(x, ONE), x=Fraction(1)) is False
    assert truth(Gt(x, ONE), x=Fraction(1)) is False
    assert truth(Le(x, ONE), x=Fraction(1)) is True


@pytest.mark.parametrize("rel", [Le, Lt, Ge, Gt, Eq, Neq])
def test_float_inside_the_margin_is_undecided(rel):
    assert truth(rel(x, ONE), x=1.0 + 1e-12) is None
    assert truth(rel(x, ONE), x=1.0 + 1e-8) is not None
    assert truth(rel(x, ONE), x=1.0 + 1e-8, tol=1e-7) is None


def test_float_vectors_compare_by_component():
    p, q = read("p"), VecLit((ONE, num(2)))
    assert truth(Eq(p, q), p=(1.0, 2.5)) is False
    assert truth(Neq(p, q), p=(1.0, 2.5)) is True
    assert truth(Eq(p, q), p=(1.0, 2.0 + 1e-12)) is None
    assert truth(Eq(p, q), p=(Fraction(1), Fraction(2))) is True


def test_connectives_are_kleene():
    near = Le(x, ONE)  # undecided at x = 1 + 1e-12
    assert truth(Not(near), x=1.0 + 1e-12) is None
    assert truth(Or(near, Gt(x, num(2))), x=1.0 + 1e-12) is None
    assert truth(Or(near, TRUE), x=1.0 + 1e-12) is True
    assert truth(And(near, Gt(x, num(2))), x=1.0 + 1e-12) is False
    assert truth(Implies(Gt(x, num(2)), near), x=1.0 + 1e-12) is True
    assert truth(Iff(near, TRUE), x=1.0 + 1e-12) is None
    # an undecided condition leaves the value to the branches when they agree
    assert truth(Ite(near, Ge(y, ZERO), Ge(y, ONE)), x=1.0 + 1e-12, y=-5.0) is False
    assert truth(Ite(near, Ge(y, ZERO), Ge(y, ONE)), x=1.0 + 1e-12, y=5.0) is True
    assert truth(Ite(near, Ge(y, ZERO), Ge(y, ONE)), x=1.0 + 1e-12, y=0.5) is None


def test_implies_negates_a_quantified_antecedent():
    # negate(forall t. ...) is exists t. 0 <= t <= 1 and t < 0: its grid is
    # [0, 0], which finds no witness, so the antecedent's negation is
    # undecided; Not(forall) would make it False and the implication False
    t = LogicalVar("t")
    inside = Forall("t", Implies(And(Le(ZERO, t), Le(t, ONE)), Ge(t, ZERO)))
    assert truth(Implies(inside, Gt(x, num(5))), x=Fraction(0)) is None
    assert truth(Or(Not(inside), Gt(x, num(5))), x=Fraction(0)) is False


def _rand_term(rng, bound, depth):
    """A real term over x and y, the bound logicals and the unbound q, with
    partial operations."""
    if depth == 0 or rng.random() < 0.3:
        pick = rng.random()
        if pick < 0.3:
            return num(Fraction(rng.randint(-6, 6), 2))
        if pick < 0.31:
            return LogicalVar("q")
        if pick < 0.6 and bound:
            return LogicalVar(rng.choice(bound))
        return rng.choice((x, y))
    kid = lambda: _rand_term(rng, bound, depth - 1)  # noqa: E731
    op = rng.choice((Add, Sub, Mul) * 3 + (Div, Neg, Sqrt, Exp))
    if op in (Neg, Sqrt, Exp):
        return op(kid())
    return op(kid(), kid())


def _rand_formula(rng, bound, depth):
    """A formula of connectives, comparisons (vector ones among them), a bool
    read, and quantifiers whose bodies carry bound atoms on either side."""
    term = lambda d=1: _rand_term(rng, bound, d)  # noqa: E731
    if depth == 0 or rng.random() < 0.25:
        pick = rng.random()
        if pick < 0.08:
            return BoolLit(rng.random() < 0.5)
        if pick < 0.14:
            return read("flag")
        if pick < 0.2:
            return rng.choice((Eq, Neq, Le))(read("v"), VecLit((term(0), term(0))))
        return rng.choice((Eq, Neq, Le, Lt, Ge, Gt))(term(), term())
    kid = lambda: _rand_formula(rng, bound, depth - 1)  # noqa: E731
    pick = rng.random()
    if pick < 0.45:
        return rng.choice((And, Or, Implies, Iff))(kid(), kid())
    if pick < 0.55:
        return Not(kid())
    if pick < 0.65:
        return Ite(kid(), kid(), kid())
    var = rng.choice("tu")
    v, inner = LogicalVar(var), [*bound, var]
    lo = rng.choice((Le, Lt))(term(), v) if rng.random() < 0.5 else rng.choice((Ge, Gt))(v, term())
    hi = rng.choice((Le, Lt))(v, term()) if rng.random() < 0.5 else rng.choice((Ge, Gt))(term(), v)
    body = _rand_formula(rng, inner, depth - 1)
    if rng.random() < 0.5:
        return Forall(var, Implies(And(lo, hi), body))
    return Exists(var, And(And(lo, hi), body) if rng.random() < 0.8 else Or(lo, body))


def _q_outcome(evaluate, f, s, env, box, tol, strict):
    """What evaluating f gives: the truth and instantiations, each with its
    type, or the error."""
    try:
        r, inst = evaluate(f, s, dict(env), box, tol, strict)
    except Exception as err:
        return type(err), str(err)
    return type(r), r, {n: (type(v), v) for n, v in inst.items()}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_q_eval_matches_the_reference_walker(seed):
    rng = random.Random(seed)
    f = _rand_formula(rng, [], 3)
    twin = _rand_formula(random.Random(seed), [], 3)
    before = (repr(f), hash(f))
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    ds.declare("v", vec(2))
    ds.declare("flag", BOOL)
    narrow = Box({"t": (Fraction(-2), Fraction(2)), "u": (Fraction(-1), Fraction(3))})
    box = rng.choice((Box(), narrow))
    stores = []
    for _ in range(2):
        vals = {"x": Fraction(rng.randint(-8, 8), 4), "y": Fraction(rng.randint(-8, 8), 4),
                "v": (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4), 2)),
                "flag": rng.random() < 0.5}
        # the float twin sits on, just inside or just outside the margins
        nudge = lambda c: float(c) * (1 + rng.choice((0, 1e-10, -1e-8, 1e-8)))  # noqa: E731
        floats = {**vals, "x": nudge(vals["x"]), "y": nudge(vals["y"]),
                  "v": tuple(nudge(c) for c in vals["v"])}
        stores += [ds.make_store(vals), ds.make_store(floats)]
    env = {"u": Fraction(rng.randint(-4, 4), 2)} if rng.random() < 0.3 else {}
    for s in stores:
        for strict in (False, True):
            for tol in (1e-9, 1e-7):
                assert _q_outcome(q_eval, f, s, env, box, tol, strict) \
                    == _q_outcome(reference_q_eval, f, s, env, box, tol, strict)
    assert (repr(f), hash(f)) == before
    assert f == twin and twin == f and f in {twin}


# -- SMT export -------------------------------------------------------------


def test_smtlib_shape_and_determinism():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("p", vec(2))
    ds.declare("ok", BOOL)
    c = ctx_for(ds, assumptions=(Gt(read("x"), ZERO),))
    f = Implies(read("ok"), Le(Inner(read("p"), read("p")), Pow(read("x"), 2)))
    s1 = emit_smtlib(f, c, "goal_1")
    s2 = emit_smtlib(f, c, "goal_1")
    assert s1 == s2
    assert "(set-logic QF_NRA)" in s1
    assert "(declare-const x Real)" in s1
    assert "(declare-const |p#1| Real)" in s1
    assert "(declare-const ok Bool)" in s1
    assert "(assert (not" in s1
    assert s1.rstrip().endswith("(check-sat)")


def test_smtlib_transcendental_uninterpreted():
    ds = simple_ds()
    s = emit_smtlib(Le(Exp(x), Add(ONE, x)), ctx_for(ds))
    assert "(declare-fun exp (Real) Real)" in s
    assert "QF_UFNRA" in s


def test_smtlib_quantifier_logic():
    ds = simple_ds()
    f = Forall("t", Le(LogicalVar("t"), Add(LogicalVar("t"), ONE)))
    s = emit_smtlib(f, ctx_for(ds))
    assert "(set-logic NRA)" in s
    assert "(forall ((t Real))" in s


def test_smtlib_norm_unsupported_without_shape():
    ds = simple_ds()
    with pytest.raises(UnsupportedConstruct):
        emit_smtlib(Le(Norm(LogicalVar("w")), ONE), ctx_for(ds))


# -- box --------------------------------------------------------------------

def test_box_refinement():
    b = Box.from_assumptions((Ge(x, ONE), Le(x, num(3)), Gt(y, num(-2))))
    assert b.for_name("x") == (Fraction(1), Fraction(3))
    assert b.for_name("y")[0] == Fraction(-2)
    assert b.for_name("z") == (Fraction(-100), Fraction(100))


def test_peel_splits_conjunction():
    seqs = peel(Implies(Gt(x, ZERO), And(Ge(x, ZERO), Neq(x, ZERO))))
    assert len(seqs) == 2
    assert all(s.hyps == [Gt(x, ZERO)] for s in seqs)


# -- one implementation per job -------------------------------------------


def test_linear_bound_reads_one_atom_to_the_first_power():
    env = PolyEnv(simple_ds())
    t = LogicalVar("t")
    assert _linear_bound(poly_of(Sub(Mul(num(3), x), num(6)), env)) == ("x", 3, 2)
    assert _linear_bound(poly_of(Sub(num(2), t), env)) == ("?t", -1, 2)
    assert _linear_bound(poly_of(Add(x, y), env)) is None
    assert _linear_bound(poly_of(Add(Pow(x, 2), ONE), env)) is None
    assert _linear_bound(poly_of(Mul(x, y), env)) is None
    assert _linear_bound(poly_of(num(4), env)) is None


def test_a_squared_bound_gives_its_atom_no_sign():
    # x^2 >= 1 bounds |x|, not x
    assert not prove_vc(Implies(Ge(Pow(x, 2), ONE), Gt(x, ZERO)), ctx_for(simple_ds())).valid


def test_quantified_antecedent_is_opened_apart_from_the_hypotheses():
    # modus ponens proves the antecedent, a Forall over t, while ?t is free
    # in the hypotheses; the binder must not capture that ?t
    t = LogicalVar("t")

    def goal(body):
        return Implies(Gt(t, ZERO), Implies(Implies(Forall("t", body), Gt(x, ZERO)),
                                            Gt(x, ZERO)))

    assert prove_vc(goal(Ge(Mul(t, t), ZERO)), ctx_for(simple_ds())).valid
    assert not prove_vc(goal(Gt(t, ZERO)), ctx_for(simple_ds())).valid


def test_hypotheses_binding_one_name_are_opened_apart():
    t = LogicalVar("t")
    f = Implies(And(Exists("t", Gt(t, ZERO)), Exists("t", Lt(t, ZERO))), BoolLit(False))
    assert not prove_vc(f, ctx_for(simple_ds())).valid
    nested = Forall("t", Implies(Gt(t, ZERO), Forall("t", Gt(t, ZERO))))
    assert not prove_vc(nested, ctx_for(simple_ds())).valid


def test_smtlib_rejects_vectors_of_different_dimensions():
    ds = Dataspace()
    ds.declare("p", vec(2))
    for rel in (Eq, Neq):
        with pytest.raises(UnsupportedConstruct):
            emit_smtlib(rel(read("p"), VecLit((ONE, ONE, ONE))), ctx_for(ds))
