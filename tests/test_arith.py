"""Polynomial normalization and the VC prover."""

import functools
import itertools
import math
import pathlib
import random
import traceback
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hsverify import arith, cli
from hsverify.arith import (
    ArithCtx,
    BOX_HI,
    BOX_LO,
    Box,
    Row,
    Unpolyable,
    Verdict,
    _Prover,
    _bound_terms,
    _comparison,
    _fm_infeasible,
    _linear_bound,
    _sampler,
    emit_smtlib,
    expr_key,
    falsify,
    negate,
    norm_rel,
    peel,
    poly_normalize,
    poly_of,
    prove_vc,
    q_eval,
    recheck,
    reduce_trig,
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
    ScalarMul,
    Sin,
    Sqrt,
    Sub,
    TRUE,
    UnsupportedConstruct,
    VarRead,
    VecLit,
    ZERO,
    conj,
    eval_expr,
    free_logicals,
    has_type,
    kind_of,
    num,
    read,
    subterms,
    vec_dim,
)
from hsverify.store import (
    BOOL, CONSTANT, Dataspace, KindMismatch, REAL, Store, UndeclaredVariable, Var,
    check_value, vec,
)
from hsverify.syntax import parse
from hsverify.vcg import FlowTable, Triple, gen_vcs

from helpers import (
    _cmp_vals,
    _reference_vec_polys,
    rand_any_expr,
    rand_rat,
    rand_store,
    rand_total_expr,
    reference_falsify,
    reference_grid,
    reference_poly_normalize,
    reference_poly_of,
    ReferenceProver,
    UnmemoizedProver,
    reference_peel,
    reference_prove_vc,
    reference_q_eval,
    reference_sample_logicals,
    reference_sample_store,
    small_dataspace,
)


MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


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


def _poly_outcome(build, e, env):
    try:
        return build(e, env)
    except Exception as err:
        return type(err), str(err)


def _vector_operand_may_differ(e, env, ds):
    """Whether an operand of an Inner or Norm in e is a vector term on
    which the derived vec_polys may part from the reference's own case
    analysis: one that kind_of rejects under env (the reference zips
    operands of different dimensions, and builds the scalar operands of a
    vector before it finds one that is no vector), or, without a dataspace,
    one that reads a whole vector of ds, whose coordinates vec_component
    projects out but the reference cannot size.
    test_vec_polys_matches_the_reference_on_vector_terms checks that the two
    agree on every vector term kind_of accepts."""
    for t in subterms(e):
        for u in (t.left, t.right) if isinstance(t, Inner) else \
                (t.arg,) if isinstance(t, Norm) else ():
            if env is None and any(isinstance(r, VarRead) and vec_dim(r, ds)
                                   for r in subterms(u)):
                return True
            try:
                kind_of(u, ds if env is None else env)
            except (KindMismatch, UnsupportedConstruct, UndeclaredVariable):
                return True
    return False


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_poly_of_matches_the_reference_builder(seed):
    rng = random.Random(seed)
    ds = small_dataspace()
    a, b = ((rand_total_expr if rng.random() < 0.5 else rand_any_expr)(rng, ds, 3)
            for _ in range(2))
    only_a = Dataspace()  # the other names' reads raise UndeclaredVariable
    only_a.declare("a", REAL)
    for env in (ds, None, ds, only_a):
        for e in (a, b):
            want = _poly_outcome(reference_poly_of, e, env)
            got = _poly_outcome(poly_of, e, env)
            assert got == want or _vector_operand_may_differ(e, env, ds)
            if isinstance(got, arith.Poly):
                # a cached polynomial is shared: using it must not change it
                _fm_infeasible([Row(got, False), Row(got.neg(), True)])
                assert poly_of(e, env) == got
        # the comparison's difference, cached on the node per orientation
        h = Le(a, b)
        prover = _Prover(env)
        for left_first, diff in ((True, Sub(a, b)), (False, Sub(b, a))):
            want = _poly_outcome(lambda e, env: reduce_trig(reference_poly_of(e, env)),
                                 diff, env)
            for _ in range(2):
                got = _poly_outcome(lambda h, _: prover._diff(h, left_first), h, env)
                assert got == want or _vector_operand_may_differ(diff, env, ds)


def _rand_vec_term(rng, ds, dim, depth):
    """A dim-vector term over ds whose scalars are rand_total_expr or
    rand_any_expr terms and whose conditions are rand_any_expr terms, so
    some are ill-kinded."""
    scalar = lambda: (rand_total_expr if rng.random() < 0.5  # noqa: E731
                      else rand_any_expr)(rng, ds, 1)
    pick = rng.random()
    if depth == 0 or pick < 0.3:
        if rng.random() < 0.5:
            return VecLit(tuple(scalar() for _ in range(dim)))
        return read({2: "v", 3: "w"}[dim])
    kid = lambda: _rand_vec_term(rng, ds, dim, depth - 1)  # noqa: E731
    if pick < 0.45:
        return Neg(kid())
    if pick < 0.65:
        return rng.choice((Add, Sub))(kid(), kid())
    if pick < 0.8:
        return ScalarMul(scalar(), kid())
    return Ite(rand_any_expr(rng, ds, 1), kid(), kid())


def _kinded(e, ds):
    try:
        kind_of(e, ds)
    except (KindMismatch, UnsupportedConstruct):
        return False
    return True


def test_vec_polys_matches_the_reference_on_vector_terms():
    ds = small_dataspace()  # v : vec[2], w : vec[3]
    rng = random.Random(19)
    kinded = expanded = mixed = 0
    for _ in range(3000):
        dim = rng.choice((2, 3))
        e = _rand_vec_term(rng, ds, dim, 3)
        if _kinded(e, ds):
            kinded += 1
            got = _poly_outcome(arith.vec_polys, e, ds)
            want = _poly_outcome(_reference_vec_polys, e, ds)
            assert got == want or got[0] is want[0] is Unpolyable
            expanded += isinstance(got, list)
            # through a norm or an inner product, poly_of keeps the
            # reference's result exactly, its fallback atom included
            f = _rand_vec_term(rng, ds, dim, 2)
            for t in (Norm(e), Inner(e, f)):
                if _kinded(t, ds):
                    assert _poly_outcome(poly_of, t, ds) \
                        == _poly_outcome(reference_poly_of, t, ds)
        # the same term with one vector operand of the other dimension
        other = _rand_vec_term(rng, ds, 5 - dim, 1)
        op = rng.choice((Add, Sub))
        bad = op(e, other) if rng.random() < 0.5 else op(other, e)
        bad = rng.choice((lambda t: t, Neg, lambda t: ScalarMul(read("a"), t),
                          lambda t: Add(t, t)))(bad)
        with pytest.raises(Unpolyable):
            arith.vec_polys(bad, ds)
        mixed += 1
    assert kinded >= 900 and expanded >= 900 and mixed == 3000


def test_poly_of_cache_is_keyed_by_dataspace():
    as_vec, as_real = Dataspace(), Dataspace()
    as_vec.declare("p", vec(2))
    as_real.declare("p", REAL)
    for order in ((as_vec, as_real, as_vec), (as_real, as_vec, as_real)):
        p = read("p")
        for space in order:
            if space is as_vec:
                with pytest.raises(Unpolyable, match="vector read"):
                    poly_of(p, space)
            else:
                assert poly_of(p, space) == arith.Poly.atom(p)


def test_poly_of_raises_in_the_reference_order():
    # the Unpolyable of the left operand comes first, although the right
    # operand, built first, fails in another way
    e = Mul(And(TRUE, TRUE), read("undeclared"))
    env = simple_ds()
    for _ in range(2):
        assert _poly_outcome(poly_of, e, env) == _poly_outcome(reference_poly_of, e, env)
        assert _poly_outcome(poly_of, e, env)[0] is Unpolyable


def test_cached_unpolyable_is_raised_afresh():
    e = Add(x, And(TRUE, TRUE))
    env = simple_ds()
    seen = []
    for _ in range(2):
        with pytest.raises(Unpolyable) as info:
            poly_of(e, env)
        seen.append((str(info.value), len(traceback.extract_tb(info.value.__traceback__))))
    assert seen[0][0] == seen[1][0] == "not polynomial: And(left=BoolLit(value=True), " \
        "right=BoolLit(value=True))"
    assert seen[1][1] <= seen[0][1]
    assert "_poly" in e.__dict__ and isinstance(e.__dict__["_poly"][0], Dataspace)


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


def test_a_capped_fourier_motzkin_group_is_decided_without_its_products():
    # the pairwise products of these 4 hypotheses push elimination past
    # _FM_MAX_ROWS; the 3 that keep x >= 0 and x < 0 prove the goal alone,
    # so the 4 must as well
    ds = simple_ds()
    f = Implies(And(And(And(Ge(x, ZERO), Le(x, num(2))), Lt(x, ZERO)), Gt(x, num(-2))),
                Le(x, num(-1)))
    v = prove_vc(f, ctx_for(ds))
    assert v.status == "valid"
    assert v.rule == "fourier-motzkin"


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


def _capture_prone(rng):
    """A condition whose hypothesis pins a logical or a store read, and whose
    conclusion binds that logical or a logical of the pinned term, often
    around an if on the bound name.  The binders lean to forall, which
    q_eval can find false."""
    name = rng.choice("uw")
    v, w = LogicalVar(name), LogicalVar("w" if name == "u" else "u")
    lit = lambda: num(rng.randint(-2, 2))  # noqa: E731
    cmp = lambda a, b: rng.choice((Eq, Le, Lt, Ge, Gt))(a, b)  # noqa: E731
    atom = lambda: cmp(rng.choice((x, y, w, Add(x, y))), lit())  # noqa: E731
    binder = lambda body: rng.choice((Forall, Forall, Forall, Exists))(name, body)  # noqa: E731
    c = lit()
    pin = And(Eq(v, c), atom()) if rng.random() < 0.5 else Eq(c, v)
    shape = rng.randrange(3)
    if shape == 0:
        return Implies(pin, Or(atom(), binder(cmp(v, rng.choice((c, x, lit()))))))
    if shape == 1:
        t = rng.choice((v, Add(v, lit()), Sub(w, v)))
        hyp = Eq(x, t) if rng.random() < 0.7 else And(atom(), Eq(t, x))
        return Implies(hyp, Or(atom(), binder(cmp(x, rng.choice((v, Add(v, lit()), y))))))
    body = Ite(cmp(v, lit()), cmp(v, lit()), rng.choice((TRUE, cmp(v, lit()))))
    return Implies(pin, Or(atom(), binder(body)))


def test_no_proof_substitutes_under_a_capturing_binder():
    # equality substitution and the if split once reached under a binder of
    # the term's logicals, and proved such conditions where they fail
    ds = simple_ds()
    ctx = ctx_for(ds)
    rng = random.Random(2424)
    valid = 0
    for _ in range(200):
        f = _capture_prone(rng)
        if not prove_vc(f, ctx, falsify_trials=0).valid:
            continue
        valid += 1
        names = sorted(free_logicals(f))
        for _ in range(80):
            vals = [Fraction(rng.randint(-4, 4), 2) for _ in range(2 + len(names))]
            s = ds.make_store({"x": vals[0], "y": vals[1], "z": ZERO.value})
            env = dict(zip(names, vals[2:]))
            assert q_eval(f, s, env, ctx.box)[0] is not False, (f, vals)
    assert valid > 30


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


def test_the_sampling_box_is_no_premise():
    # the box [-100, 100] bounds only the falsifier's draws: x = 200
    # refutes both
    for f in (Le(x, num(101)), Implies(Ge(x, ZERO), Le(Mul(x, x), num(10001)))):
        assert not prove_vc(f, ctx_for(simple_ds())).valid


def test_a_one_sided_hypothesis_proves_through_interval():
    # x >= 2 leaves x unbounded above, and cos(x) < x holds on all of it
    out = prove_vc(Implies(Ge(x, num(2)), Lt(Cos(x), x)), ctx_for(simple_ds()))
    assert out.valid
    assert "interval" in out.rule


def test_a_logical_and_a_store_name_are_bounded_apart():
    # the hypothesis bounds the logical x, not the store's x
    f = Implies(Le(LogicalVar("x"), num(-200)), Le(x, num(-100)))
    assert not prove_vc(f, ctx_for(simple_ds())).valid


def test_an_atom_with_no_hypothesis_is_unbounded():
    out = prove_vc(Lt(Sin(y), num(2)), ctx_for(simple_ds()))
    assert out.valid
    assert "interval" in out.rule


def test_monotone_substitutes_upper_bounds_only():
    # exp(t) grows, so 1 <= t, a lower bound, says nothing of exp(t) <= 3
    t = LogicalVar("t")
    f = Implies(Le(ONE, t), Le(Exp(t), num(3)))
    assert not prove_vc(f, ctx_for(simple_ds())).valid


@pytest.mark.parametrize("a", [(0.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
@pytest.mark.parametrize("b", [(-math.inf, math.inf), (-math.inf, 2.0), (3.0, math.inf)])
def test_interval_products_with_an_open_side_hold_no_nan(a, b):
    # 0 * inf is 0, whatever order the endpoint products come in
    for e in (Mul(x, y), Mul(y, x)):
        lo, hi = arith.iv_eval(e, {"x": a, "y": b})
        assert lo <= hi  # false when either is NaN
        for p in a:
            for q in (max(b[0], -1e6), min(b[1], 1e6)):
                assert lo <= p * q <= hi


_FAR = Fraction(10 ** 4)  # points are drawn far beyond the box's [-100, 100]


def _rand_poly_term(rng, leaves, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves + [num(rand_rat(rng, -3, 3))])
    op = rng.choice((Add, Sub, Mul, Mul, Neg))
    if op is Neg:
        return Neg(_rand_poly_term(rng, leaves, depth - 1))
    return op(_rand_poly_term(rng, leaves, depth - 1),
              _rand_poly_term(rng, leaves, depth - 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_interval_proofs_hold_where_their_hypotheses_do(seed):
    # the bound sits just above the term's largest value on a grid over
    # each name's hypothesis range, a side with no hypothesis cut at the
    # box's edge: such a goal often holds in the box and fails beyond it,
    # where the checked points are drawn
    rng = random.Random(seed)
    ds = simple_ds()
    names = (x, y, LogicalVar("t"))
    hyps, ranges, grids = [], {}, []
    for v in names:
        a, b = sorted(rand_rat(rng) for _ in range(2))
        lo, hi = rng.choice(((a, b), (a, b), (a, None), (None, b), (None, None)))
        if lo is not None:
            hyps.append(Le(num(lo), v))
        if hi is not None:
            hyps.append(Le(v, num(hi)))
        ranges[v] = (-_FAR if lo is None else lo, _FAR if hi is None else hi)
        glo, ghi = (BOX_LO if lo is None else lo), (BOX_HI if hi is None else hi)
        grids.append([glo + (ghi - glo) * Fraction(i, 8) for i in range(9)])
    # a product of linear factors in t often needs subdivision over t
    term = rng.choice((_rand_poly_term(rng, list(names), 3),
                       functools.reduce(Mul, [Sub(names[2], num(rand_rat(rng)))
                                              for _ in range(rng.randint(2, 3))])))
    top = max(eval_expr(term, Store(ds, {"x": vx, "y": vy, "z": ZERO.value}), {"t": vt})
              for vx, vy, vt in itertools.product(*grids))
    bound = top + Fraction(rng.randint(0, 4), 16) * (1 + abs(top))
    concl = rng.choice((Le, Lt))(term, num(bound))
    out = prove_vc(Implies(conj(hyps), concl), ctx_for(ds), falsify_trials=0)
    if not (out.valid and "interval" in out.rule):
        return
    for _ in range(64):
        at = {v: lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)
              for v, (lo, hi) in ranges.items()}
        s = Store(ds, {"x": at[x], "y": at[y], "z": ZERO.value})
        assert eval_expr(concl, s, {"t": at[names[2]]}) is True, at


def _rand_entailed(rng):
    """A condition over x, y and z whose conclusion is a nonnegative
    combination of its hypotheses, loosened: valid by Fourier-Motzkin, and
    often by the prover's other rules."""
    hyps, total, strict = [], ZERO, False
    for _ in range(rng.randint(1, 4)):
        term = functools.reduce(Add, [Mul(num(rand_rat(rng, -3, 3)), v)
                                      for v in rng.sample((x, y, z, Mul(x, y)), 2)])
        c = num(rand_rat(rng, -3, 3))
        rel = rng.choice((Ge, Gt))
        hyps.append(rel(term, c))
        k = num(Fraction(rng.randint(0, 3)))
        total = Add(total, Mul(k, Sub(term, c)))
        strict = strict or (rel is Gt and k.value > 0)
    slack = num(Fraction(rng.randint(0, 2), 2))
    concl = (Gt if strict else Ge)(Add(total, slack), ZERO)
    return Implies(conj(hyps), concl)


_FRESH = [LogicalVar(f"f{i}") for i in range(10)]


def _rand_fresh_comparison(rng):
    a, b = rng.sample(_FRESH, 2)
    term = rng.choice((a, Sub(a, b), Mul(a, b), Pow(a, 2), Add(Mul(num(2), a), b)))
    return rng.choice((Le, Lt, Ge, Gt, Eq))(term, num(rand_rat(rng, -4, 4)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_comparisons_over_fresh_names_lose_no_proof(seed):
    # the added rows share no atom with the condition's, so they neither
    # help nor hinder it; before the prover split its rows by shared atoms,
    # they pushed Fourier-Motzkin past its variable cap
    rng = random.Random(seed)
    f = _rand_entailed(rng)
    ctx = ctx_for(simple_ds(), assumptions=(Ge(z, ZERO),) if rng.random() < 0.3 else ())
    if not prove_vc(f, ctx, falsify_trials=0).valid:
        return
    extra = [_rand_fresh_comparison(rng) for _ in range(rng.randint(1, 14))]
    out = prove_vc(Implies(conj(extra), f), ctx, falsify_trials=0)
    assert out.valid, (f, extra, out.rule)


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


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from([REAL, BOOL, vec(1), vec(2), vec(3)]),
       bounds=_RANGE)
def test_sampler_draws_pass_the_kind_check(seed, kind, bounds):
    # falsify builds its trial stores from these draws without make_store
    draw, rng = _sampler(kind, *bounds), random.Random(seed)
    for _ in range(5):
        v = draw(rng)
        assert check_value(kind, v) is v


def test_unknown_carries_smt():
    ds = simple_ds()
    f = Le(Mul(num(2), x), Add(Pow(x, 2), ONE))  # true, outside the fragment
    out = prove_vc(f, ctx_for(ds))
    assert out.status == "unknown"
    assert out.residual
    assert out.smt is not None
    assert "(set-logic" in out.smt and "(check-sat)" in out.smt


def test_smt_text_is_built_once_on_first_read(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return "text"

    monkeypatch.setattr(arith, "emit_smtlib", counting)
    f = Le(Mul(num(2), x), Add(Pow(x, 2), ONE))  # as in test_unknown_carries_smt
    out = prove_vc(f, ctx_for(simple_ds()), vc_name="c")
    assert out.status == "unknown" and calls == []
    assert out.smt == out.smt == "text"
    assert len(calls) == 1 and calls[0][2] == "c"


def test_smt_text_is_none_when_the_query_has_no_smtlib_form(monkeypatch):
    def unsupported(*args):
        raise UnsupportedConstruct("no form")

    monkeypatch.setattr(arith, "emit_smtlib", unsupported)
    out = prove_vc(Le(Mul(num(2), x), Add(Pow(x, 2), ONE)), ctx_for(simple_ds()))
    assert out.status == "unknown" and out.smt is None
    assert prove_vc(Ge(Pow(x, 2), ZERO), ctx_for(simple_ds())).smt is None


def test_verdict_equality_and_repr_ignore_the_query():
    out = prove_vc(Le(Mul(num(2), x), Add(Pow(x, 2), ONE)), ctx_for(simple_ds()))
    bare = Verdict(out.status, out.rule, out.witness, out.residual)
    assert out.query is not None and bare.query is None
    assert out == bare and repr(out) == repr(bare)
    assert "query" not in repr(out) and "smt" not in repr(out)


def test_condition_deeper_than_the_parser_bound_is_unknown():
    # 300 alternating terms stay a 300-level chain under simplify
    chain = x
    for i in range(299):
        chain = Add(chain, y if i % 2 == 0 else x)
    f = Ge(chain, ZERO)
    out = prove_vc(f, ctx_for(simple_ds()))
    assert (out.status, out.rule, out.smt) == ("unknown", "depth", None)
    assert len(out.residual) == 1 and out.residual[0] is f


def _rand_condition(rng, ds):
    """A conjunction of one to four comparisons of rand_total_expr and
    rand_any_expr terms, under zero to two such comparisons."""
    def comparison():
        term = lambda: (rand_total_expr if rng.random() < 0.6 else rand_any_expr)(rng, ds, 2)  # noqa: E731
        return rng.choice((Eq, Le, Lt, Ge, Gt))(term(), term())
    post = conj([comparison() for _ in range(rng.randint(1, 4))])
    hyps = [comparison() for _ in range(rng.randint(0, 2))]
    return Implies(conj(hyps), post) if hyps else post


def _verdict_outcome(prove, f, ds):
    try:
        return prove(f, ArithCtx(ds), vc_name="c", falsify_trials=40)
    except Exception as err:
        return type(err), str(err)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_prove_vc_decides_as_the_reference_that_tried_every_sequent(seed):
    ds = small_dataspace()
    f = _rand_condition(random.Random(seed), ds)
    got = _verdict_outcome(prove_vc, f, ds)
    want = _verdict_outcome(reference_prove_vc, f, ds)
    if not isinstance(want, Verdict):
        assert got == want
        return
    assert (got.status, got.rule, got.witness, got.smt) \
        == (want.status, want.rule, want.witness, want.smt)
    # the residual is the first sequent that failed to prove
    assert got.residual == want.residual[:1]


def test_a_condition_stops_at_its_first_failing_sequent(monkeypatch):
    calls = []
    prove = _Prover.prove

    def counting(self, hyps, concl, depth=0):
        if depth == 0:
            calls.append(concl)
        return prove(self, hyps, concl, depth)

    monkeypatch.setattr(_Prover, "prove", counting)
    ds = simple_ds()
    out = prove_vc(conj([Ge(x, ONE), Ge(y, ONE), Ge(z, ONE)]), ctx_for(ds))
    assert out.status == "invalid" and calls == [Ge(x, ONE)]
    # every sequent of a valid condition is tried, and each rule it used kept
    f = Implies(Ge(x, ONE), conj([Ge(x, ZERO), Ge(Mul(x, x), ONE), Gt(Add(x, y), y)]))
    calls.clear()
    out = prove_vc(f, ctx_for(ds))
    assert out.valid and len(calls) == 3
    assert out.rule == reference_prove_vc(f, ctx_for(ds)).rule


def test_a_negated_iff_is_proved_in_few_steps(monkeypatch):
    # negate once left not (a <-> b) as it was, and the prover negated it
    # again at every level until the depth cap
    calls = []
    prove = _Prover.prove

    def counting(self, hyps, concl, depth=0):
        calls.append(concl)
        return prove(self, hyps, concl, depth)

    monkeypatch.setattr(_Prover, "prove", counting)
    f = Implies(Gt(x, ZERO), Not(Iff(Gt(x, ZERO), Lt(x, ZERO))))
    out = prove_vc(f, ctx_for(simple_ds()))
    assert out.status == "valid" and len(calls) < 10


def _decided(f, ds, trials, prover, peeler):
    """reference_prove_vc's status, rule and witness for f with the given
    prover and peeler, and the prover's splits; or the error raised."""
    made = []

    def make(ds):
        made.append(prover(ds))
        return made[-1]

    try:
        out = reference_prove_vc(f, ArithCtx(ds), falsify_trials=trials, prover=make,
                                 peeler=peeler)
    except Exception as err:
        return (type(err), str(err)), 0
    return (out.status, out.rule, out.witness), sum(p.splits for p in made)


def _seeded_cases():
    """600 seeded (formula, dataspace) pairs: 200 each from _rand_condition,
    _capture_prone and _rand_formula."""
    rng = random.Random(2626)
    conditions, formulas = small_dataspace(), _formula_ds()
    return ([(_rand_condition(rng, conditions), conditions) for _ in range(200)]
            + [(_capture_prone(rng), simple_ds()) for _ in range(200)]
            + [(_rand_formula(rng, [], 2), formulas) for _ in range(200)])


def test_the_rule_table_decides_as_the_reference_prover():
    # the prover as one chain of rules, and peel with its own connective
    # split, against the rule table and peel by the prover's structural
    # rule; every other formula runs the falsifier
    valid = 0
    for i, (f, ds) in enumerate(_seeded_cases()):
        trials = (0, 40)[i % 2]
        want, want_splits = _decided(f, ds, trials, ReferenceProver, reference_peel)
        got, splits = _decided(f, ds, trials, _Prover, peel)
        assert got == want, f
        assert splits <= want_splits, f
        valid += got[0] == "valid"
    assert valid > 40


# one goal for each leaf rule, each over p = skip, so its condition is
# pre -> post
LEAF_PROBES = """\
dataspace leaves {
  variables x : real, y : real;
}

program p = skip

goal refute_eq : { x + y > 2 and x - y > 0 } p { x != 0 } by wp
goal infeasible : { x > y and y > x } p { x > 0 } by wp
goal either : { x > 1 } p { x < 0 or x > 1/2 } by wp
goal both_orders : { x <= y and y <= x } p { x = y } by wp
goal cosine : { x >= 2 } p { cos(x) < x } by wp
goal decay : { x >= 0 } p { forall t. 0 <= t -> x * exp(-t) <= x } by wp
goal square : { true } p { (x + y)^2 = x^2 + 2*x*y + y^2 } by wp
goal radical : { x > 0 } p { sqrt(x)^2 / x = 1 } by wp
"""

LEAF_RULES = ("sign", "poly", "fourier-motzkin", "monotone", "interval")


def test_each_leaf_rule_proves_a_formula_the_falsifier_cannot_refute():
    # a floor on each leaf rule's valid verdicts over the seeded formulas
    # and the probes, and a check of every valid verdict by the falsifier
    model = parse(LEAF_PROBES)
    cases = _seeded_cases() + [(Implies(g.pre, g.post), model.dataspace)
                               for g in model.goals]
    valid = dict.fromkeys(LEAF_RULES, 0)
    for f, ds in cases:
        ctx = ArithCtx(ds)
        out = prove_vc(f, ctx, falsify_trials=0)
        if not out.valid:
            continue
        for rule in set(out.rule.split(",")).intersection(valid):
            valid[rule] += 1
        assert falsify(f, ctx, trials=200) is None, f
    assert all(n >= 1 for n in valid.values()), valid


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

    def top(e):
        return subterms(e, stop=(Le, Lt, Ge, Gt))
    assert _bound_terms(top(nested), "v") == []
    assert _bound_terms(top(And(nested, Ge(v, z))), "v") == [(z, False)]
    assert _bound_terms(top(And(Lt(v, x), Ge(v, z))), "v") == [(x, True), (z, False)]


def test_bound_terms_read_each_pair_once():
    v = LogicalVar("v")
    atoms = [Lt(v, x), Le(v, x), Ge(x, v), Le(x, v), Le(v, v), Le(v, Add(v, x))]
    assert _bound_terms(atoms, "v") == [(x, True), (x, False)]


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


@st.composite
def _operands(draw, tol):
    """Two reals, exact or float, a distance from each other on, just
    inside, just outside or far outside the float margin."""
    b = draw(st.fractions(-100, 100, max_denominator=8))
    k = draw(st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 1e6])) * draw(st.sampled_from([1, -1]))
    a = float(b) + k * tol * (1.0 + 2 * abs(float(b)))
    return (a if draw(st.booleans()) else Fraction(a),
            float(b) if draw(st.booleans()) else b)


def _outcome(fn, *args):
    try:
        r = fn(*args)
    except TypeError:
        return TypeError
    return r, type(r)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), op=st.sampled_from([Eq, Neq, Le, Lt, Ge, Gt]),
       tol=st.sampled_from([1e-9, 1e-7]),
       shape=st.sampled_from(["scalar", "vector", "ragged", "vector-scalar"]))
def test_comparison_matches_the_reference(data, op, tol, shape):
    if shape == "scalar":
        a, b = data.draw(_operands(tol))
    else:
        pairs = data.draw(st.lists(_operands(tol), min_size=1, max_size=3))
        a, b = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
        if shape == "ragged":
            b = b[:-1]
        elif shape == "vector-scalar":
            b = b[0]
    assert _outcome(_comparison(op), a, b, tol) == _outcome(_cmp_vals, op, a, b, tol)


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


@pytest.mark.parametrize("rel,negated,normal", [
    (Eq, Neq(x, y), Eq(x, y)), (Neq, Eq(x, y), Neq(x, y)), (Le, Lt(y, x), Le(x, y)),
    (Lt, Le(y, x), Lt(x, y)), (Ge, Lt(x, y), Le(y, x)), (Gt, Le(x, y), Lt(y, x)),
])
def test_negate_complements_and_norm_rel_flips_each_comparison(rel, negated, normal):
    atom = rel(x, y)
    assert (negate(atom), norm_rel(atom)) == (negated, normal)
    for a, b in ((0, 1), (1, 1), (1, 0)):
        at = {"x": Fraction(a), "y": Fraction(b)}
        assert truth(negated, **at) is not truth(atom, **at)
        assert truth(normal, **at) is truth(atom, **at)


def test_implies_negates_a_quantified_antecedent():
    # negate(forall t. ...) is exists t. 0 <= t <= 1 and t < 0: its grid is
    # [0, 0], which finds no witness, so the antecedent's negation is
    # undecided; Not(forall) would make it False and the implication False
    t = LogicalVar("t")
    inside = Forall("t", Implies(And(Le(ZERO, t), Le(t, ONE)), Ge(t, ZERO)))
    assert truth(Implies(inside, Gt(x, num(5))), x=Fraction(0)) is None
    # negate(forall v. v <= 5) is exists v. 5 < v, which the grid exhibits;
    # Not(forall) is undecided, since no grid point fails the forall
    below = Forall("v", Le(LogicalVar("v"), num(5)))
    assert truth(Implies(below, Gt(x, num(5))), x=Fraction(0)) is True
    assert truth(Or(Not(below), Gt(x, num(5))), x=Fraction(0)) is None


_v, _t = LogicalVar("v"), LogicalVar("t")


@pytest.mark.parametrize("formula", [
    # the default box cuts the range to [1000, 100]
    Exists("v", Gt(_v, num(1000))),
    # the bounds under the or leave [5, 3], and the instance is 7
    Exists("v", Or(And(Ge(_v, num(5)), Le(_v, num(3))), Eq(_v, num(7)))),
    # every grid point of [-100, 100] holds: the forall is not thereby True
    Not(Forall("v", Le(_v, num(1000)))),
    # the binder t is not the free logical t
    Or(Gt(_t, num(100)), Exists("t", Eq(_t, ZERO))),
], ids=["empty-range", "bounds-under-or", "negated-forall", "captured-binder"])
def test_valid_quantified_formulas_are_not_refuted(formula):
    assert falsify(formula, ctx_for(simple_ds()), seed=0) is None


def test_a_forall_is_refuted_by_its_failing_instance():
    w = falsify(Forall("v", Lt(_v, num(3))), ctx_for(simple_ds()), seed=0)
    assert w is not None and w["env"] == {"v": Fraction(3)}


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


def _formula_ds():
    """The names _rand_formula reads."""
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("y", REAL)
    ds.declare("v", vec(2))
    ds.declare("flag", BOOL)
    return ds


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
@example(27036)
def test_q_eval_matches_the_reference_walker(seed):
    rng = random.Random(seed)
    f = _rand_formula(rng, [], 3)
    twin = _rand_formula(random.Random(seed), [], 3)
    before = (repr(f), hash(f))
    ds = _formula_ds()
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


def _guard_over_time(rng):
    """A condition shaped like a flow's guard over time: the outer binder's
    range is bounded by a store value, the inner binder's by the outer
    binder."""
    tau, sig = LogicalVar("t"), LogicalVar("u")
    inner = Forall("u", Implies(And(Le(ZERO, sig), Le(sig, tau)),
                                _rand_formula(rng, ["t", "u"], 1)))
    return Forall("t", Implies(And(Le(ZERO, tau), Le(tau, rng.choice((x, y)))), inner))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_falsify_refutes_as_the_reference(seed):
    rng = random.Random(seed)
    pick = rng.random()
    if pick < 0.3:
        f = _guard_over_time(rng)
    elif pick < 0.5:
        # a binder bounded by a store value: forall t. t <= x -> ...
        t = LogicalVar("t")
        f = Forall("t", Implies(Le(t, x), _rand_formula(rng, ["t"], 2)))
    else:
        f = _rand_formula(rng, [], 3)
    # assumptions that reject some draws; _rand_term's free logical q is
    # drawn after the store
    assumptions = tuple(rng.choice((Gt(x, num(rand_rat(rng, -2, 2))),
                                    Le(y, num(rand_rat(rng, -2, 2))),
                                    _rand_formula(rng, [], 1)))
                        for _ in range(rng.randint(0, 2)))
    narrow = Box({"t": (Fraction(-2), Fraction(2)), "u": (Fraction(-1), Fraction(3)),
                  "x": (Fraction(-3), Fraction(3)), "y": (Fraction(-3), Fraction(3))})
    ctx = ArithCtx(_formula_ds(), assumptions=assumptions,
                   box=rng.choice((None, narrow)), seed=seed)
    trials = rng.randint(1, 40)
    assert falsify(f, ctx, trials=trials) == reference_falsify(f, ctx, trials=trials)


@settings(max_examples=200, deadline=None)
@given(lo=st.fractions(-12, 12, max_denominator=64), width=st.fractions(-4, 24, max_denominator=64))
def test_grid_is_the_reference_points_as_a_tuple(lo, width):
    # an inverted range too, and an empty one whose points all coincide
    got = arith._grid(lo, lo + width)
    assert type(got) is tuple and got == tuple(reference_grid(lo, lo + width))
    assert arith._grid(lo, lo + width) is got


def test_grid_cache_stays_bounded():
    for i in range(1000):
        arith._grid(Fraction(i, 7), Fraction(i + 1, 3))
    info = arith._grid.cache_info()
    assert info.currsize <= info.maxsize


def _tank_vcs():
    """The tank model and its goals' conditions, each with its goal's name."""
    model = parse((MODELS / "tank.hsv").read_text())
    table = FlowTable(model.dataspace)
    for decl in model.flows:
        ode = model.programs[decl.target]
        table.register(ode.frame, ode.rhs, decl.flow)
    return model, [(goal.name, vc) for goal in model.goals
                   for vc in gen_vcs(Triple(goal.pre, model.programs[goal.prog_name],
                                            goal.post), table)]


def _tank_conditions():
    """The tank model and the formulas of its goals' conditions.  Those
    through a flow quantify its guard over time: forall tau. 0 <= tau ->
    (forall sig. 0 <= sig and sig <= tau -> guard) -> post."""
    model, vcs = _tank_vcs()
    return model, [vc.formula for _, vc in vcs]


def _with_prover(monkeypatch, prover, run):
    """What run() returns while prove_vc makes its sequent provers with
    prover, and the splits and rules of each prover made, in order."""
    made = []

    def make(ds):
        made.append(prover(ds))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(arith, "_Prover", make)
        out = run()
    return out, [(p.splits, p.rules) for p in made]


def _verdict(f, ctx, trials):
    """prove_vc's status, rule and witness for f, or the error raised."""
    try:
        out = arith.prove_vc(f, ctx, falsify_trials=trials)
    except Exception as err:
        return type(err), str(err)
    return out.status, out.rule, out.witness


def test_the_memo_changes_no_verdict_and_no_count(monkeypatch, capsys):
    for i, (f, ds) in enumerate(_seeded_cases()):
        def decide(f=f, ds=ds, trials=(0, 40)[i % 2]):
            return _verdict(f, ArithCtx(ds), trials)
        want = _with_prover(monkeypatch, UnmemoizedProver, decide)
        assert _with_prover(monkeypatch, _Prover, decide) == want, f
    # every condition of the shipped models, through the report
    for path in sorted(MODELS.glob("*.hsv")):
        for seed in (0, 1):
            def report(path=path, seed=seed):
                code = cli.main(["verify", str(path), "--json", "-", "--seed", str(seed)])
                return code, capsys.readouterr().out
            want = _with_prover(monkeypatch, UnmemoizedProver, report)
            assert _with_prover(monkeypatch, _Prover, report) == want, (path.name, seed)


def test_the_memo_keeps_to_the_split_budget(monkeypatch):
    model, vcs = _tank_vcs()
    vc, = (vc for goal, vc in vcs if goal == "tank_correct" and vc.vc_id == "loop-preserve")
    ctx = ArithCtx(model.dataspace, assumptions=model.assumptions(), seed=0)

    def decide():
        return _verdict(vc.formula, ctx, 0)

    _, [(splits, _)] = _with_prover(monkeypatch, _Prover, decide)
    # the proof needs a budget of splits - 1; today its last repeated
    # antecedent spends 8 splits from split 163 of 174, so its memo entry
    # fits a budget of 171, a second proof of it fits 170, and 169 cuts it
    statuses = set()
    for budget in range(splits - 5, splits + 2):
        monkeypatch.setattr(arith, "_SPLIT_BUDGET", budget)
        want = _with_prover(monkeypatch, UnmemoizedProver, decide)
        assert _with_prover(monkeypatch, _Prover, decide) == want, budget
        statuses.add(want[0][0])
    assert statuses == {"valid", "unknown"}


def test_the_memo_keeps_to_the_depth_cap(monkeypatch):
    # the antecedent x > 0 of the same plain hypotheses is asked at depth 1
    # in the first sequent and, after the case split, at depth 2 in the
    # second; under a cap of 1 only the first is proved
    ds = simple_ds()
    mp = Implies(Gt(x, ZERO), Gt(y, ZERO))
    f = And(Implies(And(Gt(x, ZERO), mp), Gt(y, ZERO)),
            Implies(And(Or(Gt(x, ZERO), Gt(y, ZERO)), mp), Gt(y, ZERO)))

    def decide():
        return _verdict(f, ArithCtx(ds), 0)

    statuses = set()
    for cap in range(4):
        monkeypatch.setattr(arith, "_DEPTH_CAP", cap)
        want = _with_prover(monkeypatch, UnmemoizedProver, decide)
        assert _with_prover(monkeypatch, _Prover, decide) == want, cap
        statuses.add(want[0][0])
    assert statuses == {"valid", "unknown"}


def test_an_entailment_is_kept_per_radical_mode():
    # x >= 1 follows from sqrt(x)^2 >= 1 only once the radical is reduced
    hyps = [Ge(x, ZERO), Ge(Pow(Sqrt(x), 2), ONE)]
    for prover in (UnmemoizedProver, _Prover):
        p = prover(simple_ds())
        got = [p._entails(hyps, Ge(x, ONE), reduce) for reduce in (False, True, False)]
        assert got == [False, True, False], prover


def test_tank_proves_each_antecedent_once(monkeypatch, capsys):
    calls, asked = [], set()
    prove, antecedent = _Prover.prove, _Prover._antecedent

    def counted(self, hyps, concl, depth=0):
        calls.append((self, tuple(hyps), concl, depth))
        return prove(self, hyps, concl, depth)

    def recorded(self, plain, goal, depth):
        asked.add((self, tuple(plain), goal, depth))
        return antecedent(self, plain, goal, depth)

    monkeypatch.setattr(_Prover, "prove", counted)
    monkeypatch.setattr(_Prover, "_antecedent", recorded)
    assert cli.main(["verify", str(MODELS / "tank.hsv"), "--seed", "0"]) == 0
    # without the memo, this run made 322 prove calls
    assert len(calls) < 322
    proved = Counter(c for c in calls if c in asked)
    assert proved and max(proved.values()) == 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_falsify_refutes_tank_conditions_as_the_reference(seed):
    model, formulas = _tank_conditions()
    ctx = ArithCtx(model.dataspace, assumptions=model.assumptions(), seed=seed)
    for f in formulas:
        assert falsify(f, ctx, trials=60) == reference_falsify(f, ctx, trials=60)


# -- answer sets --------------------------------------------------------------


_t = LogicalVar("t")


def _truth_shapes(rng):
    """A formula of _rand_formula, or a rand_any_expr term, or one of the
    shapes whose rules differ most: nested binders, an Implies with a
    quantified antecedent, an Ite in a truth position, and an Iff."""
    ds = _formula_ds()
    kid = lambda: (_rand_formula(rng, [], 2) if rng.random() < 0.6  # noqa: E731
                   else rand_any_expr(rng, ds, 2))
    pick = rng.random()
    if pick < 0.3:
        return _rand_formula(rng, [], 3)
    if pick < 0.45:
        return rand_any_expr(rng, ds, 3)
    if pick < 0.6:
        inner = rng.choice((Forall, Exists))("p", kid())
        return rng.choice((Forall, Exists))(rng.choice("pt"), rng.choice((And, Or))(inner, kid()))
    if pick < 0.75:
        lo = Le(_t, rng.choice((x, y, num(1))))
        return Implies(rng.choice((Forall, Exists))("t", Implies(lo, kid())), kid())
    if pick < 0.9:
        return Ite(kid(), kid(), kid())
    return Iff(kid(), kid())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_every_answer_lies_in_the_answer_set(seed):
    rng = random.Random(seed)
    f = _truth_shapes(rng)
    ds = _formula_ds()
    narrow = Box({"t": (Fraction(-2), Fraction(2)), "p": (Fraction(-1), Fraction(3))})
    stores = []
    for _ in range(3):
        vals = {"x": rand_rat(rng, -3, 3), "y": rand_rat(rng, -3, 3),
                "v": (rand_rat(rng, -2, 2), rand_rat(rng, -2, 2)), "flag": rng.random() < 0.5}
        stores.append(ds.make_store(vals))
        stores.append(ds.make_store({**vals, "x": float(vals["x"]) * (1 + 1e-10)}))
    # every node, each read in a truth position, holds its own set
    for sub in subterms(f):
        answers = arith._answers(sub)
        assert answers <= {True, False}
        for s in stores:
            env = {n: rand_rat(rng, -2, 2) for n in "pqtu" if rng.random() < 0.5}
            for box in (Box(), narrow):
                try:
                    r, _ = q_eval(sub, s, env, box)
                except Exception:
                    continue  # an error, such as a rand_any_expr kind error, answers nothing
                assert r is None or r in answers, (sub, r, answers)


def test_tank_conditions_can_never_be_false():
    # each condition through a guarded flow reads (forall sig. ... guard)
    # -> post, that is (exists sig. not ...) or post, and a grid Exists is
    # never False; the conditions with no flow can be
    _, formulas = _tank_conditions()
    through_flow = [f for f in formulas if has_type(f, (Forall, Exists))]
    assert len(through_flow) == 3 and len(formulas) == 7
    for f in formulas:
        assert (False in arith._answers(f)) == (f not in through_flow)


def test_answer_sets_of_binders_and_comparisons():
    body = Le(_t, x)
    assert arith._answers(Exists("t", body)) == {True}
    assert arith._answers(Forall("t", body)) == {False}
    assert arith._answers(body) == {True, False}
    assert arith._answers(Not(Exists("t", body))) == {False}
    assert arith._answers(Exists("t", Forall("u", body))) == set()
    # an Implies reads its negated antecedent: not forall is an Exists
    assert arith._answers(Implies(Forall("t", body), Lt(x, y))) == {True}
    assert arith._answers(Implies(Exists("t", body), Lt(x, y))) == {True, False}
    assert arith._answers(Implies(Lt(x, y), Exists("t", body))) == {True}
    assert arith._answers(And(TRUE, Forall("t", body))) == {False}
    assert arith._answers(Or(BoolLit(False), Forall("t", body))) == {False}
    assert arith._answers(Iff(TRUE, Exists("t", body))) == {True}
    assert arith._answers(Iff(BoolLit(False), Exists("t", body))) == {False}
    assert arith._answers(Ite(Lt(x, y), TRUE, Exists("t", body))) == {True}
    # a condition never True picks the other branch, or none when undecided
    assert arith._answers(Ite(Forall("t", body), BoolLit(False), TRUE)) == {True}


@pytest.fixture
def trial_stores(monkeypatch):
    """The number of trial stores falsify builds."""
    built = []
    monkeypatch.setattr(arith, "Store", lambda *a: built.append(a) or Store(*a))
    return built


def test_falsify_draws_nothing_for_a_formula_that_is_never_false(trial_stores):
    ctx = ctx_for(simple_ds())
    never = Or(Exists("t", Lt(_t, x)), Lt(x, x))
    assert falsify(never, ctx) is None and trial_stores == []
    assert reference_falsify(never, ctx) is None
    # the count sees the trials that do run
    assert falsify(Lt(x, x), ctx) is not None and trial_stores


def test_falsify_draws_nothing_under_an_assumption_that_is_never_true(trial_stores):
    ctx = ctx_for(simple_ds(), assumptions=(Gt(x, ZERO), Forall("t", Le(_t, x))))
    assert falsify(Lt(x, x), ctx) is None and trial_stores == []
    assert reference_falsify(Lt(x, x), ctx) is None


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
    env = simple_ds()
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
