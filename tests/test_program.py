import math
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hsverify.expr import (
    Add,
    And,
    BoolLit,
    Div,
    DivisionByZero,
    Eq,
    Folded,
    Ge,
    Gt,
    Ite,
    Le,
    Neg,
    Not,
    Or,
    Pow,
    Sub,
    Subst,
    TRUE,
    VecLit,
    fold_constants,
    num,
    read,
    subst_logical,
)
from hsverify.program import (
    Abort,
    Assign,
    Choice,
    Evol,
    If,
    Loop,
    ODE,
    Seq,
    SimConfig,
    Skip,
    StepSizeTooLarge,
    Test,
    eval_guard,
    format_trace,
    interval,
    framed,
    modset,
    simulate_traced,
    subprograms,
    _orbit_field,
)
from hsverify import program
from hsverify.store import Coord, Dataspace, Frame, REAL, Var, lens_get, vec
from hsverify.expr import Exp, LogicalVar, Mul, eval_expr

from helpers import (
    rand_any_expr, rand_rat, rand_store, rand_total_expr, reference_eval,
    reference_simulate_traced, small_dataspace,
)


def xy_ds():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("t", REAL)
    return ds


def decay(ds):
    return ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))


def test_modset_structure():
    ds = small_dataspace()
    p = Seq(Assign(Subst(((Var("a"), num(1)),), ds)),
            If(read("flag"),
               Assign(Subst(((Coord("v", 1), num(0)),), ds)),
               Skip()))
    assert list(subprograms(p)) == [p, p.first, p.second, p.second.then, p.second.other]
    assert modset(p).members == (Var("a"), Coord("v", 1))
    assert not any(modset(p).overlaps(l) for l in (Var("b"), Coord("v", 2)))
    assert modset(p).overlaps(Var("v"))
    loop = Loop(p, invariant=TRUE)
    assert modset(loop) == modset(p)


def test_framed():
    """framed keeps each conjunct once, true dropped, that reads nothing
    the program writes."""
    ds = small_dataspace()
    a, b, v1, v2 = read("a"), read("b"), read("v", 1), read("v", 2)
    ode = ODE(Frame([Var("a")]), Subst(((Var("a"), b),), ds))
    facts = And(And(Gt(b, num(0)), TRUE), And(Ge(a, num(0)), Gt(b, num(0))))
    assert framed(ode, facts) == [Gt(b, num(0))]
    # writing v[1] leaves v[2] alone, and a fact reading all of v is written
    bump = Assign(Subst(((Coord("v", 1), num(0)),), ds))
    facts = And(And(Ge(v2, a), Ge(v1, a)), And(Eq(read("v"), read("v")), Ge(v2, a)))
    assert framed(bump, facts) == [Ge(v2, a)]
    assert framed(Seq(bump, ode), facts) == []
    assert framed(Skip(), TRUE) == []


def test_skip_abort_test():
    ds = xy_ds()
    s = ds.make_store({"x": 1, "t": 0})
    assert simulate_traced(Skip(), s) == [(0.0, s)]
    assert simulate_traced(Abort(), s) == []
    assert simulate_traced(Test(Ge(read("x"), num(0))), s) == [(0.0, s)]
    assert simulate_traced(Test(Ge(read("x"), num(2))), s) == []


def test_assign_and_seq():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": Fraction(0)})
    p = Seq(Assign(Subst(((Var("x"), num(5)),), ds)),
            Assign(Subst(((Var("t"), read("x")),), ds)))
    out = simulate_traced(p, s)
    assert len(out) == 1
    assert out[0][1].get("x") == 5 and out[0][1].get("t") == 5


def test_choice_seeded_and_explored():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": 0})
    p = Choice(Assign(Subst(((Var("x"), num(1)),), ds)),
               Assign(Subst(((Var("x"), num(2)),), ds)))
    a = simulate_traced(p, s, SimConfig(rng_seed=1))
    b = simulate_traced(p, s, SimConfig(rng_seed=1))
    assert a == b


def test_decay_reaches_inverse_e():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})
    out = simulate_traced(decay(ds), s, SimConfig(step=0.01, horizon=1.0, samples_per_orbit=200))
    assert abs(out[-1][1].get("x") - math.exp(-1)) < 1e-8


def test_rk4_fourth_order_convergence():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})

    def max_err(step):
        cfg = SimConfig(step=step, horizon=1.0, samples_per_orbit=100000)
        worst = 0.0
        for t, st in simulate_traced(decay(ds), s, cfg):
            worst = max(worst, abs(st.get("x") - math.exp(-t)))
        return worst

    assert max_err(0.001) <= 1e-6
    assert max_err(0.02) / max_err(0.01) >= 8.0


def test_guard_stops_orbit_with_down_closure():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                guard=Le(read("t"), num(1)))
    out = simulate_traced(clock, s, SimConfig(step=0.25, horizon=10.0))
    times = [t for t, _ in out]
    assert times[-1] <= 1.0 + 1e-6
    assert max(st.get("t") for _, st in out) <= 1.0 + 1e-6
    # Guard false at entry: the orbit is empty.
    s_bad = ds.make_store({"x": 0, "t": Fraction(2)})
    assert simulate_traced(clock, s_bad, SimConfig(step=0.25, horizon=2.0)) == []


def test_guard_boundary_is_refined_by_bisection():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                guard=Le(read("t"), num("0.35")))
    out = simulate_traced(clock, s, SimConfig(step=0.2, horizon=2.0))
    last = out[-1][1].get("t")
    assert 0.34 < last <= 0.35 + 1e-6


def test_guard_holds_unless_false_beyond_the_margin():
    ds = xy_ds()
    near = ds.make_store({"x": 1.0 + 1e-12, "t": 0})
    assert eval_guard(Le(read("x"), num(1)), near)
    assert eval_guard(Not(Le(read("x"), num(1))), near)
    exact = ds.make_store({"x": Fraction(1), "t": 0})
    assert not eval_guard(Not(Le(read("x"), num(1))), exact)
    far = ds.make_store({"x": 1.0 + 1e-6, "t": 0})
    assert not eval_guard(Le(read("x"), num(1)), far)


def test_step_too_large_for_thin_guard():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    thin = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
               guard=Le(read("t"), num("1e-9")))
    with pytest.raises(StepSizeTooLarge):
        simulate_traced(thin, s, SimConfig(step=10.0, horizon=20.0))


def test_duration_interval_filters_samples():
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": Fraction(0)})
    clock = ODE(Frame([Var("t")]), Subst(((Var("t"), num(1)),), ds),
                dur=interval(Fraction(1, 2), 1))
    out = simulate_traced(clock, s, SimConfig(step=0.25, horizon=2.0, samples_per_orbit=1000))
    assert all(0.5 <= t <= 1.0 + 1e-9 for t, _ in out)


def test_duration_interval_ends_the_integration(monkeypatch):
    # once tau reaches the interval's end no step can add a sample, so no
    # step is taken: the guard, one that does not fold, is checked once per
    # step
    ds = xy_ds()
    s = ds.make_store({"x": 1, "t": 0})
    grow = ODE(Frame([Var("x")]), Subst(((Var("x"), read("x")),), ds),
               guard=Ge(read("x"), num(0)), dur=interval(0, 1))
    checks = []
    check = program.eval_guard
    monkeypatch.setattr(program, "eval_guard", lambda *a: checks.append(1) or check(*a))
    orbits = []
    for horizon in (1.0, 100.0):
        del checks[:]
        orbits.append(simulate_traced(grow, s, SimConfig(step=0.01, horizon=horizon)))
        assert 100 <= len(checks) <= 103
    assert orbits[0] == orbits[1]


def test_a_true_guard_is_never_evaluated(monkeypatch):
    ds = xy_ds()
    s = ds.make_store({"x": 1, "t": 0})
    grow = ODE(Frame([Var("x")]), Subst(((Var("x"), read("x")),), ds))
    flow = Evol(Frame([Var("x")]), Subst(((Var("x"), Add(read("x"), LogicalVar("tau"))),), ds))
    checks = []
    check = program.eval_guard
    monkeypatch.setattr(program, "eval_guard", lambda *a: checks.append(1) or check(*a))
    for p in (grow, flow):
        assert len(simulate_traced(p, s, SimConfig(step=0.01, horizon=1.0))) > 1
    assert checks == []


def test_evol_samples_are_built_without_lens_writes(monkeypatch):
    # each sample is one copy of the start store with the frame rebound, as
    # an RK4 stage store is; no Frame.put, so no lens_put or kind check
    from hsverify import expr as ex_mod, store
    from hsverify.syntax import parse
    models = pathlib.Path(__file__).resolve().parent.parent / "models"
    model = parse((models / "decay.hsv").read_text(encoding="utf-8"))
    calls = []
    for owner in (store.Frame, store, ex_mod):
        name = "put" if owner is store.Frame else "lens_put"
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real: calls.append(a) or _real(*a))
    s0 = model.dataspace.make_store({"x": Fraction(3, 2)}, default_missing=True)
    out = simulate_traced(model.programs["sol"], s0, SimConfig(step=0.01, horizon=2.0))
    assert len(out) > 10 and calls == []
    assert out[0][1] == s0 and out[-1][1].get("x") == pytest.approx(1.5 * math.exp(-2.0))


def test_duration_bounds_compare_exactly():
    tenth = interval(0, Fraction(1, 10))
    assert not tenth.contains(0.1)  # the double nearest 0.1 exceeds 1/10
    assert tenth.contains(Fraction(1, 10))
    unit = interval(0, 1)
    for tau in (-1e-300, -0.0, 0.0, 0.5, 1.0, 1.0000000000000002, 2.0, math.inf,
                Fraction(1), Fraction(3, 2), 1):
        assert unit.contains(tau) == (Fraction(0) <= tau <= Fraction(1))


def test_test_after_guard_uses_the_guard_margin():
    # RK4 lands on x = 0.30000000000000004, which the guard admits within
    # its margin; the test after it must admit that state too.
    ds = xy_ds()
    s = ds.make_store({"x": 0, "t": 0})
    bound = Le(read("x"), num("3/10"))
    flow = ODE(Frame([Var("x")]), Subst(((Var("x"), num(1)),), ds), guard=bound)
    cfg = SimConfig(step=0.1, horizon=1.0)
    alone = simulate_traced(flow, s, cfg)
    tested = simulate_traced(Seq(flow, Test(bound)), s, cfg)
    assert tested == alone
    assert tested[-1][0] == pytest.approx(0.3)


def test_discrete_vars_constant_through_ode():
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("k", REAL)
    s = ds.make_store({"x": Fraction(1), "k": Fraction(42)})
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), Neg(read("x"))),), ds))
    for _, st in simulate_traced(ode, s, SimConfig(step=0.1, horizon=1.0)):
        assert st.get("k") == Fraction(42)


def test_ode_over_coordinates_keeps_the_rest_of_the_vector():
    ds = small_dataspace()
    s = ds.make_store({"a": 0, "b": 0, "v": (Fraction(5), Fraction(0)),
                       "w": (Fraction(0), Fraction(7), Fraction(0)), "flag": False})
    rhs = Subst(((Coord("v", 2), num(1)), (Coord("w", 1), read("v", 2)),
                 (Coord("w", 3), Neg(num(1)))), ds)
    ode = ODE(Frame([Coord("v", 2), Coord("w", 1), Coord("w", 3)]), rhs)
    last = simulate_traced(ode, s, SimConfig(step=0.25, horizon=1.0))[-1][1]
    assert last.get("v") == (Fraction(5), 1.0)
    assert last.get("w") == (pytest.approx(0.5), Fraction(7), -1.0)
    assert type(last.get("w")[1]) is Fraction


def test_evol_matches_closed_form():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(1), "t": 0})
    flow = Subst(((Var("x"), Mul(read("x"), Exp(Neg(LogicalVar("tau"))))),), ds)
    ev = Evol(Frame([Var("x")]), flow)
    out = simulate_traced(ev, s, SimConfig(step=0.125, horizon=1.0, samples_per_orbit=100))
    for t, st in out:
        assert abs(st.get("x") - math.exp(-t)) < 1e-12


def test_loop_iterations_bounded_by_horizon():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(0), "t": 0})
    bump = Assign(Subst(((Var("x"), Add(read("x"), num(1))),), ds))
    out = simulate_traced(Loop(bump), s, SimConfig(horizon=3.0))
    assert {st.get("x") for _, st in out} == {0, 1, 2, 3}


def test_trace_format():
    ds = small_dataspace()
    s = ds.make_store({"a": Fraction(1, 2), "b": 0, "v": (1, 2), "w": (0, 0, 0),
                       "flag": True})
    text = format_trace([(0.0, s)])
    line = text.strip()
    head, fields = line.split("\t")
    assert head == "0.000000"
    assert fields == "a=1/2 b=0 v=[1, 2] w=[0, 0, 0] flag=true"


# -- folding each orbit's constants

FRAMES = (Frame([Var("a")]), Frame([Var("a"), Coord("v", 1)]), Frame([Var("b"), Var("w")]),
          Frame([Coord("w", 2), Coord("v", 2)]))


def _orbit(seed):
    """A random ODE over small_dataspace, a start store whose reals are
    exact or float at random, and three flat states along the orbit.  The
    free logical variables p and q read b and a, so that more fields
    evaluate."""
    rng = random.Random(seed)
    ds = small_dataspace()
    frame = rng.choice(FRAMES)
    exact = rand_store(rng, ds)
    vals = {}
    for name, v in exact.items():
        if isinstance(v, bool) or rng.random() < 0.5:
            vals[name] = v
        elif isinstance(v, tuple):
            vals[name] = tuple(float(c) if rng.random() < 0.5 else c for c in v)
        else:
            vals[name] = float(v)
    s = ds.make_store(vals)

    def term(depth):
        e = rand_any_expr(rng, ds, depth)
        return subst_logical(subst_logical(e, "p", read("b")), "q", read("a"))

    rhs = Subst(tuple((m, term(3)) for m in frame.members), ds)
    ode = ODE(frame, rhs, guard=term(4))
    y0 = _orbit_field(ode, s)[0]
    ys = [y0] + [tuple(c + float(rand_rat(rng)) for c in y0) for _ in range(2)]
    return ode, s, ys


def _outcome(f, *args):
    """f's result, with each float as its exact bits, or the error it raised."""
    try:
        v = f(*args)
    except Exception as err:
        return type(err), str(err)
    return tuple(c.hex() for c in v) if isinstance(v, tuple) else v


def _reference_field(ode, s, st):
    out = []
    for m in ode.frame.members:
        v = reference_eval(ode.rhs.lookup(m), st)
        if isinstance(lens_get(m, s), tuple):
            out.extend(float(c) for c in v)
        else:
            out.append(float(v))
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_folded_field_matches_the_reference_bit_for_bit(seed):
    ode, s, ys = _orbit(seed)
    _, unpack, fdot = _orbit_field(ode, s)
    for y in ys:
        st = unpack(y)
        assert _outcome(fdot, y) == _outcome(_reference_field, ode, s, st)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_folded_guard_decides_as_the_guard(seed):
    ode, s, ys = _orbit(seed)
    folded = fold_constants(ode.guard, s, ode.frame, formula=True)
    unpack = _orbit_field(ode, s)[1]
    for st in [s] + [unpack(y) for y in ys]:
        assert _outcome(eval_guard, folded, st) == _outcome(eval_guard, ode.guard, st)


def _bits(v):
    """A store value with each float as its exact bits and each other
    value with its type."""
    if isinstance(v, tuple):
        return tuple(_bits(c) for c in v)
    return v.hex() if isinstance(v, float) else (type(v).__name__, repr(v))


def _samples(p, s, cfg, simulate):
    """simulate's samples bit for bit, or the error it raised."""
    try:
        out = simulate(p, s, cfg)
    except Exception as err:
        return type(err), str(err)
    return [(t.hex(), [(name, _bits(v)) for name, v in st.items()]) for t, st in out]


def _sampled_orbit(seed):
    """_orbit's ODE, or one whose field has each member's kind, with a
    guard that is true, folds (it reads nothing the frame moves) or moves,
    and an optional duration interval; or an evol over the same frame whose
    flows follow tau and can divide by zero at a grid point.  Step, horizon
    and samples per orbit vary too."""
    ode, s, _ = _orbit(seed)
    rng = random.Random(f"sampled:{seed}")
    frame, ds = ode.frame, s.dataspace
    cfg = SimConfig(step=rng.choice((0.25, 0.125, 0.0625, 0.1)), horizon=rng.choice((0.5, 1.0, 2.0)),
                    samples_per_orbit=rng.choice((2, 3, 5, 64)))
    cmp = rng.choice((Le, Ge, Gt, Eq))
    kind = rng.choice(("true", "folded", "moving"))
    if kind == "true":
        guard = TRUE
    elif kind == "folded":
        still = [n for n in ("a", "b") if not any(m.name == n for m in frame.members)]
        guard = cmp(read(rng.choice(still)), num(rand_rat(rng)))
    elif rng.random() < 0.5:
        guard = ode.guard
    else:  # the first member is real in every frame
        first = frame.members[0]
        guard = cmp(read(first.name, getattr(first, "index", None)), num(rand_rat(rng)))

    def subst(term):
        rows = []
        for m in frame.members:
            v = lens_get(m, s)
            rows.append((m, VecLit(tuple(term() for _ in v)) if isinstance(v, tuple) else term()))
        return Subst(tuple(rows), ds)

    pick = rng.random()
    if pick < 0.6:
        rhs = ode.rhs if rng.random() < 0.5 else subst(lambda: rand_total_expr(rng, ds, 2))
        if pick < 0.3:
            lo = rand_rat(rng, 0, 1)
            return ODE(frame, rhs, guard, interval(lo, lo + rand_rat(rng, 0, 2))), s, cfg
        return ODE(frame, rhs, guard), s, cfg
    tau = LogicalVar("tau")

    def flow():
        e = Add(rand_total_expr(rng, ds, 2), Mul(tau, rand_total_expr(rng, ds, 1)))
        if rng.random() < 0.3:  # 1 / (tau - r) divides by zero where tau = r
            e = Add(e, Div(num(1), Sub(tau, num(rand_rat(rng, 0, 2)))))
        return e

    if guard is ode.guard:
        guard = cmp(tau, num(rand_rat(rng, 0, 2)))
    return Evol(frame, subst(flow), guard), s, cfg


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_orbit_samples_match_the_reference_bit_for_bit(seed):
    p, s, cfg = _sampled_orbit(seed)
    assert _samples(p, s, cfg, simulate_traced) == _samples(p, s, cfg, reference_simulate_traced)


def test_constant_sub_terms_fold_exactly():
    ds = small_dataspace()
    s = ds.make_store({"a": Fraction(1, 2), "b": 0.25, "v": (Fraction(1), 2.0),
                       "w": (0, 0, 0), "flag": True})
    frame = Frame([Var("a")])
    # b - 1/2 is constant; a moves, and so does the logical variable tau
    e = Add(read("a"), Sub(read("b"), num("1/2")))
    assert fold_constants(e, s, frame) == Add(read("a"), Folded(-0.25))
    assert fold_constants(Mul(read("v", 1), LogicalVar("tau")), s, frame) \
        == Mul(Folded(Fraction(1)), LogicalVar("tau"))
    # nothing constant: the very same node comes back
    assert fold_constants(e.left, s, frame) is e.left
    # a comparison keeps its shape, so q_eval still applies its margin
    assert fold_constants(Le(read("b"), num(1)), s, frame, formula=True) \
        == Le(Folded(0.25), num(1))


def test_constant_branch_that_raises_is_left_unfolded():
    # x' = if x > 0 then -x else 1/(c - c): the else branch is constant and
    # raises, so it stays, and only raises if the orbit reaches it
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("c", REAL)
    rhs = Ite(Gt(read("x"), num(0)), Neg(read("x")), Div(num(1), Sub(read("c"), read("c"))))
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), rhs),), ds), guard=Gt(read("x"), num(0)))
    s = ds.make_store({"x": Fraction(1), "c": Fraction(2)})
    assert fold_constants(rhs, s, ode.frame) is rhs
    out = simulate_traced(ode, s, SimConfig(step=0.1, horizon=1.0))
    assert out[-1][0] == pytest.approx(1.0)
    assert out[-1][1].get("x") == pytest.approx(math.exp(-1.0), rel=1e-6)
    at_zero = ds.make_store({"x": Fraction(0), "c": Fraction(2)})
    with pytest.raises(DivisionByZero, match="^1 / 0$"):
        simulate_traced(ODE(ode.frame, ode.rhs), at_zero, SimConfig(step=0.1, horizon=1.0))


def test_branches_of_a_moving_if_stay_unfolded():
    # only the condition folds; a constant branch, costly in exact
    # arithmetic, is not worked out unless the orbit reaches it, and
    # neither are the constant parts of a moving branch
    ds = Dataspace()
    ds.declare("x", REAL)
    ds.declare("c", REAL)
    x, c = read("x"), read("c")
    costly = Pow(Add(c, num("1/3")), 100000)
    s = ds.make_store({"x": Fraction(1), "c": Fraction(2)})
    frame = Frame([Var("x")])
    for rhs in (Ite(Gt(x, num(0)), Neg(x), costly), Ite(Gt(x, c), Neg(x), Mul(x, costly))):
        folded = fold_constants(rhs, s, frame)
        assert folded.then is rhs.then and folded.other is rhs.other
    assert fold_constants(Ite(Gt(x, c), Neg(x), costly), s, frame).cond == Gt(x, Folded(Fraction(2)))
    # a constant condition makes the whole if constant: it folds to the
    # branch taken, and the other is never evaluated
    assert fold_constants(Ite(Gt(c, num(0)), Neg(c), costly), s, frame) == Folded(Fraction(-2))


def test_guard_folds_under_a_short_circuit():
    # q_eval never reaches the right operand while x > 0, but its constant
    # parts are worked out once per orbit all the same
    ds = xy_ds()
    ds.declare("c", REAL)
    s = ds.make_store({"x": 1, "t": 0, "c": Fraction(2)})
    c = read("c")
    guard = Or(Gt(read("x"), num(0)), Gt(Sub(c, c), num(0)))
    assert fold_constants(guard, s, Frame([Var("x")]), formula=True) \
        == Or(guard.left, Gt(Folded(Fraction(0)), num(0)))


def test_frame_free_float_comparison_keeps_the_guard_margin():
    # c = 0.1 + 0.2 is just above 3/10: exactly false, but within the margin
    ds = xy_ds()
    ds.declare("c", REAL)
    s = ds.make_store({"x": 0, "t": 0, "c": 0.1 + 0.2})
    guard = Le(read("c"), num("3/10"))
    ode = ODE(Frame([Var("x")]), Subst(((Var("x"), num(1)),), ds), guard=guard)
    assert not eval_expr(guard, s)
    out = simulate_traced(ode, s, SimConfig(step=0.25, horizon=1.0))
    assert [t for t, _ in out] == [0.0, 0.25, 0.5, 0.75, 1.0]


def test_guard_keeps_the_if_that_q_eval_splits():
    # c >= 3/10 holds exactly but is undecided within the margin, so q_eval
    # evaluates both branches of this ill-kinded guard and the second raises;
    # folding the if whole to its exact value 1 would hide that
    ds = xy_ds()
    ds.declare("c", REAL)
    s = ds.make_store({"x": 0, "t": 0, "c": 0.1 + 0.2})
    c = read("c")
    guard = Not(Ite(Ge(c, num("3/10")), num(1), Div(num(1), Sub(c, c))))
    folded = fold_constants(guard, s, Frame([Var("x")]), formula=True)
    for g in (guard, folded):
        with pytest.raises(DivisionByZero):
            eval_guard(g, s)


def test_evol_trace_keeps_its_exact_first_sample():
    ds = xy_ds()
    s = ds.make_store({"x": Fraction(3, 2), "t": 0})
    flow = Subst(((Var("x"), Mul(read("x"), Exp(Neg(LogicalVar("tau"))))),), ds)
    out = simulate_traced(Evol(Frame([Var("x")]), flow), s, SimConfig(step=0.5, horizon=1.0))
    first = out[0][1].get("x")
    assert type(first) is Fraction and first == Fraction(3, 2)
    assert format_trace(out[:1]) == "0.000000\tx=3/2 t=0\n"


def test_fold_walk_needs_no_recursion():
    ds = xy_ds()
    s = ds.make_store({"x": 1, "t": 0})
    e = read("x")
    for _ in range(5000):
        e = Add(e, read("t"))
    moving = fold_constants(e, s, Frame([Var("x"), Var("t")]))
    assert moving is e

