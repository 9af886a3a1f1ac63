"""Model file reader and writer."""

import random
from fractions import Fraction

import pytest

from hsverify.expr import (
    Add,
    And,
    Coord,
    Eq,
    Exp,
    Ge,
    Gt,
    Iff,
    Implies,
    Inner,
    Ite,
    Le,
    LogicalVar,
    Lt,
    Mul,
    Neg,
    Or,
    Pow,
    RatLit,
    ScalarMul,
    Sub,
    Subst,
    TRUE,
    VecLit,
    eval_expr,
    num,
    read,
)
from hsverify.program import Assign, Choice, Evol, If, Loop, ODE, Seq, Skip, TAU, Test
from hsverify.store import BOOL, CONSTANT, GHOST, REAL, VARIABLE, Var, vec
from hsverify.syntax import (
    FlowDecl,
    Goal,
    MAX_NESTING,
    Method,
    ModelFile,
    ParseError,
    parse,
    pretty,
    pretty_expr,
    tokenize,
)

from helpers import rand_store, rand_total_expr, small_dataspace

PREAMBLE = """
dataspace m {
  constants c : real;
  variables x : real, z : real, u : vec[2], flag : bool;
  ghost y : real;
  assumes cpos: c > 0;
}
program noop = skip
"""


def parse_expr(src: str):
    m = parse(PREAMBLE + f"\ngoal g : {{ {src} }} noop {{ true }} by wp")
    return m.goals[0].pre


def parse_prog(src: str):
    m = parse(PREAMBLE + f"\nprogram p = {src}")
    return m.programs["p"]


# -- tokens

def test_tokenizer_positions():
    toks = tokenize("x :=\n  1/2")
    assert [(t.text, t.line, t.col) for t in toks] == [
        ("x", 1, 1), (":=", 1, 3), ("1", 2, 3), ("/", 2, 4), ("2", 2, 5),
        ("", 2, 6)]


def test_tokenizer_comments_and_aliases():
    toks = tokenize("a ≤ b  # ignored ≥\nc ∧ ¬d")
    assert [t.text for t in toks[:-1]] == ["a", "<=", "b", "c", "and", "not", "d"]


def test_tokenizer_range_vs_decimal():
    assert [t.text for t in tokenize("0..5")[:-1]] == ["0", "..", "5"]
    assert [t.value for t in tokenize("0.5")[:-1]] == [Fraction(1, 2)]


def test_tokenizer_rejects_stray():
    with pytest.raises(ParseError) as e:
        tokenize("x @ y")
    assert e.value.line == 1 and e.value.col == 3


# -- expressions

def test_precedence():
    assert parse_expr("x + 2 * c > 0") == Gt(Add(read("x"), Mul(num(2), read("c"))), num(0))
    assert parse_expr("-x^2 < 0") == Lt(Neg(Pow(read("x"), 2)), num(0))


def test_connective_precedence():
    e = parse_expr("x > 0 and x < 1 or flag")
    assert isinstance(e, Or) and isinstance(e.left, And)
    e = parse_expr("x > 0 -> x > 1 -> x > 2")
    assert isinstance(e, Implies) and isinstance(e.right, Implies)
    assert isinstance(parse_expr("flag <-> flag"), Iff)


def test_undeclared_names_are_logical():
    assert parse_expr("x <= x0") == Le(read("x"), LogicalVar("x0"))


def test_vector_syntax():
    e = parse_expr("u = [1, 2]")
    assert e == Eq(read("u"), VecLit((num(1), num(2))))
    assert parse_expr("u[1] >= 0").left == read("u", 1)


def test_kind_directed_star():
    assert isinstance(parse_expr("x * c > 0").left, Mul)
    m = parse(PREAMBLE + "\nprogram p = u := x * u")
    rhs = m.programs["p"].subst.entries[0][1]
    assert rhs == ScalarMul(read("x"), read("u"))
    assert parse_expr("u * u > 0").left == Inner(read("u"), read("u"))


def test_ite_expression():
    e = parse_expr("(if flag then x else -x) >= 0")
    assert e.left == Ite(read("flag"), read("x"), Neg(read("x")))


def test_literal_folding():
    assert parse_expr("x > -3").right == RatLit(-3)
    assert parse_expr("x > 1/2").right == RatLit(Fraction(1, 2))


def test_coordinate_out_of_range_is_located():
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("u[3] > 0")


def test_kind_error_is_located():
    with pytest.raises(ParseError, match="mixed|non-real"):
        parse_expr("x + flag > 0")


# -- dataspace

def test_roles_and_kinds():
    m = parse(PREAMBLE)
    ds = m.dataspace
    assert ds.role_of("c") == CONSTANT
    assert ds.role_of("x") == VARIABLE
    assert ds.role_of("y") == GHOST
    assert ds.kind_of("u") == vec(2)
    assert ds.kind_of("flag") == BOOL
    assert m.assumes == (("cpos", Gt(read("c"), num(0))),)


def test_duplicate_declaration_is_located():
    bad = "dataspace m {\n  variables x : real, x : real;\n}"
    with pytest.raises(ParseError) as e:
        parse(bad)
    assert e.value.line == 2


def test_ghost_must_be_real():
    with pytest.raises(ParseError, match="real-valued"):
        parse("dataspace m { ghost g : bool; }")


def test_dataspace_required_before_use():
    with pytest.raises(ParseError, match="dataspace"):
        parse("program p = skip")


# -- programs

def test_program_atoms():
    assert parse_prog("skip") == Skip()
    assert parse_prog("? x > 0") == Test(Gt(read("x"), num(0)))
    p = parse_prog("x := x + 1")
    assert isinstance(p, Assign)
    assert p.subst.entries == ((Var("x"), Add(read("x"), num(1))),)


def test_simultaneous_assignment():
    p = parse_prog("(x, z) := (z, x)")
    assert p.subst.entries == ((Var("x"), read("z")), (Var("z"), read("x")))
    q = parse_prog("u[1] := 0")
    assert q.subst.entries == ((Coord("u", 1), num(0)),)


def test_assignment_checks():
    with pytest.raises(ParseError, match="undeclared"):
        parse_prog("w := 1")
    with pytest.raises(ParseError, match="arity"):
        parse_prog("(x, z) := (1, 2, 3)")
    with pytest.raises(ParseError, match="wrong kind"):
        parse_prog("x := flag")


def test_seq_and_choice():
    p = parse_prog("skip ; x := 1 ; skip")
    assert p == Seq(Skip(), Seq(Assign(p.second.first.subst), Skip()))
    q = parse_prog("x := 1 | x := 2 ; skip")
    assert isinstance(q, Choice) and isinstance(q.right, Seq)


def test_if_branches_are_units():
    p = parse_prog("if flag then x := 1 else skip ; z := 2")
    assert isinstance(p, Seq) and isinstance(p.first, If)


def test_loop_body_is_maximal():
    p = parse_prog("loop x := 1 ; z := 2 inv x > 0")
    assert isinstance(p, Loop)
    assert isinstance(p.body, Seq)
    assert p.invariant == Gt(read("x"), num(0))


def test_ode_defaults_and_options():
    p = parse_prog("{x' = -x}")
    assert isinstance(p, ODE)
    assert p.guard == TRUE and p.dur.hi is None
    q = parse_prog("{x' = -x, z' = 1 | z <= 5 on 0..5}")
    assert q.guard == Le(read("z"), num(5))
    assert (q.dur.lo, q.dur.hi) == (0, 5)
    assert [l.name for l in q.frame.members] == ["x", "z"]


def test_evol_brace():
    p = parse_prog("{evol x = x * exp(-tau) | x >= 0}")
    assert isinstance(p, Evol)
    assert p.flow.entries[0][1] == Mul(read("x"), Exp(Neg(LogicalVar(TAU))))


def test_program_reference_inlines():
    m = parse(PREAMBLE + "\nprogram two = noop ; noop")
    assert m.programs["two"] == Seq(Skip(), Skip())
    with pytest.raises(ParseError, match="unknown program"):
        parse_prog("mystery")


# -- flows and goals

TANK = """
dataspace wt {
  constants ci : real, co : real, Hl : real, Hu : real;
  variables h : real, t : real, flw : bool;
  ghost y : real;
  assumes out_pos: 0 < co, net_in: co < ci;
}

program ctrl = t := 0 ; if flw then ? h < Hu else ? h > Hl

program fill = {h' = ci - co, t' = 1 | h <= Hu}

program tank = loop ctrl ; fill inv h >= Hl and h <= Hu

flow rise for fill = [h ~> (ci - co) * tau + h, t ~> tau + t] lipschitz 1

goal keep : { h >= Hl and h <= Hu } tank { h >= Hl } by dProve using net_in

goal rise_safe : { h >= Hl } fill { h >= Hl } by flow(rise)
"""


def test_flow_declaration():
    m = parse(TANK)
    f = m.flows[0]
    assert f.name == "rise" and f.target == "fill"
    assert f.lipschitz == 1
    assert f.flow.entries[0][0] == Var("h")


def test_flow_target_must_be_ode():
    bad = TANK.replace("for fill", "for ctrl")
    with pytest.raises(ParseError, match="not an ODE"):
        parse(bad)


def test_goal_parsing():
    m = parse(TANK)
    g = m.goals[0]
    assert g == Goal("keep", And(Ge(read("h"), read("Hl")), Le(read("h"), read("Hu"))),
                     "tank", Ge(read("h"), read("Hl")), Method("dProve"), ("net_in",))
    assert m.goals[1].method == Method("flow", ("rise",))


def test_goal_method_arguments():
    src = PREAMBLE + ("\nprogram dec = {x' = -x}\n"
                      "goal pos : { x > 0 } dec { x > 0 } by "
                      "dGhost(y, x * y^2 = 1, 1/2)")
    g = parse(src).goals[0]
    assert g.method.name == "dGhost"
    ghost, inv, rate = g.method.args
    assert ghost == "y"
    assert inv == Eq(Mul(read("x"), Pow(read("y"), 2)), num(1))
    assert rate == Fraction(1, 2)


def test_goal_reference_checks():
    with pytest.raises(ParseError, match="unknown program"):
        parse(PREAMBLE + "\ngoal g : { true } ghostly { true } by wp")
    with pytest.raises(ParseError, match="unknown assumption"):
        parse(PREAMBLE + "\ngoal g : { true } noop { true } by wp using nope")
    with pytest.raises(ParseError, match="unknown flow"):
        parse(PREAMBLE + "\ngoal g : { true } noop { true } by flow(nope)")
    with pytest.raises(ParseError, match="not a declared ghost"):
        parse(PREAMBLE + "\ngoal g : { true } noop { true } by dGhost(x, true, 1)")


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate program"):
        parse(PREAMBLE + "\nprogram noop = skip")
    with pytest.raises(ParseError, match="duplicate goal"):
        parse(PREAMBLE + "\ngoal g : { true } noop { true } by wp\n"
                         "goal g : { true } noop { true } by wp")


def nested_parens(depth):
    return ("dataspace d {\n  variables x : real;\n}\n"
            "program p = x := " + "(" * depth + "x" + ")" * depth + "\n")


def test_nesting_at_the_limit_parses():
    m = parse(nested_parens(MAX_NESTING))
    assert m.programs["p"] == Assign(Subst(((Var("x"), read("x")),)))


def test_nesting_over_the_limit_is_a_parse_error():
    with pytest.raises(ParseError, match="nested more than"):
        parse(nested_parens(MAX_NESTING + 1))
    # far past the interpreter's recursion limit, still a clean error
    with pytest.raises(ParseError, match="nested more than"):
        parse(nested_parens(5000))
    with pytest.raises(ParseError, match="nested more than"):
        parse(PREAMBLE + "\ngoal n : { " + "not " * 5000 + "true } noop { true } by wp")


# -- round trips

def test_round_trip_tank():
    m = parse(TANK)
    txt = pretty(m)
    m2 = parse(txt)
    assert m2 == m
    assert pretty(m2) == txt


def test_round_trip_minimal():
    src = "dataspace empty {}\nprogram p = skip\ngoal g : { true } p { true } by wp"
    m = parse(src)
    assert parse(pretty(m)) == m


def test_random_exprs_print_and_reparse():
    rng = random.Random(7)
    ds = small_dataspace()
    header = ("dataspace t {\n"
              "  variables a : real, b : real, v : vec[2], w : vec[3], flag : bool;\n"
              "}\n")
    for _ in range(150):
        e = rand_total_expr(rng, ds, depth=3)
        src = header + f"program p = a := {pretty_expr(e)}"
        e2 = parse(src).programs["p"].subst.entries[0][1]
        assert pretty_expr(e2) == pretty_expr(e)
        for _ in range(3):
            s = rand_store(rng, ds)
            assert eval_expr(e2, s) == eval_expr(e, s)
