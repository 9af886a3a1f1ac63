"""Model file reader and writer."""

import pathlib
import random
from fractions import Fraction

import pytest

from hsverify.expr import (
    Add,
    And,
    Coord,
    Eq,
    Exists,
    Exp,
    Forall,
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
    Not,
    Or,
    Pow,
    RatLit,
    ScalarMul,
    Sub,
    Subst,
    TRUE,
    VecLit,
    depth,
    eval_expr,
    num,
    read,
)
from hsverify.program import Assign, Choice, Evol, If, Loop, ODE, Seq, Skip, TAU, Test
from hsverify.store import BOOL, CONSTANT, GHOST, REAL, VARIABLE, Var, vec
from hsverify.syntax import (
    FlowDecl,
    Goal,
    MAX_DEPTH,
    MAX_NESTING,
    Method,
    ModelFile,
    ParseError,
    parse,
    pretty,
    pretty_expr,
    tokenize,
)

from helpers import ReferenceParser, rand_store, rand_total_expr, small_dataspace

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
    # a number is decimal digits and a name is a Python identifier: a
    # superscript digit is part of neither
    for src, col in (("x @ y", 3), ("x := 2²", 7), ("x := ²", 6), ("x := x²", 7)):
        with pytest.raises(ParseError, match="stray character") as e:
            tokenize(src)
        assert e.value.line == 1 and e.value.col == col


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
    # a comparison takes no comparison as an operand
    with pytest.raises(ParseError, match="expected '}', found '<'") as e:
        parse_expr("x < z < 1")
    assert e.value.col == len("goal g : { x < z ") + 1
    assert parse_expr("not x = z") == Not(Eq(read("x"), read("z")))
    # a quantifier's body is read at the power of ->
    assert parse_expr("exists v. v = 1 <-> flag") \
        == Iff(Exists("v", Eq(LogicalVar("v"), num(1))), read("flag"))
    assert parse_expr("flag -> flag <-> flag") \
        == Iff(Implies(read("flag"), read("flag")), read("flag"))


# the reader against the reference reader: random token strings of a
# formula grammar, some mutated a token or two

_TOKENS = ("<->", "->", "or", "and", "not", "=", "<=", "<", ">=", ">", "!=", "+", "-", "*",
           "/", "^", "(", ")", "[", "]", ",", ".", "if", "then", "else", "exists", "forall",
           "x", "u", "flag", "v", "1", "sin", "inner", "}")


def _formula_tokens(rng, kind, depth):
    """The tokens of a random well-kinded expression of kind "bool" or
    "real".  A real `if` is bracketed and `^` follows an atom, so the text
    reads back as an expression of that kind."""
    def sub(k):
        return _formula_tokens(rng, k, depth - 1)

    r = rng.random() if depth > 0 else 1.0
    if kind == "bool":
        if r < 0.3:
            return sub("bool") + [rng.choice(("<->", "->", "or", "and"))] + sub("bool")
        if r < 0.45:
            return sub("real") + [rng.choice(("=", "<=", "<", ">=", ">", "!="))] + sub("real")
        if r < 0.55:
            return ["not"] + sub("bool")
        if r < 0.65:
            return [rng.choice(("exists", "forall")), rng.choice(("v", "w")), "."] + sub("bool")
        if r < 0.7:
            return ["if"] + sub("bool") + ["then"] + sub("bool") + ["else"] + sub("bool")
        if r < 0.85:
            return ["("] + sub("bool") + [")"]
        return [rng.choice(("flag", "true", "false"))]
    atom = rng.choice(("x", "z", "c", "y", "u[1]", "v", "w", "x0", "0", "2", "2.5"))
    if r < 0.3:
        return sub("real") + [rng.choice(("+", "-", "*", "/"))] + sub("real")
    if r < 0.4:
        return ["-"] + sub("real")
    if r < 0.45:
        return [atom, "^", rng.choice(("0", "2", "3"))]
    if r < 0.55:
        return ["("] + sub("real") + [")"]
    if r < 0.6:
        return ["(", "if"] + sub("bool") + ["then"] + sub("real") + ["else"] + sub("real") + [")"]
    if r < 0.65:
        return [rng.choice(("sin", "sqrt")), "("] + sub("real") + [")"]
    if r < 0.68:
        return ["inner", "(", "u", ",", "["] + sub("real") + [","] + sub("real") + ["]", ")"]
    return [atom]


def _mutated_tokens(rng):
    if rng.random() < 0.05:
        # near MAX_NESTING, through each construct that nests
        k = rng.randint(MAX_NESTING - 4, MAX_NESTING + 2)
        inner = _formula_tokens(rng, "bool", 2)
        toks = rng.choice((["("] * k + inner + [")"] * k, ["not"] * k + inner,
                           ["flag", "->"] * k + inner,
                           ["-"] * k + ["x", "<", "1"]))
    else:
        toks = _formula_tokens(rng, rng.choice(("bool",) * 9 + ("real",)), 4)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        i = rng.randrange(len(toks))
        how = rng.randrange(4)
        if how == 0 and len(toks) > 1:
            del toks[i]
        elif how == 1:
            toks.insert(i, rng.choice(_TOKENS))
        elif how == 2:
            toks[i] = rng.choice(_TOKENS)
        elif how == 3 and i + 1 < len(toks):
            toks[i], toks[i + 1] = toks[i + 1], toks[i]
    return toks


def _goals_or_error(reader, text):
    try:
        return reader(text).goals
    except ParseError as err:
        return str(err), err.line, err.col


def test_reader_matches_the_reference_reader():
    rng = random.Random(1973)
    trees = 0
    for _ in range(1200):
        text = PREAMBLE + "\ngoal g : { " + " ".join(_mutated_tokens(rng)) + " } noop { true } by wp"
        got = _goals_or_error(parse, text)
        assert got == _goals_or_error(lambda s: ReferenceParser(s).model(), text), text
        trees += isinstance(got[0], Goal)
    assert trees >= 400


def test_undeclared_names_are_logical():
    assert parse_expr("x <= x0") == Le(read("x"), LogicalVar("x0"))


def test_a_quantifier_binds_an_undeclared_name():
    assert parse_expr("exists v. v <= x") == Exists("v", Le(LogicalVar("v"), read("x")))
    assert parse_expr("forall t. t * t >= 0") \
        == Forall("t", Ge(Mul(LogicalVar("t"), LogicalVar("t")), num(0)))


@pytest.mark.parametrize("src, name", [
    ("exists x. x <= 0", "x"),   # a variable
    ("forall c. c > 0", "c"),    # a constant
    ("flag or exists y. y = 0", "y"),  # a ghost
    ("exists v. forall u. v <= 1", "u"),  # a vector, under another binder
])
def test_a_binder_with_a_declared_name_is_a_located_error(src, name):
    # it would bind nothing: the body's name reads the store
    with pytest.raises(ParseError, match=f"bound variable '{name}' is a declared name") as e:
        parse_expr(src)
    goal_line = PREAMBLE.count("\n") + 2
    col = len("goal g : { ") + src.index(f" {name}.") + 2
    assert (e.value.line, e.value.col) == (goal_line, col)


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


@pytest.mark.parametrize("src, where", [
    # a formula that is not boolean, in each place the reader wants one
    (PREAMBLE.replace("cpos: c > 0", "cpos: c + 1"), "6:17: expected a boolean formula"),
    (PREAMBLE + "program p = ? x + 1", "9:15: expected a boolean formula"),
    (PREAMBLE + "program p = if x then skip else skip", "9:16: expected a boolean formula"),
    (PREAMBLE + "program p = loop skip inv x", "9:27: expected a boolean formula"),
    (PREAMBLE + "program p = { x' = 1 | x }", "9:24: expected a boolean formula"),
    (PREAMBLE + "goal g : { x } noop { true } by wp", "9:12: expected a boolean formula"),
    (PREAMBLE + "goal g : { true } noop { x } by wp", "9:26: expected a boolean formula"),
    (PREAMBLE + "goal g : { true } noop { true } by dGhost(y, x, 1)",
     "9:46: expected a boolean formula"),
    # a term of the wrong kind for its target
    (PREAMBLE + "program p = { x' = 1, z' = flag }", "9:28: field for z has the wrong kind"),
    (PREAMBLE + "program p = { evol x = x + tau, z = flag }",
     "9:37: flow for z has the wrong kind"),
    (PREAMBLE + "program p = { x' = 1 }\nflow f for p = [x ~> u]",
     "10:22: flow for x has the wrong kind"),
    (PREAMBLE + "program p = (x, z) := (1, flag)",
     "9:27: assigned expression has the wrong kind for z"),
    # a coordinate index that is not an integer, in a target and in a term
    (PREAMBLE + "program p = u[x] := 0", "9:15: coordinate index must be an integer"),
    (PREAMBLE + "program p = x := u[0.5]", "9:20: coordinate index must be an integer"),
    (PREAMBLE + "program p = (x, z) := (1, 2, 3)", "9:14: assignment arity mismatch"),
    # a constant as a target, which would make the assumption on it untrue
    (PREAMBLE + "program q = c := 1", "9:13: constant 'c' cannot be written"),
    (PREAMBLE + "program q = (x, c) := (1, 2)", "9:17: constant 'c' cannot be written"),
    (PREAMBLE + "program q = { x' = 1, c' = 0 }", "9:23: constant 'c' cannot be written"),
    (PREAMBLE + "program q = { evol c = c + tau }", "9:20: constant 'c' cannot be written"),
    (PREAMBLE + "program q = { x' = 1 }\nflow f for q = [x ~> x + tau, c ~> c]",
     "10:31: constant 'c' cannot be written"),
], ids=["assumption", "test", "if", "inv", "guard", "pre", "post", "dGhost", "field",
        "evol", "flow", "assign", "target-index", "term-index", "arity", "const-assign",
        "const-tuple", "const-field", "const-evol", "const-flow"])
def test_reader_errors_are_located(src, where):
    with pytest.raises(ParseError) as e:
        parse(src)
    assert str(e.value) == where


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


# flows may be declared after the goals that use them, so these names are
# checked once the file is read; each error still points at the name
REFS = PREAMBLE + """program p = { x' = -x }
goal ok : { x >= 0 } p { x >= 0 } by flow(shrink) using cpos
goal g : { x >= 0 } p { x >= 0 } by flow(nope)
goal h : { x >= 0 } p { x >= 0 } by dInductMega using cpos, nope
flow shrink for p = [x ~> x * exp(-tau)] lipschitz 1
"""


@pytest.mark.parametrize("drop,msg,line,col", [
    (None, "goal g uses unknown flow 'nope'", 11, 42),
    ("goal g ", "goal h uses unknown assumption 'nope'", 12, 61),
])
def test_unknown_references_point_at_the_name(drop, msg, line, col):
    text = REFS if drop is None else "\n".join(
        ln for ln in REFS.splitlines() if not ln.startswith(drop))
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value).endswith(msg)
    # a dropped line shifts the ones below it
    assert (e.value.line, e.value.col) == (line - (drop is not None), col)


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


def chain(op, n):
    return ("dataspace d {\n  variables x : real;\n}\n"
            "program p = x := " + f" {op} ".join(["x"] * n) + "\n")


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_chain_at_the_depth_limit_parses(op):
    e = parse(chain(op, MAX_DEPTH)).programs["p"].subst.entries[0][1]
    assert depth(e) == MAX_DEPTH


@pytest.mark.parametrize("op", ["+", "*"])
@pytest.mark.parametrize("n", [MAX_DEPTH + 1, 600, 5000])
def test_chain_over_the_depth_limit_is_a_parse_error(op, n):
    # a left-associated chain is one level per operator; 600 terms used to
    # end in a RecursionError from the kind check
    with pytest.raises(ParseError, match=f"more than {MAX_DEPTH} levels deep"):
        parse(chain(op, n))


# -- round trips

def _assert_round_trip(src: str):
    m = parse(src)
    txt = pretty(m)
    m2 = parse(txt)
    assert m2 == m
    assert pretty(m2) == txt


def test_round_trip_tank():
    _assert_round_trip(TANK)


# a duration interval, a guarded closed-form evolution and a quantifier
# over an <->, which no shipped model prints
DURATIONS = """
dataspace clocked {
  variables x : real, z : real;
}

program timed = { x' = -x, z' = 1 | z <= 5 on 1/2..2 }
program drift = { evol x = x + tau, z = z | z <= 3 }

goal stays : { x >= 0 } timed { x >= 0 } by dInductMega
goal body : { true } timed { exists v. (v = 1 <-> x = 1) } by wp
"""

# chains bracketed against their grouping, a tuple assignment, a loop as an
# if branch, a ghost and a dGhost goal
CHAINS = """
dataspace chains {
  constants k : real;
  assumes kpos: k > 0;
  variables x : real, z : real;
  ghost y : real;
}

program a = x := x + 1
program b = (x, z) := (z, x)
program c = if x > 0 then loop a inv x > 0 else skip
program left = (a ; b) ; c
program right = a | (b | c)
program dec = { x' = -k * x }

goal pos : { x > 0 } dec { x > 0 } by dGhost(y, x * y^2 = 1, 1/2)
"""

ROUND_TRIP_MODELS = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "models").glob("*.hsv"))


@pytest.mark.parametrize("src", [p.read_text() for p in ROUND_TRIP_MODELS] + [DURATIONS, CHAINS],
                         ids=[p.name for p in ROUND_TRIP_MODELS] + ["durations", "chains"])
def test_round_trip_model(src):
    _assert_round_trip(src)


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
    # formula text over every connective, comparisons, if and quantifiers
    for _ in range(1000):
        f = parse_expr(" ".join(_formula_tokens(rng, "bool", 4)))
        text = pretty_expr(f)
        f2 = parse_expr(text)
        assert f2 == f, text
        assert pretty_expr(f2) == text
