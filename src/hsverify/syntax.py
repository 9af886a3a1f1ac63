"""Concrete syntax for model files.

A model file declares one dataspace (constants, named assumptions,
variables, ghosts), then any number of named programs, certified-flow
candidates, and goals.  The reader produces plain library objects; the
writer emits canonical text, and parse(pretty(parse(text))) is a
fixpoint.

Notation is ASCII first: `'` marks a derivative inside braces, `~>` a
flow component, `|` separates the guard, `:=` assigns.  The usual
Unicode spellings are accepted as aliases.  `*` is kind-directed: real
times real multiplies, real times vector scales, vector times vector is
the inner product.  Undeclared identifiers in expressions are logical
variables, so goal formulas can quantify over initial values for free.
"""

from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .store import (
    BOOL, CONSTANT, Coord, Dataspace, Frame, GHOST, Kind, KindMismatch,
    REAL, StoreError, VARIABLE, Var, vec,
)
from .expr import (
    Add, And, BoolLit, Cos, Div, Eq, Exists, Exp, Expr, FALSE, Forall, Ge,
    Gt, Iff, Implies, Inner, Ite, Le, Ln, LogicalVar, Lt, Mul, Neg, Neq,
    Norm, Not, Or, Pow, RatLit, ScalarMul, Sin, Sqrt, Sub, Subst, TRUE,
    VarRead, VecLit, MAX_DEPTH, depth, kind_of, read,
)
from .program import (
    Abort, Assign, Choice, Evol, HybridProgram, If, Loop, NONNEG, ODE, Seq,
    Skip, Test, interval,
)


class ParseError(Exception):
    """Syntax or model error with a source position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Tokens

_ALIASES = {
    "≤": "<=", "≥": ">=", "≠": "!=", "∧": "and", "∨": "or", "¬": "not",
    "↝": "~>", "→": "->", "↔": "<->", "′": "'",
}

_TWO_CHAR = ("<->", "->", ":=", "~>", "<=", ">=", "!=", "..")
_ONE_CHAR = "{}()[],;:'+-*/^=<>|?."


@dataclass(frozen=True)
class Token:
    kind: str          # "ident" | "num" | "op" | "eof"
    text: str
    value: object
    line: int
    col: int


def tokenize(text: str):
    toks = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c in _ALIASES:
            a = _ALIASES[c]
            kind = "ident" if a.isalpha() else "op"
            toks.append(Token(kind, a, a, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            lit = text[i:j]
            toks.append(Token("num", lit, Fraction(lit), line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("ident", word, word, line, col))
            col += j - i
            i = j
            continue
        two = text[i:i + 3] if text[i:i + 3] in _TWO_CHAR else text[i:i + 2]
        if two in _TWO_CHAR:
            toks.append(Token("op", two, two, line, col))
            i += len(two)
            col += len(two)
            continue
        if c in _ONE_CHAR:
            toks.append(Token("op", c, c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"stray character {c!r}", line, col)
    toks.append(Token("eof", "", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Model containers

_METHODS_BARE = ("wp", "dInduct", "dInductAuto", "dInductMega", "dWeaken", "dProve")


@dataclass(frozen=True)
class Method:
    name: str
    args: tuple = ()


@dataclass(frozen=True)
class Goal:
    name: str
    pre: Expr
    prog_name: str
    post: Expr
    method: Method
    using: tuple = ()


@dataclass(frozen=True)
class FlowDecl:
    name: str
    target: str
    flow: Subst
    lipschitz: Optional[Fraction] = None


@dataclass
class ModelFile:
    name: str
    dataspace: Dataspace
    assumes: tuple = ()        # (name, Expr) in declaration order
    programs: dict = field(default_factory=dict)
    flows: tuple = ()
    goals: tuple = ()

    def assumptions(self) -> tuple:
        return tuple(e for _, e in self.assumes)

    def _decl_key(self):
        ds = self.dataspace
        return tuple(sorted((n, repr(ds.kind_of(n)), ds.role_of(n))
                            for n in ds.names()))

    def __eq__(self, other):
        return (isinstance(other, ModelFile)
                and self.name == other.name
                and self._decl_key() == other._decl_key()
                and self.assumes == other.assumes
                and self.programs == other.programs
                and self.flows == other.flows
                and self.goals == other.goals)


_FUNCS1 = {"sin": Sin, "cos": Cos, "exp": Exp, "ln": Ln, "sqrt": Sqrt,
           "norm": Norm}

_TOP_KEYWORDS = ("dataspace", "program", "flow", "goal")

# How deeply brackets, conditionals, quantifiers, function calls, prefix
# operators, implications and sub-programs may nest, together.  One level
# of expression nesting costs the recursive reader about a dozen stack
# frames, so this keeps deep input well inside the interpreter's limit.
MAX_NESTING = 64


# ---------------------------------------------------------------------------
# The reader


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        self.ds: Optional[Dataspace] = None
        self.model_name = ""
        self.assumes = []
        self.programs = {}
        self.flows = []
        self.goals = []
        # (goal name, "flow" or "assumption", the name's token), checked by
        # resolve once the whole file is read
        self.refs = []
        self.depth = 0

    # -- token plumbing

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "num"

    def take(self, text: str) -> bool:
        if self.at(text):
            self.next()
            return True
        return False

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text or t.kind == "num":
            raise self.fail(f"expected {text!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def ident(self, what: str = "name") -> Token:
        t = self.peek()
        if t.kind != "ident":
            raise self.fail(f"expected {what}, found {t.text or 'end of input'!r}")
        return self.next()

    def fail(self, msg: str, tok: Optional[Token] = None) -> ParseError:
        t = tok or self.peek()
        return ParseError(msg, t.line, t.col)

    @contextmanager
    def nested(self):
        """One level deeper; past MAX_NESTING the input is refused."""
        if self.depth == MAX_NESTING:
            raise self.fail(f"nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        try:
            yield
        finally:
            self.depth -= 1

    def space(self) -> Dataspace:
        if self.ds is None:
            raise self.fail("a dataspace block must come first")
        return self.ds

    def check_kind(self, e: Expr, tok: Token) -> Kind:
        # every parsed expression is kind-checked, so this one check
        # bounds them all, before the recursive kind_of runs
        if depth(e) > MAX_DEPTH:
            raise self.fail(f"expression more than {MAX_DEPTH} levels deep", tok)
        try:
            return kind_of(e, self.space())
        except (KindMismatch, StoreError) as err:
            raise ParseError(str(err), tok.line, tok.col) from err

    def check_bool(self, e: Expr, tok: Token) -> Expr:
        if self.check_kind(e, tok) != BOOL:
            raise self.fail("expected a boolean formula", tok)
        return e

    # -- toplevel

    def model(self) -> ModelFile:
        while not self.at(""):
            if self.take(";"):
                continue
            t = self.peek()
            if self.at("dataspace"):
                self.dataspace_block()
            elif self.at("program"):
                self.program_def()
            elif self.at("flow"):
                self.flow_def()
            elif self.at("goal"):
                self.goal_def()
            else:
                raise self.fail(f"expected a declaration, found {t.text!r}")
        if self.ds is None:
            raise self.fail("model has no dataspace block")
        self.resolve()
        return ModelFile(self.model_name, self.ds, tuple(self.assumes),
                         self.programs, tuple(self.flows), tuple(self.goals))

    def resolve(self) -> None:
        known = {"flow": {f.name for f in self.flows},
                 "assumption": {n for n, _ in self.assumes}}
        for goal, what, t in self.refs:
            if t.text not in known[what]:
                raise self.fail(f"goal {goal} uses unknown {what} {t.text!r}", t)

    # -- dataspace

    def dataspace_block(self) -> None:
        self.expect("dataspace")
        if self.ds is not None:
            raise self.fail("only one dataspace block is allowed")
        self.model_name = self.ident("dataspace name").text
        self.ds = Dataspace()
        self.expect("{")
        while not self.take("}"):
            if self.at("constants"):
                self.decl_section(CONSTANT)
            elif self.at("variables"):
                self.decl_section(VARIABLE)
            elif self.at("ghost"):
                self.decl_section(GHOST)
            elif self.at("assumes"):
                self.assume_section()
            else:
                raise self.fail("expected constants, assumes, variables, or ghost")

    def decl_section(self, role: str) -> None:
        self.next()
        while True:
            t = self.ident("declaration name")
            self.expect(":")
            k = self.kind()
            if role == GHOST and k != REAL:
                raise self.fail("ghost declarations are real-valued", t)
            try:
                self.ds.declare(t.text, k, role)
            except StoreError as err:
                raise ParseError(str(err), t.line, t.col) from err
            if not self.take(","):
                break
        self.expect(";")

    def kind(self) -> Kind:
        t = self.next()
        if t.text == "real":
            return REAL
        if t.text == "bool":
            return BOOL
        if t.text == "vec":
            self.expect("[")
            d = self.next()
            if d.kind != "num" or d.value.denominator != 1 or d.value <= 0:
                raise self.fail("vector dimension must be a positive integer", d)
            self.expect("]")
            return vec(int(d.value))
        raise self.fail(f"unknown kind {t.text!r}", t)

    def assume_section(self) -> None:
        self.next()
        while True:
            t = self.ident("assumption name")
            if any(n == t.text for n, _ in self.assumes):
                raise self.fail(f"duplicate assumption {t.text!r}", t)
            self.expect(":")
            start = self.peek()
            e = self.check_bool(self.expr(), start)
            self.assumes.append((t.text, e))
            if not self.take(","):
                break
        self.expect(";")

    # -- expressions

    def expr(self) -> Expr:
        return self.iff_level()

    def iff_level(self) -> Expr:
        e = self.impl_level()
        while self.at("<->"):
            self.next()
            e = Iff(e, self.impl_level())
        return e

    def impl_level(self) -> Expr:
        e = self.or_level()
        if self.at("->"):
            self.next()
            with self.nested():
                return Implies(e, self.impl_level())
        return e

    def or_level(self) -> Expr:
        e = self.and_level()
        while self.at("or"):
            self.next()
            e = Or(e, self.and_level())
        return e

    def and_level(self) -> Expr:
        e = self.not_level()
        while self.at("and"):
            self.next()
            e = And(e, self.not_level())
        return e

    def not_level(self) -> Expr:
        if self.take("not"):
            with self.nested():
                return Not(self.not_level())
        return self.cmp_level()

    _CMP = {"=": Eq, "<=": Le, "<": Lt, ">=": Ge, ">": Gt, "!=": Neq}

    def cmp_level(self) -> Expr:
        e = self.add_level()
        t = self.peek()
        if t.kind == "op" and t.text in self._CMP:
            self.next()
            return self._CMP[t.text](e, self.add_level())
        return e

    def add_level(self) -> Expr:
        e = self.mul_level()
        while True:
            if self.at("+"):
                self.next()
                e = Add(e, self.mul_level())
            elif self.at("-"):
                self.next()
                e = Sub(e, self.mul_level())
            else:
                return e

    def mul_level(self) -> Expr:
        e = self.unary_level()
        while True:
            if self.at("*"):
                t = self.next()
                e = self.smart_mul(e, self.unary_level(), t)
            elif self.at("/"):
                self.next()
                r = self.unary_level()
                if isinstance(e, RatLit) and isinstance(r, RatLit) and r.value != 0:
                    e = RatLit(e.value / r.value)
                else:
                    e = Div(e, r)
            else:
                return e

    def smart_mul(self, l: Expr, r: Expr, tok: Token) -> Expr:
        lk = self.check_kind(l, tok)
        rk = self.check_kind(r, tok)
        if lk == REAL and rk == REAL:
            return Mul(l, r)
        if lk == REAL and rk.base == "vec":
            return ScalarMul(l, r)
        if lk.base == "vec" and rk == REAL:
            return ScalarMul(r, l)
        if lk.base == "vec" and rk.base == "vec":
            return Inner(l, r)
        raise self.fail("cannot multiply these kinds", tok)

    def unary_level(self) -> Expr:
        if self.at("-"):
            self.next()
            with self.nested():
                e = self.unary_level()
            if isinstance(e, RatLit):
                return RatLit(-e.value)
            return Neg(e)
        return self.pow_level()

    def pow_level(self) -> Expr:
        e = self.postfix_level()
        if self.at("^"):
            self.next()
            t = self.next()
            if t.kind != "num" or t.value.denominator != 1 or t.value < 0:
                raise self.fail("exponent must be a natural number", t)
            return Pow(e, int(t.value))
        return e

    def postfix_level(self) -> Expr:
        e = self.atom()
        while self.at("["):
            t = self.next()
            idx = self.next()
            if idx.kind != "num" or idx.value.denominator != 1:
                raise self.fail("coordinate index must be an integer", idx)
            self.expect("]")
            if isinstance(e, VarRead) and isinstance(e.lens, Var):
                e = read(e.lens.name, int(idx.value))
                self.check_kind(e, t)
            else:
                raise self.fail("coordinates apply to declared vector names", t)
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return RatLit(t.value)
        if self.take("("):
            with self.nested():
                e = self.expr()
            self.expect(")")
            return e
        if self.take("["):
            with self.nested():
                items = [self.expr()]
                while self.take(","):
                    items.append(self.expr())
            self.expect("]")
            return VecLit(tuple(items))
        if self.take("if"):
            with self.nested():
                c = self.expr()
                self.expect("then")
                a = self.expr()
                self.expect("else")
                b = self.expr()
            return Ite(c, a, b)
        if self.at("exists") or self.at("forall"):
            q = self.next().text
            b = self.ident("bound variable")
            v = b.text
            if v in self.space().names():
                # a store name reads the store: the binder would bind nothing
                raise self.fail(f"bound variable {v!r} is a declared name", b)
            self.expect(".")
            with self.nested():
                body = self.impl_level()
            return (Exists if q == "exists" else Forall)(v, body)
        if t.kind == "ident":
            self.next()
            if t.text == "true":
                return TRUE
            if t.text == "false":
                return FALSE
            if t.text in _FUNCS1 and self.at("("):
                self.next()
                with self.nested():
                    arg = self.expr()
                self.expect(")")
                return _FUNCS1[t.text](arg)
            if t.text == "inner" and self.at("("):
                self.next()
                with self.nested():
                    a = self.expr()
                    self.expect(",")
                    b = self.expr()
                self.expect(")")
                return Inner(a, b)
            if t.text in self.space().names():
                return read(t.text)
            return LogicalVar(t.text)
        raise self.fail(f"expected an expression, found {t.text or 'end of input'!r}")

    # -- programs

    def program_def(self) -> None:
        self.expect("program")
        t = self.ident("program name")
        if t.text in self.programs:
            raise self.fail(f"duplicate program {t.text!r}", t)
        self.expect("=")
        self.programs[t.text] = self.program()

    def program(self) -> HybridProgram:
        e = self.seq()
        while self.at("|"):
            self.next()
            e = Choice(e, self.seq())
        return e

    def seq(self) -> HybridProgram:
        parts = [self.unit()]
        while self.at(";"):
            if self.peek(1).text in _TOP_KEYWORDS or self.peek(1).kind == "eof":
                break
            self.next()
            parts.append(self.unit())
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out = Seq(p, out)
        return out

    def unit(self) -> HybridProgram:
        t = self.peek()
        if self.take("skip"):
            return Skip()
        if self.take("abort"):
            return Abort()
        if self.take("?"):
            start = self.peek()
            return Test(self.check_bool(self.expr(), start))
        if self.at("if"):
            self.next()
            start = self.peek()
            c = self.check_bool(self.expr(), start)
            self.expect("then")
            with self.nested():
                a = self.unit()
                self.expect("else")
                b = self.unit()
            return If(c, a, b)
        if self.take("loop"):
            with self.nested():
                body = self.program()
            self.expect("inv")
            start = self.peek()
            inv = self.check_bool(self.expr(), start)
            return Loop(body, invariant=inv)
        if self.at("{"):
            return self.braces()
        if self.at("(") and self.assignment_ahead():
            return self.assignment()
        if self.take("("):
            with self.nested():
                p = self.program()
            self.expect(")")
            return p
        if t.kind == "ident" and self.peek(1).text in (":=", "["):
            return self.assignment()
        if t.kind == "ident":
            self.next()
            if t.text not in self.programs:
                raise self.fail(f"unknown program {t.text!r}", t)
            return self.programs[t.text]
        raise self.fail(f"expected a program, found {t.text or 'end of input'!r}")

    def assignment_ahead(self) -> bool:
        # distinguishes "(x, y) := ..." from a parenthesized program
        i = self.pos + 1
        toks = self.toks
        while True:
            if toks[i].kind != "ident":
                return False
            i += 1
            if toks[i].text == "[":
                if toks[i + 1].kind != "num" or toks[i + 2].text != "]":
                    return False
                i += 3
            if toks[i].text == ",":
                i += 1
                continue
            return toks[i].text == ")" and toks[i + 1].text == ":="

    def lens_ref(self):
        t = self.ident("variable")
        if t.text not in self.space().names():
            raise self.fail(f"undeclared variable {t.text!r}", t)
        if self.take("["):
            idx = self.next()
            if idx.kind != "num" or idx.value.denominator != 1:
                raise self.fail("coordinate index must be an integer", idx)
            self.expect("]")
            l = Coord(t.text, int(idx.value))
            self.check_kind(VarRead(l), t)
            return l, t
        return Var(t.text), t

    def assignment(self) -> Assign:
        targets = []
        tuple_form = self.take("(")
        if tuple_form:
            targets.append(self.lens_ref())
            while self.take(","):
                targets.append(self.lens_ref())
            self.expect(")")
        else:
            targets.append(self.lens_ref())
        self.expect(":=")
        exprs = []
        if tuple_form:
            self.expect("(")
            exprs.append((self.peek(), self.expr()))
            while self.take(","):
                exprs.append((self.peek(), self.expr()))
            self.expect(")")
        else:
            exprs.append((self.peek(), self.expr()))
        if len(targets) != len(exprs):
            raise self.fail("assignment arity mismatch", targets[0][1])
        entries = []
        for (l, lt), (start, e) in zip(targets, exprs):
            want = self.check_kind(VarRead(l), lt)
            if self.check_kind(e, start) != want:
                raise self.fail(f"assigned expression has the wrong kind for {lt.text}", start)
            entries.append((l, e))
        return Assign(Subst(tuple(entries), self.space()))

    def braces(self) -> HybridProgram:
        self.expect("{")
        if self.take("evol"):
            entries = [self.flow_entry("=")]
            while self.take(","):
                entries.append(self.flow_entry("="))
            guard, _ = self.guard_opt()
            self.expect("}")
            frame = Frame(tuple(l for l, _ in entries))
            return Evol(frame, Subst(tuple(entries), self.space()), guard=guard)
        entries = [self.ode_entry()]
        while self.take(","):
            entries.append(self.ode_entry())
        guard, dur = self.guard_opt(allow_on=True)
        self.expect("}")
        frame = Frame(tuple(l for l, _ in entries))
        return ODE(frame, Subst(tuple(entries), self.space()), guard=guard, dur=dur)

    def ode_entry(self):
        l, lt = self.lens_ref()
        self.expect("'")
        self.expect("=")
        start = self.peek()
        e = self.expr()
        if self.check_kind(e, start) != self.check_kind(VarRead(l), lt):
            raise self.fail(f"field for {lt.text} has the wrong kind", start)
        return l, e

    def flow_entry(self, sep: str):
        l, lt = self.lens_ref()
        self.expect(sep)
        start = self.peek()
        e = self.expr()
        if self.check_kind(e, start) != self.check_kind(VarRead(l), lt):
            raise self.fail(f"flow for {lt.text} has the wrong kind", start)
        return l, e

    def guard_opt(self, allow_on: bool = False):
        guard = TRUE
        dur = NONNEG
        if self.take("|"):
            start = self.peek()
            guard = self.check_bool(self.expr(), start)
        if allow_on and self.take("on"):
            lo = self.rat("duration bound")
            self.expect("..")
            hi = self.rat("duration bound")
            if lo < 0 or hi < lo:
                raise self.fail("duration interval must satisfy 0 <= lo <= hi")
            dur = interval(lo, hi)
        return guard, dur

    def rat(self, what: str) -> Fraction:
        neg = self.take("-")
        t = self.next()
        if t.kind != "num":
            raise self.fail(f"expected a {what}", t)
        v = t.value
        if self.take("/"):
            d = self.next()
            if d.kind != "num" or d.value == 0:
                raise self.fail("bad rational denominator", d)
            v = v / d.value
        return -v if neg else v

    # -- flows and goals

    def flow_def(self) -> None:
        self.expect("flow")
        t = self.ident("flow name")
        if any(f.name == t.text for f in self.flows):
            raise self.fail(f"duplicate flow {t.text!r}", t)
        self.expect("for")
        target = self.ident("program name")
        prog = self.programs.get(target.text)
        if prog is None:
            raise self.fail(f"unknown program {target.text!r}", target)
        if not isinstance(prog, ODE):
            raise self.fail(f"flow target {target.text!r} is not an ODE", target)
        self.expect("=")
        self.expect("[")
        entries = [self.flow_entry("~>")]
        while self.take(","):
            entries.append(self.flow_entry("~>"))
        self.expect("]")
        lip = None
        if self.take("lipschitz"):
            lip = self.rat("Lipschitz constant")
        self.flows.append(FlowDecl(t.text, target.text,
                                   Subst(tuple(entries), self.space()), lip))

    def goal_def(self) -> None:
        self.expect("goal")
        t = self.ident("goal name")
        if any(g.name == t.text for g in self.goals):
            raise self.fail(f"duplicate goal {t.text!r}", t)
        self.expect(":")
        self.expect("{")
        start = self.peek()
        pre = self.check_bool(self.expr(), start)
        self.expect("}")
        pt = self.ident("program name")
        if pt.text not in self.programs:
            raise self.fail(f"unknown program {pt.text!r}", pt)
        self.expect("{")
        start = self.peek()
        post = self.check_bool(self.expr(), start)
        self.expect("}")
        self.expect("by")
        method = self.method(t.text)
        using = []
        if self.take("using"):
            using.append(self.ident("assumption name"))
            while self.take(","):
                using.append(self.ident("assumption name"))
        self.refs += [(t.text, "assumption", u) for u in using]
        self.goals.append(Goal(t.text, pre, pt.text, post, method,
                               tuple(u.text for u in using)))

    def method(self, goal: str) -> Method:
        t = self.ident("proof method")
        if t.text in _METHODS_BARE:
            return Method(t.text)
        if t.text == "flow":
            self.expect("(")
            fid = self.ident("flow name")
            self.expect(")")
            self.refs.append((goal, "flow", fid))
            return Method("flow", (fid.text,))
        if t.text == "dGhost":
            self.expect("(")
            g = self.ident("ghost name")
            if g.text not in self.space().names() or self.space().role_of(g.text) != GHOST:
                raise self.fail(f"{g.text!r} is not a declared ghost", g)
            self.expect(",")
            start = self.peek()
            inv = self.check_bool(self.expr(), start)
            self.expect(",")
            rate = self.rat("growth rate")
            self.expect(")")
            return Method("dGhost", (g.text, inv, rate))
        raise self.fail(f"unknown proof method {t.text!r}", t)


def parse(text: str) -> ModelFile:
    return _Parser(text).model()


# ---------------------------------------------------------------------------
# The writer

_CMP_TEXT = {Eq: "=", Le: "<=", Lt: "<", Ge: ">=", Gt: ">", Neq: "!="}
_FUNC_TEXT = {Sin: "sin", Cos: "cos", Exp: "exp", Ln: "ln", Sqrt: "sqrt",
              Norm: "norm"}


def pretty_expr(e: Expr, prec: int = 0) -> str:
    def wrap(s: str, mine: int) -> str:
        return f"({s})" if mine < prec else s

    if isinstance(e, RatLit):
        v = e.value
        s = str(v)
        if v.denominator != 1:     # reads back as a division
            return f"({s})" if prec > 8 else s
        if v < 0:                  # reads back as a unary minus
            return f"({s})" if prec > 9 else s
        return s
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRead):
        return repr(e.lens)
    if isinstance(e, LogicalVar):
        return e.name
    if isinstance(e, Neg):
        return wrap(f"-{pretty_expr(e.arg, 10)}", 9)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        return wrap(f"{pretty_expr(e.left, 7)} {op} {pretty_expr(e.right, 8)}", 7)
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        return wrap(f"{pretty_expr(e.left, 8)} {op} {pretty_expr(e.right, 9)}", 8)
    if isinstance(e, ScalarMul):
        return wrap(f"{pretty_expr(e.scalar, 8)} * {pretty_expr(e.arg, 9)}", 8)
    if isinstance(e, Inner):
        return f"inner({pretty_expr(e.left)}, {pretty_expr(e.right)})"
    if isinstance(e, Pow):
        return wrap(f"{pretty_expr(e.base, 11)}^{e.exp}", 10)
    if type(e) in _FUNC_TEXT:
        return f"{_FUNC_TEXT[type(e)]}({pretty_expr(e.arg)})"
    if isinstance(e, VecLit):
        return "[" + ", ".join(pretty_expr(i) for i in e.items) + "]"
    if type(e) in _CMP_TEXT:
        return wrap(f"{pretty_expr(e.left, 7)} {_CMP_TEXT[type(e)]} "
                    f"{pretty_expr(e.right, 7)}", 6)
    if isinstance(e, And):
        return wrap(f"{pretty_expr(e.left, 4)} and {pretty_expr(e.right, 5)}", 4)
    if isinstance(e, Or):
        return wrap(f"{pretty_expr(e.left, 3)} or {pretty_expr(e.right, 4)}", 3)
    if isinstance(e, Not):
        return wrap(f"not {pretty_expr(e.arg, 5)}", 5)
    if isinstance(e, Implies):
        return wrap(f"{pretty_expr(e.left, 3)} -> {pretty_expr(e.right, 2)}", 2)
    if isinstance(e, Iff):
        return wrap(f"{pretty_expr(e.left, 2)} <-> {pretty_expr(e.right, 2)}", 1)
    if isinstance(e, Ite):
        return (f"(if {pretty_expr(e.cond)} then {pretty_expr(e.then)} "
                f"else {pretty_expr(e.other)})")
    if isinstance(e, (Exists, Forall)):
        q = "exists" if isinstance(e, Exists) else "forall"
        return f"({q} {e.var}. {pretty_expr(e.body)})"
    raise TypeError(f"cannot print {e!r}")


def _unit_text(p: HybridProgram) -> str:
    s = pretty_program(p)
    if isinstance(p, (Seq, Choice, Loop)):
        return f"({s})"
    return s


def pretty_program(p: HybridProgram) -> str:
    if isinstance(p, Skip):
        return "skip"
    if isinstance(p, Abort):
        return "abort"
    if isinstance(p, Test):
        return f"? {pretty_expr(p.cond)}"
    if isinstance(p, Assign):
        entries = p.subst.entries
        if len(entries) == 1:
            l, e = entries[0]
            return f"{l!r} := {pretty_expr(e)}"
        lhs = ", ".join(repr(l) for l, _ in entries)
        rhs = ", ".join(pretty_expr(e) for _, e in entries)
        return f"({lhs}) := ({rhs})"
    if isinstance(p, Seq):
        parts = []
        cur = p
        while isinstance(cur, Seq):
            parts.append(cur.first)
            cur = cur.second
        parts.append(cur)
        return " ; ".join(_seq_part(x) for x in parts)
    if isinstance(p, Choice):
        parts = [p.right]
        cur = p.left
        while isinstance(cur, Choice):
            parts.insert(0, cur.right)
            cur = cur.left
        parts.insert(0, cur)
        return " | ".join(pretty_program(x) for x in parts)
    if isinstance(p, If):
        return (f"if {pretty_expr(p.cond)} then {_unit_text(p.then)} "
                f"else {_unit_text(p.other)}")
    if isinstance(p, Loop):
        inv = pretty_expr(p.invariant) if p.invariant is not None else "true"
        return f"(loop {pretty_program(p.body)} inv {inv})"
    if isinstance(p, ODE):
        inner = ", ".join(f"{l!r}' = {pretty_expr(e)}"
                          for l, e in p.rhs.entries)
        tail = "" if p.guard == TRUE else f" | {pretty_expr(p.guard)}"
        if p.dur.hi is not None:
            tail += f" on {p.dur.lo}..{p.dur.hi}"
        return "{" + inner + tail + "}"
    if isinstance(p, Evol):
        inner = ", ".join(f"{l!r} = {pretty_expr(e)}"
                          for l, e in p.flow.entries)
        tail = "" if p.guard == TRUE else f" | {pretty_expr(p.guard)}"
        return "{evol " + inner + tail + "}"
    raise TypeError(f"cannot print {p!r}")


def _seq_part(p: HybridProgram) -> str:
    if isinstance(p, (Seq, Choice)):
        return f"({pretty_program(p)})"
    return pretty_program(p)


def pretty_method(m: Method) -> str:
    if m.name == "flow":
        return f"flow({m.args[0]})"
    if m.name == "dGhost":
        g, inv, rate = m.args
        return f"dGhost({g}, {pretty_expr(inv)}, {rate})"
    return m.name


def pretty(model: ModelFile) -> str:
    ds = model.dataspace
    lines = [f"dataspace {model.name} {{"]
    for role, kw in ((CONSTANT, "constants"), (VARIABLE, "variables"),
                     (GHOST, "ghost")):
        decls = [f"{n} : {ds.kind_of(n)!r}"
                 for n in ds.names() if ds.role_of(n) == role]
        if decls:
            lines.append(f"  {kw} {', '.join(decls)};")
    if model.assumes:
        inner = ", ".join(f"{n}: {pretty_expr(e)}" for n, e in model.assumes)
        lines.append(f"  assumes {inner};")
    lines.append("}")
    for name, prog in model.programs.items():
        lines.append("")
        lines.append(f"program {name} = {pretty_program(prog)}")
    for f in model.flows:
        lines.append("")
        inner = ", ".join(f"{l!r} ~> {pretty_expr(e)}"
                          for l, e in f.flow.entries)
        tail = f" lipschitz {f.lipschitz}" if f.lipschitz is not None else ""
        lines.append(f"flow {f.name} for {f.target} = [{inner}]{tail}")
    for g in model.goals:
        lines.append("")
        tail = f" using {', '.join(g.using)}" if g.using else ""
        lines.append(f"goal {g.name} : {{ {pretty_expr(g.pre)} }} {g.prog_name} "
                     f"{{ {pretty_expr(g.post)} }} by {pretty_method(g.method)}{tail}")
    return "\n".join(lines) + "\n"
