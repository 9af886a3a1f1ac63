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
    VarRead, VecLit, MAX_DEPTH, RELATIONS, children, depth, free_lenses,
    free_logicals, kind_of, read,
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
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdecimal():
                j += 1
                while j < n and text[j].isdecimal():
                    j += 1
            lit = text[i:j]
            toks.append(Token("num", lit, Fraction(lit), line, col))
            col += j - i
            i = j
            continue
        if c.isidentifier():  # by Python's rules, which reject a superscript digit
            j = i + 1
            while j < n and ("_" + text[j]).isidentifier():
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

# each declaration section's keyword and role; the reader and the writer
# both read this table
_ROLES = {"constants": CONSTANT, "variables": VARIABLE, "ghost": GHOST}

# Each infix operator's node and binding power, loosest first; the reader
# and the writer both read this table.  `->` groups to the right, a
# comparison takes no comparison as an operand, and the rest group to the
# left.  A quantifier's body is read at the power of `->`.
_INFIX = {
    "<->": (Iff, 1), "->": (Implies, 2), "or": (Or, 3), "and": (And, 4),
    "=": (Eq, 6), "<=": (Le, 6), "<": (Lt, 6), ">=": (Ge, 6), ">": (Gt, 6), "!=": (Neq, 6),
    "+": (Add, 7), "-": (Sub, 7), "*": (Mul, 8), "/": (Div, 8),
}
# the powers of prefix `not`, prefix `-`, and `^` after an atom
_NOT, _NEG, _POW = 5, 9, 10

# How deeply brackets, conditionals, quantifiers, function calls, prefix
# operators, implications and sub-programs may nest, together.  One level
# of expression nesting costs the recursive reader at most 3 stack frames,
# so this keeps deep input well inside the interpreter's limit.
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
        # bounds them all, before kind_of walks the tree
        if depth(e) > MAX_DEPTH:
            raise self.fail(f"expression more than {MAX_DEPTH} levels deep", tok)
        try:
            return kind_of(e, self.space())
        except (KindMismatch, StoreError) as err:
            raise ParseError(str(err), tok.line, tok.col) from err

    def located(self):
        """The first token at the cursor, and the expression it starts."""
        return self.peek(), self.expr()

    def formula(self) -> Expr:
        """A formula, whose kind error points at its first token."""
        start, e = self.located()
        if self.check_kind(e, start) != BOOL:
            raise self.fail("expected a boolean formula", start)
        return e

    def commas(self, read) -> list:
        """read(), then again after each comma."""
        items = [read()]
        while self.take(","):
            items.append(read())
        return items

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
            role = _ROLES.get(self.peek().text)
            if role is not None:
                self.next()
                self.commas(lambda: self.declaration(role))
            elif self.take("assumes"):
                self.commas(self.assumption)
            else:
                raise self.fail("expected constants, assumes, variables, or ghost")
            self.expect(";")

    def declaration(self, role: str) -> None:
        t = self.ident("declaration name")
        self.expect(":")
        k = self.kind()
        if role == GHOST and k != REAL:
            raise self.fail("ghost declarations are real-valued", t)
        try:
            self.ds.declare(t.text, k, role)
        except StoreError as err:
            raise ParseError(str(err), t.line, t.col) from err

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

    def assumption(self) -> None:
        t = self.ident("assumption name")
        if any(n == t.text for n, _ in self.assumes):
            raise self.fail(f"duplicate assumption {t.text!r}", t)
        self.expect(":")
        start = self.peek()
        e = self.formula()
        # every condition takes the assumptions as hypotheses, also where
        # the program has moved the store: only constants stay put.  A free
        # logical is a name not declared yet, which a goal would read apart
        # from the constant declared later.
        bad = [l.name for l in free_lenses(e) if self.ds.role_of(l.name) != CONSTANT]
        bad += sorted(free_logicals(e))
        if bad:
            msg = f"assumption {t.text} reads {bad[0]}, which is not a constant"
            raise self.fail(msg, start)
        self.assumes.append((t.text, e))

    # -- expressions

    def expr(self, power: int = 1) -> Expr:
        """The longest expression at the cursor whose operators bind at
        least as tightly as power, by precedence climbing over _INFIX."""
        if power <= _NOT and self.take("not"):
            with self.nested():
                e = Not(self.expr(_NOT))
            top = _NOT - 1
        elif self.take("-"):
            with self.nested():
                e = self.expr(_NEG)
            e = RatLit(-e.value) if isinstance(e, RatLit) else Neg(e)
            top = _NEG - 1
        else:
            e, top = self.postfix(), _POW
        while True:
            node, p = _INFIX.get(self.peek().text, (None, 0))
            # top: the loosest operator e may still be the left operand of;
            # a comparison takes no comparison as an operand
            if not power <= p <= top:
                return e
            t = self.next()
            if node is Implies:
                with self.nested():
                    e = Implies(e, self.expr(p))
            else:
                r = self.expr(p + 1)
                if node is Mul:
                    e = self.smart_mul(e, r, t)
                elif node is Div and isinstance(e, RatLit) and isinstance(r, RatLit) \
                        and r.value != 0:
                    e = RatLit(e.value / r.value)
                else:
                    e = node(e, r)
            top = p - 1 if node in RELATIONS else p

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

    def postfix(self) -> Expr:
        """An atom, its coordinate indices, and at most one ^ with a natural
        literal exponent."""
        e = self.atom()
        while self.at("["):
            t = self.next()
            i = self.index()
            if not (isinstance(e, VarRead) and isinstance(e.lens, Var)):
                raise self.fail("coordinates apply to declared vector names", t)
            e = read(e.lens.name, i)
            self.check_kind(e, t)
        if self.take("^"):
            t = self.next()
            if t.kind != "num" or t.value.denominator != 1 or t.value < 0:
                raise self.fail("exponent must be a natural number", t)
            return Pow(e, int(t.value))
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
                items = self.commas(self.expr)
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
                body = self.expr(_INFIX["->"][1])
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
            return Test(self.formula())
        if self.take("if"):
            c = self.formula()
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
            return Loop(body, invariant=self.formula())
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

    def index(self) -> int:
        """A coordinate index and its closing bracket."""
        idx = self.next()
        if idx.kind != "num" or idx.value.denominator != 1:
            raise self.fail("coordinate index must be an integer", idx)
        self.expect("]")
        return int(idx.value)

    def lens_ref(self):
        """The lens a program writes, and its name's token."""
        t = self.ident("variable")
        if t.text not in self.space().names():
            raise self.fail(f"undeclared variable {t.text!r}", t)
        if self.ds.role_of(t.text) == CONSTANT:
            raise self.fail(f"constant {t.text!r} cannot be written", t)
        if not self.take("["):
            return Var(t.text), t
        l = Coord(t.text, self.index())
        self.check_kind(VarRead(l), t)
        return l, t

    def typed(self, target, term, what: str):
        """The entry (lens, e) once e has the lens's kind; what is the kind
        error, with {} for the lens's name."""
        (l, lt), (start, e) = target, term
        if self.check_kind(e, start) != self.check_kind(VarRead(l), lt):
            raise self.fail(what.format(lt.text), start)
        return l, e

    def entry(self, seps: tuple, noun: str):
        """A target lens, seps, and a term of the lens's kind."""
        target = self.lens_ref()
        for sep in seps:
            self.expect(sep)
        return self.typed(target, self.located(), noun + " for {} has the wrong kind")

    def assignment(self) -> Assign:
        if self.take("("):
            targets = self.commas(self.lens_ref)
            self.expect(")")
            self.expect(":=")
            self.expect("(")
            terms = self.commas(self.located)
            self.expect(")")
        else:
            targets = [self.lens_ref()]
            self.expect(":=")
            terms = [self.located()]
        if len(targets) != len(terms):
            raise self.fail("assignment arity mismatch", targets[0][1])
        what = "assigned expression has the wrong kind for {}"
        return Assign(Subst(tuple(self.typed(l, e, what) for l, e in zip(targets, terms)),
                            self.space()))

    def braces(self) -> HybridProgram:
        """`{x' = f, … | guard on lo..hi}` or `{evol x = e, … | guard}`."""
        self.expect("{")
        evol = self.take("evol")
        seps, noun = (("=",), "flow") if evol else (("'", "="), "field")
        entries = self.commas(lambda: self.entry(seps, noun))
        guard = self.formula() if self.take("|") else TRUE
        dur = NONNEG
        if not evol and self.take("on"):
            lo = self.rat("duration bound")
            self.expect("..")
            hi = self.rat("duration bound")
            if lo < 0 or hi < lo:
                raise self.fail("duration interval must satisfy 0 <= lo <= hi")
            dur = interval(lo, hi)
        self.expect("}")
        frame, subst = Frame(tuple(l for l, _ in entries)), Subst(tuple(entries), self.space())
        if evol:
            return Evol(frame, subst, guard=guard)
        return ODE(frame, subst, guard=guard, dur=dur)

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
        entries = self.commas(lambda: self.entry(("~>",), "flow"))
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
        pre = self.formula()
        self.expect("}")
        pt = self.ident("program name")
        if pt.text not in self.programs:
            raise self.fail(f"unknown program {pt.text!r}", pt)
        self.expect("{")
        post = self.formula()
        self.expect("}")
        self.expect("by")
        method = self.method(t.text)
        using = self.commas(lambda: self.ident("assumption name")) if self.take("using") else []
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
            inv = self.formula()
            self.expect(",")
            rate = self.rat("growth rate")
            self.expect(")")
            return Method("dGhost", (g.text, inv, rate))
        raise self.fail(f"unknown proof method {t.text!r}", t)


def parse(text: str) -> ModelFile:
    return _Parser(text).model()


# ---------------------------------------------------------------------------
# The writer

_FUNC_TEXT = {node: text for text, node in _FUNCS1.items()}
# each infix node's token and binding power; a scaling prints as `*`
_INFIX_TEXT = {node: (text, p) for text, (node, p) in _INFIX.items()}
_INFIX_TEXT[ScalarMul] = _INFIX_TEXT[Mul]


def pretty_expr(e: Expr, prec: int = 0) -> str:
    """e's text, bracketed where it binds less tightly than prec, the power
    at which the reader reads the operand that e stands in."""
    def wrap(s: str, mine: int) -> str:
        return f"({s})" if mine < prec else s

    if isinstance(e, RatLit):
        v = e.value
        s = str(v)
        if v.denominator != 1:     # reads back as a division
            return f"({s})" if prec > _INFIX["/"][1] else s
        if v < 0:                  # reads back as a unary minus
            return f"({s})" if prec > _NEG else s
        return s
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, VarRead):
        return repr(e.lens)
    if isinstance(e, LogicalVar):
        return e.name
    if type(e) in _INFIX_TEXT:
        text, p = _INFIX_TEXT[type(e)]
        left, right = children(e)
        # the operand on the side e groups to is read at e's own power
        lp, rp = (p + 1, p) if type(e) is Implies else (p, p + 1)
        if type(e) in RELATIONS:
            lp = p + 1
        return wrap(f"{pretty_expr(left, lp)} {text} {pretty_expr(right, rp)}", p)
    if isinstance(e, Neg):
        return wrap(f"-{pretty_expr(e.arg, _NEG + 1)}", _NEG)
    if isinstance(e, Not):
        return wrap(f"not {pretty_expr(e.arg, _NOT)}", _NOT)
    if isinstance(e, Pow):
        return wrap(f"{pretty_expr(e.base, _POW + 1)}^{e.exp}", _POW)
    if isinstance(e, Inner):
        return f"inner({pretty_expr(e.left)}, {pretty_expr(e.right)})"
    if type(e) in _FUNC_TEXT:
        return f"{_FUNC_TEXT[type(e)]}({pretty_expr(e.arg)})"
    if isinstance(e, VecLit):
        return "[" + ", ".join(pretty_expr(i) for i in e.items) + "]"
    if isinstance(e, Ite):
        return (f"(if {pretty_expr(e.cond)} then {pretty_expr(e.then)} "
                f"else {pretty_expr(e.other)})")
    if isinstance(e, (Exists, Forall)):
        q = "exists" if isinstance(e, Exists) else "forall"
        return f"({q} {e.var}. {pretty_expr(e.body, _INFIX['->'][1])})"
    raise TypeError(f"cannot print {e!r}")


def _bracketed(p: HybridProgram, loose: tuple) -> str:
    s = pretty_program(p)
    return f"({s})" if isinstance(p, loose) else s


def _entries(entries, sep: str) -> str:
    return ", ".join(f"{l}{sep}{pretty_expr(e)}" for l, e in entries)


def _guard(g: Expr) -> str:
    return "" if g == TRUE else f" | {pretty_expr(g)}"


# `;` groups to the right, so its chain runs down `second`, and `|` groups
# to the left, so its chain runs down `left`: each chain's text, the side
# it runs down, the other side, and the parts it brackets
_CHAINS = {Seq: (" ; ", "second", "first", (Seq, Choice)),
           Choice: (" | ", "left", "right", (Choice,))}


def _chain(p: HybridProgram) -> str:
    node = type(p)
    sep, down, side, loose = _CHAINS[node]
    parts = []
    while isinstance(p, node):
        parts.append(getattr(p, side))
        p = getattr(p, down)
    parts.append(p)
    if node is Choice:  # gathered from the right end
        parts.reverse()
    return sep.join(_bracketed(x, loose) for x in parts)


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
            return _entries(entries, " := ")
        lhs = ", ".join(repr(l) for l, _ in entries)
        rhs = ", ".join(pretty_expr(e) for _, e in entries)
        return f"({lhs}) := ({rhs})"
    if type(p) in _CHAINS:
        return _chain(p)
    if isinstance(p, If):
        units = (Seq, Choice, Loop)
        return (f"if {pretty_expr(p.cond)} then {_bracketed(p.then, units)} "
                f"else {_bracketed(p.other, units)}")
    if isinstance(p, Loop):
        inv = pretty_expr(p.invariant) if p.invariant is not None else "true"
        return f"(loop {pretty_program(p.body)} inv {inv})"
    if isinstance(p, ODE):
        dur = "" if p.dur.hi is None else f" on {p.dur.lo}..{p.dur.hi}"
        return "{" + _entries(p.rhs.entries, "' = ") + _guard(p.guard) + dur + "}"
    if isinstance(p, Evol):
        return "{evol " + _entries(p.flow.entries, " = ") + _guard(p.guard) + "}"
    raise TypeError(f"cannot print {p!r}")


def pretty_method(m: Method) -> str:
    """The method's name, then its arguments, if any, in brackets."""
    if not m.args:
        return m.name
    args = (pretty_expr(a) if isinstance(a, Expr) else str(a) for a in m.args)
    return f"{m.name}({', '.join(args)})"


def pretty(model: ModelFile) -> str:
    ds = model.dataspace
    lines = [f"dataspace {model.name} {{"]
    for kw, role in _ROLES.items():
        decls = [f"{n} : {ds.kind_of(n)!r}"
                 for n in ds.names() if ds.role_of(n) == role]
        if decls:
            lines.append(f"  {kw} {', '.join(decls)};")
    if model.assumes:
        lines.append(f"  assumes {_entries(model.assumes, ': ')};")
    lines.append("}")
    for name, prog in model.programs.items():
        lines += ["", f"program {name} = {pretty_program(prog)}"]
    for f in model.flows:
        tail = f" lipschitz {f.lipschitz}" if f.lipschitz is not None else ""
        inner = _entries(f.flow.entries, " ~> ")
        lines += ["", f"flow {f.name} for {f.target} = [{inner}]{tail}"]
    for g in model.goals:
        tail = f" using {', '.join(g.using)}" if g.using else ""
        lines += ["", f"goal {g.name} : {{ {pretty_expr(g.pre)} }} {g.prog_name} "
                      f"{{ {pretty_expr(g.post)} }} by {pretty_method(g.method)}{tail}"]
    return "\n".join(lines) + "\n"
