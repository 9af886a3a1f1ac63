"""Verification condition generation.

Hoare-style triples over hybrid programs are reduced to first-order
verification conditions by weakest liberal preconditions.  Differential
equations go through a flow table: an ODE only admits a wlp once a certified
closed-form solution is on record, and the resulting condition quantifies over
the duration with the guard held down-closed along the flow.  Each loop
condition takes the precondition's facts that the program never writes as a
hypothesis (the frame rule, `program.framed`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .arith import expr_key, poly_normalize
from .expr import (
    And,
    Expr,
    Forall,
    Implies,
    Le,
    LogicalVar,
    Not,
    Subst,
    TRUE,
    VarRead,
    conj,
    fresh_logical,
    free_logicals,
    num,
    subst_apply_expr,
    subst_logical,
)
from .program import (
    Abort,
    Assign,
    Choice,
    DurationSpec,
    Evol,
    HybridProgram,
    If,
    Loop,
    NONNEG,
    ODE,
    Seq,
    Skip,
    TAU,
    Test,
    framed,
)
from .store import Dataspace, Frame


class VcgError(Exception):
    pass


class MissingFlow(VcgError):
    """An ODE reached the wlp without a registered closed-form solution."""


class MissingLoopInvariant(VcgError):
    pass


@dataclass(frozen=True)
class Triple:
    pre: Expr
    prog: HybridProgram
    post: Expr


@dataclass(frozen=True)
class VC:
    vc_id: str
    formula: Expr
    origin: str
    provisos: tuple = ()


# ---------------------------------------------------------------------------
# Flow table


class FlowTable:
    """Certified solutions, keyed by frame and normalized right-hand side."""

    def __init__(self, dataspace: Optional[Dataspace] = None):
        self.dataspace = dataspace
        self._flows: dict = {}  # _key(frame, rhs) -> flow Subst

    def _key(self, frame: Frame, rhs: Subst):
        parts = tuple(sorted(
            (expr_key(VarRead(l)), expr_key(poly_normalize(e, self.dataspace)))
            for l, e in rhs.entries))
        names = tuple(sorted(frame.names()))
        return (names, parts)

    def register(self, frame: Frame, rhs: Subst, flow: Subst) -> None:
        self._flows[self._key(frame, rhs)] = flow

    def lookup(self, ode: ODE) -> Optional[Subst]:
        """The flow registered for ode, or None."""
        return self._flows.get(self._key(ode.frame, ode.rhs))


# ---------------------------------------------------------------------------
# Weakest liberal preconditions


def _flow_at(flow: Subst, t: Expr) -> Subst:
    """The flow with its time parameter instantiated at t."""
    return Subst(tuple((l, subst_logical(e, TAU, t)) for l, e in flow.entries),
                 flow.dataspace)


def _dur_bounds(dur: DurationSpec, t: Expr) -> Expr:
    out = Le(num(dur.lo), t)
    if dur.hi is not None:
        out = And(out, Le(t, num(dur.hi)))
    return out


def _flow_wlp(flow: Subst, guard: Expr, dur: DurationSpec, q: Expr) -> Expr:
    used = set(free_logicals(q)) | set(free_logicals(guard))
    for _, e in flow.entries:
        # the flow's own time parameter is substituted away, not captured
        used |= free_logicals(e) - {TAU}
    t = fresh_logical(TAU, used)
    used.add(t)
    tv = LogicalVar(t)

    post_at = subst_apply_expr(q, _flow_at(flow, tv))
    if guard == TRUE:
        # no guard, no down-closure hypothesis to carry
        return Forall(t, Implies(_dur_bounds(dur, tv), post_at))
    s = fresh_logical("sig", used)
    sv = LogicalVar(s)
    guard_along = Forall(s, Implies(
        And(Le(num(0), sv), Le(sv, tv)),
        subst_apply_expr(guard, _flow_at(flow, sv))))
    return Forall(t, Implies(_dur_bounds(dur, tv),
                             Implies(guard_along, post_at)))


def wlp(p: HybridProgram, q: Expr, flows: Optional[FlowTable] = None,
        sides: Optional[list] = None) -> Expr:
    """Weakest liberal precondition; loop obligations go into `sides`."""
    if isinstance(p, Skip):
        return q
    if isinstance(p, Abort):
        return TRUE
    if isinstance(p, Assign):
        return subst_apply_expr(q, p.subst)
    if isinstance(p, Test):
        return Implies(p.cond, q)
    if isinstance(p, Seq):
        return wlp(p.first, wlp(p.second, q, flows, sides), flows, sides)
    if isinstance(p, Choice):
        return And(wlp(p.left, q, flows, sides), wlp(p.right, q, flows, sides))
    if isinstance(p, If):
        return And(Implies(p.cond, wlp(p.then, q, flows, sides)),
                   Implies(Not(p.cond), wlp(p.other, q, flows, sides)))
    if isinstance(p, Loop):
        if p.invariant is None:
            raise MissingLoopInvariant("loop without an invariant annotation")
        if sides is None:
            raise MissingLoopInvariant(
                "loop obligations need a side-condition collector")
        inv = p.invariant
        sides.append(("loop-preserve", Implies(inv, wlp(p.body, inv, flows, sides))))
        sides.append(("loop-post", Implies(inv, q)))
        return inv
    if isinstance(p, Evol):
        return _flow_wlp(p.flow, p.guard, NONNEG, q)
    if isinstance(p, ODE):
        flow = flows.lookup(p) if flows is not None else None
        if flow is None:
            names = ", ".join(sorted(p.frame.names()))
            raise MissingFlow(
                f"no certified flow for the system over {{{names}}}")
        return _flow_wlp(flow, p.guard, p.dur, q)
    raise VcgError(f"no wlp case for {type(p).__name__}")


def gen_vcs(triple: Triple, flows: Optional[FlowTable] = None) -> List[VC]:
    """All conditions whose validity establishes the triple."""
    sides: list = []
    body = wlp(triple.prog, triple.post, flows, sides)
    vcs = [VC("main", Implies(triple.pre, body), "precondition establishes wlp")]
    # the frame rule: what the program never writes holds at every loop
    frame = conj(framed(triple.prog, triple.pre)) if sides else TRUE
    counts: dict = {}
    for tag, f in sides:
        counts[tag] = counts.get(tag, 0) + 1
        vc_id = tag if counts[tag] == 1 else f"{tag}-{counts[tag]}"
        origin = ("loop invariant is preserved by the body"
                  if tag == "loop-preserve" else
                  "loop invariant implies the postcondition")
        vcs.append(VC(vc_id, f if frame == TRUE else Implies(frame, f), origin))
    return vcs

