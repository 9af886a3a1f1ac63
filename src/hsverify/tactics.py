"""Proof methods for hybrid triples.

Differential induction, cut, weakening, and ghosts reduce an ODE safety
goal to arithmetic over the derivative field; `certify_flow` checks that a
closed-form candidate really is the local flow of a field before the
verifier is allowed to substitute it; `d_prove` drives the whole search
over structured programs.

Every method returns a ProofResult.  "proved" means all generated
conditions were discharged; "refuted" always comes with a concrete
witness (a falsified exact condition, or a simulated orbit that leaves
the postcondition); everything else is "unknown" and carries the
residual conditions plus SMT text so an external solver can pick up
where the built-in arithmetic stopped.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Optional

from .store import Dataspace, Frame, Var
from .expr import (
    Expr, RatLit, VarRead, LogicalVar, Add, Mul, Neg, Sub, Eq, Le, Lt, Ge,
    And, Not, Implies, Iff, Exists, Ite, VecLit,
    TRUE, ZERO, num, read, conj, conjuncts,
    free_logicals, fresh_logical, subst_logical, subst_apply_expr, subst_term,
    unrest, simplify, vec_dim, Subst, EvalError,
)
from .deriv import DerivCtx, NotDifferentiable, lie_deriv, deriv_in_var
from .program import (
    HybridProgram, Skip, Abort, Test, Assign, Seq, Choice, If, Loop,
    ODE, Evol, TAU, SimConfig, simulate_traced,
)
from .vcg import VC, Triple, FlowTable, gen_vcs, wlp, MissingFlow, MissingLoopInvariant
from .arith import (
    ArithCtx, Verdict, Unpolyable, prove_vc, falsify, poly_normalize, poly_to_expr, expr_key,
    q_eval, norm_rel, reduce_trig, vec_polys,
)


class TacticError(Exception):
    pass


class NotAnODE(TacticError):
    pass


class UnsupportedRelation(TacticError):
    """Differential induction only speaks about =, <=, <, >=, >."""


class GhostNotFresh(TacticError):
    pass


class GhostInGuardOrField(TacticError):
    pass


class FlowCertError(TacticError):
    pass


class DerivativeMismatch(FlowCertError):
    pass


class NotIdentityAtZero(FlowCertError):
    pass


class LipschitzSampleFailure(FlowCertError):
    pass


class AllConstantsFailed(FlowCertError):
    pass


PROVED = "proved"
REFUTED = "refuted"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class VcOutcome:
    vc: VC
    verdict: Verdict


@dataclass(frozen=True)
class ProofResult:
    status: str
    rule: str
    steps: tuple = ()
    outcomes: tuple = ()
    witness: Optional[dict] = None

    @property
    def proved(self) -> bool:
        return self.status == PROVED

    @property
    def refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def residual(self) -> tuple:
        return tuple(o.vc.formula for o in self.outcomes if not o.verdict.valid)

    @property
    def smt(self) -> tuple:
        return tuple(o.verdict.smt for o in self.outcomes
                     if not o.verdict.valid and o.verdict.smt)


@dataclass(frozen=True)
class CertResult:
    """Evidence that a closed form is the local flow of a field."""

    lipschitz: Fraction
    samples: int  # Lipschitz conditions discharged, one per field row


def check_vc(vc: VC, ctx: ArithCtx, trials: int = 0) -> VcOutcome:
    """Discharge one condition; with trials > 0 the falsifier may refute it."""
    return VcOutcome(vc, prove_vc(vc.formula, ctx, vc_name=vc.vc_id,
                                  falsify_trials=trials))


def settle(rule: str, outcomes=(), parts=(), steps=(),
           exact: bool = True) -> ProofResult:
    """The one place a verdict is formed from conditions and sub-results.

    Proved iff every outcome is valid and every part is proved.  Otherwise
    refuted by the first falsified outcome (only when exact, since a lossy
    rule's conditions may fail on a true goal) or by the first refuted part,
    with its witness.  Otherwise unknown.  A part counts by its status, not
    its outcomes: some unknown results carry no outcomes at all.
    """
    own = tuple(outcomes)
    outcomes = own + tuple(o for p in parts for o in p.outcomes)
    steps = tuple(steps) + tuple(s for p in parts for s in p.steps)
    if all(o.verdict.valid for o in own) and all(p.proved for p in parts):
        return ProofResult(PROVED, rule, steps, outcomes)
    for o in own:
        if exact and o.verdict.status == "invalid":
            return ProofResult(REFUTED, rule, steps + (f"{o.vc.vc_id} falsified",),
                               outcomes, witness=o.verdict.witness)
    for p in parts:
        if p.refuted:
            return ProofResult(REFUTED, rule, steps, outcomes, witness=p.witness)
    return ProofResult(UNKNOWN, rule, steps, outcomes)


def _hyp(parts) -> Expr:
    return conj([p for p in parts if p != TRUE])


def _dedup(exprs) -> list:
    out = []
    for e in exprs:
        if e != TRUE and e not in out:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# Differential induction


def _oriented(atom: Expr) -> Expr:
    """Comparisons with the large side on the right; rejects everything else."""
    a = norm_rel(atom)
    if isinstance(a, (Eq, Le, Lt)):
        return a
    raise UnsupportedRelation(f"cannot induct on {expr_key(atom)}")


def _match_shapes(l: Expr, r: Expr, ds: Dataspace) -> tuple:
    """Broadcast a scalar zero derivative against a vector-valued one.

    Differentiating a frame-constant expression yields the scalar zero
    whatever its kind, so an equation between a moving vector and a
    constant one needs the zero re-shaped before comparison.
    """
    ld, rd = vec_dim(l, ds), vec_dim(r, ds)
    if ld and rd is None and r == ZERO:
        r = VecLit((ZERO,) * ld)
    elif rd and ld is None and l == ZERO:
        l = VecLit((ZERO,) * rd)
    return l, r


def _exactly_valid(prem: Expr, ds: Dataspace) -> bool:
    """Premise holds by normalization alone: zero difference or signed constant."""
    if isinstance(prem, Eq):
        return _off_by(Sub(prem.left, prem.right), ds) is None
    diff = poly_normalize(Sub(prem.left, prem.right), ds)
    return isinstance(diff, RatLit) and diff.value <= 0


def d_induct(ode: ODE, inv: Expr, ctx: ArithCtx, facts=(),
             exact: bool = False) -> ProofResult:
    """Differential induction: the invariant's derivative inequality holds
    everywhere in the evolution domain.

    A strict atom e1 < e2 inducts with the weakened premise D(e1) <= D(e2);
    with exact=True the premise must close by polynomial normalization
    alone (no hypothesis reasoning), which is the honest reading of the
    basic rule.
    """
    if not isinstance(ode, ODE):
        raise NotAnODE(f"d_induct needs an ODE, got {type(ode).__name__}")
    dctx = DerivCtx(ode.frame, ode.rhs)
    hyp = _hyp([ode.guard, *facts])
    outcomes = []
    steps = []
    for i, atom in enumerate(conjuncts(inv)):
        a = _oriented(atom)
        dl = lie_deriv(dctx, a.left)
        dr = lie_deriv(dctx, a.right)
        rel = Eq if isinstance(a, Eq) else Le
        prem = rel(*_match_shapes(dl.expr, dr.expr, ctx.dataspace))
        provisos = dl.provisos + dr.provisos
        vc = VC(f"induct-step-{i}" if i else "induct-step",
                Implies(hyp, prem) if hyp != TRUE else prem,
                origin="dI", provisos=provisos)
        side_vcs = [VC(f"{vc.vc_id}-proviso-{j}",
                       Implies(hyp, p) if hyp != TRUE else p, origin="dI")
                    for j, p in enumerate(provisos)]
        if exact:
            ok = not provisos and _exactly_valid(prem, ctx.dataspace)
            v = Verdict("valid" if ok else "unknown", rule="normalize")
            outcomes.append(VcOutcome(vc, v))
        else:
            outcomes.extend(check_vc(sv, ctx) for sv in side_vcs)
            outcomes.append(check_vc(vc, ctx))
        steps.append(f"dI {expr_key(atom)}")
    return settle("dI", outcomes, steps=steps, exact=False)


def d_weaken(ode: ODE, post: Expr, ctx: ArithCtx, facts=()) -> ProofResult:
    """Differential weakening: the evolution domain already implies post."""
    if not isinstance(ode, (ODE, Evol)):
        raise NotAnODE(f"d_weaken needs an ODE, got {type(ode).__name__}")
    hyp = _hyp([ode.guard, *facts])
    vc = VC("weaken", Implies(hyp, post) if hyp != TRUE else post, origin="dW")
    return settle("dW", (check_vc(vc, ctx),), steps=(f"dW {expr_key(post)}",),
                  exact=False)


def d_cut(ode: ODE, cut: Expr) -> ODE:
    """Restrict the evolution domain by a formula already shown invariant."""
    if not isinstance(ode, ODE):
        raise NotAnODE(f"d_cut needs an ODE, got {type(ode).__name__}")
    guard = cut if ode.guard == TRUE else And(ode.guard, cut)
    return replace(ode, guard=guard)


def d_discrete_atoms(ode: ODE, pre: Expr) -> list:
    """Precondition conjuncts untouched by the field; invariant for free."""
    return [a for a in _dedup(conjuncts(pre)) if unrest(ode.frame, a)]


# ---------------------------------------------------------------------------
# Differential ghosts


def d_ghost(ode: ODE, target: Expr, ghost: str, k: Expr, ghost_inv: Expr,
            ctx: ArithCtx) -> ProofResult:
    """Differential ghost: adjoin a fresh variable y with y' = k*y, prove
    the augmented invariant inductively, and recover the target through
    the equivalence  target <-> exists v. ghost_inv[v/y].
    """
    if not isinstance(ode, ODE):
        raise NotAnODE(f"d_ghost needs an ODE, got {type(ode).__name__}")
    y = Var(ghost)
    ctx.dataspace.kind_of(ghost)  # raises if undeclared
    if ode.frame.covers(y):
        raise GhostNotFresh(f"{ghost} is already driven by the field")
    yf = Frame((y,))
    if not unrest(yf, target):
        raise GhostNotFresh(f"{ghost} occurs in the target invariant")
    if not unrest(yf, ode.guard):
        raise GhostInGuardOrField(f"{ghost} occurs in the evolution domain")
    for l, e in ode.rhs.entries:
        if not unrest(yf, e):
            raise GhostInGuardOrField(f"{ghost} occurs in the field for {l.name}")
    if not unrest(yf, k):
        raise GhostInGuardOrField(f"{ghost} occurs in its own growth rate")

    ext = replace(ode, frame=ode.frame.union(yf),
                  rhs=Subst(ode.rhs.entries + ((y, Mul(k, read(ghost))),),
                            ode.rhs.dataspace))
    v = fresh_logical("v", free_logicals(target) | free_logicals(ghost_inv))
    equiv = Iff(target, Exists(v, subst_term(ghost_inv, read(ghost), LogicalVar(v))))
    ev = check_vc(VC("ghost-equiv", equiv, origin="dG"), ctx)
    ind = d_induct(ext, ghost_inv, ctx)
    return settle("dG", (ev,), (ind,),
                  (f"dG {ghost}' = {expr_key(Mul(k, read(ghost)))}",), exact=False)


# ---------------------------------------------------------------------------
# Flow certification


def _rows(frame: Frame, ds: Dataspace) -> list:
    """The frame's scalar coordinates: each vector member split by index."""
    out = []
    for m in frame.members:
        split = isinstance(m, Var) and ds.kind_of(m.name).base == "vec"
        out.extend(ds.coords(m.name) if split else (m,))
    return out


def _off_by(e: Expr, ds: Dataspace) -> Optional[str]:
    """None when e is zero by normalization, coordinate by coordinate for
    a vector term; else the normal form, or the vector of normal
    coordinates, that shows it is not."""
    if vec_dim(e, ds) is not None:
        try:
            coords = [reduce_trig(p) for p in vec_polys(e, ds)]
        except Unpolyable:
            pass
        else:
            if all(p.is_zero() for p in coords):
                return None
            return expr_key(VecLit(tuple(poly_to_expr(p) for p in coords)))
    diff = poly_normalize(e, ds)
    return None if diff == ZERO else expr_key(diff)


def certify_flow(ode: ODE, flow: Subst, ctx: ArithCtx, *,
                 lipschitz: Fraction = Fraction(1)) -> CertResult:
    """Check a closed-form candidate against its field before trusting it.

    Three obligations: the tau-derivative of each component equals the
    field read along the candidate (by normalization), the candidate is
    the identity at tau = 0, and the field is Lipschitz with the given
    constant in the max-norm over the frame.  The last is one proved
    condition per field row i, sum_j |d f_i / d x_j| <= L, under only the
    assumptions the frame leaves untouched: the frame coordinates then
    range over all of R^n, which is convex, so the mean-value theorem
    turns the derivative bound into the Lipschitz bound.  Failures raise;
    success returns the evidence, with one discharged condition per row.
    """
    if not isinstance(ode, ODE):
        raise NotAnODE(f"certify_flow needs an ODE, got {type(ode).__name__}")
    ds = ctx.dataspace
    for m in ode.frame.members:
        e = flow.lookup(m)
        try:
            d = deriv_in_var(e, TAU)
        except NotDifferentiable as err:
            raise DerivativeMismatch(
                f"no symbolic d/dtau of the {m.name} component: {err}") from err
        if d.provisos:
            hyp = _hyp([Le(ZERO, LogicalVar(TAU)), *ctx.assumptions])
            for p in d.provisos:
                v = prove_vc(Implies(hyp, p), ctx, vc_name="flow-proviso",
                             falsify_trials=0)
                if not v.valid:
                    raise DerivativeMismatch(
                        f"side condition for {m.name} not discharged: {expr_key(p)}")
        along = subst_apply_expr(ode.rhs.lookup(m), flow)
        diff = _off_by(Sub(d.expr, along), ds)
        if diff is not None:
            raise DerivativeMismatch(f"d/dtau of the {m.name} component is off by {diff}")
        at0 = _off_by(Sub(simplify(subst_logical(e, TAU, ZERO)), VarRead(m)), ds)
        if at0 is not None:
            raise NotIdentityAtZero(f"{m.name} component at tau = 0 is off by {at0}")

    # the evolution guard is deliberately not a hypothesis: the bound must
    # hold on a convex region, and a guard need not describe one
    free = replace(ctx, assumptions=tuple(a for a in ctx.assumptions
                                          if unrest(ode.frame, a)), box=None)
    rows = _rows(ode.frame, ds)
    for xi in rows:
        fi = ode.rhs.lookup(xi)
        terms, provisos = [], []
        for xj in rows:
            try:
                d = lie_deriv(DerivCtx(Frame([xj]), Subst(((xj, num(1)),), ds)), fi)
            except NotDifferentiable as e:
                raise LipschitzSampleFailure(
                    f"no symbolic derivative of the {xi!r} row: {e}") from e
            terms.append(Ite(Ge(d.expr, ZERO), d.expr, Neg(d.expr)))
            provisos.extend(d.provisos)
        bound = Le(reduce(Add, terms), num(lipschitz))
        v = prove_vc(conj([*provisos, bound]), free, vc_name="lipschitz")
        if not v.valid:
            raise LipschitzSampleFailure(
                f"constant {lipschitz} not shown for the {xi!r} row: {v.status}")
    return CertResult(Fraction(lipschitz), len(rows))


# the Lipschitz constants local_flow_auto tries, in order
_LIPSCHITZ_LADDER = (Fraction(1, 2), Fraction(1), Fraction(2))


def local_flow_auto(ode: ODE, flow: Subst, ctx: ArithCtx) -> CertResult:
    """Certify with the first workable constant from _LIPSCHITZ_LADDER."""
    notes = []
    for L in _LIPSCHITZ_LADDER:
        try:
            return certify_flow(ode, flow, ctx, lipschitz=L)
        except LipschitzSampleFailure as e:
            notes.append(f"L={L}: {e}")
    raise AllConstantsFailed("; ".join(notes))


# ---------------------------------------------------------------------------
# The combined ODE search


_REFUTE_ATTEMPTS = 5  # precondition states _refute_by_simulation tries
_MEGA_ROUNDS = 8  # cut rounds of d_induct_mega


def _refute_by_simulation(ode: ODE, pre: Expr, post: Expr,
                          ctx: ArithCtx) -> Optional[dict]:
    """Sample a precondition state, integrate, and look for a clear exit."""
    cfg = SimConfig(step=0.01, horizon=4.0, samples_per_orbit=256)
    for a in range(_REFUTE_ATTEMPTS):
        w = falsify(Not(pre), ctx, trials=120, seed=ctx.seed + a)
        if w is None:
            continue
        # falsify draws every declared name by its kind: the witness is a store
        s0 = ctx.dataspace.make_store(w["store"])
        env = dict(w["env"])
        try:
            orbit = simulate_traced(ode, s0, cfg)
        except (OverflowError, EvalError):
            continue  # a numeric error ends the orbit unread: no exit found here
        for t, st in orbit:
            # 1e-7 rather than the guard's 1e-9: the orbit carries RK4 error
            if q_eval(post, st, env, ctx.box, tol=1e-7)[0] is False:
                return {"store": w["store"], "env": env, "time": t, "state": dict(st.items())}
    return None


def d_induct_mega(ode: ODE, pre: Expr, post: Expr, ctx: ArithCtx, *,
                  refute: bool = True) -> ProofResult:
    """Search loop over the ODE rules.

    Free cuts first (precondition conjuncts the field cannot move), then
    repeatedly: close by weakening against the accumulated domain, or cut
    in one more conjunct that is both initially true and inductive.  When
    nothing closes, a short simulation hunts for a concrete orbit leaving
    the postcondition before giving up as unknown.
    """
    if not isinstance(ode, ODE):
        raise NotAnODE(f"d_induct_mega needs an ODE, got {type(ode).__name__}")
    steps = []
    outcomes = []
    cur = ode
    established = []
    for a in d_discrete_atoms(ode, pre):
        cur = d_cut(cur, a)
        established.append(a)
        steps.append(f"dD cut {expr_key(a)}")

    candidates = _dedup(conjuncts(pre) + conjuncts(post))
    for _ in range(_MEGA_ROUNDS):
        w = d_weaken(cur, post, ctx)
        outcomes = list(w.outcomes)
        if w.proved:
            return ProofResult(PROVED, "dI*", tuple(steps + list(w.steps)),
                               tuple(outcomes))
        progress = False
        for a in candidates:
            if a in established:
                continue
            try:
                for c in conjuncts(a):
                    _oriented(c)
            except UnsupportedRelation:
                continue
            init = prove_vc(Implies(pre, a), ctx, vc_name="induct-init",
                            falsify_trials=0)
            if not init.valid:
                continue
            try:
                ind = d_induct(cur, a, ctx)
            except NotDifferentiable:
                continue
            if ind.proved:
                cur = d_cut(cur, a)
                established.append(a)
                steps.append(f"dC {expr_key(a)} by dI")
                progress = True
                break
            outcomes.extend(ind.outcomes)
        if not progress:
            break

    if refute:
        w = _refute_by_simulation(ode, pre, post, ctx)
        if w is not None:
            return ProofResult(REFUTED, "dI*",
                               tuple(steps + ["orbit leaves the postcondition"]),
                               tuple(outcomes), witness=w)
    return ProofResult(UNKNOWN, "dI*", tuple(steps), tuple(outcomes))


# ---------------------------------------------------------------------------
# Structured programs


def _discrete(p: HybridProgram) -> bool:
    if isinstance(p, (ODE, Evol, Loop)):
        return False
    if isinstance(p, (Seq, Choice)):
        kids = (p.first, p.second) if isinstance(p, Seq) else (p.left, p.right)
        return all(_discrete(k) for k in kids)
    if isinstance(p, If):
        return _discrete(p.then) and _discrete(p.other)
    return isinstance(p, (Skip, Abort, Test, Assign))


def d_prove(triple: Triple, ctx: ArithCtx, flows: Optional[FlowTable] = None,
            depth: int = 8, exact: bool = True, trials: int = 300) -> ProofResult:
    """Prove a hybrid triple by structural decomposition.

    Exact paths (weakest preconditions, branch splits) may refute with a
    witness; lossy paths (invariant chaining, the ODE search) only ever
    answer proved or unknown.  trials is the falsifier's budget for each
    condition of a weakest-precondition attempt; at 0 the ODE search does
    not look for an orbit that leaves the postcondition either.
    """
    pre, p, post = triple.pre, triple.prog, triple.post
    if depth <= 0:
        return ProofResult(UNKNOWN, "depth", ("search depth exhausted",))

    def sub(pre, prog, post, exact):
        return d_prove(Triple(pre, prog, post), ctx, flows, depth - 1,
                       exact=exact, trials=trials)

    try:
        vcs = gen_vcs(triple, flows)
    except (MissingFlow, MissingLoopInvariant):
        vcs = None
    wp = None
    if vcs is not None:
        wp = settle("wp", [check_vc(vc, ctx, trials) for vc in vcs], exact=exact)
        if wp.status != UNKNOWN:
            return wp

    r = None  # the structural result
    if isinstance(p, Loop):
        if p.invariant is None:
            raise MissingLoopInvariant("loop rule needs an invariant")
        inv = p.invariant
        init = check_vc(VC("loop-init", Implies(pre, inv), "loop"), ctx)
        keep = sub(inv, p.body, inv, False)
        final = check_vc(VC("loop-post", Implies(inv, post), "loop"), ctx)
        parts = [settle("loop", (init,), exact=False), keep,
                 settle("loop", (final,), exact=False)]
        r = settle("loop", parts=parts, steps=(f"loop invariant {expr_key(inv)}",))
    elif isinstance(p, Seq):
        a, b = p.first, p.second
        if _discrete(b):
            r = sub(pre, a, wlp(b, post), exact)
            if r.status != UNKNOWN:
                return r
        for mid in _dedup([post, pre]):
            ra = sub(pre, a, mid, False)
            if not ra.proved:
                continue
            rb = sub(mid, b, post, False)
            if rb.proved:
                return settle("seq", parts=(ra, rb),
                              steps=(f"chain through {expr_key(mid)}",))
    elif isinstance(p, (If, Choice)):
        if isinstance(p, If):
            rule, steps = "if", ("split on the branch condition",)
            branches = ((And(pre, p.cond), p.then), (And(pre, Not(p.cond)), p.other))
        else:
            rule, steps = "choice", ()
            branches = ((pre, p.left), (pre, p.right))
        parts = []
        for bpre, branch in branches:
            part = sub(bpre, branch, post, exact)
            if part.refuted:
                return part
            parts.append(part)
        r = settle(rule, parts=parts, steps=steps)
    elif isinstance(p, ODE):
        r = d_induct_mega(p, pre, post, ctx, refute=exact and trials > 0)
        if r.status != UNKNOWN:
            return r

    if r is not None and r.proved:
        return r
    return wp or r or ProofResult(UNKNOWN, "dProve", ("no rule closed the goal",))
