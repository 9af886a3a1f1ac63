"""Hybrid programs and their numeric simulation.

Programs are the usual regular fragment (assignment, test, choice, loop)
plus two continuous commands: an ODE evolved with classical fixed-step RK4,
and a closed-form evolution evaluated directly.  Nondeterministic duration is
sampled densely: every integration step is a candidate stopping time, subject
to the guard holding at every earlier sample (down-closure).  Simulation is
fully deterministic given the config's seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .arith import Box, q_eval
from .expr import And, Expr, Subst, TRUE, eval_expr
from .store import Frame, Store, lens_get

TAU = "tau"


class StepSizeTooLarge(Exception):
    """The admissible duration is below the step's bisection resolution."""


@dataclass(frozen=True)
class DurationSpec:
    """Admissible evolution durations.

    Default is every nonnegative time.  A closed interval restricts both ends;
    a member expression over (store, tau) carves out anything else.
    """

    lo: Fraction = Fraction(0)
    hi: Optional[Fraction] = None
    member: Optional[Expr] = None

    def contains(self, tau, s: Store, env: Optional[dict] = None) -> bool:
        if tau < self.lo:
            return False
        if self.hi is not None and tau > self.hi:
            return False
        if self.member is not None:
            e = dict(env or {})
            e[TAU] = tau
            return bool(eval_expr(self.member, s, e))
        return True


NONNEG = DurationSpec()


def interval(lo, hi) -> DurationSpec:
    return DurationSpec(Fraction(lo), Fraction(hi))


@dataclass(frozen=True)
class HybridProgram:
    pass


@dataclass(frozen=True)
class Skip(HybridProgram):
    pass


@dataclass(frozen=True)
class Abort(HybridProgram):
    pass


@dataclass(frozen=True)
class Assign(HybridProgram):
    subst: Subst


@dataclass(frozen=True)
class Test(HybridProgram):
    __test__ = False  # keep pytest from collecting the class

    cond: Expr


@dataclass(frozen=True)
class Seq(HybridProgram):
    first: HybridProgram
    second: HybridProgram


@dataclass(frozen=True)
class Choice(HybridProgram):
    left: HybridProgram
    right: HybridProgram


@dataclass(frozen=True)
class If(HybridProgram):
    cond: Expr
    then: HybridProgram
    other: HybridProgram


@dataclass(frozen=True)
class Loop(HybridProgram):
    body: HybridProgram
    invariant: Optional[Expr] = None


@dataclass(frozen=True)
class ODE(HybridProgram):
    frame: Frame
    rhs: Subst
    guard: Expr = TRUE
    dur: DurationSpec = NONNEG
    dom: Optional[Expr] = None
    t0: Fraction = Fraction(0)


@dataclass(frozen=True)
class Evol(HybridProgram):
    """Closed-form evolution: each framed lens follows its expression in tau."""

    frame: Frame
    flow: Subst
    guard: Expr = TRUE
    dur: DurationSpec = NONNEG


@dataclass
class SimConfig:
    step: float = 0.01
    horizon: float = 10.0
    samples_per_orbit: int = 64
    rng_seed: int = 0
    explore_both: bool = False


def modset(p: HybridProgram) -> Frame:
    """Syntactic overapproximation of the lenses p can write."""
    if isinstance(p, (Skip, Abort, Test)):
        return Frame()
    if isinstance(p, Assign):
        return Frame(p.subst.lenses())
    if isinstance(p, (Seq, Choice)):
        a = p.first if isinstance(p, Seq) else p.left
        b = p.second if isinstance(p, Seq) else p.right
        return modset(a).union(modset(b))
    if isinstance(p, If):
        return modset(p.then).union(modset(p.other))
    if isinstance(p, Loop):
        return modset(p.body)
    if isinstance(p, (ODE, Evol)):
        return p.frame
    raise TypeError(f"not a program: {p!r}")


def nmods(p: HybridProgram, a: Frame) -> bool:
    """p provably leaves every lens of a alone."""
    return modset(p).disjoint(a)


# ---------------------------------------------------------------------------
# Guard evaluation


# a quantified guard ranges its binders over the default box
_GUARD_BOX = Box()


def eval_guard(e: Expr, s: Store, env: Optional[dict] = None) -> bool:
    """The guard holds unless it is false beyond 1e-9 of relative float
    noise, so noise at a boundary does not end an orbit early.  Errors in
    evaluating it propagate, and a quantified guard raises
    UnsupportedConstruct."""
    return q_eval(e, s, env or {}, _GUARD_BOX, strict=True)[0] is not False


def full_guard(p) -> Expr:
    """An ODE's guard conjoined with its domain, if it declares one."""
    if p.dom is None:
        return p.guard
    return And(p.guard, p.dom)


# ---------------------------------------------------------------------------
# Simulation


def _thin(samples: list, n: int) -> list:
    """Deterministically keep at most n entries, always first and last."""
    if len(samples) <= n or n < 2:
        return samples
    idx = {0, len(samples) - 1}
    for k in range(1, n - 1):
        idx.add(round(k * (len(samples) - 1) / (n - 1)))
    return [samples[i] for i in sorted(idx)]


class _Sim:
    def __init__(self, cfg: SimConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.rng_seed)

    def run(self, p: HybridProgram, t: float, s: Store) -> list:
        cfg = self.cfg
        if isinstance(p, Skip):
            return [(t, s)]
        if isinstance(p, Abort):
            return []
        if isinstance(p, Test):
            return [(t, s)] if bool(eval_expr(p.cond, s)) else []
        if isinstance(p, Assign):
            return [(t, p.subst.apply(s))]
        if isinstance(p, Seq):
            out = []
            for t1, s1 in _thin(self.run(p.first, t, s), cfg.samples_per_orbit):
                out.extend(self.run(p.second, t1, s1))
            return out
        if isinstance(p, Choice):
            if cfg.explore_both:
                return self.run(p.left, t, s) + self.run(p.right, t, s)
            branch = p.left if self.rng.random() < 0.5 else p.right
            return self.run(branch, t, s)
        if isinstance(p, If):
            branch = p.then if bool(eval_expr(p.cond, s)) else p.other
            return self.run(branch, t, s)
        if isinstance(p, Loop):
            iters = max(1, int(cfg.horizon))
            out = [(t, s)]
            frontier = [(t, s)]
            for _ in range(iters):
                step_out = []
                for tf, sf in _thin(frontier, cfg.samples_per_orbit):
                    step_out.extend(self.run(p.body, tf, sf))
                if not step_out:
                    break
                out.extend(step_out)
                frontier = step_out
            return _thin(out, cfg.samples_per_orbit * max(1, iters))
        if isinstance(p, ODE):
            return self._integrate(p, t, s)
        if isinstance(p, Evol):
            return self._evolve(p, t, s)
        raise TypeError(f"not a program: {p!r}")

    # -- ODE path

    def _integrate(self, p: ODE, t: float, s: Store) -> list:
        cfg = self.cfg
        guard = full_guard(p)
        if not eval_guard(guard, s):
            return []
        members = p.frame.members
        rhs_exprs = [p.rhs.lookup(m) for m in members]
        shapes = []
        y0 = []
        for m in members:
            v = lens_get(m, s)
            if isinstance(v, tuple):
                shapes.append(len(v))
                y0.extend(float(c) for c in v)
            else:
                shapes.append(0)
                y0.append(float(v))
        y0 = tuple(y0)

        def unpack(y: tuple) -> Store:
            vals = []
            i = 0
            for dim in shapes:
                if dim == 0:
                    vals.append(y[i])
                    i += 1
                else:
                    vals.append(y[i:i + dim])
                    i += dim
            return p.frame.put(tuple(vals), s)

        def fdot(y: tuple) -> tuple:
            st = unpack(y)
            out = []
            for dim, e in zip(shapes, rhs_exprs):
                v = eval_expr(e, st)
                if dim == 0:
                    out.append(float(v))
                else:
                    out.extend(float(c) for c in v)
            return tuple(out)

        def axpy(y: tuple, c: float, k: tuple) -> tuple:
            return tuple(a + c * b for a, b in zip(y, k))

        def rk4(y: tuple, h: float) -> tuple:
            k1 = fdot(y)
            k2 = fdot(axpy(y, h / 2.0, k1))
            k3 = fdot(axpy(y, h / 2.0, k2))
            k4 = fdot(axpy(y, h, k3))
            return tuple(a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                         for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))

        def bisect_to_boundary(y_good: tuple):
            # March toward the crossing by halving the remaining step.
            adv = 0.0
            rem = h
            for _ in range(_BISECT_DEPTH):
                rem /= 2.0
                y_try = rk4(y_good, rem)
                if eval_guard(guard, unpack(y_try)):
                    y_good = y_try
                    adv += rem
            return adv, y_good

        base = t + float(p.t0)
        h = cfg.step
        nsteps = max(1, int(round(cfg.horizon / h)))
        samples = []
        tau = 0.0
        y = y0
        if p.dur.contains(tau, s):
            samples.append((base, s))
        for _ in range(nsteps):
            y_next = rk4(y, h)
            st = unpack(y_next)
            if not eval_guard(guard, st):
                adv, y_b = bisect_to_boundary(y)
                if adv == 0.0 and tau == 0.0:
                    raise StepSizeTooLarge(
                        f"guard region thinner than step/{1 << _BISECT_DEPTH}; reduce step")
                if adv > 0.0:
                    st_b = unpack(y_b)
                    if p.dur.contains(tau + adv, st_b):
                        samples.append((base + tau + adv, st_b))
                break
            tau += h
            y = y_next
            if p.dur.contains(tau, st):
                samples.append((base + tau, st))
        return _thin(samples, cfg.samples_per_orbit)

    # -- closed-form path

    def _evolve(self, p: Evol, t: float, s: Store) -> list:
        cfg = self.cfg
        guard = p.guard
        members = p.frame.members
        flows = [p.flow.lookup(m) for m in members]
        nsteps = max(1, int(round(cfg.horizon / cfg.step)))
        samples = []
        for k in range(nsteps + 1):
            tau = k * cfg.step
            env = {TAU: tau}
            vals = tuple(eval_expr(e, s, env) for e in flows)
            st = p.frame.put(vals, s)
            if not eval_guard(guard, st, env):
                break
            if p.dur.contains(tau, st):
                samples.append((t + tau, st))
        return _thin(samples, cfg.samples_per_orbit)


_BISECT_DEPTH = 10


def simulate_traced(p: HybridProgram, s: Store, cfg: Optional[SimConfig] = None) -> list:
    """Sampled reachable states as (time, store) pairs."""
    return _Sim(cfg or SimConfig()).run(p, 0.0, s)


def simulate(p: HybridProgram, s: Store, cfg: Optional[SimConfig] = None) -> list:
    """Sampled reachable states of p from s, in time order along each path."""
    return [st for _, st in simulate_traced(p, s, cfg)]


def fmt_value(v) -> str:
    """A store value as the model language writes it."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "[" + ", ".join(fmt_value(c) for c in v) + "]"
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def format_trace(samples: list) -> str:
    """One line per sample: time, then name=value in declaration order."""
    lines = []
    for t, st in samples:
        fields = " ".join(f"{name}={fmt_value(v)}" for name, v in st.items())
        lines.append(f"{t:.6f}\t{fields}")
    return "\n".join(lines) + ("\n" if lines else "")

