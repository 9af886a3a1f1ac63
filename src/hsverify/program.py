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
from typing import Iterator, Optional

from .arith import Box, q_eval
from .expr import (
    EvalError, Expr, Folded, RatLit, Subst, TRUE, UnsupportedConstruct,
    compile_expr, conjuncts, distinct, eval_expr, fold_constants, unrest,
)
from .store import Coord, Frame, Store, lens_get

TAU = "tau"


class StepSizeTooLarge(Exception):
    """The admissible duration is below the step's bisection resolution."""


# The errors that stop a simulation: a value the model cannot evaluate, a
# float beyond range, a quantified guard, or a guard region thinner than
# bisection resolves.
SIMULATION_ERRORS = (EvalError, OverflowError, UnsupportedConstruct, StepSizeTooLarge)


@dataclass(frozen=True)
class DurationSpec:
    """Admissible evolution durations.

    Default is every nonnegative time; a closed interval restricts both ends.
    """

    lo: Fraction = Fraction(0)
    hi: Optional[Fraction] = None

    def __post_init__(self):
        # The bounds as contains compares them, worked out once and kept in
        # __dict__, outside the fields, so ==, hash and repr do not see them.
        self.__dict__["_lo"] = _exact_bound(self.lo)
        self.__dict__["_hi"] = None if self.hi is None else _exact_bound(self.hi)

    def contains(self, tau) -> bool:
        return not (tau < self._lo or self._hi is not None and tau > self._hi)


def _exact_bound(b: Fraction):
    """An integral bound as an int: a float compares with an int exactly,
    and without the Fraction.from_float that comparing with a Fraction
    costs."""
    return b.numerator if b.denominator == 1 else b


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


@dataclass(frozen=True)
class Evol(HybridProgram):
    """Closed-form evolution: each framed lens follows its expression in tau."""

    frame: Frame
    flow: Subst
    guard: Expr = TRUE


@dataclass
class SimConfig:
    step: float = 0.01
    horizon: float = 10.0
    samples_per_orbit: int = 64
    rng_seed: int = 0


# the programs directly inside each compound program, by field name
_PARTS = {Seq: ("first", "second"), Choice: ("left", "right"),
          If: ("then", "other"), Loop: ("body",)}


def subprograms(p: HybridProgram) -> Iterator[HybridProgram]:
    """p and every program inside it, in pre-order."""
    yield p
    for name in _PARTS.get(type(p), ()):
        yield from subprograms(getattr(p, name))


def modset(p: HybridProgram) -> Frame:
    """Syntactic overapproximation of the lenses p can write."""
    return Frame(l for q in subprograms(p)
                 for l in (q.subst.lenses() if isinstance(q, Assign) else
                           q.frame if isinstance(q, (ODE, Evol)) else ()))


def framed(p: HybridProgram, facts: Expr) -> list:
    """The frame rule: the conjuncts of facts, each once and true dropped,
    that read nothing p can write.  Each holds in every state a run of p
    reaches from a state where facts hold."""
    written = modset(p)
    return [a for a in distinct(conjuncts(facts)) if unrest(written, a)]


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
            return [(t, s)] if eval_guard(p.cond, s) else []
        if isinstance(p, Assign):
            return [(t, p.subst.apply(s))]
        if isinstance(p, Seq):
            out = []
            for t1, s1 in _thin(self.run(p.first, t, s), cfg.samples_per_orbit):
                out.extend(self.run(p.second, t1, s1))
            return out
        if isinstance(p, Choice):
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
        guard = fold_constants(p.guard, s, p.frame, formula=True)
        checked = guard != TRUE  # a true guard holds everywhere: never evaluated
        if checked and not eval_guard(guard, s):
            return []
        y0, unpack, fdot = _orbit_field(p, s)

        # The inner loop: list comprehensions, as tuple() over a generator
        # costs a frame per stage.
        def rk4(y: tuple, h: float) -> tuple:
            half = h / 2.0
            k1 = fdot(y)
            k2 = fdot(tuple([a + half * b for a, b in zip(y, k1)]))
            k3 = fdot(tuple([a + half * b for a, b in zip(y, k2)]))
            k4 = fdot(tuple([a + h * b for a, b in zip(y, k3)]))
            return tuple([a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                          for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])

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

        h = cfg.step
        nsteps = max(1, int(round(cfg.horizon / h)))
        hi = p.dur._hi  # once tau reaches it, no later step adds a sample
        samples = []  # (time, flat state, its store if one is built yet)
        tau = 0.0
        y = y0
        if p.dur.contains(tau):
            samples.append((t, y0, s))
        for k in range(1, nsteps + 1):
            if hi is not None and tau >= hi:
                break
            y_next = rk4(y, h)
            st = unpack(y_next) if checked else None
            if checked and not eval_guard(guard, st):
                adv, y_b = bisect_to_boundary(y)
                if adv == 0.0 and tau == 0.0:
                    raise StepSizeTooLarge(
                        f"guard region thinner than step/{1 << _BISECT_DEPTH}; reduce step")
                if adv > 0.0 and p.dur.contains(tau + adv):
                    samples.append((t + tau + adv, y_b, None))
                break
            tau = k * h  # as _evolve's grid: a sum of steps drifts off it
            y = y_next
            if p.dur.contains(tau):
                samples.append((t + tau, y, st))
        return _kept(samples, cfg.samples_per_orbit, unpack)

    # -- closed-form path

    def _evolve(self, p: Evol, t: float, s: Store) -> list:
        cfg = self.cfg
        # The flows read s alone, so only tau moves in them.
        flows = [compile_expr(fold_constants(p.flow.lookup(m), s, Frame()))
                 for m in p.frame.members]
        guard = fold_constants(p.guard, s, p.frame, formula=True)
        checked = guard != TRUE
        _, unpack = _stage_stores(p.frame.members, s)
        nsteps = max(1, int(round(cfg.horizon / cfg.step)))
        samples = []
        # Every grid point is evaluated, so an error anywhere stops the run,
        # but only a guard check or a kept sample builds a store.
        for k in range(nsteps + 1):
            tau = k * cfg.step
            env = {TAU: tau}
            # the parser kind-checks every flow, so each value has its
            # member's shape, as an RK4 stage does
            y = _flat(f(s, env) for f in flows)
            st = unpack(y) if checked else None
            if checked and not eval_guard(guard, st, env):
                break
            samples.append((t + tau, y, st))
        return _kept(samples, cfg.samples_per_orbit, unpack)


def _kept(samples: list, n: int, unpack) -> list:
    """The samples that _thin keeps, each (time, flat state y, its store or
    None), as (time, store): unpack(y) builds each store not yet built."""
    return [(t, unpack(y) if st is None else st) for t, y, st in _thin(samples, n)]


def _flat(values) -> tuple:
    """Member values laid out flat: a vector's coordinates in index order."""
    return tuple(c for v in values for c in (v if isinstance(v, tuple) else (v,)))


def _stage_stores(members: tuple, s: Store):
    """(widths, unpack) for the frame members at s: each member's width, 0
    for a scalar, and unpack(y), the store s with the members rebound to
    the flat values y, as _flat lays them out."""
    widths = [len(v) if isinstance(v, tuple) else 0
              for v in (lens_get(m, s) for m in members)]
    # (name, coordinate or 0, width) per member, in frame order
    layout = [(m.name, m.index if isinstance(m, Coord) else 0, dim)
              for m, dim in zip(members, widths)]
    data0 = dict(s.items())

    def unpack(y: tuple) -> Store:
        # y holds values of each member's own shape, so the stage store is
        # one copy of s with the members rebound, unchecked.
        data = data0.copy()
        i = 0
        for name, index, dim in layout:
            if dim == 0:
                v = y[i]
                i += 1
            else:
                v = y[i:i + dim]
                i += dim
            if index:
                old = data[name]
                v = old[:index - 1] + (v,) + old[index:]
            data[name] = v
        return Store(s.dataspace, data)

    return widths, unpack


def _orbit_field(p: ODE, s: Store):
    """(y0, unpack, fdot) for RK4 along p's orbit from s.

    y0 flattens the frame members' values at s into floats, unpack(y) is
    the stage store for a flat state y (_stage_stores), and fdot(y) the
    field at it.  Each right-hand side is folded once (fold_constants): a
    row that folds completely is a float tuple computed here, and the
    others run their compiled residual on the stage store.  When every row
    folds, fdot returns the one tuple and never builds a stage store.
    """
    members = p.frame.members
    shapes, unpack = _stage_stores(members, s)
    y0 = tuple(float(c) for c in _flat(lens_get(m, s) for m in members))

    # per row: its floats when it folds completely, its width, its closure
    rows = []
    for m, dim in zip(members, shapes):
        e = fold_constants(p.rhs.lookup(m), s, p.frame)
        floats = _floats(e.value, dim) if isinstance(e, (Folded, RatLit)) else None
        rows.append((floats, dim, compile_expr(e)))
    if all(floats is not None for floats, _, _ in rows):
        k = tuple(c for floats, _, _ in rows for c in floats)
        return y0, unpack, lambda y: k

    def fdot(y: tuple) -> tuple:
        st = unpack(y)
        out = []
        for floats, dim, f in rows:
            if floats is not None:
                out.extend(floats)
                continue
            v = f(st, _NO_ENV)
            if dim == 0:
                out.append(float(v))
            else:
                out.extend(float(c) for c in v)
        return tuple(out)

    return y0, unpack, fdot


def _floats(v, dim: int) -> Optional[tuple]:
    """A folded row's value as RK4's floats; None if converting raises,
    so that it raises at each stage, as it did before the fold."""
    try:
        return (float(v),) if dim == 0 else tuple(float(c) for c in v)
    except (TypeError, ValueError, OverflowError):
        return None


# Fields read no logical variable; an unbound one raises as it always did.
_NO_ENV: dict = {}


_BISECT_DEPTH = 10


def simulate_traced(p: HybridProgram, s: Store, cfg: Optional[SimConfig] = None) -> list:
    """Sampled reachable states as (time, store) pairs."""
    return _Sim(cfg or SimConfig()).run(p, 0.0, s)


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

