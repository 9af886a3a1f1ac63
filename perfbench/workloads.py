"""The four benchmark workloads: seeded inputs, argv per call, known answers.

Every expected answer here is written by hand from the mathematics of the
model or from the README; none is taken from hsverify's own output.  Each
workload's generator writes its inputs and returns a list of Call objects.  A call is one ``cli.main(argv)``
invocation on one input file, and its ``check`` returns None when the
output is right or a one-line reason when it is not.

Only the standard library is used, so that the reference checks share no
code with the program they check.
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

WORKLOADS = ("verify-models", "prove-generated", "falsify-generated", "simulate-mix")

# Falsifier trials per goal in falsify-generated.
FALSIFY_TRIALS = 400


@dataclass
class Call:
    """One cli.main invocation and how to judge its output."""

    label: str
    argv: list
    check: Callable[[int, str], Optional[str]]
    # names the call's JSON report in the determinism check and the digests
    report_key: Optional[str] = None


def _rat(rng: random.Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A rational p/den drawn uniformly from [lo, hi]."""
    return Fraction(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def _txt(q: Fraction) -> str:
    """Model-language text for a rational constant (parenthesised if signed)."""
    return f"({q})" if q < 0 else str(q)


# ---------------------------------------------------------------------------
# Output parsing shared by the checks


def _verify_report(out: str) -> dict:
    """The JSON report that ``verify --json -`` prints after its verdict lines."""
    i = out.find("{\n")
    if i < 0:
        raise ValueError("no JSON report in the output")
    return json.loads(out[i:])


def _check_verify(expect_exit: int, goals: dict, flows: dict) -> Callable:
    """goals: name -> status or (status, rule); flows: name -> Lipschitz text."""

    def check(rc: int, out: str) -> Optional[str]:
        if rc != expect_exit:
            return f"exit code {rc}, expected {expect_exit}"
        try:
            rep = _verify_report(out)
        except ValueError as e:
            return str(e)
        got = rep.get("goals", {})
        if set(got) != set(goals):
            return f"goals {sorted(got)}, expected {sorted(goals)}"
        for name, want in goals.items():
            status, rule = want if isinstance(want, tuple) else (want, None)
            g = got[name]
            if g["status"] != status:
                return f"goal {name}: {g['status']}, expected {status}"
            if rule is not None and g["rule"] != rule:
                return f"goal {name}: rule {g['rule']}, expected {rule}"
            line = f"goal {name}: {status}"
            if not any(l.startswith(line) for l in out.splitlines()):
                return f"goal {name}: verdict line missing"
        fl = rep.get("flows", {})
        if set(fl) != set(flows):
            return f"flows {sorted(fl)}, expected {sorted(flows)}"
        for name, lip in flows.items():
            if not fl[name].get("ok") or fl[name].get("lipschitz") != lip:
                return f"flow {name}: {fl[name]}, expected certified with L={lip}"
        return None

    return check


# ---------------------------------------------------------------------------
# verify-models: the shipped models


# Known answers from the README quick start and the comments in each model.
# Rules are pinned only where the README prints them.
MODEL_ORACLE = {
    # a' = 0 and v' = a keep a = 0 and v = V; a = 0 freezes phi; the guard
    # s*[sin phi, cos phi] = v gives s^2 = v*v; d(a*v) = a*a >= 0 and both
    # sides of the Cauchy-Schwarz equality have derivative 2(a*v)(a*a).
    "boat.hsv": (0, {"steady_vel": "proved", "steady_heading": "proved",
                     "speed_sq": "proved", "aligned": "proved"}, {}),
    # x' = -x from x = 1 falls below 1 at once (README: refuted (wp)).
    "broken.hsv": (2, {"grows": ("refuted", "wp")}, {"shrink": "1"}),
    # x*exp(-tau) > 0 and the ghost x*y^2 = 1 with y' = y/2 keep x > 0.
    "decay.hsv": (0, {"pos_ghost": "proved", "pos_flow": "proved",
                      "pos_evol": "proved"}, {"shrink": "1"}),
    # d/dt (x^2 + y^2) = 2xy - 2yx = 0.
    "pendulum.hsv": (0, {"radius": "proved"}, {}),
    # The ODE guards stop filling at hu and draining at hl (README verdicts).
    "tank.hsv": (0, {"fill_step": ("proved", "dI*"),
                     "tank_correct": ("proved", "wp"),
                     "level_flow": ("proved", "wp")},
                 {"rise": "1", "ebb": "1"}),
}


# Runs of each model per pass.  Certifying tank's flows takes seconds; the
# other models take milliseconds and run three times, so that call_ms has
# twelve or more samples of each in a run.
MODEL_RUNS = {"tank.hsv": 1}


def verify_models(root: str, seed: int, work: str) -> list:
    models = os.path.join(root, "models")
    names = sorted(n for n in os.listdir(models) if n.endswith(".hsv"))
    calls = []
    for n in names:
        if n not in MODEL_ORACLE:
            raise RuntimeError(f"no known answer for models/{n}")
        ex, goals, flows = MODEL_ORACLE[n]
        calls += [Call(n, ["verify", os.path.join(models, n), "--json", "-",
                           "--seed", str(seed)],
                       _check_verify(ex, goals, flows), report_key=n)
                  for _ in range(MODEL_RUNS.get(n, 3))]
    missing = set(MODEL_ORACLE) - set(names)
    if missing:
        raise RuntimeError(f"models missing: {sorted(missing)}")
    return calls


# ---------------------------------------------------------------------------
# prove-generated: flow-free templates decided by the prover


def _t_rotation(rng, i):
    k = _rat(rng, Fraction(1, 4), Fraction(4), 8)
    text = f"""# rotation at rate {k}
dataspace rot{i} {{
  constants r : real;
  variables x : real, y : real;
}}
program spin = {{ x' = {k} * y, y' = -{_txt(k)} * x }}
goal radius : {{ r^2 = x^2 + y^2 }} spin {{ r^2 = x^2 + y^2 }} by dInduct
"""
    # d/dt (x^2 + y^2) = 2x(ky) + 2y(-kx) = 0: an exact differential invariant.
    return text, 0, {"radius": "proved"}


def _t_mega_false(rng, i):
    k = _rat(rng, Fraction(1), Fraction(3), 8)
    text = f"""# false claim: rotation at rate {k} leaves the right half-plane
dataspace half{i} {{
  variables x : real, y : real;
}}
program spin = {{ x' = {k} * y, y' = -{_txt(k)} * x }}
goal right_half : {{ x >= 0 }} spin {{ x >= 0 }} by dInductMega
"""
    # The flow turns every nonzero state clockwise by k*t radians; with
    # k >= 1, x < 0 well before t = 4, the horizon of the simulation search.
    return text, 2, {"right_half": "refuted"}


_TANK = """# tank controller switching at hl + {d1} and hu - {d2}
dataspace tank{i} {{
  constants hl : real, hu : real, co : real, ci : real;
  assumes co_pos: 0 < co, net: co < ci;
  variables flw : bool, h : real, hm : real, t : real;
}}

program ctrl =
  (t, hm) := (0, h) ;
  if not flw and hm <= hl + {d1} then flw := true
  else if flw and hm >= hu - {d2} then flw := false else skip

program fill = {{ h' = ci - co, t' = 1 | t <= (hu - hm) / (ci - co) }}

program drain = {{ h' = -co, t' = 1 | t <= (hm - hl) / co }}

program dyn = if flw then fill else drain

program tank =
  loop (ctrl ; dyn)
  inv (0 <= t and h = ((if flw then ci else 0) - co) * t + hm
       and hl <= h and h <= hu)

goal fill_step :
  {{ 0 <= t and h = (ci - co) * t + hm and hl <= h and h <= hu }}
  fill
  {{ 0 <= t and h = (ci - co) * t + hm and hl <= h and h <= hu }}
  by dInductMega using net

goal tank_correct :
  {{ t = 0 and h = hm and hl <= h and h <= hu }}
  tank
  {{ hl <= h and h <= hu }}
  by dProve using co_pos, net
"""


def _t_tank(rng, i):
    d1 = _rat(rng, Fraction(1, 4), Fraction(3), 4)
    d2 = _rat(rng, Fraction(1, 4), Fraction(3), 4)
    # The guards alone bound h: filling stops once (ci - co) t reaches
    # hu - hm, draining once co t reaches hm - hl.  The thresholds only
    # pick the branch, so both goals hold for any d1, d2.
    return (_TANK.format(i=i, d1=d1, d2=d2), 0,
            {"fill_step": "proved", "tank_correct": "proved"})


def _t_boat(root):
    with open(os.path.join(root, "models", "boat.hsv"), encoding="utf-8") as f:
        text = f.read()

    def make(rng, i):
        # Same reasons as MODEL_ORACLE["boat.hsv"].
        return text, 0, {g: "proved" for g in MODEL_ORACLE["boat.hsv"][1]}

    return make


def _t_evol(rng, i):
    c = _rat(rng, Fraction(1, 2), Fraction(3), 4)
    a = _rat(rng, Fraction(1, 4), Fraction(4), 4)
    text = f"""# closed-form decay at rate {c}
dataspace dec{i} {{
  variables x : real;
}}
program sol = {{ evol x = x * exp(-{_txt(c)} * tau) }}
goal stays_pos : {{ x > 0 }} sol {{ x > 0 }} by wp
goal stays_above : {{ x >= {a} }} sol {{ x >= {a} }} by wp
"""
    # x0 exp(-c tau) > 0 whenever x0 > 0; but it drops below any a > 0
    # once tau > ln(x0 / a) / c.
    return text, 2, {"stays_pos": "proved", "stays_above": "refuted"}


# Files per template in one pass of prove-generated.
PROVE_MIX = (("rotation", 20), ("mega_false", 20), ("tank", 20), ("boat", 20),
             ("evol", 20))


def prove_generated(root: str, seed: int, work: str) -> list:
    rng = random.Random(f"prove-generated:{seed}")
    makers = {"rotation": _t_rotation, "mega_false": _t_mega_false,
              "tank": _t_tank, "boat": _t_boat(root), "evol": _t_evol}
    order = [t for t, n in PROVE_MIX for _ in range(n)]
    rng.shuffle(order)
    calls = []
    for i, t in enumerate(order):
        text, ex, goals = makers[t](rng, i)
        path = os.path.join(work, f"p{i:03d}_{t}.hsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        calls.append(Call(t, ["verify", path, "--json", "-", "--seed", str(seed)],
                          _check_verify(ex, goals, {})))
    return calls


# ---------------------------------------------------------------------------
# falsify-generated: discrete and evol-only programs


def _check_falsify(goals: list, false_goal: Optional[str],
                   witness_false: Optional[Callable]) -> Callable:
    """goals run in order; a false goal must be last and gets a witness."""

    def check(rc: int, out: str) -> Optional[str]:
        lines = out.splitlines()
        for g in goals:
            if g == false_goal:
                continue
            want = f"goal {g}: no counterexample in {FALSIFY_TRIALS} trials"
            if want not in lines:
                return f"goal {g}: expected no counterexample"
        if false_goal is None:
            return None if rc == 0 else f"exit code {rc}, expected 0"
        if rc != 2:
            return f"exit code {rc}, expected 2"
        head = f"goal {false_goal}: counterexample for "
        try:
            i = next(k for k, l in enumerate(lines) if l.startswith(head))
        except StopIteration:
            return f"goal {false_goal}: no counterexample printed"
        vals = {}
        for l in lines[i + 1:]:
            m = re.fullmatch(r"  (\w+) = (\S+)( \(logical\))?", l)
            if not m:
                break
            v = m.group(2)
            vals[m.group(1)] = v == "true" if v in ("true", "false") else float(Fraction(v))
        if not witness_false(vals):
            return f"goal {false_goal}: witness {vals} does not refute the claim"
        return None

    return check


def _f_clamp(rng, i):
    d = _rat(rng, Fraction(-5), Fraction(5), 4)
    text = f"""dataspace clamp{i} {{
  constants a : real;
  variables x : real;
}}
program clamp = if x > a + {_txt(d)} then x := a + {_txt(d)} else skip
goal clamped : {{ true }} clamp {{ x <= a + {_txt(d)} }} by wp
"""
    # Either branch leaves x <= a + d.
    return text, ["clamped"], None, None


def _f_bump(rng, i):
    c = _rat(rng, Fraction(0), Fraction(3), 4)
    b = _rat(rng, Fraction(-5), Fraction(5), 4)
    text = f"""dataspace bump{i} {{
  variables x : real, v : real;
}}
program bump = x := x + {c} ; v := v
goal grows : {{ x >= {_txt(b)} }} bump {{ x >= {_txt(b)} }} by wp
goal keeps_v : {{ v = 1 }} bump {{ v = 1 }} by wp
"""
    # x + c >= x >= b for c >= 0, and v is reassigned to itself.
    return text, ["grows", "keeps_v"], None, None


def _f_evol_pos(rng, i):
    c = _rat(rng, Fraction(1, 2), Fraction(3), 4)
    text = f"""dataspace decay{i} {{
  variables x : real;
}}
program sol = {{ evol x = x * exp(-{_txt(c)} * tau) }}
goal stays_pos : {{ x > 0 }} sol {{ x > 0 }} by wp
"""
    # exp is positive, so the sign of x is kept.
    return text, ["stays_pos"], None, None


_FTANK = """dataspace etank{i} {{
  constants hl : real, hu : real, co : real, ci : real;
  assumes co_pos: 0 < co, net: co < ci;
  variables flw : bool, h : real, hm : real, t : real;
}}
program ctrl =
  (t, hm) := (0, h) ;
  if not flw and hm <= hl + {d1} then flw := true
  else if flw and hm >= hu - {d2} then flw := false else skip
program fill = {{ evol h = h + (ci - co) * tau, t = t + tau | t <= (hu - hm) / (ci - co) }}
program drain = {{ evol h = h - co * tau, t = t + tau | t <= (hm - hl) / co }}
program step = ctrl ; if flw then fill else drain
goal fill_ok : {{ t = 0 and h = hm and hl <= h and h <= hu }} fill {{ hl <= h and h <= hu }} by wp
goal drain_ok : {{ t = 0 and h = hm and hl <= h and h <= hu }} drain {{ hl <= h and h <= hu }} by wp
goal step_ok : {{ hl <= h and h <= hu }} step {{ hl <= h and h <= hu }} by wp
"""


def _f_tank(rng, i):
    d1 = _rat(rng, Fraction(1, 4), Fraction(3), 4)
    d2 = _rat(rng, Fraction(1, 4), Fraction(3), 4)
    # The closed forms are monotone in tau and the guards stop them at hu
    # (filling) and hl (draining); the thresholds only pick the branch.
    return (_FTANK.format(i=i, d1=d1, d2=d2), ["fill_ok", "drain_ok", "step_ok"],
            None, None)


def _f_drop(rng, i):
    c = _rat(rng, Fraction(1, 4), Fraction(3), 4)
    text = f"""dataspace drop{i} {{
  variables x : real;
}}
program drop = x := x - {c}
goal bounded : {{ x >= 0 }} drop {{ x >= 0 - {c} }} by wp
goal stays_nonneg : {{ x >= 0 }} drop {{ x >= 0 }} by wp
"""
    # x - c >= -c holds; but any 0 <= x < c ends below 0.
    cf = float(c)
    return (text, ["bounded", "stays_nonneg"], "stays_nonneg",
            lambda w: w["x"] >= 0 and w["x"] - cf < 0)


def _f_evol_above(rng, i):
    c = _rat(rng, Fraction(1, 2), Fraction(3), 4)
    a = _rat(rng, Fraction(1, 4), Fraction(4), 4)
    text = f"""dataspace above{i} {{
  variables x : real;
}}
program sol = {{ evol x = x * exp(-{_txt(c)} * tau) }}
goal stays_pos : {{ x > 0 }} sol {{ x > 0 }} by wp
goal stays_above : {{ x >= {a} }} sol {{ x >= {a} }} by wp
"""
    # x0 exp(-c tau) < a once tau > ln(x0 / a) / c.
    cf, af = float(c), float(a)
    return (text, ["stays_pos", "stays_above"], "stays_above",
            lambda w: w["x"] >= af and w["tau"] >= 0
            and w["x"] * math.exp(-cf * w["tau"]) < af)


# Files per template in one pass of falsify-generated; the last two are
# the false claims.
FALSIFY_MIX = (("clamp", 12), ("bump", 12), ("evol_pos", 20), ("tank", 20),
               ("drop", 8), ("evol_above", 8))


def falsify_generated(root: str, seed: int, work: str) -> list:
    rng = random.Random(f"falsify-generated:{seed}")
    makers = {"clamp": _f_clamp, "bump": _f_bump, "evol_pos": _f_evol_pos,
              "tank": _f_tank, "drop": _f_drop, "evol_above": _f_evol_above}
    order = [t for t, n in FALSIFY_MIX for _ in range(n)]
    rng.shuffle(order)
    calls = []
    for i, t in enumerate(order):
        text, goals, false_goal, wf = makers[t](rng, i)
        path = os.path.join(work, f"f{i:03d}_{t}.hsv")
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        calls.append(Call(t, ["falsify", path, "--trials", str(FALSIFY_TRIALS),
                              "--seed", str(rng.randrange(1 << 20))],
                          _check_falsify(goals, false_goal, wf)))
    return calls


# ---------------------------------------------------------------------------
# simulate-mix: seeded runs of the shipped models, checked against closed
# forms and conservation laws computed here in float


_FIELD = re.compile(r"(\w+)=(\[[^\]]*\]|\S+)")


def _value(text: str):
    if text in ("true", "false"):
        return text == "true"
    if text.startswith("["):
        return tuple(float(Fraction(c.strip())) for c in text[1:-1].split(","))
    return float(Fraction(text))


def _parse_trace(out: str) -> list:
    """(time, {name: value}) per line of ``simulate`` output."""
    rows = []
    for line in out.splitlines():
        t, _, rest = line.partition("\t")
        rows.append((float(t), {k: _value(v) for k, v in _FIELD.findall(rest)}))
    return rows


def _sim_check(x0: dict, holds: Callable[[float, dict], Optional[str]]) -> Callable:
    def check(rc: int, out: str) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}, expected 0"
        try:
            rows = _parse_trace(out)
        except (ValueError, ZeroDivisionError) as e:
            return f"unreadable trace: {e}"
        if len(rows) < 2:
            return f"trace has {len(rows)} samples"
        t0, first = rows[0]
        if t0 != 0.0 or any(first[k] != v for k, v in x0.items()):
            return f"trace starts at t={t0} with {first}, expected {x0}"
        for t, st in rows:
            why = holds(t, st)
            if why:
                return f"t={t}: {why}"
        return None

    return check


def _near(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(b))


def _s_tank(rng, program):
    # The level starts in the middle third and both rates are at most 1, so
    # the first segment always runs the whole horizon of 2 and each draw
    # costs about the same; later segments do reach the bounds.
    hl = _rat(rng, Fraction(0), Fraction(5), 4)
    hu = hl + _rat(rng, Fraction(6), Fraction(8), 4)
    co = _rat(rng, Fraction(1, 2), Fraction(1), 8)
    ci = co + _rat(rng, Fraction(1, 2), Fraction(1), 8)
    h = _rat(rng, (2 * hl + hu) / 3, (hl + 2 * hu) / 3, 8)
    flw = rng.random() < 0.5
    init = dict(hl=hl, hu=hu, co=co, ci=ci, flw=flw, h=h, hm=h, t=0)
    lo, hi, tol = float(hl), float(hu), 1e-6 * (1 + float(hu))

    def holds(t, st):
        # The controller and the guards keep the level in [hl, hu].
        if not lo - tol <= st["h"] <= hi + tol:
            return f"h = {st['h']} outside [{lo}, {hi}]"
        return None

    return init, holds


def _s_rotate(rng, program):
    x, y = _rat(rng, Fraction(-5), Fraction(5), 8), _rat(rng, Fraction(-5), Fraction(5), 8)
    init = dict(r=_rat(rng, Fraction(0), Fraction(5), 8), x=x, y=y)
    r2 = float(x) ** 2 + float(y) ** 2

    def holds(t, st):
        # x' = y, y' = -x conserves x^2 + y^2; RK4 drifts by far less than 1e-6.
        q = st["x"] ** 2 + st["y"] ** 2
        return None if _near(q, r2, 1e-6) else f"x^2 + y^2 = {q}, started at {r2}"

    return init, holds


def _s_decay(rng, program):
    x = _rat(rng, Fraction(-5), Fraction(5), 8)
    y = _rat(rng, Fraction(-5), Fraction(5), 8)
    init = dict(x=x, y=y)
    xf, yf = float(x), float(y)

    def holds(t, st):
        # x(t) = x0 exp(-t); times print with 6 decimals, hence 1e-6.
        want = xf * math.exp(-t)
        if not _near(st["x"], want, 1e-6):
            return f"x = {st['x']}, expected {want}"
        return None if st["y"] == yf else f"ghost y moved to {st['y']}"

    return init, holds


def _s_boat(rng, program):
    S = _rat(rng, Fraction(2), Fraction(10), 4)
    if rng.random() < 0.5:
        # heading 0: the guard s*[sin 0, cos 0] = v holds exactly for v = [0, s]
        s = _rat(rng, Fraction(0), S, 8)
        phi = Fraction(0)
        v = (Fraction(0), s)
    else:
        # at rest any heading satisfies the guard
        s, phi, v = Fraction(0), _rat(rng, Fraction(-3), Fraction(3), 16), (Fraction(0),) * 2

    def vec():
        return (_rat(rng, Fraction(-10), Fraction(10), 4), _rat(rng, Fraction(-10), Fraction(10), 4))

    init = dict(S=S, fmax=_rat(rng, Fraction(0), Fraction(4), 4), V=vec(),
                X=_rat(rng, Fraction(-3), Fraction(3), 4), p=vec(), v=v,
                a=(Fraction(0), Fraction(0)), phi=phi, s=s,
                w=_rat(rng, Fraction(-2), Fraction(2), 4), wps=vec(), org=vec(),
                rs=_rat(rng, Fraction(0), S, 4), rh=_rat(rng, Fraction(-3), Fraction(3), 4))
    vf = tuple(float(c) for c in v)

    def holds(t, st):
        # a = [0, 0] makes v' = 0, so v keeps its initial value.
        if st["a"] != (0.0, 0.0) or any(abs(a - b) > 1e-12 for a, b in zip(st["v"], vf)):
            return f"a = {st['a']}, v = {st['v']}, expected a = 0 and v = {vf}"
        return None

    return init, holds


def _init_text(init: dict) -> str:
    def one(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, tuple):
            return "[" + ",".join(str(c) for c in v) + "]"
        return str(v)

    return ",".join(f"{k}={one(v)}" for k, v in init.items())


def _init_floats(init: dict) -> dict:
    return {k: v if isinstance(v, bool) else
            tuple(float(c) for c in v) if isinstance(v, tuple) else float(v)
            for k, v in init.items()}


# (model, program, draw, step, horizon, runs per pass).  Step and horizon
# are fixed per program so that every seed gets the same amount of work.
SIMULATE_MIX = (
    ("tank.hsv", "tank", _s_tank, "0.05", "2", 8),
    ("tank.hsv", "level", _s_tank, "0.05", "2", 8),
    ("pendulum.hsv", "rotate", _s_rotate, "0.004", "5", 8),
    ("decay.hsv", "dec", _s_decay, "0.0025", "5", 8),
    ("decay.hsv", "sol", _s_decay, "0.0008", "5", 8),
    ("boat.hsv", "kin", _s_boat, "0.005", "2", 8),
)


def simulate_mix(root: str, seed: int, work: str) -> list:
    rng = random.Random(f"simulate-mix:{seed}")
    order = [row for row in SIMULATE_MIX for _ in range(row[-1])]
    rng.shuffle(order)
    calls = []
    for model, program, draw, step, horizon, _ in order:
        init, holds = draw(rng, program)
        argv = ["simulate", os.path.join(root, "models", model), "--program", program,
                "--init", _init_text(init), "--step", step, "--horizon", horizon,
                "--seed", str(rng.randrange(1 << 20))]
        calls.append(Call(program, argv, _sim_check(_init_floats(init), holds)))
    return calls


# Run once per simulate-mix process, outside the timed passes: the ROADMAP
# baseline command, whose all-zero default state breaks `assumes co_pos`.
KNOWN_DEFECT_ARGV = ["simulate", "models/tank.hsv", "--program", "tank",
                     "--step", "0.05", "--horizon", "4"]


GENERATORS = {"verify-models": verify_models, "prove-generated": prove_generated,
              "falsify-generated": falsify_generated, "simulate-mix": simulate_mix}
