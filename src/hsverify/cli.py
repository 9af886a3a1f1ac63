"""Command-line driver: verify, vcs, simulate, falsify.

Reports are deterministic: goal seeds derive from the base seed and the
goal name, goals merge in declaration order, and the JSON writer sorts
keys, so two runs over the same corpus with the same seed are
byte-identical.  Timing is opt-in for that reason.

Exit codes: 0 all goals proved (unknowns tolerated unless --strict),
1 usage, parse, or model errors, 2 a refuted goal with a witness,
3 an unknown goal under --strict.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
import time
import zlib
from fractions import Fraction
from typing import Optional

from .arith import ArithCtx, falsify
from .deriv import NotDifferentiable
from .expr import Implies, RatLit
from .program import (
    SIMULATION_ERRORS, SimConfig, fmt_value, format_trace, simulate_traced,
)
from .store import StoreError
from .syntax import Goal, ModelFile, ParseError, parse, pretty_expr, pretty_method
from .tactics import (
    FlowCertError, ProofResult, TacticError, certify_flow, check_vc, d_ghost,
    d_induct, d_induct_mega, d_prove, d_weaken, local_flow_auto, settle, wp_rule,
)
from .vcg import FlowTable, Triple, VC, VcgError, gen_vcs


class ModelError(Exception):
    """A structurally valid model asking for something impossible."""


# errors that leave one goal unrunnable; every command reports them as `error:`
_GOAL_ERRORS = (TacticError, VcgError, ModelError, NotDifferentiable)


@contextlib.contextmanager
def _os_errors(path: str):
    """Report a failed file operation on path as a ModelError."""
    try:
        yield
    except OSError as e:
        raise ModelError(f"{path}: {e.strerror or e}") from e


def _load(path: str) -> ModelFile:
    try:
        with _os_errors(path), open(path, encoding="utf-8") as f:
            return parse(f.read())
    except UnicodeDecodeError as e:
        raise ModelError(f"{path}: {e}") from e
    except ParseError as e:
        raise ModelError(f"{path}:{e}") from e


def _goal_seed(base: int, name: str) -> int:
    return (base * 1000003 + zlib.crc32(name.encode())) % (2 ** 31)


def _ctx(model: ModelFile, seed: int) -> ArithCtx:
    return ArithCtx(model.dataspace, assumptions=model.assumptions(), seed=seed)


# ---------------------------------------------------------------------------
# Flow certification pass


def _certify_flows(model: ModelFile, seed: int):
    """Certify declared flows; only certified ones enter the table."""
    table = FlowTable(model.dataspace)
    reports = {}
    failed = {}
    for decl in model.flows:
        ode = model.programs[decl.target]
        ctx = _ctx(model, _goal_seed(seed, f"flow:{decl.name}"))
        try:
            if decl.lipschitz is not None:
                cert = certify_flow(ode, decl.flow, ctx, lipschitz=decl.lipschitz)
            else:
                cert = local_flow_auto(ode, decl.flow, ctx)
            table.register(ode.frame, ode.rhs, decl.flow)
            reports[decl.name] = {"ok": True, "lipschitz": str(cert.lipschitz),
                                  "samples": cert.samples}
        except FlowCertError as e:
            reports[decl.name] = {"ok": False, "error": str(e)}
            failed[decl.name] = str(e)
    return table, reports, failed


# ---------------------------------------------------------------------------
# Goal discharge


def _init_check(goal: Goal, ctx: ArithCtx) -> ProofResult:
    """pre entails the invariant the method establishes (here: the post)."""
    if goal.pre == goal.post:
        return settle("init")
    vc = VC("init", Implies(goal.pre, goal.post), origin="init")
    return settle("init", (check_vc(vc, ctx),))


def _goal_flows(model: ModelFile, goal: Goal, table: FlowTable,
                failed_flows: dict) -> FlowTable:
    """The flows a goal's conditions go through: the certified table, or
    for a flow(id) goal that flow alone."""
    if goal.method.name != "flow":
        return table
    fid = goal.method.args[0]
    if fid in failed_flows:
        raise ModelError(f"flow {fid!r} failed certification: {failed_flows[fid]}")
    flows = FlowTable(model.dataspace)
    for decl in model.flows:
        if decl.name == fid:
            ode = model.programs[decl.target]
            flows.register(ode.frame, ode.rhs, decl.flow)
    return flows


def _goal_vcs(model: ModelFile, goal: Goal, table: FlowTable,
              failed_flows: dict) -> Optional[list]:
    """A goal's weakest-precondition conditions, or None when it has none:
    a loop without an invariant, an ODE without a certified flow, or a
    failed named flow, which run_goal reports."""
    triple = Triple(goal.pre, model.programs[goal.prog_name], goal.post)
    try:
        return gen_vcs(triple, _goal_flows(model, goal, table, failed_flows))
    except (VcgError, ModelError):
        return None


def run_goal(model: ModelFile, goal: Goal, table: FlowTable, failed_flows: dict,
             seed: int, trials: int = 300) -> ProofResult:
    ctx = _ctx(model, _goal_seed(seed, goal.name))
    prog = model.programs[goal.prog_name]
    triple = Triple(goal.pre, prog, goal.post)
    m = goal.method
    if m.name in ("wp", "flow"):
        flows = _goal_flows(model, goal, table, failed_flows)
        return wp_rule(triple, ctx, flows, trials, exact=True)
    if m.name in ("dInduct", "dInductAuto"):
        ind = d_induct(prog, goal.post, ctx, exact=(m.name == "dInduct"))
        return settle(ind.rule, parts=(_init_check(goal, ctx), ind))
    if m.name == "dInductMega":
        return d_induct_mega(prog, goal.pre, goal.post, ctx, refute=trials > 0)
    if m.name == "dWeaken":
        return d_weaken(prog, goal.post, ctx)
    if m.name == "dGhost":
        g, inv, rate = m.args
        gh = d_ghost(prog, goal.post, g, RatLit(Fraction(rate)), inv, ctx)
        return settle(gh.rule, parts=(_init_check(goal, ctx), gh))
    if m.name == "dProve":
        return d_prove(triple, ctx, table, trials=trials)
    raise ModelError(f"goal {goal.name}: unhandled method {m.name!r}")


# ---------------------------------------------------------------------------
# Reporting


def _jsonable(v):
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, int):
        return v
    if isinstance(v, tuple):
        return [_jsonable(c) for c in v]
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    return str(v)


def _goal_entry(goal: Goal, r: ProofResult, smt_files) -> dict:
    return {
        "status": r.status,
        "method": pretty_method(goal.method),
        "program": goal.prog_name,
        "rule": r.rule,
        "steps": list(r.steps),
        "vcs": [{"id": o.vc.vc_id, "origin": o.vc.origin,
                 "status": o.verdict.status, "rule": o.verdict.rule}
                for o in r.outcomes],
        "witness": _jsonable(r.witness),
        "smt_files": smt_files,
    }


def _write(path: str, text: str) -> None:
    with _os_errors(path), open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _emit_smt(goal_name: str, r: ProofResult, out_dir: str) -> list:
    files = []
    with _os_errors(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    for o in r.outcomes:
        if not o.verdict.valid and o.verdict.smt:
            fn = f"{goal_name}_{o.vc.vc_id}.smt2"
            _write(os.path.join(out_dir, fn), o.verdict.smt)
            files.append(fn)
    return files


def _error_result(msg: str) -> ProofResult:
    return ProofResult("error", "", (msg,), ())


def _check_trials(args) -> None:
    if args.trials < 0:
        raise ModelError(f"--trials must be non-negative, got {args.trials}")


def cmd_verify(args) -> int:
    _check_trials(args)
    model = _load(args.file)
    goals = _select_goals(model, args.goal)
    table, flow_reports, failed = _certify_flows(model, args.seed)

    entries = {}
    counts = {"proved": 0, "refuted": 0, "unknown": 0, "error": 0}
    for goal in goals:
        t0 = time.perf_counter()
        try:
            r = run_goal(model, goal, table, failed, args.seed, args.trials)
        except _GOAL_ERRORS as e:
            r = _error_result(str(e))
        dt = time.perf_counter() - t0
        files = _emit_smt(goal.name, r, args.emit_smt) if args.emit_smt else []
        e = _goal_entry(goal, r, files)
        if args.timings:
            e["elapsed_ms"] = round(dt * 1000, 3)
        entries[goal.name] = e
        counts[r.status] += 1
        line = f"goal {goal.name}: {r.status}"
        if r.rule:
            line += f" ({r.rule})"
        if r.status == "error":
            line += f" -- {r.steps[0]}"
        print(line)
    for name, fr in flow_reports.items():
        tag = f"certified, L={fr['lipschitz']}" if fr["ok"] else f"rejected: {fr['error']}"
        print(f"flow {name}: {tag}")

    report = {
        "schema": 2,
        "model": model.name,
        "file": os.path.basename(args.file),
        "seed": args.seed,
        "flows": flow_reports,
        "goals": entries,
        "summary": counts,
    }
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            sys.stdout.write(text)
        else:
            _write(args.json, text)

    if counts["error"]:
        return 1
    if counts["refuted"]:
        return 2
    if counts["unknown"] and args.strict:
        return 3
    return 0


def _select_goals(model: ModelFile, name: Optional[str]):
    if name is None:
        return list(model.goals)
    for g in model.goals:
        if g.name == name:
            return [g]
    raise ModelError(f"no goal named {name!r} "
                     f"(have: {', '.join(g.name for g in model.goals) or 'none'})")


def cmd_vcs(args) -> int:
    model = _load(args.file)
    goals = _select_goals(model, args.goal)
    table, _, failed = _certify_flows(model, args.seed)
    code = 0
    for goal in goals:
        print(f"goal {goal.name} ({pretty_method(goal.method)}):")
        vcs = _goal_vcs(model, goal, table, failed)
        if vcs is not None:
            pairs = [(vc, ()) for vc in vcs]
        else:
            try:
                r = run_goal(model, goal, table, failed, args.seed, trials=0)
            except _GOAL_ERRORS as e:
                print(f"  error: {e}")
                code = 1
                continue
            pairs = [(o.vc, o.vc.provisos) for o in r.outcomes]
        for vc, provisos in pairs:
            print(f"  {vc.vc_id} [{vc.origin}] {pretty_expr(vc.formula)}")
            for p in provisos:
                print(f"    proviso {pretty_expr(p)}")
    return code


def cmd_falsify(args) -> int:
    _check_trials(args)
    model = _load(args.file)
    goals = _select_goals(model, args.goal)
    table, _, failed = _certify_flows(model, args.seed)
    for goal in goals:
        ctx = _ctx(model, args.seed)
        vcs = _goal_vcs(model, goal, table, failed) or []
        for vc in vcs:
            w = falsify(vc.formula, ctx, trials=args.trials, seed=args.seed)
            if w is not None:
                print(f"goal {goal.name}: counterexample for {vc.vc_id}")
                for n, v in w["store"].items():
                    print(f"  {n} = {fmt_value(v)}")
                for n, v in w["env"].items():
                    print(f"  {n} = {fmt_value(v)} (logical)")
                return 2
        if not vcs:
            try:
                r = run_goal(model, goal, table, failed, args.seed, trials=args.trials)
            except _GOAL_ERRORS as e:
                raise ModelError(f"goal {goal.name}: {e}") from e
            if r.refuted and r.witness:
                print(f"goal {goal.name}: counterexample by simulation")
                for n, v in r.witness["store"].items():
                    print(f"  {n} = {fmt_value(v)}")
                if "time" in r.witness:
                    print(f"  at time {r.witness['time']:.4f}")
                return 2
        print(f"goal {goal.name}: no counterexample in {args.trials} trials")
    return 0


# ---------------------------------------------------------------------------
# Simulation


def _split_top(s: str) -> list:
    out, depth, cur = [], 0, []
    for c in s:
        if c == "[":
            depth += 1
        elif c == "]":
            depth -= 1
        if c == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        out.append("".join(cur))
    return out


def _parse_value(s: str):
    s = s.strip()
    if s == "true":
        return True
    if s == "false":
        return False
    if s.startswith("["):
        if not s.endswith("]"):
            raise ValueError(f"{s} has no closing ]")
        return tuple(_parse_value(p) for p in _split_top(s[1:-1]))
    v = Fraction(s)
    try:
        float(v)
    except OverflowError:
        raise ValueError(f"{s} is beyond the simulator's float range") from None
    return v


def _parse_init(pairs: list) -> dict:
    vals = {}
    for chunk in pairs:
        for item in _split_top(chunk):
            if not item.strip():
                continue
            name, _, val = item.partition("=")
            if not _:
                raise ModelError(f"bad --init entry {item!r}, want name=value")
            vals[name.strip()] = _parse_value(val)
    return vals


def cmd_simulate(args) -> int:
    model = _load(args.file)
    prog = model.programs.get(args.program)
    if prog is None:
        raise ModelError(f"no program named {args.program!r}")
    if not (math.isfinite(args.step) and args.step > 0):
        raise ModelError(f"--step must be positive and finite, got {args.step}")
    if not (math.isfinite(args.horizon) and args.horizon >= 0):
        raise ModelError(f"--horizon must be non-negative and finite, got {args.horizon}")
    try:
        vals = _parse_init(args.init or [])
        s0 = model.dataspace.make_store(vals, default_missing=True)
    except (ValueError, ZeroDivisionError, StoreError, ModelError) as e:
        raise ModelError(f"bad initial state: {e}") from e
    cfg = SimConfig(step=args.step, horizon=args.horizon, rng_seed=args.seed)
    try:
        trace = format_trace(simulate_traced(prog, s0, cfg))
    except SIMULATION_ERRORS as e:
        raise ModelError(f"simulation stopped: {e}") from e
    if args.trace:
        _write(args.trace, trace)
        print(f"wrote {args.trace}")
    else:
        sys.stdout.write(trace)
    return 0


# ---------------------------------------------------------------------------
# Entry point


# Built on the first call, not at import, and then kept: parse_args makes a
# fresh namespace from the defaults at each call, so no option carries over.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hsverify",
        description="verify hybrid-program models, generate VCs, simulate, falsify")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="model file")
        p.add_argument("--seed", type=int, default=0)

    v = sub.add_parser("verify", help="run goals and report verdicts")
    common(v)
    v.add_argument("--goal", help="run a single goal")
    v.add_argument("--json", help="write a JSON report to this path ('-' for stdout)")
    v.add_argument("--emit-smt", metavar="DIR", help="export residual VCs as SMT-LIB2")
    v.add_argument("--trials", type=int, default=300, help="falsification budget per VC")
    v.add_argument("--strict", action="store_true", help="exit 3 on unknown goals")
    v.add_argument("--timings", action="store_true", help="include elapsed times in the report")

    w = sub.add_parser("vcs", help="print generated verification conditions")
    common(w)
    w.add_argument("--goal", help="only this goal")

    f = sub.add_parser("falsify", help="search for counterexamples")
    common(f)
    f.add_argument("--goal", help="only this goal")
    f.add_argument("--trials", type=int, default=300)

    s = sub.add_parser("simulate", help="integrate a program and dump the trace")
    common(s)
    s.add_argument("--program", required=True)
    s.add_argument("--init", action="append", metavar="K=V,...",
                   help="initial values; unlisted variables start at zero")
    s.add_argument("--step", type=float, default=0.01)
    s.add_argument("--horizon", type=float, default=10.0)
    s.add_argument("--trace", metavar="PATH", help="write the trace here instead of stdout")
    return ap


_COMMANDS = {"verify": cmd_verify, "vcs": cmd_vcs, "falsify": cmd_falsify,
             "simulate": cmd_simulate}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except ModelError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed the pipe; the interpreter's final flush of what
        # is still buffered goes to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
