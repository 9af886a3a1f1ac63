"""hsverify benchmark: time to verdict per command, and a traced run per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

NAME is one of verify-models, prove-generated, falsify-generated and
simulate-mix (workloads.py says what each stresses and why).  A run imports
hsverify from ``src/``, writes the workload's seeded inputs, then repeats
passes over them for S seconds and at least MIN_PASSES[NAME] passes.  A pass
calls ``hsverify.cli.main(argv)`` once per input file, in this process, and
checks every output against its known answer.  ``all`` runs each workload in
its own fresh interpreter, one at a time, and prints every metric.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end numbers:

  setup_s       median over SETUP_SAMPLES fresh interpreters of the time
                from just before ``import hsverify.cli`` until the inputs
                are generated and written
  wall_s        median time of one pass (the sum of its calls)
  call_ms.p50   median latency of one cli.main call
  call_ms.tail  the highest percentile with at least ten calls above it
  peak_rss_mb   ru_maxrss of this process
  ok_ratio      calls with a right answer / calls attempted

Times are in reference seconds: each is divided by how much slower than the
reference the machine ran at that moment, as a timer-sampled kernel measures
it (speed.py).  The raw times, the speed factor, the tail percentile and its
sample count, the failures, the report digests and the environment go to the
``{"info": ...}`` line just above.  Call latencies come from the first
MIN_PASSES passes only, so the sample count, and with it the tail
percentile, is the same in every run.

With ``--trace 1`` untraced and traced passes alternate; the metrics are
per layer and per pass (calls, self and total time, work counters) from the
traced passes, in raw seconds, plus the tracing overhead.  The spans go to
perfbench/out/.
"""

import os

# One thread per workload process: keep numpy's BLAS from starting a pool.
for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_v, "1")

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

# Passes every run makes, whatever --seconds says.  Each gives at least 20
# calls, so call_ms has a tail percentile, and puts the median and the tail
# inside a group of similar calls rather than between two groups.
MIN_PASSES = {"verify-models": 4, "prove-generated": 2, "falsify-generated": 3,
              "simulate-mix": 4}
SETUP_SAMPLES = 5
TRACE_PAIRS = 2
# Start no new pass after this many seconds, so a run ends within 180 s.
DEADLINE_S = 140.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("call_ms.p50", "ms"),
              ("call_ms.tail", "ms"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"))


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _import_cli():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("hsverify.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"hsverify came from {cli.__file__}, not {src}")
    return cli


def _setup(name: str, seed: int, work: str):
    """Import hsverify and write the inputs; returns (cli, calls, times).

    Times exclude the speedometer's handler; speed_factor scales them.
    """
    speedo = Speedometer()
    speedo.start()
    try:
        t0, s0 = perf_counter(), speedo.spent
        cli = _import_cli()
        t1, s1 = perf_counter(), speedo.spent
        os.makedirs(work)
        calls = W.GENERATORS[name](ROOT, seed, work)
        t2, s2 = perf_counter(), speedo.spent
    finally:
        speedo.stop()
    return cli, calls, {"setup_s": t2 - t0 - (s2 - s0), "import_s": t1 - t0 - (s1 - s0),
                     "generate_s": t2 - t1 - (s2 - s1), "speed_factor": speedo.factor()}


def _work_dir(name: str) -> str:
    return os.path.join(HERE, "_work", f"{name}-{os.getpid()}")


def _setup_probe(name: str, seed: int) -> int:
    work = _work_dir(name)
    try:
        _, _, times = _setup(name, seed, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(times))
    return 0


def _probe_setup(name: str, seed: int) -> dict:
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                          "--workload", name, "--seed", str(seed)],
                         capture_output=True, text=True, timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# Calls and passes


def _call(cli, call, speedo=None, tracer=None):
    """Run one cli.main call.

    Returns (seconds, exit code or None, stdout, stderr, (start, end)); the
    seconds leave out the time the speedometer's handler took.
    """
    out, err = io.StringIO(), io.StringIO()
    rc = None
    spent = speedo.spent if speedo else 0.0
    t = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.request_span(cli.main, call.argv) if tracer else cli.main(call.argv)
    except SystemExit as e:
        rc = e.code if isinstance(e.code, int) else 1
    except Exception:  # a traceback is a failed call, recorded with its text
        err.write(traceback.format_exc())
    end = perf_counter()
    dt = end - t - ((speedo.spent - spent) if speedo else 0.0)
    return dt, rc, out.getvalue(), err.getvalue(), (t, end)


def _judge(call, rc, out: str, err: str):
    """None when the call's output is right, else the reason."""
    if rc is None or "Traceback" in err:
        return "traceback: " + err.strip().splitlines()[-1]
    for stream in (out, err):
        for line in stream.splitlines():
            if line.startswith("error:"):
                return line
    return call.check(rc, out)


@dataclass
class Pass:
    wall: float        # seconds, the sum of the calls' latencies
    latencies: list    # seconds per call
    spans: list        # (start, end) perf_counter readings per call
    failures: list
    reports: dict      # report_key -> sha256 of the JSON report


def _run_pass(cli, calls, speedo=None, tracer=None) -> Pass:
    """One call per input; the pass's wall time is the sum of the calls'."""
    results = [_call(cli, c, speedo, tracer) for c in calls]
    wall = sum(r[0] for r in results)
    failures, reports = [], {}
    for c, (dt, rc, out, err, _) in zip(calls, results):
        why = _judge(c, rc, out, err)
        if c.report_key and rc is not None:
            i = out.find("{\n")
            digest = hashlib.sha256(out[i:].encode()).hexdigest() if i >= 0 else None
            if reports.setdefault(c.report_key, digest) != digest:
                why = why or "JSON report differs from an earlier run in this pass"
        if why:
            failures.append(f"{c.label} {' '.join(c.argv[:2])}: {why}")
    return Pass(wall, [r[0] for r in results], [r[4] for r in results], failures, reports)


def _check_determinism(passes) -> list:
    """Every pass must print byte-identical JSON reports (same seed)."""
    first = passes[0].reports
    bad = []
    for k, p in enumerate(passes[1:], 1):
        for key, digest in p.reports.items():
            if digest != first.get(key):
                bad.append(f"{key}: report of pass {k} differs from pass 0")
    return bad


def _tail(lat_ms: list):
    """(percentile, value): highest percentile with >= 10 calls above it."""
    n = len(lat_ms)
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))  # nearest rank, ceil(p n / 100)
    return p, sorted(lat_ms)[rank - 1]


# ---------------------------------------------------------------------------
# A workload run


def _environment(load_start) -> dict:
    src = os.path.join(ROOT, "src")
    lines, digest = 0, hashlib.sha256()
    for d, _, files in sorted(os.walk(src)):
        for f in sorted(files):
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    text = fh.read()
                lines += text.count(b"\n")
                digest.update(os.path.relpath(os.path.join(d, f), src).encode() + b"\0" + text)
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    np = sys.modules.get("numpy")
    return {"python": platform.python_version(),
            "numpy": getattr(np, "__version__", None),
            "nproc": os.cpu_count(), "loadavg_start": list(load_start),
            "commit": commit, "src_sha256": digest.hexdigest(), "src_lines": lines}


def _known_defect(cli) -> str:
    argv = list(W.KNOWN_DEFECT_ARGV)
    argv[1] = os.path.join(ROOT, argv[1])
    _, rc, _, err, _ = _call(cli, W.Call("defect", argv, None))
    if rc is None:
        return "traceback: " + err.strip().splitlines()[-1]
    return f"exit {rc}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    load_start = os.getloadavg()
    t_start = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "hsverify", "cli.py")):
        return _fail(f"no hsverify sources under {os.path.join(ROOT, 'src')}")
    if not os.path.isdir(os.path.join(ROOT, "models")):
        return _fail(f"no models directory under {ROOT}")
    work = _work_dir(name)
    try:
        cli, calls, times = _setup(name, seed, work)
        setups = [times] + [_probe_setup(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        info = {"workload": name, "seed": seed, "env": _environment(load_start),
                "inputs": len(calls), "setup_samples": setups}
        if name == "simulate-mix":
            info["known_defects"] = {" ".join(W.KNOWN_DEFECT_ARGV): _known_defect(cli)}
        if trace:
            metrics, passes = _traced_run(cli, calls, seconds, t_start, seed, name,
                                          times, info)
        else:
            speedo = Speedometer()
            speedo.start()
            try:
                passes = _timed_run(cli, calls, speedo, seconds, MIN_PASSES[name],
                                    t_start)
            finally:
                speedo.stop()
            metrics = _end_to_end(passes[:MIN_PASSES[name]], passes, setups, speedo, info)
        failures = [f for p in passes for f in p.failures] + _check_determinism(passes)
        attempted = sum(len(p.latencies) for p in passes)
        failed = min(attempted, len(failures))
        if not trace:
            metrics["ok_ratio"] = (attempted - failed) / attempted
        info.update(passes=len(passes), attempted=attempted, failed=failed,
                    failed_ratio=failed / attempted, failures=failures[:20],
                    digests=passes[0].reports)
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as e:
        return _fail(f"{type(e).__name__}: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = dict(END_TO_END)
    for k, v in metrics.items():
        print(f"{name}  {k} = {v:.6g} {units.get(k) or _unit(k)}")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units.get(k) or _unit(k)}
                                  for k, v in metrics.items()}}))
    return 0


def _end_to_end(first, passes, setups, speedo, info) -> dict:
    """Times scaled to reference speed, each call by the machine's speed
    around it (speed.py); the raw ones go to info."""
    def scaled(p):
        return [dt / speedo.factor(*span) for dt, span in zip(p.latencies, p.spans)]

    lat = [x * 1000 for p in first for x in scaled(p)]
    raw = [x * 1000 for p in first for x in p.latencies]
    p_tail, v_tail = _tail(lat)
    info["call_ms"] = {"n": len(lat), "tail_percentile": p_tail}
    info["speed_factor"] = speedo.factor()
    info["raw"] = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                   "wall_s": statistics.median(p.wall for p in passes),
                   "call_ms.p50": statistics.median(raw), "call_ms.tail": _tail(raw)[1]}
    return {"setup_s": statistics.median(s["setup_s"] / s["speed_factor"] for s in setups),
            "wall_s": statistics.median(sum(scaled(p)) for p in passes),
            "call_ms.p50": statistics.median(lat),
            "call_ms.tail": v_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def _timed_run(cli, calls, speedo, seconds, min_passes, t_start) -> list:
    passes = []
    t0 = perf_counter()
    while len(passes) < min_passes or perf_counter() - t0 < seconds:
        if passes and perf_counter() - t_start + passes[-1].wall > DEADLINE_S:
            break
        passes.append(_run_pass(cli, calls, speedo))
    return passes


def _traced_run(cli, calls, seconds, t_start, seed, name, times, info):
    """Alternate untraced and traced passes, at least TRACE_PAIRS of each.

    Per-layer numbers are per traced pass, as medians over the traced
    passes; the overhead is the difference of the two pass-time medians.
    """
    tr = Tracer()
    plain, traced, per_pass = [], [], []
    t0 = perf_counter()
    while len(traced) < TRACE_PAIRS or perf_counter() - t0 < seconds:
        if traced and perf_counter() - t_start + plain[-1].wall + traced[-1].wall > DEADLINE_S:
            break
        plain.append(_run_pass(cli, calls))
        before = tr.snapshot()
        tr.install()
        try:
            traced.append(_run_pass(cli, calls, tracer=tr))
        finally:
            tr.uninstall()
        after = tr.snapshot()
        per_pass.append({k: after[k] - before[k] for k in after})
    m = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    draws = m.pop("tactics.certify_flow.draws")
    m["tactics.certify_flow.pairs_attempted"] = draws / 2
    m["tactics.certify_flow.accept_ratio"] = (
        m["tactics.certify_flow.pairs_accepted"] / (draws / 2) if draws else 0.0)
    u = statistics.median(p.wall for p in plain)
    t = statistics.median(p.wall for p in traced)
    m.update({"trace.untraced_wall_s": u, "trace.traced_wall_s": t,
              "trace.overhead_s": t - u, "setup.import_s": times["import_s"],
              "setup.generate_s": times["generate_s"]})
    info["self_share"] = {k[:-len(".self_s")]: round(v / t, 4)
                          for k, v in m.items() if k.endswith(".self_s")}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spans-{name}-seed{seed}.tsv.gz")
    tr.dump(path)
    info["spans_file"] = os.path.relpath(path, ROOT)
    return m, plain + traced


# ---------------------------------------------------------------------------
# All workloads, one fresh interpreter each


def run_all(seed: int, seconds: float, trace: int) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        p = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(seed), "--seconds", str(seconds),
                            "--trace", str(trace)],
                           capture_output=True, text=True, timeout=900)
        lines = p.stdout.splitlines()
        if p.returncode != 0 or not lines:
            sys.stderr.write(p.stderr)
            return _fail(f"workload {name} exited with {p.returncode}")
        for line in lines[:-1]:
            print(line)
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
