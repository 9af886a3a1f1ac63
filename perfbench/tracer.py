"""In-memory span tracer patched around hsverify's layer functions.

Nothing here lives inside ``src/``: the tracer replaces each layer function
by a wrapper in every ``hsverify`` module that holds it (``from .x import f``
binds ``f`` once per importing module), and puts the originals back on
``uninstall``.  A span records (name, start, end, parent span, request id);
the request id is the index of the ``cli.main`` call that caused it.

Per layer the tracer keeps running totals: calls, self time (a span's
duration minus the time its child spans cover), total time (outermost
spans of the layer only, so recursion is not counted twice) and the work
counters in COUNTERS.  The totals do not depend on how many spans are kept
for the dump.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from time import perf_counter

# Layers that get spans, as dotted names below the hsverify package.
LAYERS = (
    "syntax.parse",
    "tactics.certify_flow",
    "vcg.gen_vcs",
    "arith.peel",
    "arith.prove_vc",
    "arith.emit_smtlib",
    "arith.falsify",
    "tactics.d_prove",
    "tactics.d_induct_mega",
    "tactics.d_induct",
    "tactics.d_ghost",
    "tactics.d_weaken",
    "deriv.lie_deriv",
    "program.simulate_traced",
    "expr.eval_expr",
)

# Functions whose calls are only counted: their time stays in the
# enclosing layer's self time (sample_store and make_store in
# certify_flow, eval_guard in simulate_traced).  "store.Dataspace.make_store"
# is a method and is patched on its class.
COUNTED = (
    "arith.sample_store",
    "arith.recheck",
    "store.Dataspace.make_store",
    "program.eval_guard",
)

# eval_expr spans are named after the evaluation mode of the innermost
# enclosing layer that sets one: the simulator runs on float stores,
# certification and the falsifier on exact rationals.
_MODE_OF = {"program.simulate_traced": "sim", "tactics.certify_flow": "cert",
            "arith.falsify": "falsify", "arith.recheck": "falsify"}
_EVAL_NAME = {"sim": "expr.eval_expr.float", "cert": "expr.eval_expr.exact",
              "falsify": "expr.eval_expr.exact", "other": "expr.eval_expr.other"}

ROOT = "cli.main"
SPAN_NAMES = ((ROOT,) + tuple(n for n in LAYERS if n != "expr.eval_expr")
              + ("expr.eval_expr.float", "expr.eval_expr.exact", "expr.eval_expr.other"))

COUNTERS = tuple(f"{n}.calls" for n in COUNTED) + (
    "tactics.certify_flow.pairs_accepted",  # summed CertResult.samples
    "tactics.certify_flow.draws",           # sample_store calls inside certify_flow
    "arith.peel.sequents",
    "arith.prove_vc.valid",
    "arith.prove_vc.invalid",
    "arith.prove_vc.unknown",
    "arith.prove_vc.split_budget",
    "vcg.gen_vcs.vcs",
    "arith.falsify.trials",
    "arith.falsify.witnesses",
    "program.simulate_traced.samples",
    "syntax.parse.bytes",
)

# Spans kept for the dump; the totals keep counting past it.
MAX_SPANS = 500_000


class Tracer:
    def __init__(self):
        self.index = {n: i for i, n in enumerate(SPAN_NAMES)}
        self.calls = [0] * len(SPAN_NAMES)
        self.self_s = [0.0] * len(SPAN_NAMES)
        self.total_s = [0.0] * len(SPAN_NAMES)
        self.active = [0] * len(SPAN_NAMES)
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.stack = []          # [span id, child time] per open span
        self.modes = ["other"]
        self.next_id = 0
        self.request = -1
        self.t0 = perf_counter()
        self.spans = tuple(array(t) for t in "qqqHdd")  # id parent request name start end
        self._patched = []

    # -- spans

    def _span(self, idx, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [sid, 0.0]
        self.stack.append(frame)
        self.active[idx] += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.active[idx] -= 1
            dur = end - start
            self.calls[idx] += 1
            self.self_s[idx] += dur - frame[1]
            if not self.active[idx]:
                self.total_s[idx] += dur
            if self.stack:
                self.stack[-1][1] += dur
            if sid < MAX_SPANS:
                for col, v in zip(self.spans, (sid, parent, self.request, idx,
                                               start - self.t0, end - self.t0)):
                    col.append(v)

    def request_span(self, fn, *args):
        """Run fn(*args) as the root span of a new request."""
        self.request += 1
        return self._span(self.index[ROOT], fn, args, {})

    def _wrap(self, name, fn):
        mode = _MODE_OF.get(name)
        hook = self._counter_hook(name, fn)
        if name in COUNTED:
            key = f"{name}.calls"

            def run(args, kwargs):
                self.counters[key] += 1
                return fn(*args, **kwargs)
        else:
            idx = self.index[name]

            def run(args, kwargs):
                return self._span(idx, fn, args, kwargs)

        def wrapper(*args, **kwargs):
            if mode:
                self.modes.append(mode)
            try:
                result = run(args, kwargs)
            finally:
                if mode:
                    self.modes.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _wrap_eval(self, fn):
        idx = {m: self.index[n] for m, n in _EVAL_NAME.items()}

        def wrapper(*args, **kwargs):
            return self._span(idx[self.modes[-1]], fn, args, kwargs)

        return wrapper

    def _counter_hook(self, name, fn):
        c = self.counters
        if name == "tactics.certify_flow":
            def hook(a, k, r):
                c["tactics.certify_flow.pairs_accepted"] += r.samples
        elif name == "arith.sample_store":
            def hook(a, k, r):
                if self.modes[-1] == "cert":
                    c["tactics.certify_flow.draws"] += 1
        elif name == "arith.peel":
            def hook(a, k, r):
                c["arith.peel.sequents"] += len(r)
        elif name == "arith.prove_vc":
            def hook(a, k, r):
                c[f"arith.prove_vc.{r.status}"] += 1
                if r.rule == "split-budget":
                    c["arith.prove_vc.split_budget"] += 1
        elif name == "vcg.gen_vcs":
            def hook(a, k, r):
                c["vcg.gen_vcs.vcs"] += len(r)
        elif name == "arith.falsify":
            sig = inspect.signature(fn)

            def hook(a, k, r):
                b = sig.bind(*a, **k)
                b.apply_defaults()
                c["arith.falsify.trials"] += b.arguments["trials"]
                c["arith.falsify.witnesses"] += r is not None
        elif name == "program.simulate_traced":
            def hook(a, k, r):
                c["program.simulate_traced.samples"] += len(r)
        elif name == "syntax.parse":
            def hook(a, k, r):
                c["syntax.parse.bytes"] += len(a[0].encode("utf-8"))
        else:
            hook = None
        return hook

    # -- install / uninstall

    def install(self):
        """Patch every hsverify module; ``uninstall`` restores the originals."""
        mods = {n[len("hsverify."):]: m for n, m in list(sys.modules.items())
                if n.startswith("hsverify.")}
        for name in LAYERS + COUNTED:
            mod_name, _, attr = name.partition(".")
            home = mods[mod_name]
            owners = mods.values()
            if "." in attr:  # a method: patched on its class only
                cls_name, attr = attr.split(".")
                home = getattr(home, cls_name)
                owners = [home]
            orig = getattr(home, attr)
            new = self._wrap_eval(orig) if name == "expr.eval_expr" else self._wrap(name, orig)
            for owner in owners:
                for k, v in list(vars(owner).items()):
                    if v is orig:
                        self._patched.append((owner, k, orig))
                        setattr(owner, k, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- results

    def snapshot(self) -> dict:
        """Running totals: <span>.calls, .self_s, .total_s and the counters."""
        out = {}
        for n, i in self.index.items():
            out[f"{n}.calls"] = self.calls[i]
            out[f"{n}.self_s"] = self.self_s[i]
            out[f"{n}.total_s"] = self.total_s[i]
        out.update(self.counters)
        out["trace.spans"] = self.next_id
        return out

    def dump(self, path: str) -> None:
        """Write the kept spans as gzipped TSV, times in microseconds."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("span\tparent\trequest\tname\tstart_us\tend_us\n")
            for sid, parent, req, idx, start, end in zip(*self.spans):
                f.write(f"{sid}\t{parent}\t{req}\t{SPAN_NAMES[idx]}\t"
                        f"{start * 1e6:.1f}\t{end * 1e6:.1f}\n")
            if self.next_id > MAX_SPANS:
                f.write(f"# {self.next_id - MAX_SPANS} later spans not kept\n")
