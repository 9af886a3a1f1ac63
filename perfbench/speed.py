"""A reference kernel, sampled on a timer, that tracks how fast Python runs now.

Shared CPUs make raw times drift: on the 2-vCPU VM this benchmark was built
on, one fixed pure-Python loop took from 18 to 57 ms within a minute, one
verify call swung between 5.7 and 7.8 s, and whole runs drifted by 30% over a
few minutes.  While a Speedometer runs, a SIGALRM handler times a short fixed
kernel every PERIOD_S seconds, so the samples are spread evenly over the
measured time, inside calls as well as between them.  The benchmark divides
each measured time by the run's speed factor and so reports it in seconds on
a machine where the kernel takes REF_SECONDS.  The kernel is the benchmark's
own code: a change to hsverify does not move it.

The kernel does what hsverify spends its time on: it walks a small
expression tree with isinstance dispatch, over Fractions and over floats.
"""

from __future__ import annotations

import bisect
import signal
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

# One kernel on the machine the benchmark was tuned on.
REF_SECONDS = 0.0008
PERIOD_S = 0.02
# A call's own factor uses the samples from PAD_S before it to PAD_S after.
PAD_S = 0.05


@dataclass(frozen=True)
class _Num:
    value: object


@dataclass(frozen=True)
class _Var:
    name: str


@dataclass(frozen=True)
class _Bin:
    op: str
    left: object
    right: object


def _tree(depth: int, k: int):
    if depth == 0:
        return _Var("xy"[k % 2]) if k % 3 else _Num(Fraction(k % 7 + 1, k % 5 + 2))
    return _Bin("+-*"[k % 3], _tree(depth - 1, 2 * k + 1), _tree(depth - 1, 2 * k + 2))


_TREE = _tree(6, 0)


def _ev(e, env):
    if isinstance(e, _Num):
        return e.value
    if isinstance(e, _Var):
        return env[e.name]
    a, b = _ev(e.left, env), _ev(e.right, env)
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    return a * b


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    t = perf_counter()
    exact = {"x": Fraction(3, 7), "y": Fraction(-2, 21)}
    _ev(_TREE, exact)
    floats = {k: float(v) for k, v in exact.items()}
    for j in range(12):
        floats["x"] += j / 64
        _ev(_TREE, floats)
    return perf_counter() - t


class Speedometer:
    """Times the kernel every PERIOD_S seconds between start() and stop().

    ``spent`` is the total time the handler took; a caller subtracts its
    growth over a timed region from that region's wall time.
    """

    def __init__(self):
        kernel()  # warm the interpreter's specialised bytecode first
        self.times = []
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _tick(self, signum, frame):
        t = perf_counter()
        self.times.append(t)
        self.samples.append(kernel())
        self.spent += perf_counter() - t

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self, start: float = None, end: float = None) -> float:
        """How much slower than the reference the machine ran, time-weighted.

        Work done at speed 1/s(t) over evenly spaced samples finishes in
        reference time raw * mean(1/s), so the factor is 1 / mean(REF / k).
        With start and end, only samples within PAD_S of [start, end]
        count, if there are any; otherwise all of them.
        """
        ks = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - PAD_S)
            hi = bisect.bisect_right(self.times, end + PAD_S)
            ks = ks[lo:hi] or ks
        if not ks:
            raise RuntimeError("the speedometer took no samples")
        return len(ks) / sum(REF_SECONDS / k for k in ks)
