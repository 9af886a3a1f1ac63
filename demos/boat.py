"""Planar vessel kinematics: vector state, frames, and guard reasoning.

The dynamics move position, velocity, acceleration, heading, and speed.
Route data (waypoints, origin, radii) sits outside the frame, so invariance
of anything phrased over it costs nothing.  The speed/velocity link comes
straight from the evolution guard.
"""

import pathlib

from hsverify.arith import ArithCtx, poly_of
from hsverify.cli import main as cli
from hsverify.expr import Inner, Sub, read
from hsverify.program import modset
from hsverify.store import Var
from hsverify.syntax import parse

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"


def main():
    path = MODELS / "boat.hsv"
    model = parse(path.read_text())

    kin = model.programs["kin"]
    ms = modset(kin)
    quiet = [n for n in ("wps", "org", "rs", "rh") if not ms.overlaps(Var(n))]
    print("untouched by the dynamics:", ", ".join(quiet))

    # inner products normalize with sorted arguments, so a.v and v.a agree
    # by construction instead of by lemma
    ctx = ArithCtx(model.dataspace, assumptions=model.assumptions(), seed=0)
    a, v = read("a"), read("v")
    gap = Sub(Inner(a, v), Inner(v, a))
    print("a.v - v.a normalizes to zero:",
          poly_of(gap, ctx.dataspace).is_zero())

    print()
    cli(["verify", str(path)])


if __name__ == "__main__":
    main()
