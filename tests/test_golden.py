"""Pinned outputs: the behaviour oracle for changes that keep behaviour.

Each digest is the sha256 of a command's whole stdout.  A change that
alters one on purpose updates the digest here and says why in CHANGES.md.
"""

import hashlib
import pathlib

import pytest

from hsverify.cli import main

MODELS = pathlib.Path(__file__).resolve().parent.parent / "models"

# verify --json - at seeds 0 and 1
REPORTS = {
    ("boat.hsv", 0): "3c15339c2bb194d57bfea2f92c85734654aa2bfb91573ea41027018f5fbff656",
    ("boat.hsv", 1): "6fcb923a9c9924a5f09c558c88ff25debc51ca0ca5223a68beee5e526682c127",
    ("broken.hsv", 0): "641137cd49ae2fcaf0af728fe539927401951486bd87df68473ee0bf2221ef16",
    ("broken.hsv", 1): "5e2cd9895e67ac9045257ed7e6495a9799758c4df82ab6ac2382205861639c33",
    ("decay.hsv", 0): "fa0ad45a07d66383c6ab0183f4f6aabbf95652f386ab7e8ab8b3852753174b1b",
    ("decay.hsv", 1): "daa8792047c9e5b145a5a609a9ec6385374ac7151909f013623d1253faf5abf9",
    ("pendulum.hsv", 0): "34ac0581d5ca96f8ae30a0f2e610979ba9f33fdca1a09f50412fb7eeb11efe41",
    ("pendulum.hsv", 1): "5f33376f2f6a1bf4ca2c23cec7ac4aa12e9cf95bb762e94117f134d6ee4c4207",
    ("tank.hsv", 0): "12e9c1375ef40a0161dee7374379417ed2d81be8269e537d506864fd8f1ae57f",
    ("tank.hsv", 1): "d3da4c4e6999bc2572503a034f5ef589e836e643cbbc83a8a1202125c961565e",
}

# name -> ((model, program, --init, --step, --horizon), digest); the tank
# run meets both level bounds, so it crosses guards by bisection
SIMULATIONS = {
    "tank-level": (("tank.hsv", "level", "hl=1,hu=9,co=1/2,ci=3/2,flw=false,h=5,hm=5,t=0",
                    "0.05", "4"),
                   "790e429a38573a92f1d9442d3c8b452edaa54adc8d7d220c28ac73de4fe611b6"),
    "boat-kin": (("boat.hsv", "kin", "S=4,fmax=1,V=[1,1],X=0,p=[1,2],v=[0,2],a=[0,0],"
                  "phi=0,s=2,w=1,wps=[3,4],org=[0,0],rs=1,rh=0", "0.01", "1"),
                 "9ddb3660795d21223a65bded2ef1e4ae71bf9fd66de7afb25dbe448b011f7649"),
    "decay-sol": (("decay.hsv", "sol", "x=3/2", "0.01", "2"),
                  "66c2b97a7969fc258c1ab07902bbe9c1805f83188b8d0a60ae89707715eca0ee"),
    # fields that read only the evolving state
    "pendulum-rotate": (("pendulum.hsv", "rotate", "r=1,x=3/5,y=4/5", "0.01", "2"),
                        "b06308c0a5af80d6b77360ee210fa0692b9eb6dfec962208ebf89bc613325f09"),
    "decay-dec": (("decay.hsv", "dec", "x=3/2", "0.01", "2"),
                  "8d5f4dbd02294427cefe81313fd9ad4051811bc35b45f4214bd6acaa19c78dd5"),
}


def stdout_digest(capsys, *argv) -> str:
    main([str(a) for a in argv])
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("model,seed", sorted(REPORTS))
def test_verify_report_is_pinned(capsys, model, seed):
    got = stdout_digest(capsys, "verify", MODELS / model, "--json", "-", "--seed", seed)
    assert got == REPORTS[model, seed]


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulate_trace_is_pinned(capsys, name):
    (model, program, init, step, horizon), digest = SIMULATIONS[name]
    got = stdout_digest(capsys, "simulate", MODELS / model, "--program", program,
                        "--init", init, "--step", step, "--horizon", horizon, "--seed", 7)
    assert got == digest
