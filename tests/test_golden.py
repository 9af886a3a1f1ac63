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

# vcs at seed 0: the generated conditions, printed simplified
VCS = {
    "boat.hsv": "d9619dabade6b97dc6f2a7ad7e8c674df3465b0ec2df50c33b1a0ed78bf50c6d",
    "broken.hsv": "97ba7fcbae95d934e6cf5ea09e83f8100a07487f82d95ab52aedb08a9c8a0ec8",
    "decay.hsv": "530101f81d858ec47acd59f7782f4659584bfaf5f712fb6fb15888075a0f24ed",
    "pendulum.hsv": "15631d90663625cd298772adcbd73b7d9fb67c257ed91b9dd01f412876088ec3",
    "tank.hsv": "14e458631978639ed0ebeb54a1829cd2e6d48bebddfb645426d8a03781d4743e",
}

# falsify at seeds 0 and 1: the witnesses the seeded sampler draws
FALSIFICATIONS = {
    ("boat.hsv", 0): "8b544d3a45e6850c6aa98da27c0d3e5de886c3eb117eb0b43b302c225e1f1d79",
    ("boat.hsv", 1): "8b544d3a45e6850c6aa98da27c0d3e5de886c3eb117eb0b43b302c225e1f1d79",
    ("broken.hsv", 0): "879a852488fe7255d384808380611841ab05df6886e67618f774355ba5ad1366",
    ("broken.hsv", 1): "879a852488fe7255d384808380611841ab05df6886e67618f774355ba5ad1366",
    ("decay.hsv", 0): "4fc5812b7f73bba25bdd0300c1633a8f5c377482ee58645d5da01b50de2230f8",
    ("decay.hsv", 1): "4fc5812b7f73bba25bdd0300c1633a8f5c377482ee58645d5da01b50de2230f8",
    ("pendulum.hsv", 0): "e4e191cf682f10c2e1cfb6eece6ab69e007314880c6d5118ff2424063e1dee6d",
    ("pendulum.hsv", 1): "e4e191cf682f10c2e1cfb6eece6ab69e007314880c6d5118ff2424063e1dee6d",
    ("tank.hsv", 0): "71e135dfd72db0fe0c06b094aac2073eb74915592387bfc7f6432bf28ece0229",
    ("tank.hsv", 1): "71e135dfd72db0fe0c06b094aac2073eb74915592387bfc7f6432bf28ece0229",
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


@pytest.mark.parametrize("model", sorted(VCS))
def test_vcs_listing_is_pinned(capsys, model):
    got = stdout_digest(capsys, "vcs", MODELS / model, "--seed", 0)
    assert got == VCS[model]


@pytest.mark.parametrize("model,seed", sorted(FALSIFICATIONS))
def test_falsify_output_is_pinned(capsys, model, seed):
    got = stdout_digest(capsys, "falsify", MODELS / model, "--seed", seed)
    assert got == FALSIFICATIONS[model, seed]


@pytest.mark.parametrize("name", sorted(SIMULATIONS))
def test_simulate_trace_is_pinned(capsys, name):
    (model, program, init, step, horizon), digest = SIMULATIONS[name]
    got = stdout_digest(capsys, "simulate", MODELS / model, "--program", program,
                        "--init", init, "--step", step, "--horizon", horizon, "--seed", 7)
    assert got == digest
