"""The benchmark's tracer patches hsverify functions by name: each must exist.

perfbench/tracer.py wraps every name in its LAYERS and COUNTED tuples, and
its counter hooks read CertResult.samples and falsify's trials argument.
A rename in src/ would otherwise surface only as an AttributeError when a
traced benchmark run installs the tracer.  The file is read, not run.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

from hsverify import arith
from hsverify.tactics import CertResult

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patch_points() -> tuple:
    """LAYERS + COUNTED, as the tracer's source spells them."""
    found = {}
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id in ("LAYERS", "COUNTED")):
            found[node.targets[0].id] = ast.literal_eval(node.value)
    return found["LAYERS"] + found["COUNTED"]


@pytest.mark.parametrize("name", _patch_points())
def test_patch_point_exists(name):
    mod_name, _, attr = name.partition(".")
    owner = importlib.import_module(f"hsverify.{mod_name}")
    for part in attr.split("."):  # a method resolves through its class
        owner = getattr(owner, part, None)
    assert callable(owner), f"the tracer patches hsverify.{name}"


def test_counter_hooks_read_what_exists():
    assert "samples" in {f.name for f in dataclasses.fields(CertResult)}
    assert "trials" in inspect.signature(arith.falsify).parameters
