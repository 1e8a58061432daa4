"""Every layer the benchmark traces must name a function of the package.

The benchmark's tracer wraps ``mcfqkd.<module>.<function>`` by name and only
prints a warning for a layer it cannot find, so a rename would otherwise
leave a layer silently unmeasured.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_function_layer_resolves(layers):
    assert layers.FUNCTION_LAYERS
    for layer in layers.FUNCTION_LAYERS:
        module_name, func_name = layer.split(".")
        module = importlib.import_module(f"mcfqkd.{module_name}")
        assert inspect.isfunction(getattr(module, func_name, None)), layer
