"""The benchmark tracer's per-layer metrics read functions the package still exports.

perfbench/spans.py wraps the functions in ``citedea.__all__`` and derives its
per-layer metrics from the names in its ``EXPECTED`` set; a name that stops
being a public function of its layer would silently read 0 there.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

import citedea

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted(module.EXPECTED)


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_a_public_function_of_its_layer(name):
    layer, function = name.split(".")
    assert function in citedea.__all__
    value = getattr(citedea, function)
    assert inspect.isfunction(value)
    assert value.__module__ == f"citedea.{layer}"
