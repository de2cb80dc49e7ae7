"""The names bench/tracer.py wraps all resolve on coxcent.

A traced bench run (`bench/run.py --trace 1`) installs its wrappers by name
and raises KeyError or AttributeError when one is gone; this test fails on
the same rename without running the benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

import coxcent
import coxcent.cli  # noqa: F401  (the bench imports it too; the package does not)

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer_names", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _tracer()


@pytest.mark.parametrize("layer, name", [(layer, name)
                                         for layer, names in TRACER.SPAN_FUNCTIONS.items()
                                         for name in names])
def test_span_function_resolves(layer, name):
    assert callable(getattr(getattr(coxcent, layer), name))


@pytest.mark.parametrize("layer, cls_name, meth", [
    (layer, cls_name, meth)
    for table in (TRACER.SPAN_METHODS, TRACER.LEAF_METHODS, TRACER.COUNT_METHODS)
    for layer, methods in table.items()
    for cls_name, meth in methods])
def test_wrapped_method_is_defined_on_its_class(layer, cls_name, meth):
    # the tracer reads the class's own __dict__, so an inherited method would not do
    cls = getattr(getattr(coxcent, layer), cls_name)
    assert callable(vars(cls)[meth])
