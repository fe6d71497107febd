"""Every function and method the benchmark tracer wraps still exists.

``bench/tracer.py`` names cosetlab functions by module and attribute; a
rename would otherwise surface only in the middle of a benchmark run.  The
tracer module is loaded by path and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
FUNCTIONS = [(layer, name) for layer, names in TRACER.FUNCTIONS.items()
             for name in names]
METHODS = [(layer, cls, meth) for layer, pairs in TRACER.METHODS.items()
           for cls, meth in pairs]


@pytest.mark.parametrize("layer, name", FUNCTIONS,
                         ids=[f"{l}.{n}" for l, n in FUNCTIONS])
def test_traced_function_resolves(layer, name):
    assert callable(getattr(importlib.import_module(f"cosetlab.{layer}"), name))


@pytest.mark.parametrize("layer, cls, meth", METHODS,
                         ids=[f"{l}.{c}.{m}" for l, c, m in METHODS])
def test_traced_method_resolves(layer, cls, meth):
    owner = getattr(importlib.import_module(f"cosetlab.{layer}"), cls)
    assert callable(owner.__dict__[meth])
