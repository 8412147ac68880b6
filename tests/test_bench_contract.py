"""The names the benchmark (latbench/) binds in latnash must keep existing.

latbench/tracer.py wraps every function listed in its LAYERS table, and
latbench/run.py refuses a pass unless the kernel backend is named "pure".
The tracer module is loaded from its file and only read.
"""

import importlib
import importlib.util
import types
from pathlib import Path

from latnash import _kernels

TRACER = Path(__file__).resolve().parents[1] / "latbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("latbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_traced_function_exists():
    layers = _layers()
    assert layers
    for layer, fns in layers.items():
        mod = importlib.import_module(f"latnash.{layer}")
        for fn in fns:
            assert callable(getattr(mod, fn, None)), f"latnash.{layer}.{fn}"


def test_every_traced_function_is_plain():
    # the tracer's profile check matches calls by each function's __code__;
    # a cache decorator would hide the code object or wrap it in another
    for layer, fns in _layers().items():
        mod = importlib.import_module(f"latnash.{layer}")
        for fn in fns:
            f = getattr(mod, fn)
            assert isinstance(f, types.FunctionType), f"latnash.{layer}.{fn}"
            assert hasattr(f, "__code__") and not hasattr(f, "__wrapped__"), \
                f"latnash.{layer}.{fn}"


def test_backend_is_pure():
    assert _kernels.BACKEND == "pure"
