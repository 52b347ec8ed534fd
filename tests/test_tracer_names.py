"""The names the benchmark tracer wraps (SPANS and COUNTED in
perfbench/tracer.py) exist in qdrive as plain functions.

The test suite does not collect perfbench/, so a renamed function would only
zero a benchmark counter.  The tracer rebinds every reference to the object it
wraps, so a wrapped class (an alias such as dm_new = DensityMatrix) would be
replaced by the wrapper wherever it is used."""
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
#: names the tracer still lists that qdrive no longer defines; their metrics read 0
KNOWN_ABSENT = {"qdrive.liouville.hamiltonian_at"}


def load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_plain_functions():
    tracer = load_tracer()
    absent = set()
    for _, _, home, attr in tracer.SPANS + tracer.COUNTED:
        obj = getattr(importlib.import_module(home), attr, None)
        if obj is None:
            absent.add(f"{home}.{attr}")
        else:
            assert inspect.isfunction(obj), f"{home}.{attr} is {obj!r}, not a function"
    assert absent <= KNOWN_ABSENT
