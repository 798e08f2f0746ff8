"""The benchmark's tracer wraps rankcert functions by name from outside.

A rename under src/ would make `perfbench/run.py --trace 1` fail; these
tests catch it in the ordinary suite.  They only read perfbench/tracer.py.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.ENTRY_POINTS


def test_every_entry_point_resolves():
    entries = _entry_points()
    assert len(entries) == 15
    for name, module, attr, _info in entries:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_hensel_lift_signature():
    # the tracer reads the exponent and the factor list from these arguments
    from rankcert.factorq import _hensel_lift_list

    assert list(inspect.signature(_hensel_lift_list).parameters) == ["p", "f", "f_list", "l"]
