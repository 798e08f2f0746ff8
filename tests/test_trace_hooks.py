"""The benchmark's tracer wraps rankcert functions by name from outside.

A rename under src/ would make `perfbench/run.py --trace 1` fail; these
tests catch it in the ordinary suite, and run the tracer's readers on
real results.  They only read perfbench/tracer.py.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _entry_points():
    return _tracer().ENTRY_POINTS


def test_every_entry_point_resolves():
    entries = _entry_points()
    assert len(entries) == 15
    for name, module, attr, _info in entries:
        assert callable(getattr(importlib.import_module(module), attr, None)), name


def test_hensel_lift_signature():
    # the tracer reads the exponent and the factor list from these arguments
    from rankcert.factorq import _hensel_lift_list

    assert list(inspect.signature(_hensel_lift_list).parameters) == ["p", "f", "f_list", "l"]


def test_readers_on_real_results():
    # `--trace 1` records the precision of an isolation and the labelling
    # index of a labelling from what the wrapped calls return
    from rankcert.certroots import isolate_roots
    from rankcert.exactpoly import IntPoly, RatPoly
    from rankcert.weierstrass import build_curve, build_label_resolvents, enumerate_j2_classes

    tracer = _tracer()
    precision = tracer._precision((), {}, isolate_roots(IntPoly([1, 1, 0, 0, 0, 0, 1]), 128))
    assert type(precision) is int and precision >= 128
    curve = build_curve(RatPoly([1, 1, 0, 0, 0, 0, 1]))
    result = build_label_resolvents(curve, [enumerate_j2_classes(curve)])
    assert tracer._labeling_index((), {}, result) == 0
