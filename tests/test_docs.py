"""The docstring examples and the README "Library" snippet run as written.

Every `rankcert` module's doctests run through `doctest.testmod`, and the
README's Library block is executed, with the values its comments show
checked against the objects it builds.
"""

import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import rankcert
from rankcert.factorq import degree_pattern

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["rankcert"] + sorted(
    "rankcert." + info.name for info in pkgutil.iter_modules(rankcert.__path__)
)


def test_module_doctests():
    results = {
        name: doctest.testmod(importlib.import_module(name), report=False)
        for name in MODULES
    }
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    # the examples of parse_poly, class_orbits, frobenius_screen,
    # factor_over_q and make_integral_monic
    assert sum(r.attempted for r in results.values()) >= 10


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet():
    namespace = {}
    exec(compile(_library_block(), "README.md", "exec"), namespace)
    chi, curve = namespace["chi"], namespace["curve"]
    assert namespace["j2"] == namespace["orbits"] == (15,)
    assert namespace["theta_data"](curve)[:2] == ((6,), (10,))
    oracle = namespace["frobenius_orbit_oracle"](curve, 11)
    assert oracle == degree_pattern(chi, 11)
    assert namespace["cert"].verdict == "RankAtLeastOne"
    assert namespace["cert"].path == "transitivity"
