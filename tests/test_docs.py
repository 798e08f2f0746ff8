"""The docstring examples and the README "Library" and "Command line"
blocks run as written.

Every `rankcert` module's doctests run through `doctest.testmod`, the
README's Library block is executed, with the values its comments show
checked against the objects it builds, and each command of its Command
line block runs through `cli.main` with the exit code its comment shows.
"""

import doctest
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import rankcert
from rankcert.cli import main
from rankcert.factorq import degree_pattern

from conftest import fixture_path

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


def _command_lines():
    """(command, comment) for each command of the README's Command line
    block, with its backslash continuations joined."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            lines.append((" ".join(command.split()), comment))
    return lines


def test_readme_command_block(capsys, tmp_path):
    files = {"chi.txt": str(fixture_path("chi1.txt")), "cert.json": str(tmp_path / "cert.json")}
    ran = []
    for command, comment in _command_lines():
        if "odd.txt" in command:  # no fixture provides the theta resolvents
            continue
        words, _, target = command.partition(" > ")
        argv = [files.get(word, word) for word in shlex.split(words)]
        assert argv[0] == "rankcert"
        code = main(argv[1:])
        out = capsys.readouterr().out
        if target:
            Path(files[target]).write_text(out, encoding="utf-8")
        assert code == (2 if "exit 2" in comment else 0), command
        ran.append(command)
    assert len(ran) == 10
    assert "rankcert verify --certificate cert.json" in ran
