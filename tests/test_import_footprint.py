"""`import rankcert.cli` pulls in no module that only slows start-up.

Every CLI command runs in a fresh process, so each module the CLI imports
is paid for on every command.  `dataclasses` costs the most: it imports
`inspect`, which imports `ast`, `dis` and `tokenize`.  The tests compare
module sets, not times, so they are deterministic on a noisy host.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def _modules_after(statement: str, *flags: str) -> set:
    """The modules loaded in a fresh interpreter, started with ``flags``,
    after ``statement``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, *flags, "-c", statement + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_heavy_module():
    added = _modules_after("import rankcert.cli") - _modules_after("pass")
    assert "rankcert.cli" in added
    assert sorted(added & HEAVY) == []


def test_cli_import_loads_no_importlib_resources():
    # without `site`, nothing but rankcert itself could load it; the shipped
    # fixtures are found by the tests, not by the CLI
    assert "importlib.resources" not in _modules_after("import rankcert.cli", "-S")


def test_cli_import_loads_no_pickle():
    # only a family scan that forks workers needs it, and imports it then
    assert "pickle" not in _modules_after("import rankcert.cli")
