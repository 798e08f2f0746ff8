"""Every function, method and class under src/rankcert is referenced.

A definition counts as used when its name appears anywhere else in the
package: as a name, an attribute, an imported name or a string (such as
an ``__all__`` entry).  Dunder methods are called by the language and are
exempt.  The check parses the sources with ``ast``, so it needs no lint
tool.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankcert"


def unreferenced_definitions(package: Path) -> list:
    definitions = []
    uses = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, "%s:%d" % (path.name, node.lineno)))
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses[node.value] += 1
    return [
        "%s (%s)" % (name, where)
        for name, where in definitions
        if not (name.startswith("__") and name.endswith("__")) and uses[name] == 0
    ]


def test_no_unreferenced_definitions():
    assert unreferenced_definitions(SRC) == []


def test_guard_finds_unreferenced_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported']\n"
        "def exported():\n    return helper()\n"
        "def helper():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def size(self):\n        return 0\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box\n")
    assert unreferenced_definitions(tmp_path) == ["unused (a.py:6)", "size (a.py:11)"]
