"""Every function, method and class under src/rankcert is referenced.

A definition counts as used when its name appears anywhere else in the
package: as a name, an attribute, an imported name or a string.  Exports
are not uses: neither an ``__all__`` entry nor a re-export in
``__init__.py`` counts, so a public name must have a caller in the
package or be listed in ``KEPT`` with the reason it stays.  Dunder
methods are called by the language and are exempt.  The check parses the
sources with ``ast``, so it needs no lint tool.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankcert"

# names no module of the package calls, each kept for a reason outside it
KEPT = (
    ("coprime_by_reduction", "an entry point that perfbench/tracer.py wraps"),
    ("is_irreducible_over_q", "an entry point that perfbench/tracer.py wraps"),
    ("discriminant", "the reference the tests compare the family discriminant against"),
    ("frobenius_theta_oracle", "the reference the tests compare theta degree patterns against"),
    ("has_rational_theta", "called in the README Library block"),
    ("fixture_path", "how the tests find the shipped fixtures"),
)


def _exports(path: Path, tree: ast.Module) -> set:
    """The nodes of ``__all__`` assignments, and of every import in
    ``__init__.py``: they name what the package offers, not what it uses."""
    nodes = set()
    for node in ast.walk(tree):
        is_all = isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        )
        reexport = path.name == "__init__.py" and isinstance(node, ast.ImportFrom)
        if is_all or reexport:
            nodes.update(id(n) for n in ast.walk(node))
    return nodes


def unreferenced_definitions(package: Path) -> list:
    definitions = []
    uses = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exports = _exports(path, tree)
        for node in ast.walk(tree):
            if id(node) in exports:
                continue
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
    kept = {name for name, _reason in KEPT}
    unreferenced = unreferenced_definitions(SRC)
    assert [d for d in unreferenced if d.split(" ")[0] not in kept] == []
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(d.split(" ")[0] for d in unreferenced) == sorted(kept)


def test_guard_finds_unreferenced_definitions(tmp_path):
    (tmp_path / "__init__.py").write_text(
        "from .a import Box, exported, only_exported\n"
        "__all__ = ['Box', 'exported', 'only_exported']\n"
    )
    (tmp_path / "a.py").write_text(
        "__all__ = ['exported', 'only_exported']\n"
        "def exported():\n    return helper()\n"
        "def helper():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def size(self):\n        return 0\n"
        "def only_exported():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import Box\nexported()\n")
    assert unreferenced_definitions(tmp_path) == [
        "unused (a.py:6)",
        "only_exported (a.py:13)",
        "size (a.py:11)",
    ]
