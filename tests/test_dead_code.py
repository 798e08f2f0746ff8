"""Every function, method, class and dataclass field under src/rankcert is
referenced.

A module-level or nested function or class counts as used when its name
appears anywhere else in the package: as a name, an attribute, an imported
name or a string.  A method, property or dataclass field counts as used
only when it is read as an attribute (``obj.name`` in a load context), so
a local variable or a string of the same name does not keep it alive.
Exports are not uses: neither an ``__all__`` entry nor a re-export in
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
    ("frobenius_theta_oracle", "the reference the tests compare theta degree patterns against"),
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _members(node: ast.ClassDef):
    """(member node, name) of the methods, properties and dataclass fields
    of a class."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item, item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if _is_dataclass(node):
                yield item, item.target.id


def unreferenced_definitions(package: Path) -> list:
    definitions = []  # (name, file, line, is a member)
    uses = Counter()
    reads = Counter()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        exports = _exports(path, tree)
        members = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members.update((id(m), "%s.%s" % (node.name, name)) for m, name in _members(node))
        for node in ast.walk(tree):
            if id(node) in exports:
                continue
            if id(node) in members:
                definitions.append((members[id(node)], path.name, node.lineno, True))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((node.name, path.name, node.lineno, False))
            elif isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
                reads[node.attr] += isinstance(node.ctx, ast.Load)
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses[node.value] += 1
    out = []
    for name, filename, line, is_member in definitions:
        short = name.rsplit(".", 1)[-1]
        if short.startswith("__") and short.endswith("__"):
            continue
        if (reads if is_member else uses)[short] == 0:
            out.append("%s (%s:%d)" % (name, filename, line))
    return out


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
        "from dataclasses import dataclass\n"
        "__all__ = ['exported', 'only_exported']\n"
        "def exported():\n    return helper()\n"
        "def helper():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n"
        "    def __len__(self):\n        return 0\n"
        "    def size(self):\n        return 0\n"
        "    def content(self):\n        return 0\n"
        "def only_exported():\n    pass\n"
        "@dataclass\n"
        "class Span:\n"
        "    lo: int\n"
        "    hi: int\n"
    )
    (tmp_path / "b.py").write_text(
        "from .a import Box, Span\n"
        "exported()\n"
        "def total(box, lo):\n"
        "    content = len(box)\n"
        "    span = Span(lo=lo, hi=content)\n"
        "    span.hi = content\n"
        "    return content + span.lo\n"
        "total(Box(), 1)\n"
    )
    # `content` occurs as a local name, `hi` as a keyword and an
    # assignment target; neither is read as an attribute
    assert unreferenced_definitions(tmp_path) == [
        "unused (a.py:7)",
        "only_exported (a.py:16)",
        "Box.size (a.py:12)",
        "Box.content (a.py:14)",
        "Span.hi (a.py:21)",
    ]
