"""Every function, method, class and record field under src/rankcert is
referenced.

A module-level or nested function or class counts as used when its name
appears anywhere else in the package: as a name, an attribute, an imported
name or a string.  A method, property or record field counts as used
only when it is read as an attribute (``obj.name`` in a load context), so
a local variable or a string of the same name does not keep it alive.
A read is resolved to the package class its owner names where the source
says it: ``self`` or ``cls`` in a method, a class name, a parameter
annotated with a package class.  Such a read keeps alive only what it can
reach: the member found first in the owner's package bases, and the
overrides in the owner's subclasses.  A read on any other owner keeps
every member of that name alive.  Exports are not uses: neither an
``__all__`` entry nor a re-export in ``__init__.py`` counts, so a public
name must have a caller in the package or be listed in ``KEPT`` with the
reason it stays.  Dunder methods are called by the language and are
exempt.  A record is a ``@dataclass``, a ``NamedTuple`` or a subclass of
a record, and its fields are its annotated class attributes.  The check
parses the sources with ``ast``, so it needs no lint tool.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rankcert"
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# names no module of the package calls, each kept for a reason outside it
KEPT = (
    ("coprime_by_reduction", "an entry point that perfbench/tracer.py wraps"),
    ("is_irreducible_over_q", "an entry point that perfbench/tracer.py wraps"),
    ("OrbitReport._make", "NamedTuple._replace builds through it, so a replaced report is sorted"),
    ("FamilyCurve._make", "NamedTuple._replace builds through it, so a replaced family is checked"),
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


def _is_record(node: ast.ClassDef, records: set) -> bool:
    """A ``@dataclass``, a ``NamedTuple``, or a subclass of a class in
    ``records``."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return any(
        isinstance(base, ast.Name) and (base.id == "NamedTuple" or base.id in records)
        for base in node.bases
    )


def _record_names(trees) -> set:
    """The names of the records among the classes of ``trees``."""
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    records = set()
    while True:
        found = {node.name for node in classes if _is_record(node, records)}
        if found == records:
            return records
        records = found


def _members(node: ast.ClassDef, records: set):
    """(member node, name) of the methods, properties and record fields
    of a class."""
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield item, item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if node.name in records:
                yield item, item.target.id


def _classes(trees) -> dict:
    """Class name -> (names of its package bases, names its body binds)."""
    nodes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    names = {node.name for node in nodes}
    classes = {}
    for node in nodes:
        bound = set()
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound.add(item.name)
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                bound.update(t.id for t in targets if isinstance(t, ast.Name))
        bases = [b.id for b in node.bases if isinstance(b, ast.Name) and b.id in names]
        classes[node.name] = (bases, bound)
    return classes


def _lineage(name: str, classes: dict) -> list:
    """``name`` and its package bases, depth first."""
    out = [name]
    for base in classes[name][0]:
        out += [c for c in _lineage(base, classes) if c not in out]
    return out


def _reaches(owner: str, cls: str, attr: str, classes: dict) -> bool:
    """Whether reading ``attr`` on an instance of ``owner`` can reach
    ``cls.attr``: cls is the first of owner's lineage to bind it, or cls
    is a subclass of owner that overrides it."""
    lineage = _lineage(owner, classes)
    first = next((c for c in lineage if attr in classes[c][1]), None)
    return first == cls or owner in _lineage(cls, classes)


class _Reads(ast.NodeVisitor):
    """Attribute loads, counted as (owner, attribute): the owner is the
    package class a read resolves to, or None."""

    def __init__(self, classes: dict):
        self.classes = classes
        self.reads = Counter()
        self.scope = {}  # name -> class, None where a parameter shadows it
        self.method_of = None  # the class whose body is being read

    def _annotated(self, node):
        """The package class an annotation names: ``C``, ``"C"``,
        ``C | None`` or ``Optional[C]``; else None."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self._annotated(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Name):
            return node.id if node.id in self.classes else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = (node.left, node.right)
            named = [s for s in sides if not (isinstance(s, ast.Constant) and s.value is None)]
            return self._annotated(named[0]) if len(named) == 1 else None
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Optional":
            return self._annotated(node.slice)
        return None

    def visit_ClassDef(self, node):
        outer, self.method_of = self.method_of, node.name
        self.generic_visit(node)
        self.method_of = outer

    def visit_FunctionDef(self, node):
        outer = self.scope, self.method_of
        self.scope = dict(self.scope)
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        for param in params:
            self.scope[param.arg] = self._annotated(param.annotation)
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        if self.method_of is not None and params and not static:
            self.scope[params[0].arg] = self.method_of
        self.method_of = None
        self.generic_visit(node)
        self.scope, self.method_of = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        outer = self.scope
        self.scope = dict(self.scope, **{p.arg: None for p in node.args.args})
        self.generic_visit(node)
        self.scope = outer

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            name = node.value.id if isinstance(node.value, ast.Name) else None
            owner = self.scope.get(name, name if name in self.classes else None)
            self.reads[owner, node.attr] += 1
        self.generic_visit(node)


def _parse(package: Path) -> dict:
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(package.glob("*.py"))
    }


def record_fields(package: Path) -> list:
    """The "Class.field" name of every record field the guard checks."""
    trees = _parse(package)
    records = _record_names(trees.values())
    return [
        "%s.%s" % (node.name, name)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item, name in _members(node, records)
        if isinstance(item, ast.AnnAssign)
    ]


def unreferenced_definitions(package: Path) -> list:
    definitions = []  # (name, file, line, is a member)
    uses = Counter()
    trees = _parse(package)
    records = _record_names(trees.values())
    reads = _Reads(_classes(trees.values()))
    for path, tree in trees.items():
        reads.visit(tree)
        exports = _exports(path, tree)
        members = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                members.update(
                    (id(m), "%s.%s" % (node.name, name)) for m, name in _members(node, records)
                )
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
            elif isinstance(node, ast.alias):
                uses[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                uses[node.value] += 1
    out = []
    for name, filename, line, is_member in definitions:
        cls, _, short = name.rpartition(".")
        if short.startswith("__") and short.endswith("__"):
            continue
        if is_member:
            used = reads.reads[None, short] or any(
                owner is not None and attr == short and _reaches(owner, cls, short, reads.classes)
                for owner, attr in reads.reads
            )
        else:
            used = uses[short]
        if not used:
            out.append("%s (%s:%d)" % (name, filename, line))
    return out


def test_no_unreferenced_definitions():
    kept = {name for name, _reason in KEPT}
    unreferenced = unreferenced_definitions(SRC)
    assert [d for d in unreferenced if d.split(" ")[0] not in kept] == []
    # a kept name that gained a caller, or was deleted, leaves the list
    assert sorted(d.split(" ")[0] for d in unreferenced) == sorted(kept)


def test_guard_checks_every_record_field():
    # the fields that the record classes of the package declare at run
    # time, each under the class that declares it
    declared = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module("rankcert." + path.stem)
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                own = vars(cls)
                fields = own.get("_fields") or tuple(own.get("__dataclass_fields__", ()))
                declared += ["%s.%s" % (cls.__name__, name) for name in fields]
    assert declared
    assert sorted(record_fields(SRC)) == sorted(declared)


def test_tracer_reasons_name_tracer_entry_points():
    # a name kept for the tracer leaves KEPT once the tracer stops wrapping it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wrapped = {attr for _name, _module, attr, _info in tracer.ENTRY_POINTS}
    cited = [name for name, reason in KEPT if "perfbench/tracer.py" in reason]
    assert cited
    assert [name for name in cited if name not in wrapped] == []


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
    (tmp_path / "c.py").write_text(
        "from typing import NamedTuple\n"
        "class Point(NamedTuple):\n"
        "    x: int\n"
        "    y: int\n"
        "class _RangeFields(NamedTuple):\n"
        "    start: int\n"
        "    stop: int\n"
        "class Range(_RangeFields):\n"
        "    unit: str = 'm'\n"
        "    def width(self):\n"
        "        return self.stop - self.start\n"
        "Range(0, 1).width() + Point(1, 2).x\n"
    )
    # `content` occurs as a local name, `hi` as a keyword and an
    # assignment target; neither is read as an attribute.  The fields of
    # a NamedTuple, and of a subclass of one, are record fields.
    assert unreferenced_definitions(tmp_path) == [
        "unused (a.py:7)",
        "only_exported (a.py:16)",
        "Box.size (a.py:12)",
        "Box.content (a.py:14)",
        "Span.hi (a.py:21)",
        "Point.y (c.py:4)",
        "Range.unit (c.py:9)",
    ]


def test_guard_resolves_owners(tmp_path):
    # ROADMAP item 7: a member whose name another class reads is reported
    # when every read of that name resolves to another owner
    (tmp_path / "d.py").write_text(
        "from typing import NamedTuple, Optional\n"
        "class Span(NamedTuple):\n"
        "    lo: int\n"
        "    hi: int\n"
        "class Grid(NamedTuple):\n"
        "    lo: int\n"
        "    hi: int\n"
        "    def width(self):\n"
        "        return self.hi - self.lo\n"
        "class Shape:\n"
        "    def area(self):\n"
        "        return 0\n"
        "    def describe(self):\n"
        "        return self.area()\n"
        "class Square(Shape):\n"
        "    def area(self):\n"
        "        return 1\n"
        "class Label:\n"
        "    def area(self):\n"
        "        return 2\n"
        "    def text(self):\n"
        "        return ''\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return cls.blank()\n"
        "    @classmethod\n"
        "    def blank(cls):\n"
        "        return cls()\n"
        "def measure(span: 'Span | None', grid: Optional[Grid], thing):\n"
        "    return span.lo + Grid.width(grid) + Label.make().text() + thing.describe()\n"
        "measure(Span(0, 1), Grid(0, 1), Square())\n"
    )
    # Square.area overrides the Shape.area that Shape.describe reads;
    # `text` and `describe` are read on owners the guard cannot name
    assert unreferenced_definitions(tmp_path) == [
        "Span.hi (d.py:4)",
        "Label.area (d.py:19)",
    ]
