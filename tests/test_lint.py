"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "latnash"


def unused_imports(source: str):
    """Names a module imports but never reads and does not list in
    ``__all__``, in source order, as (line, name)."""
    tree = ast.parse(source)
    imported = []
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [(line, name) for line, name in imported if name not in used]


def test_unused_imports_are_found():
    source = ("import os, sys as system\n"
              "from json import dumps, loads\n"
              "from pathlib import Path\n"
              "from a.b import c\n"
              "import x.y\n"
              "__all__ = ['Path']\n"
              "def f():\n"
              "    from itertools import chain\n"
              "    return os.sep, loads, x.y\n")
    assert unused_imports(source) == [(1, "system"), (2, "dumps"), (4, "c"), (8, "chain")]


def test_package_has_no_unused_imports():
    found = {path.name: unused
             for path in sorted(PACKAGE.glob("*.py"))
             if (unused := unused_imports(path.read_text(encoding="utf-8")))}
    assert found == {}


def private_names(sources):
    """Private names each module defines at its top level, and every name
    the modules read: ``(defined, read)``, where ``defined`` lists
    (module, line, name) in source order and ``read`` holds the names
    loaded as variables or attributes anywhere.  Dunder names are not
    private."""
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return defined, read


def unread_private_names(sources):
    """Private top-level names that no module reads, as (module, line, name)."""
    defined, read = private_names(sources)
    return [entry for entry in defined if entry[2] not in read]


def test_unread_private_names_are_found():
    sources = {"a.py": ("_LIMIT = 3\n"
                        "_a, (_b, c) = 1, (2, 3)\n"
                        "__all__ = ['f']\n"
                        "def _helper():\n"
                        "    return _LIMIT\n"
                        "class _Gone:\n"
                        "    def _method(self):\n"
                        "        return _b\n"
                        "def f():\n"
                        "    _local = 1\n"
                        "    return _local\n"),
               "b.py": ("from a import _helper\n"
                        "import a\n"
                        "x = a._a\n"
                        "_helper()\n"
                        "_unused: int = 0\n")}
    assert unread_private_names(sources) == [("a.py", 6, "_Gone"), ("b.py", 5, "_unused")]


def test_package_reads_every_private_name_it_defines():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    defined, _ = private_names(sources)
    assert len(defined) > 50
    assert unread_private_names(sources) == []
