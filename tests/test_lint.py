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
