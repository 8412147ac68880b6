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


def error_classes(source: str):
    """Names of the classes an errors module defines that derive from
    ``LatnashError``, directly or through one another, and that name
    itself."""
    names = {"LatnashError"}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in names for base in node.bases):
            names.add(node.name)
    return names


def unbounded_refusals(source: str, errors):
    """The ``!r`` conversions in f-strings passed to ``raise E(...)`` for
    E in ``errors``, as (line, source of the converted value): a refusal
    shows a user's value through ``errors.quote``, which bounds its
    length, never through ``repr``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and isinstance(node.exc.func, ast.Name) and node.exc.func.id in errors):
            found += [(value.lineno, ast.unparse(value.value)) for value in ast.walk(node.exc)
                      if isinstance(value, ast.FormattedValue) and value.conversion == ord("r")]
    return sorted(found)


def test_unbounded_refusals_are_found():
    errors = error_classes("class LatnashError(Exception):\n    pass\n"
                           "class ParseError(LatnashError):\n    pass\n"
                           "class Deeper(ParseError):\n    pass\n"
                           "class Other(Exception):\n    pass\n")
    assert errors == {"LatnashError", "ParseError", "Deeper"}
    source = ("def f(x, y):\n"
              "    if x:\n"
              "        raise ParseError(f'bad {x!r}')\n"
              "    if y:\n"
              "        raise Deeper(\n"
              "            'a' f'{y}' f'{y[0]!r}')\n"
              "    raise LatnashError(f'{reprlib.repr(x)} {x!s} {x!a}')\n"
              "def g(x):\n"
              "    raise Other(f'{x!r}')\n"
              "def h(x):\n"
              "    raise ParseError(msg(f'{x!r}')) from None\n")
    assert unbounded_refusals(source, errors) == [(3, "x"), (6, "y[0]"), (11, "x")]


def imported_modules(source: str):
    """The top-level names of the modules a source imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = ("import os.path, reprlib as r\n"
              "from json import dumps\n"
              "from . import sibling\n"
              "def f():\n"
              "    from latnash.errors import quote\n")
    assert imported_modules(source) == {"os", "reprlib", "json", "latnash"}


def test_package_refusals_bound_the_values_they_show():
    # and only errors.quote calls reprlib, so no refusal quotes a value
    # past quote's bound
    errors = error_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert len(errors) > 20
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = {name: hits for name, source in sources.items()
             if (hits := unbounded_refusals(source, errors))}
    assert found == {}
    assert [name for name, source in sources.items()
            if "reprlib" in imported_modules(source)] == ["errors.py"]


def foreign_raises(source: str, errors):
    """The ``raise`` statements that raise a class by name (a CapWords
    name, or an attribute ending in one) outside ``errors``, as (line,
    enclosing function or class path, class).  A function's result, as in
    ``raise _contradiction(...)``, a caught exception's type and a bare
    ``raise`` name no class."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                name = (exc.id if isinstance(exc, ast.Name)
                        else exc.attr if isinstance(exc, ast.Attribute) else "")
                if name[:1].isupper() and name not in errors:
                    found.append((child.lineno, ".".join(scope), name))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def test_foreign_raises_are_found():
    source = ("class Local(Exception):\n"
              "    pass\n"
              "def f(x):\n"
              "    if x:\n"
              "        raise ValueError(f'bad {x}')\n"
              "    raise ParseError('bad') from None\n"
              "class C:\n"
              "    def m(self):\n"
              "        raise TypeError\n"
              "def g(e):\n"
              "    try:\n"
              "        raise Local()\n"
              "    except Local:\n"
              "        raise\n"
              "    raise type(e)('again')\n"
              "def h():\n"
              "    raise _wrap(errors.Deeper('x'))\n"
              "def k():\n"
              "    raise errors.Other('x')\n"
              "raise KeyError('top')\n")
    assert foreign_raises(source, {"LatnashError", "ParseError", "Deeper"}) == [
        (5, "f", "ValueError"), (9, "C.m", "TypeError"), (12, "g", "Local"),
        (19, "k", "Other"), (20, "", "KeyError")]


def test_package_raises_only_latnash_errors():
    # the one exemption: Poset's guard against direct construction refuses
    # a wrong call of a private signature, a programming error that input
    # never reaches, so it stays the TypeError Python raises for wrong calls
    errors = error_classes((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    found = {path.name: [hit[1:] for hit in hits]
             for path in sorted(PACKAGE.glob("*.py"))
             if (hits := foreign_raises(path.read_text(encoding="utf-8"), errors))}
    assert found == {"order.py": [("Poset.__init__", "TypeError")]}


def scoped(source: str, match):
    """The nodes of the source that ``match`` holds for, as (line,
    enclosing function or class path) in source order."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, scope + (child.name,))
                continue
            if match(child):
                found.append((child.lineno, ".".join(scope)))
            walk(child, scope)

    walk(ast.parse(source), ())
    return found


def subset_walk_callers(source: str):
    """The calls of ``subset_scan``, by name or as a module attribute, as
    (line, enclosing function or class path)."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")) == "subset_scan"

    return scoped(source, calls)


def guarded_walk(source: str, door: str):
    """Whether the function ``door`` refuses (a ``raise``) and runs the
    pair scan (a ``pair_scan`` call) in statements before the one that
    calls ``subset_scan``."""
    fn = next(node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == door)
    seen = set()
    for stmt in fn.body:
        nodes = list(ast.walk(stmt))
        calls = {getattr(n.func, "attr", getattr(n.func, "id", ""))
                 for n in nodes if isinstance(n, ast.Call)}
        if "subset_scan" in calls:
            return {"raise", "pair_scan"} <= seen
        seen |= calls
        seen |= {"raise" for n in nodes if isinstance(n, ast.Raise)}
    return False


def test_subset_walk_callers_are_found():
    source = ("from latnash import _kernels\n"
              "from latnash._kernels import subset_scan\n"
              "def _subset_scan(P, m):\n"
              "    if m > 20:\n"
              "        raise ProductTooLarge('too many')\n"
              "    if _kernels.pair_scan(P._up, P._down, m, m) is None:\n"
              "        return 0\n"
              "    return _kernels.subset_scan(P._up, P._down, m)\n"
              "class C:\n"
              "    def planted(self, P):\n"
              "        return subset_scan(P._up, P._down, 1)\n"
              "def unguarded(P, m):\n"
              "    x = _kernels.subset_scan(P._up, P._down, m)\n"
              "    raise ProductTooLarge('late')\n")
    assert subset_walk_callers(source) == [(8, "_subset_scan"), (11, "C.planted"),
                                           (13, "unguarded")]
    assert guarded_walk(source, "_subset_scan")
    assert not guarded_walk(source, "unguarded")


def test_the_subset_walk_has_one_door():
    # the 2^|S| walk runs only from order._subset_scan, after its 2^20
    # refusal and the pair scan that certifies a passing set
    found = {path.name: hits
             for path in sorted(PACKAGE.glob("*.py"))
             if (hits := [scope for _, scope in
                          subset_walk_callers(path.read_text(encoding="utf-8"))])}
    assert found == {"order.py": ["_subset_scan"]}
    assert guarded_walk((PACKAGE / "order.py").read_text(encoding="utf-8"), "_subset_scan")


GAME_TABLES = {"_columns", "_sections", "_masks", "_responses", "_space"}


def table_reads(source: str):
    """The reads of a game's tables (attributes named in ``GAME_TABLES``),
    as (line, attribute) in source order."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in GAME_TABLES)


def test_table_reads_are_found():
    source = ("def f(g, i):\n"
              "    return g._columns[i][0][5], g._keys\n"
              "masks = [m for m in game._masks[0]]\n"
              "_sections = 1\n"
              "top = g._responses[(0, 1)][0]\n"
              "S = g._space.poset\n")
    assert table_reads(source) == [(2, "_columns"), (3, "_masks"), (5, "_responses"),
                                   (6, "_space")]


def test_only_games_reads_a_games_tables():
    # the equilibrium layer asks games for masks and correspondences; the
    # section tables, columns, strategy masks, response store and shared
    # product space stay games' own layout, read by no other module
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py")) if path.name != "games.py"
             if (reads := table_reads(path.read_text(encoding="utf-8")))}
    assert found == {}


def mask_readers(source: str):
    """The reads of the strategy masks, a game's (an attribute ``_masks``)
    or its space's (``masks``), as (line, enclosing function or class
    path)."""
    return scoped(source, lambda node: (isinstance(node, ast.Attribute)
                                        and node.attr in ("_masks", "masks")))


def test_mask_readers_are_found():
    source = ("class Game:\n"
              "    def __init__(self, masks):\n"
              "        self._masks = masks\n"
              "def best(g, i):\n"
              "    return [m for m in g._masks[i]]\n"
              "top = game._masks\n"
              "_masks = 1\n"
              "def rows(space):\n"
              "    return space.masks, masks\n")
    assert mask_readers(source) == [(3, "Game.__init__"), (5, "best"), (6, ""), (9, "rows")]


def test_strategy_masks_are_read_only_to_build_the_tables_and_order_s():
    # a section entry holds its cylinders and its best own set, so the
    # per-strategy masks are read only where a space lays them out, where
    # the game builds its section tables and where the space builds S's
    # order rows, never to rebuild an entry's sets
    source = (PACKAGE / "games.py").read_text(encoding="utf-8")
    assert {scope for _, scope in mask_readers(source)} == {"Game.__init__", "_Space.__init__",
                                                           "_Space.poset"}


def poset_builders(source: str):
    """The calls of ``Poset``, by name or as a module attribute, as (line,
    enclosing function or class path)."""
    def calls(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return (f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")) == "Poset"

    return scoped(source, calls)


def test_poset_builders_are_found():
    source = ("from latnash import order\n"
              "class _Space:\n"
              "    def poset(self):\n"
              "        return Poset(self.elements, [], [], _trusted=True)\n"
              "def other(g):\n"
              "    return order.Poset((), (), ())\n"
              "isinstance(x, Poset)\n")
    assert poset_builders(source) == [(4, "_Space.poset"), (6, "other")]


def test_games_builds_s_order_in_one_place():
    # every S has a space, and S's poset, with its labels and order rows,
    # is built by the space alone
    source = (PACKAGE / "games.py").read_text(encoding="utf-8")
    assert [scope for _, scope in poset_builders(source)] == ["_Space.poset"]


def cached_properties(source: str):
    """The lines that name ``cached_property``, imported, read or as a
    module attribute."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found.update(node.lineno for a in node.names if a.name == "cached_property")
        elif ((isinstance(node, ast.Name) and node.id == "cached_property")
              or (isinstance(node, ast.Attribute) and node.attr == "cached_property")):
            found.add(node.lineno)
    return sorted(found)


def test_cached_properties_are_found():
    source = ("import functools\n"
              "from functools import cached_property as kept, reduce\n"
              "class C:\n"
              "    @functools.cached_property\n"
              "    def a(self):\n"
              "        return 1\n"
              "    @cached_property\n"
              "    def b(self):\n"
              "        return 2\n"
              "    note = 'not a cached_property'\n")
    assert cached_properties(source) == [2, 4, 7]


def test_no_module_uses_cached_property():
    # a cached_property takes a lock on its first read; every lazy field of
    # the package is an order._lazy, which takes none
    found = {path.name: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := cached_properties(path.read_text(encoding="utf-8")))}
    assert found == {}


def dict_reads(source: str):
    """The reads of an object's dict, an attribute ``__dict__`` or a call
    of ``vars``, as (line, enclosing function or class path)."""
    def reads(node):
        if isinstance(node, ast.Attribute):
            return node.attr == "__dict__"
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "vars")

    return scoped(source, reads)


def test_dict_reads_are_found():
    source = ("class _lazy:\n"
              "    def __get__(self, obj, owner=None):\n"
              "        obj.__dict__['x'] = 1\n"
              "def cached(g):\n"
              "    return g.__dict__.get('_kept')\n"
              "fields = vars(object)\n"
              "def keys(g):\n"
              "    return g.vars, variables(g)\n")
    assert dict_reads(source) == [(3, "_lazy.__get__"), (5, "cached"), (6, "")]


def test_only_the_lazy_field_reads_an_objects_dict():
    # a lazy field stores its value in its object's dict; any other
    # per-object fact is an attribute its constructor sets (a per-game
    # cache belongs in Game.__init__), since reading an object's dict makes
    # it a real dict, which slows every later attribute read
    found = {path.name: [scope for _, scope in hits]
             for path in sorted(PACKAGE.glob("*.py"))
             if (hits := dict_reads(path.read_text(encoding="utf-8")))}
    assert found == {"order.py": ["_lazy.__get__"]}


ORDER_MODES = {"exhaustive", "pairwise", "finite-equivalence"}
ORDER_VERDICTS = {"PASS_EXHAUSTIVE", "PASS_PAIRWISE"}


def order_verdicts(source: str):
    """The ``CheckResult`` calls given one of the order layer's modes
    (``ORDER_MODES``), by keyword or as the third argument, and the
    imports or attribute reads of its moded verdicts (``ORDER_VERDICTS``),
    as (line, mode or name) in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")) != "CheckResult":
                continue
            modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[2:3]
            found += [(node.lineno, m.value) for m in modes
                      if isinstance(m, ast.Constant) and m.value in ORDER_MODES]
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, a.name) for a in node.names if a.name in ORDER_VERDICTS]
        elif isinstance(node, ast.Attribute) and node.attr in ORDER_VERDICTS:
            found.append((node.lineno, node.attr))
    return sorted(found)


def test_order_verdicts_are_found():
    source = ("from latnash.order import PASS, PASS_EXHAUSTIVE, CheckResult\n"
              "a = CheckResult(True, mode='chain-case')\n"
              "b = CheckResult(False, witness=None, mode='finite-equivalence')\n"
              "c = order.CheckResult(False, (1,), 'pairwise')\n"
              "d = order.PASS_PAIRWISE\n"
              "e = CheckResult(True, note='exhaustive')\n")
    assert order_verdicts(source) == [(1, "PASS_EXHAUSTIVE"), (3, "finite-equivalence"),
                                      (4, "pairwise"), (5, "PASS_PAIRWISE")]


def test_only_order_words_how_its_verdicts_were_reached():
    # the exhaustive, pairwise and finite-equivalence verdicts, and the cap
    # that picks between them, are the order layer's own: every other
    # module asks order's checks and passes their results on as they are
    found = {path.name: hits
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "order.py"
             and (hits := order_verdicts(path.read_text(encoding="utf-8")))}
    assert found == {}


def process_caches(source: str):
    """The functions decorated with ``functools.cache`` or
    ``functools.lru_cache``, by name or as a module attribute, as (line,
    function, parameter count, bound): the ``maxsize`` the decorator is
    given, an int literal or a module-level name bound to one, and None
    when the cache is unbounded or keeps the default size."""
    tree = ast.parse(source)
    ints = {target.id: node.value.value for node in tree.body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for deco in node.decorator_list:
            f = deco.func if isinstance(deco, ast.Call) else deco
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")) not in (
                    "cache", "lru_cache"):
                continue
            bound = None
            if isinstance(deco, ast.Call):
                given = [k.value for k in deco.keywords if k.arg == "maxsize"] + deco.args[:1]
                if given and isinstance(given[0], ast.Constant) and type(given[0].value) is int:
                    bound = given[0].value
                elif given and isinstance(given[0], ast.Name):
                    bound = ints.get(given[0].id)
            args = node.args
            count = (len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
                     + (args.vararg is not None) + (args.kwarg is not None))
            found.append((node.lineno, node.name, count, bound))
    return found


def test_process_caches_are_found():
    source = ("import functools\n"
              "from functools import cache, cached_property, lru_cache\n"
              "_SIZE = 8\n"
              "@functools.cache\n"
              "def parser():\n"
              "    return 1\n"
              "@lru_cache(maxsize=_SIZE)\n"
              "def kept(a, b):\n"
              "    return a\n"
              "@functools.lru_cache(4)\n"
              "def four(a, *rest, k=1, **more):\n"
              "    return a\n"
              "@lru_cache(maxsize=None)\n"
              "def unbounded(a):\n"
              "    return a\n"
              "@lru_cache\n"
              "def default(a):\n"
              "    return a\n"
              "class C:\n"
              "    @cache\n"
              "    def method(self, x):\n"
              "        return x\n"
              "    @cached_property\n"
              "    def per_object(self):\n"
              "        return 1\n")
    assert process_caches(source) == [(5, "parser", 0, None), (8, "kept", 2, 8),
                                      (11, "four", 4, 4), (14, "unbounded", 1, None),
                                      (17, "default", 1, None), (21, "method", 2, None)]


def test_process_wide_caches_stay_on_an_allow_list():
    # a cache on a function lives as long as the process and is shared by
    # every caller, so the package keeps four: the CLI's argument parser,
    # which takes no arguments, and three stores of the loader and the
    # games, each bounded by an int: the shared payoff strings, strategy
    # lattices and strategy products; a per-object cached_property is no
    # such cache
    found = {path.name: [hit[1:] for hit in hits]
             for path in sorted(PACKAGE.glob("*.py"))
             if (hits := process_caches(path.read_text(encoding="utf-8")))}
    assert found == {"cli.py": [("build_parser", 0, None)],
                     "games.py": [("_stored_number", 1, 4096), ("_interned", 2, 16),
                                  ("_product_space", 1, 16)]}
