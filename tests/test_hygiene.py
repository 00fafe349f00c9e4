"""Source hygiene: no module imports a name that it never uses, the
library defines no function, class, method or property that only tests
call, no module-level constant that no library module reads, and no
defaulted parameter that only tests set, no class writes or
reads itself by hand, README.md and the docstrings name in backticks no
xaibench module, class or attribute that does not exist, only
``training.fit_pool`` imports a process pool, and importing the library
loads no scipy module (scipy is a test-only dependency) and no
multiprocessing module.

No linter ships with the project, so these walk the syntax tree of each
module.  The import check covers src/, tests/ and bench/; an import whose
first line carries ``# noqa: F401`` is a deliberate re-export and is
skipped.  The definition and serializer checks cover src/xaibench; the
parameter check takes its definitions from src/xaibench and its calls from
src/xaibench and bench/.
"""

import ast
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import xaibench

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Definitions that no src/xaibench module reads, kept on purpose; a method or
# property is named ``Class.name``.
UNREAD_ALLOWED = {
    "brute_force_shapley": "the definition-level oracle kernel SHAP is tested against",
    "DecisionTreeClassifier.features_used": "acceptance criterion 08 asserts that cart "
                                            "never splits on the noise feature",
}


def unused_imports(source: str) -> list:
    """(line, name) for each name an import binds and the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append((node.lineno, name))
    return sorted(unused)


def test_checker_flags_only_unread_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads\n"
              "from csv import (  # noqa: F401\n"
              "    reader,\n"
              ")\n"
              "def f():\n"
              "    from math import pi, tau\n"
              "    return os.path.join(np.__name__, dumps(pi))\n")
    assert unused_imports(source) == [(4, "loads"), (9, "tau")]


def test_no_unused_imports():
    found = []
    for folder in ("src", "tests", "bench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert found == []


def unread_definitions(sources: dict) -> list:
    """(module, name) for each module-level function, class or non-dunder
    name bound by a module-level assignment, and each non-dunder method or
    property of a module-level class (``Class.name``), that no module of
    ``sources`` (module -> source) reads, bare or as an attribute."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read:
                unread.append((mod, node.name))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                unread.extend((mod, name.id) for target in targets for name in ast.walk(target)
                              if isinstance(name, ast.Name) and not name.id.startswith("__")
                              and name.id not in read)
            if isinstance(node, ast.ClassDef):
                unread.extend((mod, f"{node.name}.{item.name}") for item in node.body
                              if isinstance(item, ast.FunctionDef)
                              and not item.name.startswith("__") and item.name not in read)
    return sorted(unread)


def test_definition_checker_flags_only_unread_names():
    sources = {"a": ("def used():\n    pass\n"
                     "def helper():\n    return used()\n"
                     "def stored_only():\n    pass\n"
                     "class Unread:\n    def used(self):\n        pass\n"
                     "class Kept:\n    def __init__(self):\n        pass\n"
                     "    def read(self):\n        pass\n"
                     "    @property\n    def unread(self):\n        pass\n"
                     "__version__ = '1'\nLIMIT = 3\n_SPARE: int = 4\nLOW, _HIGH = 0, 1\n"),
               "b": ("import a\nstored_only = a.helper()\na.Kept().read()\n"
                     "print(a.LIMIT, a.LOW)\n")}
    assert unread_definitions(sources) == [("a", "Kept.unread"), ("a", "Unread"), ("a", "_HIGH"),
                                           ("a", "_SPARE"), ("a", "stored_only"),
                                           ("b", "stored_only")]


def test_no_definition_only_tests_call():
    package = ROOT / "src" / "xaibench"
    sources = {str(path.relative_to(package)): path.read_text(encoding="utf-8")
               for path in sorted(package.rglob("*.py"))}
    assert sorted(name for _, name in unread_definitions(sources)) == sorted(UNREAD_ALLOWED)


# Defaulted parameters that no call in src/xaibench or bench/ sets, kept on
# purpose; a method's is named ``Class.method.parameter``.
UNSET_ALLOWED = {
    "shapley_values.exact": "acceptance criterion 03 compares exact and sampled kernel SHAP "
                            "on one model",
    "fit_3pl.max_outer": "tests cap the EM loop to check a fit that stops early",
}


def _callees(func, tables: dict) -> list:
    """Names a call's ``func`` may reach: a name, an attribute, or each
    function of a dict of functions that the call indexes."""
    if isinstance(func, ast.Name):
        return [func.id]
    if isinstance(func, ast.Attribute):
        return [func.attr]
    if isinstance(func, ast.Subscript) and isinstance(func.value, ast.Name):
        return tables.get(func.value.id, [])
    return []


def unset_parameters(sources: dict) -> list:
    """``function.parameter`` (``Class.method.parameter`` for a method) for
    each defaulted parameter of a function in a ``src/`` module of
    ``sources`` (path -> source) that no call in any module of ``sources``
    sets, by keyword or by position.  Calls resolve by name, so a call sets
    the parameter in every function of that name; a call through a dict of
    functions counts for each of its functions, ``functools.partial(f, ...)``
    counts as a call of f, and a ``*`` or ``**`` argument sets every
    parameter it could reach."""
    trees = {path: ast.parse(src) for path, src in sources.items()}
    defined = {}  # name -> [(qualified name, positional parameters, defaulted ones)]
    for path, tree in trees.items():
        if not path.startswith("src/"):
            continue
        methods = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body if isinstance(item, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = methods.get(id(fn))
            bound = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args][bound:]
            defaulted = positional[len(positional) - len(fn.args.defaults):] + [
                a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
            qualified = f"{owner}.{fn.name}" if owner else fn.name
            defined.setdefault(fn.name, []).append((qualified, positional, defaulted))
    tables = {target.id: [v.id if isinstance(v, ast.Name) else v.attr for v in node.value.values]
              for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and node.value.values
              and all(isinstance(v, (ast.Name, ast.Attribute)) for v in node.value.values)
              for target in node.targets if isinstance(target, ast.Name)}
    passed = set()
    for tree in trees.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func, args = call.func, call.args
            if "partial" in _callees(func, tables) and args:
                func, args = args[0], args[1:]
            starred = any(isinstance(a, ast.Starred) for a in args)
            keywords = {kw.arg for kw in call.keywords}
            for name in _callees(func, tables):
                for qualified, positional, defaulted in defined.get(name, []):
                    for i, param in enumerate(positional):
                        if i < len(args) or starred or None in keywords:
                            passed.add((qualified, param))
                    passed.update((qualified, kw) for kw in keywords)
                    if None in keywords:
                        passed.update((qualified, p) for p in defaulted)
    return sorted(f"{qualified}.{param}" for entries in defined.values()
                  for qualified, _, defaulted in entries for param in defaulted
                  if (qualified, param) not in passed)


def test_parameter_checker_flags_only_unset_defaults():
    sources = {"src/a.py": ("import functools\n"
                            "def f(x, y=1, *, z=2):\n    pass\n"
                            "def g(x, y=1, z=2):\n    pass\n"
                            "def h(x, y=1):\n    pass\n"
                            "def k(x, y=1):\n    pass\n"
                            "def never(x=0):\n    pass\n"
                            "class C:\n"
                            "    def m(self, a, b=0):\n        pass\n"
                            "    def n(self, a=0):\n        pass\n"
                            "def run():\n"
                            "    table = {'h': h, 'k': k}\n"
                            "    f(0, z=3)\n"
                            "    table['h'](0, 1)\n"
                            "    C().m(1, 2)\n"
                            "    C().n()\n"
                            "    return functools.partial(g, z=1)\n"),
               "bench/b.py": "import a\na.g(0, 5)\ndef local(q=1):\n    pass\n"}
    assert unset_parameters(sources) == ["C.n.a", "f.y", "never.x"]


def test_no_parameter_only_tests_set():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
               for folder in ("src/xaibench", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    assert unset_parameters(sources) == sorted(UNSET_ALLOWED)


def test_no_hand_written_serializer():
    """Every persisted record goes through ``data.to_record`` and
    ``from_record``: no class defines its own ``to_dict`` or ``from_dict``,
    no module-level function is a ``*_to_dict`` or ``*_from_dict``, and only
    ``pipeline._write_json`` (the stage artifacts) and
    ``report.write_report`` (report.json) call ``json.dump``."""
    dump_allowed = {("pipeline.py", "_write_json"), ("report.py", "write_report")}
    found = []
    for path in sorted((ROOT / "src" / "xaibench").rglob("*.py")):
        name = path.relative_to(ROOT)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                found += [f"{name}: {node.name}.{item.name}"
                          for item in node.body if isinstance(item, ast.FunctionDef)
                          and item.name in ("to_dict", "from_dict")]
        for node in tree.body:
            owner = node.name if isinstance(node, ast.FunctionDef) else None
            if owner and owner.endswith(("_to_dict", "_from_dict")):
                found.append(f"{name}: {owner}")
            found += [f"{name}:{dump.lineno}: json.dump"
                      for dump in ast.walk(node) if isinstance(dump, ast.Attribute)
                      and dump.attr == "dump" and isinstance(dump.value, ast.Name)
                      and dump.value.id == "json" and (path.name, owner) not in dump_allowed]
    assert found == []


# Last parts that make a dotted name a file name (``report.json``), not code.
FILE_SUFFIXES = {"cfg", "csv", "json", "md", "py", "svg", "toml", "txt"}


def backticked_names(text: str) -> list:
    """The dotted names that ``text`` puts in backticks, single or double,
    each span read up to a call's argument list (``knn._plan(ids)`` is
    ``knn._plan``).  Fenced code blocks and file names are skipped."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    names = []
    for double, single in re.findall(r"``(.+?)``|`([^`]+)`", text):
        span = re.fullmatch(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?",
                            (double or single).strip(), flags=re.S)
        if span and span.group(1).rsplit(".", 1)[1] not in FILE_SUFFIXES:
            names.append(span.group(1))
    return names


def xaibench_roots() -> dict:
    """First parts a dotted name may start with: ``xaibench``, each module's
    last name (``knn``, ``training``) and each class a module defines."""
    roots = {"xaibench": xaibench}
    for info in pkgutil.walk_packages(xaibench.__path__, "xaibench."):
        module = importlib.import_module(info.name)
        roots[info.name.rsplit(".", 1)[1]] = module
        roots.update((name, obj) for name, obj in vars(module).items() if isinstance(obj, type)
                     and obj.__module__ == module.__name__)
    return roots


def unresolved_names(names, roots: dict) -> list:
    """Each name whose first part is a key of ``roots`` and whose other parts
    do not resolve, attribute by attribute; a dataclass field resolves."""
    unresolved = []
    for name in names:
        first, *rest = name.split(".")
        if first not in roots:
            continue
        obj = roots[first]
        for part in rest:
            if part in getattr(obj, "__dataclass_fields__", {}):
                break  # a field: nothing to resolve past an instance attribute
            if not hasattr(obj, part):
                unresolved.append(name)
                break
            obj = getattr(obj, part)
    return unresolved


def test_docs_checker_flags_only_stale_xaibench_names():
    sample = ("Blends go through `TrainedModel.predict_blends(values,\n ids)` and "
              "``knn._plan``, not ``TrainedModel.predict_gone``; see `report.json`, "
              "`np.argsort`, `RunConfig.fractions`, `xaibench.models.knn._sum_order`, "
              "`data.no_such`, `self.x` and `knn` alone.\n"
              "```python\nx = `data.gone`\n```\n")
    names = backticked_names(sample)
    assert names == ["TrainedModel.predict_blends", "knn._plan", "TrainedModel.predict_gone",
                     "np.argsort", "RunConfig.fractions", "xaibench.models.knn._sum_order",
                     "data.no_such", "self.x"]
    assert unresolved_names(names, xaibench_roots()) == ["TrainedModel.predict_gone",
                                                         "data.no_such"]


def test_docs_name_only_what_exists():
    """README.md and every docstring under src/xaibench name, in backticks,
    only xaibench modules, classes and attributes that exist."""
    roots = xaibench_roots()
    found = [f"README.md: {name}" for name in
             unresolved_names(backticked_names((ROOT / "README.md").read_text("utf-8")), roots)]
    for path in sorted((ROOT / "src" / "xaibench").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                doc = ast.get_docstring(node) or ""
                found += [f"{path.relative_to(ROOT)}: {name}"
                          for name in unresolved_names(backticked_names(doc), roots)]
    assert found == []


# The one function that may import a process pool, so there is one pool path
# and a run that needs no pool pays no import time for one.
POOL_FUNCTION = ("models/training.py", "fit_pool")


def _imported_modules(node) -> list:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module and not node.level:
        return [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
    return []


def pool_imports(sources: dict) -> list:
    """``module:line`` for each import of ``multiprocessing`` or
    ``concurrent.futures`` (a submodule included) in ``sources`` (module ->
    source) outside the function ``POOL_FUNCTION`` names, module level
    included."""
    found = []

    def visit(mod, node, inside):
        for child in ast.iter_child_nodes(node):
            if any(name.split(".")[0] == "multiprocessing"
                   or name.startswith("concurrent.futures")
                   for name in _imported_modules(child)) and not inside:
                found.append(f"{mod}:{child.lineno}")
            visit(mod, child, inside or (isinstance(child, ast.FunctionDef)
                                         and (mod, child.name) == POOL_FUNCTION))

    for mod, source in sources.items():
        visit(mod, ast.parse(source), False)
    return found


def test_pool_import_checker_flags_every_other_import():
    pool_module, pool_function = POOL_FUNCTION
    sources = {pool_module: ("import os\n"
                             f"def {pool_function}():\n"
                             "    import multiprocessing\n"
                             "    def fit():\n"
                             "        from multiprocessing import pool\n"
                             "def other():\n"
                             "    import multiprocessing.pool\n"),
               "a.py": ("import multiprocessing as mp\n"
                        "from concurrent.futures import ProcessPoolExecutor\n"
                        "from concurrent import futures\n"
                        "import concurrent\n"
                        f"def {pool_function}():\n"
                        "    import multiprocessing\n")}
    assert pool_imports(sources) == [f"{pool_module}:7", "a.py:1", "a.py:2", "a.py:3",
                                     "a.py:6"]


def test_one_function_imports_a_process_pool():
    """Only ``training.fit_pool`` imports ``multiprocessing`` or
    ``concurrent.futures``, so ``import xaibench.cli`` loads neither."""
    package = ROOT / "src" / "xaibench"
    sources = {str(path.relative_to(package)): path.read_text(encoding="utf-8")
               for path in sorted(package.rglob("*.py"))}
    assert pool_imports(sources) == []
    assert "multiprocessing" in sources[POOL_FUNCTION[0]]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import xaibench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing' "
            "or m.startswith('concurrent.futures')))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_imports_no_scipy():
    """``import xaibench.cli`` imports every module a run uses, and none of
    them may pull in scipy; a fresh interpreter keeps the test's own scipy
    imports out of the count."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import xaibench.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
