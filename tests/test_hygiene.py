"""Source hygiene: no module imports a name that it never uses.

No linter ships with the project, so this walks the syntax tree of every
module under src/, tests/ and bench/.  An import whose first line carries
``# noqa: F401`` is a deliberate re-export and is skipped.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


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
