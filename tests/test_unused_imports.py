"""No module of the package, and no script, imports a name it never uses,
or defines a private top-level name that it never reads; and each name a
module of the package imports from another is defined there, not passed on.

No linter ships with the test environment, so this is pyflakes' F401 for
top-level imports in a few lines of ``ast``. An alias on a line marked
``# noqa: F401`` is exempt (the benchmark tracer patches those names).
A private name (``_func``, ``_Class``, ``_CONST``) is one no other module
should import, so one its own module never reads is dead code, such as a
helper a refactor left behind.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "boostdet"
MODULES = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by a top-level import of ``source`` and never read."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, ast.Import | ast.ImportFrom):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names
                         if "# noqa: F401" not in lines[alias.lineno - 1]]
    # quoted annotations are not read: the package quotes only its own classes
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_finds_what_pyflakes_would():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import os.path\n"
              "import numpy as np\n"
              "from typing import Sequence, Union\n"
              "from .imaging import Rect, build_integral  # noqa: F401\n"
              "from .imaging import (\n"
              "    GrayImage,\n"
              "    WindowStack,  # noqa: F401\n"
              ")\n"
              "def f(x: Sequence[int]) -> Union[int, None]:\n"
              "    return np.sum(x)\n")
    assert unused_imports(source) == ["os", "os", "GrayImage"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> list[str]:
    """Names a top-level ``def``, ``class`` or assignment of ``source`` binds."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            bound.append(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return bound


def unread_private_names(source: str) -> list[str]:
    """Private names bound at the top level of ``source`` and never read there."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in defined_names(source)
            if name.startswith("_") and not name.startswith("__") and name not in read]


def test_unread_private_names_finds_stranded_helpers():
    source = ("_LIMIT = 3\n"
              "_A, (_B, c) = 1, (2, 3)\n"
              "_T: int = 0\n"
              "__all__ = []\n"
              "def _used(x):\n"
              "    return x + _LIMIT + _A\n"
              "def _stranded():\n"
              "    _local = 1\n"
              "    return _local\n"
              "class _Row:\n"
              "    pass\n"
              "def public():\n"
              "    return _used(1)\n")
    assert unread_private_names(source) == ["_B", "_T", "_stranded", "_Row"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_top_level_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_relative_imports_name_the_defining_module():
    # a name has one home: ``from .m import name`` only where m defines name
    defined = {path.stem: set(defined_names(path.read_text(encoding="utf-8")))
               for path in SRC.glob("*.py")}
    passed_on = [f"{path.name}: from .{node.module} import {alias.name}"
                 for path in sorted(SRC.glob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names if alias.name not in defined[node.module]]
    assert passed_on == []
