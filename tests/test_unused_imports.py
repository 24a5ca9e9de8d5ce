"""No module of the package, and no script, imports a name it never uses.

No linter ships with the test environment, so this is pyflakes' F401 for
top-level imports in a few lines of ``ast``. An alias on a line marked
``# noqa: F401`` is exempt (the benchmark tracer patches those names).
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
