"""Every module of the package imports on its own, in a fresh interpreter.

The package root imports nothing, so a module that only worked because
another module had been imported first fails here, not in the first
script that imports it alone.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(p.stem for p in (SRC / "boostdet").glob("*.py") if p.name != "__init__.py")


def _run(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    run = _run(f"import boostdet.{module}")
    assert run.returncode == 0, run.stderr


def test_package_root_imports_no_module():
    run = _run("import sys, boostdet; "
               "print(sorted(m for m in sys.modules if m.startswith('boostdet.')))")
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
