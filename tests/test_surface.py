"""The package's public surface is what its callers use.

Every public top-level function or class of ``src/boostdet``, and every
public method (properties included), is referenced somewhere outside the
tests: in the package itself, in ``scripts/``, or in ``boostbench/`` other
than its own tests. A name an API offers only to its tests belongs in
``tests/conftest.py`` or ``tests/oracles.py``.

A reference is a name read, an attribute, an imported name or a string
constant equal to the name, so the benchmark tracer's ``(module, name)``
targets count. Matching is by bare name, not by what the name resolves
to, so it can miss a case: ``WindowStack.window`` passes because
``LabeledSample.window`` is a dataclass field that ``boosting`` reads.
``detector.iou`` has a caller of its own: ``synthetic.make_frame``
keeps planted targets apart with it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "boostdet").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "scripts").glob("*.py")) + [
    p for p in sorted((ROOT / "boostbench").glob("*.py")) if p.name != "test_boostbench.py"]

# module.name -> why it stays without a caller outside the tests
ALLOWED = {
    "evalkit.match_frame": "the per-frame matching API, kept beside the curves that batch it",
}


def public_names(source: str) -> list[str]:
    """Public top-level functions and classes, and ``Class.method`` for public methods."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef | ast.ClassDef) and not node.name.startswith("_"):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [f"{node.name}.{item.name}" for item in node.body
                      if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return names


def referenced_names(source: str) -> set[str]:
    """Every name, attribute, imported name and string constant ``source`` holds."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unreferenced(defined: list[str], references: set[str]) -> list[str]:
    return [name for name in defined if name.rpartition(".")[2] not in references]


def test_unreferenced_finds_names_only_their_definitions_hold():
    module = ("class Box:\n"
              "    def area(self): ...\n"
              "    def unused(self): ...\n"
              "    def _private(self): ...\n"
              "def traced(): ...\n"
              "def imported(): ...\n"
              "def documented(): ...\n"
              "def stranded(): ...\n"
              "def _helper(): ...\n")
    caller = ("'''A docstring naming documented() does not call it.'''\n"
              "from pkg import imported\n"
              "TARGETS = [('pkg', 'traced')]\n"
              "print(Box().area)\n")
    assert public_names(module) == ["Box", "Box.area", "Box.unused", "traced", "imported",
                                    "documented", "stranded"]
    assert unreferenced(public_names(module), referenced_names(caller)) == [
        "Box.unused", "documented", "stranded"]


def _package_unreferenced() -> list[str]:
    references = set().union(*(referenced_names(p.read_text(encoding="utf-8"))
                               for p in CALLERS))
    return [f"{path.stem}.{name}" for path in PACKAGE
            for name in unreferenced(public_names(path.read_text(encoding="utf-8")), references)]


def test_every_public_name_has_a_caller_outside_the_tests():
    unused = _package_unreferenced()
    assert [name for name in unused if name not in ALLOWED] == []
    # an entry whose name gained a caller, or left the package, is stale
    assert sorted(unused) == sorted(ALLOWED)
