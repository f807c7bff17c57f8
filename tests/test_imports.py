"""Every module-level import of the package and the tests is used, and
every public method of ``Hamiltonian`` is reached by the program."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "nlskam").glob("*.py")
     if p.name != "__init__.py"] + list((ROOT / "tests").glob("*.py")))


def unused_imports(source: str) -> list:
    """Names bound by the module-level imports of ``source`` that no
    expression of it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports(
        "from __future__ import annotations\nimport itertools\n"
        "import math as m\nfrom os import path, sep\nx = m.pi + len(sep)\n"
    ) == ["itertools", "path"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreached_methods(source: str, cls: str, program: list) -> list:
    """Public methods of class ``cls`` in ``source`` whose name no
    attribute read in the ``program`` sources takes, outside the method's
    own def."""
    tree = ast.parse(source)
    (node,) = [n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == cls]
    methods = [n for n in node.body if isinstance(n, ast.FunctionDef)
               and not n.name.startswith("_")]

    def reads(*trees):
        return Counter(n.attr for t in trees for n in ast.walk(t)
                       if isinstance(n, ast.Attribute)
                       and isinstance(n.ctx, ast.Load))

    total = reads(*(ast.parse(text) for text in program))
    return [m.name for m in methods if total[m.name] == reads(m)[m.name]]


def test_the_check_finds_an_unreached_method():
    lib = ("class H:\n"
           "    def used(self): pass\n"
           "    def unused(self): pass\n"
           "    def recursive(self): return self.recursive()\n"
           "    def _private(self): pass\n"
           "    def __len__(self): return 0\n"
           "class Other:\n"
           "    def unused_too(self): pass\n")
    caller = "def f(h): return h.used(), h.unused_too\n"
    assert unreached_methods(lib, "H", [lib, caller]) == [
        "unused", "recursive"]


def test_every_hamiltonian_method_is_reached_by_the_program():
    program = [p.read_text() for p in sorted(
        list((ROOT / "src" / "nlskam").glob("*.py"))
        + list((ROOT / "perfbench").glob("*.py")))]
    source = (ROOT / "src" / "nlskam" / "hamiltonian.py").read_text()
    assert unreached_methods(source, "Hamiltonian", program) == []
