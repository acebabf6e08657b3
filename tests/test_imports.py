"""Every module uses the names it imports, the package or the benchmark
names every definition of ``src/pdmarl`` (package ``__init__`` aside), a
test names every reference oracle of ``tests/oracles.py``, only
``indexing`` turns digits into rows, and importing the command line loads
numpy's random module but not scipy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "pdmarl").glob("*.py")
             if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))
FILES = SRC + TESTS
ORACLES = ROOT / "tests" / "oracles.py"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def definitions(source):
    """(qualified name, node) of the top-level functions and classes and of
    the methods other than dunders."""
    for top in ast.parse(source).body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name, top
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("__")):
                    yield f"{top.name}.{node.name}", node


def unreferenced(defining, referring):
    """The definitions of the ``defining`` sources whose name no ``Name`` or
    ``Attribute`` of the ``referring`` sources holds outside the definition
    itself."""
    refs = [(path, node.id if isinstance(node, ast.Name) else node.attr,
             node.lineno)
            for path, source in referring.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Name, ast.Attribute))]
    return sorted(
        qual for path, source in defining.items()
        for qual, node in definitions(source)
        if not any(name == qual.rsplit(".", 1)[-1] and not (
            p == path and node.lineno <= line <= node.end_lineno)
            for p, name, line in refs))


def test_scanner_flags_an_unused_name():
    src = "import os\nimport numpy as np\nfrom a.b import c, d\nnp.e(c)\n"
    assert unused_imports(src) == [(1, "os"), (3, "d")]


def test_scanner_flags_an_unreferenced_definition():
    src = ("def f():\n    return f()\n\nclass C:\n    def m(self):\n"
           "        pass\n\n    def __init__(self):\n        self.m2()\n\n"
           "    def m2(self):\n        pass\n")
    assert unreferenced({"a": src}, {"a": src}) == ["C", "C.m", "f"]
    assert unreferenced({"a": src}, {"a": src, "b": "f(C().m)"}) == []


def test_every_definition_has_a_caller():
    sources = {p: p.read_text() for p in SRC}
    bench = {p: p.read_text() for p in (ROOT / "perfbench").glob("*.py")}
    assert unreferenced(sources, {**sources, **bench}) == []


def test_every_reference_oracle_has_a_test():
    tests = {p: p.read_text() for p in TESTS}
    assert unreferenced({ORACLES: tests[ORACLES]}, tests) == []


def test_only_indexing_reads_radix_weights():
    # every other module takes its rows from ``indexing.weight_matrix``
    readers = [p.name for p in SRC if p.name != "indexing.py" and any(
        (node.id if isinstance(node, ast.Name) else node.attr)
        == "radix_weights" for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute)))]
    assert readers == []


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_cli_import_loads_numpy_random_and_no_scipy():
    # scipy.linalg alone adds about 28 MB of RSS to every run; numpy loads
    # numpy.random lazily, which would put that load in a run's timed set-up
    code = ("import json, sys, pdmarl.cli; print(json.dumps("
            "[m in sys.modules for m in ('scipy', 'numpy.random')]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == [False, True]
