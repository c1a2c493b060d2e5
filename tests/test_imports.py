"""Import hygiene: every name a galmckay module imports is used by it or
exported, every public definition is used inside the package or is an
entry point, and the command line runs without sympy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "galmckay"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_checker_finds_unused_and_honours_all():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import gcd, lcm as l\n"
              "from .x import exported\n"
              "__all__ = ['exported']\n"
              "print(sys.argv, l)\n")
    assert unused_imports(source) == [(2, "os"), (3, "gcd")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(tree):
    """(qualified name, defining node, is a class member) for each public
    top-level function and class, and each public method and __slots__
    field of those classes.  A field is defined by its whole class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                if not item.name.startswith("_"):
                    yield node.name + "." + item.name, item, True
            elif isinstance(item, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in item.targets):
                for field in ast.literal_eval(item.value):
                    if not field.startswith("_"):
                        yield node.name + "." + field, node, True


def unreferenced(sources):
    """Public definitions of {module: source} read nowhere outside their
    own definition, as "module.name".  References are matched by name: a
    read of the name counts for a function or class, and a read of an
    attribute of that name for a method or field."""
    trees = {m: ast.parse(src) for m, src in sources.items()}
    reads = {}   # name -> [(is an attribute read, module, line)]
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.id, []).append((False, module, n.lineno))
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                reads.setdefault(n.attr, []).append((True, module, n.lineno))
    out = []
    for module, tree in trees.items():
        for qualname, node, member in definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not any((attr or not member)
                       and not (m == module
                                and node.lineno <= line <= node.end_lineno)
                       for attr, m, line in reads.get(name, ())):
                out.append(module + "." + qualname)
    return sorted(out)


# entry points with no caller inside the package
ENTRY_POINTS = {
    "cli.main": "the console script and python -m galmckay",
    "cli.run": "main, the tests and bench/child.py drive the CLI through it",
    "galois.clifford_label": "bench/child.py's clifford workload; no CLI "
                             "command reaches it yet",
    **{"galois.McKayLabel." + field: "read by bench/child.py, which prints "
                                     "the labels of clifford_label"
       for field in ("s_row", "s_values", "orbit", "stabilizer_order",
                     "eta_index", "eta_degree")},
}


def test_reachability_checker_on_made_up_source():
    sources = {
        "a": ("class Box:\n"
              "    __slots__ = ('used', 'unused', '_private')\n"
              "    def __init__(self):\n"
              "        self.unused = self.used\n"
              "    def method(self):\n"
              "        return self.method()\n"
              "def helper():\n"
              "    return Box().used\n"
              "def orphan():\n"
              "    return helper()\n"
              "def _private():\n"
              "    pass\n"),
        "b": ("from . import a\n"
              "def tool():\n"
              "    return method()\n"
              "def method():\n"
              "    return a.helper\n"),
    }
    # Box.method only calls itself, and b's call of a function named
    # method is no attribute read; Box.used is read outside Box
    assert unreferenced(sources) == [
        "a.Box.method", "a.Box.unused", "a.orphan", "b.tool"]


def test_every_public_definition_is_reached():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert [d for d in unreferenced(sources) if d not in ENTRY_POINTS] == []


def test_cli_runs_without_sympy():
    """sympy is a test oracle only: a cold CLI process never imports it."""
    script = (
        "import contextlib, io, sys\n"
        "import galmckay.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.run(['verify', '--family', 'PSL2', '--f', '1',\n"
        "                    '--p', '7']) == 0\n"
        "    assert cli.run(['lemma32', '--f-min', '1', '--f-max', '3']) == 0\n"
        "assert 'sympy' not in sys.modules, 'sympy was imported'\n")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
