"""Import hygiene: every name a galmckay module imports is used by it or
exported, and the command line runs without sympy."""

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
