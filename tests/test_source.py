"""Checks on the package source and its import graph."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "ellipsum"


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_runtime_assert(path):
    # `python -O` strips assert statements, so they cannot guard an invariant
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert on lines {lines}"


def test_cli_imports_numpy_only():
    # the package declares numpy as its only runtime dependency; the test
    # and benchmark tools must not leak into its import graph
    probe = "import sys, ellipsum.cli; print(sorted({'scipy', 'mpmath', 'hypothesis'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SOURCE.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"
