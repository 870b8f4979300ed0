"""Checks on the package source itself."""

import ast
from pathlib import Path

import dirichletj

SRC = Path(dirichletj.__file__).parent


def test_no_bare_assert_in_package():
    # `python -O` strips assert statements; every internal check must be a raise.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"bare assert statements: {found}"
