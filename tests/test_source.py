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


def test_exactalg_does_not_import_fractions():
    # exactalg is integer-only; rational arithmetic must not grow back into it.
    tree = ast.parse((SRC / "exactalg.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert "fractions" not in imported
