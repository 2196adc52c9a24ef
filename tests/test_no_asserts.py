"""The library checks its invariants with raised errors, never with `assert`
statements, so every check still runs under `python -O`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "streamkm"


def test_no_assert_statements_in_src():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
