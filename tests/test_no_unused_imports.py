"""Every name a library module imports is used there, or re-exported through
its `__all__`; with no linter in the toolchain, this keeps dead imports out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "streamkm"


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((name, line) for name, line in imported.items() if name not in used)


def test_no_unused_imports_in_src():
    found = [
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for name, line in unused_imports(path.read_text())
    ]
    assert found == []


def test_detects_an_unused_import():
    source = (
        "import math\nimport numpy as np\nfrom .kmeans import a, b\n"
        "__all__ = ['b']\nnp.zeros(1)\n"
    )
    assert unused_imports(source) == [("a", 3), ("math", 1)]
