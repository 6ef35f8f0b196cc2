"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import lie2alg

PACKAGE = Path(lie2alg.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression reads.  A dotted
    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_detected():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c as d\nx = np.zeros(d)\n"
    assert unused_imports(source) == ["os", "b"]


def test_modules_use_their_imports():
    found = {
        path.name: unused
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
