"""Static checks on the package source: every module uses each name it
imports, and every dataclass holding arrays compares them entry by entry."""

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


def array_dataclasses_with_generated_eq(source: str) -> list[str]:
    """Dataclasses with a field annotated with ``np.ndarray`` whose equality
    is the generated one, which compares arrays with ``==`` and raises on
    any array of more than one entry: those that neither derive from
    ``TensorRecord`` (structural equality) nor declare ``eq=False``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        decorator = next((d for d in node.decorator_list if ast.unparse(d).startswith("dataclass")), None)
        if decorator is None:
            continue
        eq_false = isinstance(decorator, ast.Call) and any(
            k.arg == "eq" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in decorator.keywords
        )
        record = any(ast.unparse(base).endswith("TensorRecord") for base in node.bases)
        arrays = any(
            isinstance(stmt, ast.AnnAssign) and "np.ndarray" in ast.unparse(stmt.annotation)
            for stmt in node.body
        )
        if arrays and not (record or eq_false):
            found.append(node.name)
    return found


def test_array_dataclasses_detected():
    source = (
        "@dataclass(frozen=True)\nclass A:\n    t: np.ndarray\n"
        "@dataclass(frozen=True, eq=False)\nclass B:\n    t: np.ndarray\n"
        "@dataclass(frozen=True, eq=False)\nclass C(TensorRecord):\n    t: dict[int, np.ndarray]\n"
        "@dataclass\nclass D:\n    t: Optional[np.ndarray]\n"
        "@dataclass(frozen=True)\nclass E:\n    n: int\n"
    )
    assert array_dataclasses_with_generated_eq(source) == ["A", "D"]


def test_array_dataclasses_compare_structurally():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := array_dataclasses_with_generated_eq(path.read_text(encoding="utf-8")))
    }
    assert found == {}
