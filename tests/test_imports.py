"""Static checks on the package source: every module uses each name it
imports, every dataclass holding arrays compares them entry by entry, and
the formulas of the tensor checker, of morph and of cohom's cocycle
equations name every axis they contract."""

import ast
import inspect
import textwrap
from pathlib import Path

import numpy as np

import lie2alg
from lie2alg import cohom, dkcore, el2, morph

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level functions, classes and constants (one leading
    underscore, not a dunder) that no other top-level statement of any of
    the modules reads: as a name, as an attribute, or imported by name.  A
    function that only calls itself counts as unread."""
    defined, reads = [], []
    for source in sources.values():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)]
            else:
                names = []
            read = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
            defined += [(name, len(reads)) for name in names if name.startswith("_") and not name.startswith("__")]
            reads.append(read)
    return [name for name, at in defined if not any(name in r for i, r in enumerate(reads) if i != at)]


def test_unread_private_names_detected():
    sources = {
        "a.py": "_USED = 1\n_UNUSED = 2\ndef _recursive(n):\n    return _recursive(n - 1)\n"
                "class _Kept:\n    pass\ndef f():\n    return _USED, _Kept\n",
        "b.py": "from a import _imported\nimport a\nx = a._by_attribute\n",
        "c.py": "def _imported():\n    pass\n_by_attribute: int = 3\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["_UNUSED", "_recursive"]


def test_private_names_are_read():
    """No private helper, class or constant is left that nothing reads."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


# Operations that read tensor axes by position: on a stacked residue image,
# whose leading axis is the prime, each would take that axis for a tensor
# axis.  ``T`` is read as an attribute, the others are called.
POSITIONAL_AXIS_OPS = {"tensordot", "swapaxes", "moveaxis", "transpose", "dot",
                       "precompose", "postcompose", "contract", "plug", "T"}


def positional_axis_uses(fn) -> list[str]:
    """The positional-axis operations that ``fn`` uses, and those of the
    functions it calls by name, transitively."""
    found, seen, todo = [], set(), [fn]
    while todo:
        f = todo.pop()
        if f in seen:
            continue
        seen.add(f)
        for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(f)))):
            if isinstance(node, ast.Attribute) and node.attr in POSITIONAL_AXIS_OPS:
                found.append(f"{f.__name__}: {ast.unparse(node)}")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in POSITIONAL_AXIS_OPS:
                    found.append(f"{f.__name__}: {node.func.id}")
                callee = f.__globals__.get(node.func.id)
                if inspect.isfunction(callee):
                    todo.append(callee)
    return found


def _sample_helper(t):
    return t.swapaxes(1, 2)


def _sample_residual(e):
    from numpy import moveaxis
    return np.tensordot(e.b00, e.d, axes=1) + _sample_helper(e.alt) + e.jac.T + moveaxis(e.b01, 1, 2)


def test_positional_axis_uses_detected():
    assert sorted(positional_axis_uses(_sample_residual)) == [
        "_sample_helper: t.swapaxes", "_sample_residual: e.jac.T", "_sample_residual: moveaxis",
        "_sample_residual: np.tensordot",
    ]
    assert positional_axis_uses(el2._alternator_note) == ["_alternator_note: e.alt.swapaxes"]


def test_residual_formulas_name_every_axis():
    """The tensor checker's formulas evaluate stacked residue images, and
    morph's formulas and cohom's cocycle equations take a leading batch of
    cochains, so they use no operation that reads an axis by position."""
    formulas = [fn for _, fn in el2.EL2_EQUATIONS + el2.EL2_REDUNDANT_EQUATIONS]
    formulas += [dkcore.chain_b01, dkcore.chain_b10, dkcore.chain_derived]
    formulas += [morph._morphism_identities, morph._morphism_jacobiator, morph._2morphism_identities]
    formulas += [cohom._skeletal_view, cohom._coherence_residuals, cohom._coboundary_jacobiator]
    assert {fn.__module__ for fn in formulas} == {"lie2alg.el2", "lie2alg.dkcore", "lie2alg.morph", "lie2alg.cohom"}
    assert [use for fn in formulas for use in positional_axis_uses(fn)] == []
