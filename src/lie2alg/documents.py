"""Structured text documents for every domain object.

Documents are JSON with three top-level keys::

    {"kind": "...", "metadata": {"name": ..., "description": ...}, "payload": {...}}

Scalars are exact rationals serialized as bare integers or "p/q" strings;
floats are rejected, as are integer literals and string parts longer than
``exactla.MAX_LITERAL_DIGITS`` digits.  Arrays carry an explicit "shape" and a
flat "entries" list in row-major (lexicographic) index order.  Serialization
is canonical - sorted keys, two-space indent, trailing newline - so
parse . serialize is the identity and serialize . parse is the identity on
canonical text.

A record kind's payload keys are its constructor's fields, declared once
on the type (a :class:`exactla.TensorRecord`): :data:`KINDS` maps each kind
to its type, and one codec encodes a record field by field and decodes its
nested records and dimensions first, then each tensor against the shape
``shapes()`` reads off them.  Only ``graded_l3`` keeps its own layout:
degree-string keys, its bracket table grouped by arity under ``l1``, ``l2``
and ``l3``.

A complex may be at most :data:`MAX_COMPLEX_DIM` dimensional in each
degree, even when its tensors are empty and so cost nothing to write, and
so may a graded algebra in degrees -2, -1 and 0, from which the symmetry
constructions build their complexes; its other degrees may be at most
:data:`MAX_GRADED_DIM` dimensional.  A Lie algebra, Leibniz algebra or
module is refused before its tensors are decoded when its axiom check
would take more than :data:`MAX_VALIDATION_WORK` multiply-adds.

Parse errors report the JSON path of the offending value.  Structural axiom
violations (a Lie algebra document failing the Jacobi identity, say) surface
as the constructor's own error, not as a parse error.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np

from . import exactla as xla
from .cohom import CocyclePair
from .defo import GradedL3Algebra
from .dkcore import TwoTermComplex
from .el2 import EL2Algebra, LeibnizAlgebraFD, LieAlgebraFD, RepresentationFD
from .exactla import TensorRecord
from .morph import ELMorphism, ELTwoMorphism


# The widest degree of a complex a document may declare: a check builds
# residuals of n0**4 * n1 entries (coh.bracket-jacobiator) and n1**3
# (chain.derived), so at most 16**5.
MAX_COMPLEX_DIM = 16

# The widest degree of a graded algebra outside -2, -1 and 0: ``mc`` and
# ``inner-sym`` build dense arrays of dim(1) and dim(1) * dim(0) entries,
# at the cap about 40 MB and 200 MB (dim(0) = 16) at peak.
MAX_GRADED_DIM = 2**19

# The most entries the cocycle matrix of an algebra and module may have
# (``cohom.cocycle_matrix_shape``), which ``cohomology`` assembles densely
# before it eliminates: sl3 with the trivial module (5632 x 576) fits.
MAX_COCYCLE_ENTRIES = 2**22

# The most work (residual entries times contraction length) the axiom check
# of a parsed record may take: n**5 for a Lie or Leibniz algebra of
# dimension n (the Jacobi or Leibniz residual), n**2 * m**2 * (n + m) for a
# module of dimension m over one of dimension n.  Dimension 24, and sl2
# with a 48-dimensional module, fit.
MAX_VALIDATION_WORK = 2**23


class ParseError(ValueError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True, eq=False)
class MCProblem(TensorRecord):
    """A graded algebra together with a degree-1 element to test or twist by."""

    graded: GradedL3Algebra
    gamma: np.ndarray

    def shapes(self):
        return {"gamma": (self.graded.dim(1),)}


@dataclass(frozen=True)
class ParsedDocument:
    kind: str
    metadata: dict
    obj: Any


@dataclass(frozen=True, eq=False)
class _CocycleDocument(TensorRecord):
    """A cocycle pair with the representation it lives over."""

    representation: RepresentationFD
    s: np.ndarray
    j: np.ndarray

    def shapes(self):
        m, n = self.representation.dim, self.representation.algebra.dim
        return {"s": (m, n, n), "j": (m, n, n, n)}

    @property
    def pair(self) -> CocyclePair:
        return CocyclePair(self.s, self.j)


def cocycle_document(module: RepresentationFD, pair: CocyclePair) -> _CocycleDocument:
    return _CocycleDocument(module, pair.s, pair.j)


KINDS = {
    "complex": TwoTermComplex,
    "el2": EL2Algebra,
    "morphism": ELMorphism,
    "two_morphism": ELTwoMorphism,
    "lie_algebra": LieAlgebraFD,
    "leibniz_algebra": LeibnizAlgebraFD,
    "representation": RepresentationFD,
    "cocycle_pair": _CocycleDocument,
    "graded_l3": GradedL3Algebra,
    "mc_problem": MCProblem,
}

_KIND_OF = {cls: kind for kind, cls in KINDS.items()}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, type], ...]:
    """A record's fields and their resolved types, in declaration order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _enc_scalar(q) -> Any:
    q = xla.rat(q)
    return q.numerator if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _enc_array(a: np.ndarray) -> dict:
    a = np.asarray(a)
    return {
        "shape": list(a.shape),
        "entries": [_enc_scalar(x) for x in a.reshape(-1)],
    }


def _enc_graded(L: GradedL3Algebra) -> dict:
    """Degree-string keys, the brackets grouped by arity under l1, l2, l3."""
    payload = {"dims": {str(k): v for k, v in sorted(L.dims.items())}}
    for arity in (1, 2, 3):
        payload[f"l{arity}"] = {
            ",".join(map(str, degs)): _enc_array(v)
            for degs, v in sorted(L.brackets.items()) if len(degs) == arity
        }
    return payload


def _enc_value(v: Any) -> Any:
    """A record's payload has one key per field, nested records as objects."""
    if isinstance(v, np.ndarray):
        return _enc_array(v)
    if isinstance(v, TensorRecord):
        return {name: _enc_value(getattr(v, name)) for name, _ in _fields(type(v))}
    if isinstance(v, GradedL3Algebra):
        return _enc_graded(v)
    return v


def to_payload(obj: Any) -> tuple[str, dict]:
    kind = _KIND_OF.get(type(obj))
    if kind is None:
        raise ParseError(f"cannot serialize object of type {type(obj).__name__}")
    return kind, _enc_value(obj)


def serialize(obj: Any, name: str = "", description: str = "") -> str:
    kind, payload = to_payload(obj)
    doc = {"kind": kind, "metadata": {"name": name, "description": description}, "payload": payload}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def _expect(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise ParseError(message, path)


def _dec_scalar(v: Any, path: str):
    if isinstance(v, bool) or isinstance(v, float):
        raise ParseError(f"scalar must be an exact rational, got {v!r}", path)
    if isinstance(v, int):
        return xla.rat(v)
    if isinstance(v, str):
        try:
            return xla.rat(v)
        except xla.ShapeError as exc:
            raise ParseError(str(exc), path) from exc
    raise ParseError(f"scalar must be an integer or 'p/q' string, got {v!r}", path)


def _dec_array(v: Any, path: str, expect_shape: tuple[int, ...]) -> np.ndarray:
    _expect(isinstance(v, dict), "array must be an object with 'shape' and 'entries'", path)
    _expect("shape" in v and "entries" in v, "array needs 'shape' and 'entries'", path)
    shape = v["shape"]
    _expect(
        isinstance(shape, list) and all(type(s) is int and s >= 0 for s in shape),  # bool is an int
        "shape must be a list of non-negative integers",
        path + ".shape",
    )
    entries = v["entries"]
    _expect(isinstance(entries, list), "entries must be a list", path + ".entries")
    size = 1
    for s in shape:
        size *= s
    _expect(
        len(entries) == size,
        f"expected {size} entries for shape {shape}, got {len(entries)}",
        path + ".entries",
    )
    data = [
        _dec_scalar(x, f"{path}.entries[{i}]") for i, x in enumerate(entries)
    ]
    _expect(tuple(shape) == tuple(expect_shape), f"expected shape {tuple(expect_shape)}, got {tuple(shape)}", path)
    return xla.tensor(shape, data)


def _dec_int(v: Any, path: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 0, "expected a non-negative integer", path)
    return v


def _dec_degree_key(k: str, arity: int, path: str) -> tuple[int, ...]:
    parts = k.split(",")
    _expect(len(parts) == arity, f"key {k!r} must have {arity} comma-separated degrees", path)
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ParseError(f"bad degree key {k!r}", path) from exc


def _dec_graded(v: Any, path: str) -> GradedL3Algebra:
    _expect(isinstance(v, dict), "payload must be an object", path)
    dims_raw = v.get("dims")
    _expect(isinstance(dims_raw, dict), "dims must be an object", path + ".dims")
    dims = {}
    for k, d in dims_raw.items():
        try:
            deg = int(k)
        except ValueError as exc:
            raise ParseError(f"bad degree {k!r}", path + ".dims") from exc
        dims[deg] = _dec_int(d, f"{path}.dims.{k}")
        cap = MAX_COMPLEX_DIM if deg in (-2, -1, 0) else MAX_GRADED_DIM
        _expect(dims[deg] <= cap, f"dimension {dims[deg]} exceeds {cap}", f"{path}.dims.{k}")
    tmp = GradedL3Algebra(dims=dims)
    brackets = {}
    for arity, name in enumerate(("l1", "l2", "l3"), 1):
        raw = v.get(name) or {}
        _expect(isinstance(raw, dict), f"{name} must be an object", f"{path}.{name}")
        for k, arr in raw.items():
            degs = _dec_degree_key(k, arity, f"{path}.{name}")
            brackets[degs] = _dec_array(arr, f"{path}.{name}.{k}", tmp.shape(*degs))
    return GradedL3Algebra(dims, brackets)


def _dec_value(cls: type, v: Any, path: str) -> Any:
    """Decode a value of type ``cls``.  A record decodes its nested records
    and dimensions first, reads the shapes of its tensors off them and then
    decodes each tensor against its shape."""
    if cls is int:
        return _dec_int(v, path)
    if cls is GradedL3Algebra:
        return _dec_graded(v, path)
    _expect(isinstance(v, dict), "payload must be an object", path)
    values = {
        name: _dec_value(typ, v.get(name), f"{path}.{name}")
        for name, typ in _fields(cls) if typ is not np.ndarray
    }
    if cls is TwoTermComplex:
        for name in ("n0", "n1"):
            _expect(values[name] <= MAX_COMPLEX_DIM, f"dimension {values[name]} exceeds {MAX_COMPLEX_DIM}",
                    f"{path}.{name}")
    work = _validation_work(cls, values)
    if work > MAX_VALIDATION_WORK:
        raise ParseError(f"validating dimension {values['dim']} takes {work} multiply-adds, "
                         f"more than {MAX_VALIDATION_WORK}", f"{path}.dim")
    shapes = cls.shapes(SimpleNamespace(**values))
    for name, want in shapes.items():
        values[name] = _dec_array(v.get(name), f"{path}.{name}", want)
    return cls(**values)


def _validation_work(cls: type, values: dict) -> int:
    """Residual entries times contraction length of the axiom check a
    record of type ``cls`` runs on construction; 0 for the types whose
    construction checks no axiom at that cost.  The nested algebra of a
    module is bounded by its own decoding."""
    if cls in (LieAlgebraFD, LeibnizAlgebraFD):
        return values["dim"] ** 5
    if cls is RepresentationFD:
        n, m = values["algebra"].dim, values["dim"]
        return n**2 * m**2 * (n + m)
    return 0


def from_payload(kind: str, payload: Any, path: str = "$.payload") -> Any:
    cls = KINDS.get(kind)
    if cls is None:
        raise ParseError(f"unknown kind {kind!r}", "$.kind")
    return _dec_value(cls, payload, path)


def _int_literal(text: str) -> Any:
    """JSON integer hook: a literal longer than the digit cap stays text, which
    the value holding it rejects with its JSON path."""
    return int(text) if len(text.lstrip("-")) <= xla.MAX_LITERAL_DIGITS else text


def parse(text: str) -> ParsedDocument:
    try:
        doc = json.loads(text, parse_int=_int_literal)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    _expect(isinstance(doc, dict), "document must be a JSON object", "$")
    kind = doc.get("kind")
    _expect(isinstance(kind, str) and kind in KINDS, f"kind must be one of {tuple(KINDS)}", "$.kind")
    metadata = doc.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata must be an object", "$.metadata")
    obj = from_payload(kind, doc.get("payload"), "$.payload")
    return ParsedDocument(kind, metadata, obj)
