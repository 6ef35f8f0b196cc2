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

Parse errors report the JSON path of the offending value.  Structural axiom
violations (a Lie algebra document failing the Jacobi identity, say) surface
as the constructor's own error, not as a parse error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import exactla as xla
from .cohom import CocyclePair
from .defo import GradedL3Algebra
from .dkcore import TwoTermComplex
from .el2 import EL2Algebra, LeibnizAlgebraFD, LieAlgebraFD, RepresentationFD
from .morph import ELMorphism, ELTwoMorphism


class ParseError(ValueError):
    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class MCProblem:
    """A graded algebra together with a degree-1 element to test or twist by."""

    graded: GradedL3Algebra
    gamma: np.ndarray

    def __post_init__(self) -> None:
        gamma = np.asarray(self.gamma)
        if gamma.shape != (self.graded.dim(1),):
            raise xla.ShapeError(
                f"gamma has length {gamma.shape}, expected ({self.graded.dim(1)},)"
            )
        object.__setattr__(self, "gamma", xla.freeze(np.array(gamma, dtype=object, copy=True)))


@dataclass(frozen=True)
class ParsedDocument:
    kind: str
    metadata: dict
    obj: Any


KINDS = (
    "complex",
    "el2",
    "morphism",
    "two_morphism",
    "lie_algebra",
    "leibniz_algebra",
    "representation",
    "cocycle_pair",
    "graded_l3",
    "mc_problem",
)


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


def _enc_complex(c: TwoTermComplex) -> dict:
    return {"n0": c.n0, "n1": c.n1, "d": _enc_array(c.d)}


def _enc_el2(e: EL2Algebra) -> dict:
    return {
        "complex": _enc_complex(e.complex),
        "b00": _enc_array(e.b00),
        "b01": _enc_array(e.b01),
        "b10": _enc_array(e.b10),
        "alt": _enc_array(e.alt),
        "jac": _enc_array(e.jac),
    }


def _enc_morphism(m: ELMorphism) -> dict:
    return {
        "src": _enc_el2(m.src),
        "dst": _enc_el2(m.dst),
        "f0": _enc_array(m.f0),
        "f1": _enc_array(m.f1),
        "f2": _enc_array(m.f2),
    }


def _enc_lie(g: LieAlgebraFD) -> dict:
    return {"dim": g.dim, "c": _enc_array(g.c)}


def _enc_rep(m: RepresentationFD) -> dict:
    return {"algebra": _enc_lie(m.algebra), "dim": m.dim, "rho": _enc_array(m.rho)}


def _enc_graded(L: GradedL3Algebra) -> dict:
    return {
        "dims": {str(k): v for k, v in sorted(L.dims.items())},
        "l1": {str(k): _enc_array(v) for k, v in sorted(L.l1.items())},
        "l2": {f"{a},{b}": _enc_array(v) for (a, b), v in sorted(L.l2.items())},
        "l3": {f"{a},{b},{c}": _enc_array(v) for (a, b, c), v in sorted(L.l3.items())},
    }


def to_payload(obj: Any) -> tuple[str, dict]:
    if isinstance(obj, TwoTermComplex):
        return "complex", _enc_complex(obj)
    if isinstance(obj, EL2Algebra):
        return "el2", _enc_el2(obj)
    if isinstance(obj, ELMorphism):
        return "morphism", _enc_morphism(obj)
    if isinstance(obj, ELTwoMorphism):
        return "two_morphism", {
            "src": _enc_morphism(obj.src),
            "dst": _enc_morphism(obj.dst),
            "theta": _enc_array(obj.theta),
        }
    if isinstance(obj, LieAlgebraFD):
        return "lie_algebra", _enc_lie(obj)
    if isinstance(obj, LeibnizAlgebraFD):
        return "leibniz_algebra", {"dim": obj.dim, "c": _enc_array(obj.c)}
    if isinstance(obj, RepresentationFD):
        return "representation", _enc_rep(obj)
    if isinstance(obj, _CocycleDocument):
        return "cocycle_pair", {
            "representation": _enc_rep(obj.module),
            "s": _enc_array(obj.pair.s),
            "j": _enc_array(obj.pair.j),
        }
    if isinstance(obj, GradedL3Algebra):
        return "graded_l3", _enc_graded(obj)
    if isinstance(obj, MCProblem):
        return "mc_problem", {
            "graded": _enc_graded(obj.graded),
            "gamma": _enc_array(obj.gamma),
        }
    raise ParseError(f"cannot serialize object of type {type(obj).__name__}")


@dataclass(frozen=True)
class _CocycleDocument:
    """A cocycle pair with the representation it lives over."""

    module: RepresentationFD
    pair: CocyclePair


def cocycle_document(module: RepresentationFD, pair: CocyclePair) -> _CocycleDocument:
    return _CocycleDocument(module, pair)


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


def _dec_array(v: Any, path: str, expect_shape=None) -> np.ndarray:
    _expect(isinstance(v, dict), "array must be an object with 'shape' and 'entries'", path)
    _expect("shape" in v and "entries" in v, "array needs 'shape' and 'entries'", path)
    shape = v["shape"]
    _expect(
        isinstance(shape, list) and all(isinstance(s, int) and s >= 0 for s in shape),
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
    out = np.empty(tuple(shape), dtype=object)
    flat = out.reshape(-1)
    for i, x in enumerate(data):
        flat[i] = x
    if expect_shape is not None:
        _expect(tuple(shape) == tuple(expect_shape), f"expected shape {tuple(expect_shape)}, got {tuple(shape)}", path)
    return xla.freeze(out)


def _dec_int(v: Any, path: str) -> int:
    _expect(isinstance(v, int) and not isinstance(v, bool) and v >= 0, "expected a non-negative integer", path)
    return v


def _dec_complex(v: Any, path: str) -> TwoTermComplex:
    _expect(isinstance(v, dict), "complex payload must be an object", path)
    n0 = _dec_int(v.get("n0"), path + ".n0")
    n1 = _dec_int(v.get("n1"), path + ".n1")
    d = _dec_array(v.get("d"), path + ".d", (n0, n1))
    return TwoTermComplex(n0, n1, d)


def _dec_el2(v: Any, path: str) -> EL2Algebra:
    _expect(isinstance(v, dict), "payload must be an object", path)
    c = _dec_complex(v.get("complex"), path + ".complex")
    n0, n1 = c.n0, c.n1
    return EL2Algebra(
        c,
        _dec_array(v.get("b00"), path + ".b00", (n0, n0, n0)),
        _dec_array(v.get("b01"), path + ".b01", (n1, n0, n1)),
        _dec_array(v.get("b10"), path + ".b10", (n1, n1, n0)),
        _dec_array(v.get("alt"), path + ".alt", (n1, n0, n0)),
        _dec_array(v.get("jac"), path + ".jac", (n1, n0, n0, n0)),
    )


def _dec_morphism(v: Any, path: str) -> ELMorphism:
    _expect(isinstance(v, dict), "payload must be an object", path)
    src = _dec_el2(v.get("src"), path + ".src")
    dst = _dec_el2(v.get("dst"), path + ".dst")
    return ELMorphism(
        src,
        dst,
        _dec_array(v.get("f0"), path + ".f0", (dst.complex.n0, src.complex.n0)),
        _dec_array(v.get("f1"), path + ".f1", (dst.complex.n1, src.complex.n1)),
        _dec_array(v.get("f2"), path + ".f2", (dst.complex.n1, src.complex.n0, src.complex.n0)),
    )


def _dec_lie(v: Any, path: str) -> LieAlgebraFD:
    _expect(isinstance(v, dict), "payload must be an object", path)
    n = _dec_int(v.get("dim"), path + ".dim")
    return LieAlgebraFD(n, _dec_array(v.get("c"), path + ".c", (n, n, n)))


def _dec_rep(v: Any, path: str) -> RepresentationFD:
    _expect(isinstance(v, dict), "payload must be an object", path)
    g = _dec_lie(v.get("algebra"), path + ".algebra")
    dm = _dec_int(v.get("dim"), path + ".dim")
    return RepresentationFD(g, dm, _dec_array(v.get("rho"), path + ".rho", (dm, g.dim, dm)))


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
    tmp = GradedL3Algebra(dims=dims)
    l1 = {}
    for k, arr in (v.get("l1") or {}).items():
        (deg,) = _dec_degree_key(k, 1, path + ".l1")
        l1[deg] = _dec_array(arr, f"{path}.l1.{k}", tmp.shape(deg))
    l2 = {}
    for k, arr in (v.get("l2") or {}).items():
        a, b = _dec_degree_key(k, 2, path + ".l2")
        l2[(a, b)] = _dec_array(arr, f"{path}.l2.{k}", tmp.shape(a, b))
    l3 = {}
    for k, arr in (v.get("l3") or {}).items():
        a, b, c = _dec_degree_key(k, 3, path + ".l3")
        l3[(a, b, c)] = _dec_array(arr, f"{path}.l3.{k}", tmp.shape(a, b, c))
    return GradedL3Algebra(dims=dims, l1=l1, l2=l2, l3=l3)


def from_payload(kind: str, payload: Any, path: str = "$.payload") -> Any:
    if kind == "complex":
        return _dec_complex(payload, path)
    if kind == "el2":
        return _dec_el2(payload, path)
    if kind == "morphism":
        return _dec_morphism(payload, path)
    if kind == "two_morphism":
        _expect(isinstance(payload, dict), "payload must be an object", path)
        src = _dec_morphism(payload.get("src"), path + ".src")
        dst = _dec_morphism(payload.get("dst"), path + ".dst")
        theta = _dec_array(
            payload.get("theta"), path + ".theta",
            (src.dst.complex.n1, src.src.complex.n0),
        )
        return ELTwoMorphism(src, dst, theta)
    if kind == "lie_algebra":
        return _dec_lie(payload, path)
    if kind == "leibniz_algebra":
        _expect(isinstance(payload, dict), "payload must be an object", path)
        n = _dec_int(payload.get("dim"), path + ".dim")
        return LeibnizAlgebraFD(n, _dec_array(payload.get("c"), path + ".c", (n, n, n)))
    if kind == "representation":
        return _dec_rep(payload, path)
    if kind == "cocycle_pair":
        _expect(isinstance(payload, dict), "payload must be an object", path)
        rep = _dec_rep(payload.get("representation"), path + ".representation")
        n, dm = rep.algebra.dim, rep.dim
        s = _dec_array(payload.get("s"), path + ".s", (dm, n, n))
        j = _dec_array(payload.get("j"), path + ".j", (dm, n, n, n))
        return _CocycleDocument(rep, CocyclePair(s, j))
    if kind == "graded_l3":
        return _dec_graded(payload, path)
    if kind == "mc_problem":
        _expect(isinstance(payload, dict), "payload must be an object", path)
        graded = _dec_graded(payload.get("graded"), path + ".graded")
        gamma = _dec_array(payload.get("gamma"), path + ".gamma", (graded.dim(1),))
        return MCProblem(graded, gamma)
    raise ParseError(f"unknown kind {kind!r}", "$.kind")


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
    _expect(isinstance(kind, str) and kind in KINDS, f"kind must be one of {KINDS}", "$.kind")
    metadata = doc.get("metadata", {})
    _expect(isinstance(metadata, dict), "metadata must be an object", "$.metadata")
    obj = from_payload(kind, doc.get("payload"), "$.payload")
    return ParsedDocument(kind, metadata, obj)
