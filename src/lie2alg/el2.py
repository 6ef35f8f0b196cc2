"""Weak Lie 2-algebras in chain form, their axioms, and example constructors.

The central object bundles a two-term complex with five structure tensors:

* ``b00``, ``b01``, ``b10`` - the components of a bilinear bracket, a chain
  map from the tensor square of the complex to the complex,
* ``alt`` - a bilinear homotopy trivializing ``[x,y] + [y,x]`` (weak
  skew-symmetry),
* ``jac`` - a trilinear homotopy trivializing the left Leibniz defect
  ``[x,[y,z]] - [[x,y],z] - [y,[x,z]]`` (weak Jacobi).

``check_el2`` evaluates every defining identity on every basis tuple, which
is complete by multilinearity, and reports exact residuals.
``categorical_coherence_check`` re-derives the same identities independently
on the associated linear category: it checks that the bracket is a functor,
that the alternator and Jacobiator are well-formed natural transformations,
and that the four coherence diagrams commute, all by composing actual arrows.
The two checkers agree identity by identity; the correspondence is recorded
in ``EL2_TO_CATEGORICAL``.

Both checkers, and those of :mod:`lie2alg.morph`, run once, on an integer
copy: ``transport`` along den**-2 on objects and den**-3 on arrow parts, with
den a common denominator, is a strict isomorphism that clears every
denominator, so the residuals are computed in Python ints instead of
Fractions.  It multiplies the residual of each identity by a fixed power of
den, so the copy fails at exactly the basis tuples where the input fails, and
dividing each violating residual by that power gives the report of the
Fraction input.

Sign conventions: the alternator arrow at (x, y) is ([x,y], -alt(x,y)), the
Jacobiator arrow at (x, y, z) is ([x,[y,z]], -jac(x,y,z)), and the bracket of
two arrow parts is the derived one, [a,b] = [da,b].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import exactla as xla
from .dkcore import BilinearBracket, TwoTermComplex, chain_b01, chain_b10, chain_derived
from .exactla import ShapeError
from .report import CheckReport, Violation, collect_tensor_violations, exact_residual


class InvalidStructureError(ValueError):
    """A constructor precondition failed; carries the offending report."""

    def __init__(self, message: str, report: Optional[CheckReport] = None):
        super().__init__(message if report is None else f"{message}\n{report.render()}")
        self.report = report


class PairingError(ValueError):
    """A bilinear form is not symmetric or not invariant."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EL2Algebra:
    """A two-term complex with bracket, alternator and Jacobiator tensors."""

    complex: TwoTermComplex
    b00: np.ndarray  # (n0, n0, n0)
    b01: np.ndarray  # (n1, n0, n1)
    b10: np.ndarray  # (n1, n1, n0)
    alt: np.ndarray  # (n1, n0, n0)
    jac: np.ndarray  # (n1, n0, n0, n0)

    def __post_init__(self) -> None:
        n0, n1 = self.complex.n0, self.complex.n1
        shapes = {
            "b00": (n0, n0, n0),
            "b01": (n1, n0, n1),
            "b10": (n1, n1, n0),
            "alt": (n1, n0, n0),
            "jac": (n1, n0, n0, n0),
        }
        for name, want in shapes.items():
            arr = np.asarray(getattr(self, name))
            if arr.shape != want:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {want}")
            object.__setattr__(self, name, xla.freeze(np.array(arr, dtype=object, copy=True)))

    @property
    def bracket(self) -> BilinearBracket:
        return BilinearBracket(self.complex, self.b00, self.b01, self.b10)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EL2Algebra):
            return NotImplemented
        return self.complex == other.complex and all(
            xla.arrays_equal(getattr(self, n), getattr(other, n))
            for n in ("b00", "b01", "b10", "alt", "jac")
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash((self.complex.n0, self.complex.n1))


def zero_el2(n0: int, n1: int, d: Optional[np.ndarray] = None) -> EL2Algebra:
    c = TwoTermComplex(n0, n1, xla.zeros(n0, n1) if d is None else d)
    return EL2Algebra(
        c,
        xla.zeros(n0, n0, n0),
        xla.zeros(n1, n0, n1),
        xla.zeros(n1, n1, n0),
        xla.zeros(n1, n0, n0),
        xla.zeros(n1, n0, n0, n0),
    )


@dataclass(frozen=True, eq=False)
class LieAlgebraFD:
    """Finite-dimensional Lie algebra by structure constants c[k,i,j]."""

    dim: int
    c: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.c)
        if arr.shape != (self.dim,) * 3:
            raise ShapeError(f"structure constants shape {arr.shape}, expected {(self.dim,) * 3}")
        object.__setattr__(self, "c", xla.freeze(np.array(arr, dtype=object, copy=True)))
        den = xla.common_denominator(self.c)
        c = xla.scaled_ints(self.c, den)
        report = CheckReport()
        collect_tensor_violations(report, "skew-symmetry", c + c.swapaxes(1, 2), scale=den)
        collect_tensor_violations(report, "jacobi", _leibniz_defect(c), scale=den**2)
        if not report.passed:
            raise InvalidStructureError("not a Lie algebra", report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieAlgebraFD):
            return NotImplemented
        return self.dim == other.dim and xla.arrays_equal(self.c, other.c)

    def __hash__(self) -> int:  # pragma: no cover
        return hash(self.dim)


@dataclass(frozen=True, eq=False)
class LeibnizAlgebraFD:
    """Bracket satisfying the left Leibniz identity; no skew-symmetry."""

    dim: int
    c: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.c)
        if arr.shape != (self.dim,) * 3:
            raise ShapeError(f"structure constants shape {arr.shape}, expected {(self.dim,) * 3}")
        object.__setattr__(self, "c", xla.freeze(np.array(arr, dtype=object, copy=True)))
        den = xla.common_denominator(self.c)
        report = CheckReport()
        collect_tensor_violations(
            report, "leibniz", _leibniz_defect(xla.scaled_ints(self.c, den)), scale=den**2
        )
        if not report.passed:
            raise InvalidStructureError("not a Leibniz algebra", report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LeibnizAlgebraFD):
            return NotImplemented
        return self.dim == other.dim and xla.arrays_equal(self.c, other.c)

    def __hash__(self) -> int:  # pragma: no cover
        return hash(self.dim)


def _leibniz_defect(c: np.ndarray) -> np.ndarray:
    """[x,[y,z]] - [[x,y],z] - [y,[x,z]] as a tensor over (x, y, z)."""
    t1 = np.tensordot(c, c, axes=([2], [0]))                     # (k, i, j, l)
    t2 = np.transpose(np.tensordot(c, c, axes=([1], [0])), (0, 2, 3, 1))
    t3 = np.transpose(np.tensordot(c, c, axes=([2], [0])), (0, 2, 1, 3))
    return t1 - t2 - t3


@dataclass(frozen=True, eq=False)
class RepresentationFD:
    """A module over a Lie algebra: rho[m, x, a] is the action tensor."""

    algebra: LieAlgebraFD
    dim: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.rho)
        want = (self.dim, self.algebra.dim, self.dim)
        if arr.shape != want:
            raise ShapeError(f"action tensor shape {arr.shape}, expected {want}")
        object.__setattr__(self, "rho", xla.freeze(np.array(arr, dtype=object, copy=True)))
        # rho([x,y]) = rho(x) rho(y) - rho(y) rho(x) on basis pairs, on c and
        # rho scaled by their common denominator: both sides are quadratic
        den = xla.common_denominator(self.algebra.c, self.rho)
        c, rho = xla.scaled_ints(self.algebra.c, den), xla.scaled_ints(self.rho, den)
        lhs = np.transpose(np.tensordot(rho, c, axes=([1], [0])), (0, 2, 3, 1))
        comp = np.tensordot(rho, rho, axes=([2], [0]))           # (m, x, y, a)
        rhs = comp - comp.swapaxes(1, 2)
        report = CheckReport()
        collect_tensor_violations(report, "module-axiom", lhs - rhs, scale=den**2)
        if not report.passed:
            raise InvalidStructureError("not a representation", report)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RepresentationFD):
            return NotImplemented
        return (
            self.algebra == other.algebra
            and self.dim == other.dim
            and xla.arrays_equal(self.rho, other.rho)
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash((self.algebra.dim, self.dim))


# ---------------------------------------------------------------------------
# The axiom checker
# ---------------------------------------------------------------------------

def _residual_skew00(e: EL2Algebra) -> np.ndarray:
    return e.b00 + e.b00.swapaxes(1, 2) - xla.postcompose(e.complex.d, e.alt)


def _residual_skew10(e: EL2Algebra) -> np.ndarray:
    lhs = e.b10 + e.b01.swapaxes(1, 2)
    rhs = np.moveaxis(np.tensordot(e.alt, e.complex.d, axes=([1], [0])), 2, 1)
    return lhs - rhs


def _residual_skew01(e: EL2Algebra) -> np.ndarray:
    lhs = e.b01 + e.b10.swapaxes(1, 2)
    rhs = np.tensordot(e.alt, e.complex.d, axes=([2], [0]))
    return lhs - rhs


def _residual_jacobi000(e: EL2Algebra) -> np.ndarray:
    return _leibniz_defect(e.b00) - xla.postcompose(e.complex.d, e.jac)


def _residual_jacobi100(e: EL2Algebra) -> np.ndarray:
    # [a,[y,z]] - [[a,y],z] - [y,[a,z]] - jac(da, y, z), axes (a, y, z)
    t1 = np.tensordot(e.b10, e.b00, axes=([2], [0]))
    t2 = np.transpose(np.tensordot(e.b10, e.b10, axes=([1], [0])), (0, 2, 3, 1))
    t3 = np.transpose(np.tensordot(e.b01, e.b10, axes=([2], [0])), (0, 2, 1, 3))
    rhs = np.moveaxis(np.tensordot(e.jac, e.complex.d, axes=([1], [0])), 3, 1)
    return t1 - t2 - t3 - rhs


def _residual_jacobi010(e: EL2Algebra) -> np.ndarray:
    # [x,[b,z]] - [[x,b],z] - [b,[x,z]] - jac(x, db, z), axes (x, b, z)
    t1 = np.tensordot(e.b01, e.b10, axes=([2], [0]))
    t2 = np.transpose(np.tensordot(e.b10, e.b01, axes=([1], [0])), (0, 2, 3, 1))
    t3 = np.transpose(np.tensordot(e.b10, e.b00, axes=([2], [0])), (0, 2, 1, 3))
    rhs = np.moveaxis(np.tensordot(e.jac, e.complex.d, axes=([2], [0])), 3, 2)
    return t1 - t2 - t3 - rhs


def _residual_jacobi001(e: EL2Algebra) -> np.ndarray:
    # [x,[y,c]] - [[x,y],c] - [y,[x,c]] - jac(x, y, dc), axes (x, y, c)
    t1 = np.tensordot(e.b01, e.b01, axes=([2], [0]))
    t2 = np.transpose(np.tensordot(e.b01, e.b00, axes=([1], [0])), (0, 2, 3, 1))
    t3 = np.transpose(np.tensordot(e.b01, e.b01, axes=([2], [0])), (0, 2, 1, 3))
    rhs = np.tensordot(e.jac, e.complex.d, axes=([3], [0]))
    return t1 - t2 - t3 - rhs


def _residual_bracket_jacobiator(e: EL2Algebra) -> np.ndarray:
    # [x,<y,z,w>] + <x,[y,z],w> + <x,z,[y,w]> + [<x,y,z>,w] + [z,<x,y,w>]
    #   = <x,y,[z,w]> + <[x,y],z,w> + [y,<x,z,w>] + <y,[x,z],w> + <y,z,[x,w]>
    # residual axes (x, y, z, w)
    b00, b01, b10, jac = e.b00, e.b01, e.b10, e.jac
    t1 = np.tensordot(b01, jac, axes=([2], [0]))                               # (k,x,y,z,w)
    t2 = np.transpose(np.tensordot(jac, b00, axes=([2], [0])), (0, 1, 3, 4, 2))
    t3 = np.transpose(np.tensordot(jac, b00, axes=([3], [0])), (0, 1, 3, 2, 4))
    t4 = np.moveaxis(np.tensordot(b10, jac, axes=([1], [0])), 1, 4)
    t5 = np.moveaxis(np.tensordot(b01, jac, axes=([2], [0])), 1, 3)
    t6 = np.tensordot(jac, b00, axes=([3], [0]))
    t7 = np.moveaxis(np.tensordot(jac, b00, axes=([1], [0])), (3, 4), (1, 2))
    t8 = np.tensordot(b01, jac, axes=([2], [0])).swapaxes(1, 2)
    t9 = np.transpose(np.tensordot(jac, b00, axes=([2], [0])), (0, 3, 1, 4, 2))
    t10 = np.moveaxis(np.tensordot(jac, b00, axes=([3], [0])), 3, 1)
    return (t1 + t2 + t3 + t4 + t5) - (t6 + t7 + t8 + t9 + t10)


def _residual_jacobiator_sym12(e: EL2Algebra) -> np.ndarray:
    # <x,y,z> + <y,x,z> + [<x,y>,z]
    comp = np.moveaxis(np.tensordot(e.b10, e.alt, axes=([1], [0])), 1, 3)
    return e.jac + e.jac.swapaxes(1, 2) + comp


def _residual_jacobiator_sym23(e: EL2Algebra) -> np.ndarray:
    # <x,y,z> + <x,z,y> - [x,<y,z>] + <[x,y],z> + <y,[x,z]>
    t1 = np.tensordot(e.b01, e.alt, axes=([2], [0]))
    t2 = np.moveaxis(np.tensordot(e.alt, e.b00, axes=([1], [0])), (2, 3), (1, 2))
    t3 = np.transpose(np.tensordot(e.alt, e.b00, axes=([2], [0])), (0, 2, 1, 3))
    return e.jac + e.jac.swapaxes(2, 3) - t1 + t2 + t3


def _residual_alternator_bracket(e: EL2Algebra) -> np.ndarray:
    # <x,[y,z]> - <[y,z],x>, axes (x, y, z); both contractions come out in
    # (out, x, y, z) order already
    lhs = np.tensordot(e.alt, e.b00, axes=([2], [0]))
    rhs = np.tensordot(e.alt, e.b00, axes=([1], [0]))
    return lhs - rhs


def _residual_red_alt_left(e: EL2Algebra) -> np.ndarray:
    comp = np.moveaxis(np.tensordot(e.b10, e.alt, axes=([1], [0])), 1, 3)
    comp_sw = np.moveaxis(np.tensordot(e.b10, e.alt.swapaxes(1, 2), axes=([1], [0])), 1, 3)
    return comp - comp_sw


def _residual_red_alt_right(e: EL2Algebra) -> np.ndarray:
    comp = np.tensordot(e.b01, e.alt, axes=([2], [0]))
    comp_sw = np.tensordot(e.b01, e.alt.swapaxes(1, 2), axes=([2], [0]))
    return comp - comp_sw


def _residual_red_d_alt(e: EL2Algebra) -> np.ndarray:
    da = xla.postcompose(e.complex.d, e.alt)
    return da - da.swapaxes(1, 2)


def _residual_red_alt_exact(e: EL2Algebra) -> np.ndarray:
    # <da, x> - <x, da>, axes (a, x)
    lhs = np.moveaxis(np.tensordot(e.alt, e.complex.d, axes=([1], [0])), 2, 1)
    rhs = np.tensordot(e.alt, e.complex.d, axes=([2], [0])).swapaxes(1, 2)
    return lhs - rhs


EL2_EQUATIONS: tuple[tuple[str, Callable[[EL2Algebra], np.ndarray]], ...] = (
    ("chain.b01", chain_b01),
    ("chain.b10", chain_b10),
    ("chain.derived", chain_derived),
    ("skew.00", _residual_skew00),
    ("skew.10", _residual_skew10),
    ("skew.01", _residual_skew01),
    ("jacobi.000", _residual_jacobi000),
    ("jacobi.100", _residual_jacobi100),
    ("jacobi.010", _residual_jacobi010),
    ("jacobi.001", _residual_jacobi001),
    ("coh.bracket-jacobiator", _residual_bracket_jacobiator),
    ("coh.jacobiator-sym12", _residual_jacobiator_sym12),
    ("coh.jacobiator-sym23", _residual_jacobiator_sym23),
    ("coh.alternator-bracket", _residual_alternator_bracket),
)

EL2_REDUNDANT_EQUATIONS: tuple[tuple[str, Callable[[EL2Algebra], np.ndarray]], ...] = (
    ("red.alternator-left", _residual_red_alt_left),
    ("red.alternator-right", _residual_red_alt_right),
    ("red.d-alternator", _residual_red_d_alt),
    ("red.alternator-exact", _residual_red_alt_exact),
)

# On the integer copy, where d and alt carry den, the brackets den**2 and jac
# den**3, each residual is den to this power times the residual of the input.
RESIDUAL_POWERS: dict[str, int] = {
    "chain.b01": 3, "chain.b10": 3, "chain.derived": 3,
    "skew.00": 2, "skew.10": 2, "skew.01": 2,
    "jacobi.000": 4, "jacobi.100": 4, "jacobi.010": 4, "jacobi.001": 4,
    "coh.bracket-jacobiator": 5, "coh.jacobiator-sym12": 3, "coh.jacobiator-sym23": 3,
    "coh.alternator-bracket": 3,
    "red.alternator-left": 3, "red.alternator-right": 3, "red.d-alternator": 2, "red.alternator-exact": 2,
}


def check_el2(e: EL2Algebra, *, stop_after: Optional[int] = None) -> CheckReport:
    """Evaluate every defining identity on every basis tuple.

    The report lists one violation per (identity, basis tuple) with the exact
    residual vector.  The four implied symmetry identities are re-checked as
    cross-validation under ``red.*`` names, and whether the alternator happens
    to be symmetric is reported as an informational note (it is never
    required).
    """
    return _check_el2_body(*_integer_copy(e), stop_after)


def _check_el2_body(e: EL2Algebra, den: int, stop_after: Optional[int]) -> CheckReport:
    """The checker on ``_integer_copy(x)``, reporting the residuals of x."""
    report = CheckReport()
    for name, fn in EL2_EQUATIONS + EL2_REDUNDANT_EQUATIONS:
        scale = den ** RESIDUAL_POWERS[name]
        if collect_tensor_violations(report, name, fn(e), stop_after=stop_after, scale=scale):
            return report
    symmetric = xla.arrays_equal(e.alt, e.alt.swapaxes(1, 2))
    report.notes.append(f"alternator symmetric: {'yes' if symmetric else 'no'}")
    return report


def is_semistrict(e: EL2Algebra) -> bool:
    return xla.is_zero(e.alt)


def is_hemistrict(e: EL2Algebra) -> bool:
    return xla.is_zero(e.jac)


def is_strict(e: EL2Algebra) -> bool:
    return is_semistrict(e) and is_hemistrict(e)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_leibniz(g: LeibnizAlgebraFD) -> EL2Algebra:
    """The two-term structure of a Leibniz algebra: degree 0 the algebra,
    degree -1 the span of all squared brackets [x,x] with the inclusion as
    differential, alternator <x,y> = [x,y] + [y,x], trivial Jacobiator."""
    n = g.dim
    sym = g.c + g.c.swapaxes(1, 2)
    cols = [sym[:, i, j] for i in range(n) for j in range(i, n)]
    span_matrix = np.empty((n, len(cols)), dtype=object)
    for k, col in enumerate(cols):
        span_matrix[:, k] = col
    ann = xla.image_basis(span_matrix)
    m = ann.dim
    d = ann.basis  # inclusion of the squared-bracket span

    def coords_of(t: np.ndarray) -> np.ndarray:
        """Coordinates in the span of every vector t[:, ...], from one
        elimination."""
        out = xla.membership(ann, t.reshape(n, math.prod(t.shape[1:])))
        if out is None:
            raise InvalidStructureError(
                "bracket does not preserve the squared-bracket span"
            )
        return xla.freeze(out.reshape((m,) + t.shape[1:]))

    b01 = coords_of(xla.precompose(g.c, 2, d))   # [e_i, d e_a]: (m, n, m)
    b10 = coords_of(xla.precompose(g.c, 1, d))   # [d e_a, e_i]: (m, m, n)
    alt = coords_of(sym)
    return EL2Algebra(TwoTermComplex(n, m, d), g.c, b01, b10, alt, xla.zeros(m, n, n, n))


def _check_pairing(g: LieAlgebraFD, pairing: np.ndarray) -> np.ndarray:
    pairing = np.asarray(pairing)
    if pairing.shape != (g.dim, g.dim):
        raise ShapeError(f"pairing shape {pairing.shape}, expected {(g.dim, g.dim)}")
    if not xla.arrays_equal(pairing, pairing.T):
        raise PairingError("pairing is not symmetric")
    # <[x,y],z> + <y,[x,z]> = 0 on basis triples
    t1 = np.tensordot(pairing, g.c, axes=([0], [0]))              # (z, x, y)
    t_left = np.transpose(t1, (1, 2, 0))                          # <[x,y],z> as (x,y,z)
    t_right = np.transpose(np.tensordot(pairing, g.c, axes=([1], [0])), (1, 0, 2))
    # t_right[x,y,z] = sum_m pairing[y,m] c[m,x,z] = <y,[x,z]>
    resid = t_left + t_right
    if not xla.is_zero(resid):
        bad = next(
            idx
            for idx in itertools.product(*(range(s) for s in resid.shape))
            if resid[idx] != 0
        )
        raise PairingError(f"pairing is not invariant, first violation at basis triple {bad}")
    return xla.freeze(np.array(pairing, dtype=object, copy=True))


def from_quadratic_lie(g: LieAlgebraFD, pairing: np.ndarray) -> EL2Algebra:
    """Hemistrict structure of a Lie algebra with an invariant symmetric
    form: degree -1 is one-dimensional, d = 0, the mixed brackets vanish and
    the alternator is the form itself."""
    pairing = _check_pairing(g, pairing)
    n = g.dim
    return EL2Algebra(
        TwoTermComplex(n, 1, xla.zeros(n, 1)),
        g.c,
        xla.zeros(1, n, 1),
        xla.zeros(1, 1, n),
        xla.freeze(pairing.reshape(1, n, n)),
        xla.zeros(1, n, n, n),
    )


def string_2_algebra(g: LieAlgebraFD, pairing: np.ndarray) -> EL2Algebra:
    """Semistrict cousin of :func:`from_quadratic_lie` on the same carrier:
    trivial alternator and Jacobiator -1/2 <[x,y], z>."""
    pairing = _check_pairing(g, pairing)
    n = g.dim
    jac = np.tensordot(g.c, pairing, axes=([0], [0])) * xla.Rat(-1, 2)
    return EL2Algebra(
        TwoTermComplex(n, 1, xla.zeros(n, 1)),
        g.c,
        xla.zeros(1, n, 1),
        xla.zeros(1, 1, n),
        xla.zeros(1, n, n),
        xla.freeze(jac.reshape(1, n, n, n)),
    )


def from_skeletal_cocycle(
    g: LieAlgebraFD, m: RepresentationFD, s: np.ndarray, j: np.ndarray
) -> EL2Algebra:
    """Skeletal structure on (algebra, module) with alternator s and
    Jacobiator j; (s, j) must satisfy the degree-3 cocycle equations."""
    from . import cohom  # deferred: cohom depends on this module

    pair = cohom.CocyclePair(xla.as_exact(s), xla.as_exact(j))
    ok, report = cohom.is_cocycle(g, m, pair)
    if not ok:
        raise cohom.CocycleError("not a cocycle pair", report)
    n, dm = g.dim, m.dim
    return EL2Algebra(
        TwoTermComplex(n, dm, xla.zeros(n, dm)),
        g.c,
        m.rho,
        xla.freeze(-m.rho.swapaxes(1, 2)),
        pair.s,
        pair.j,
    )


def extract_skeletal_data(e: EL2Algebra) -> tuple[LieAlgebraFD, RepresentationFD]:
    """Lie algebra and module carried by a skeletal structure (d = 0)."""
    if not e.complex.is_skeletal:
        raise InvalidStructureError("structure is not skeletal")
    g = LieAlgebraFD(e.complex.n0, e.b00)
    m = RepresentationFD(g, e.complex.n1, e.b01)
    return g, m


def direct_sum(a: EL2Algebra, b: EL2Algebra) -> EL2Algebra:
    """Block sum of two structures; all identities hold componentwise."""
    n0, n1 = a.complex.n0 + b.complex.n0, a.complex.n1 + b.complex.n1
    d = xla.zeros(n0, n1).copy()
    d[: a.complex.n0, : a.complex.n1] = a.complex.d
    d[a.complex.n0 :, a.complex.n1 :] = b.complex.d

    def block(name: str, *axis_kind: int) -> np.ndarray:
        # axis_kind: 0 for an object axis, 1 for an arrow-part axis
        sizes0 = (a.complex.n0, b.complex.n0)
        sizes1 = (a.complex.n1, b.complex.n1)
        shape = tuple((sizes0 if k == 0 else sizes1)[0] + (sizes0 if k == 0 else sizes1)[1] for k in axis_kind)
        out = xla.zeros(*shape).copy()
        slot_a = tuple(slice(0, (sizes0 if k == 0 else sizes1)[0]) for k in axis_kind)
        slot_b = tuple(
            slice((sizes0 if k == 0 else sizes1)[0], None) for k in axis_kind
        )
        out[slot_a] = getattr(a, name)
        out[slot_b] = getattr(b, name)
        return xla.freeze(out)

    return EL2Algebra(
        TwoTermComplex(n0, n1, xla.freeze(d)),
        block("b00", 0, 0, 0),
        block("b01", 1, 0, 1),
        block("b10", 1, 1, 0),
        block("alt", 1, 0, 0),
        block("jac", 1, 0, 0, 0),
    )


def transport(e: EL2Algebra, phi0: np.ndarray, phi1: np.ndarray) -> EL2Algebra:
    """Push the structure forward along an invertible change of coordinates
    (phi0 on objects, phi1 on arrow parts); strict isomorphisms preserve
    every identity.

    Computed on Python ints: each map, inverse and tensor is scaled by its
    own common denominator, the scaled tensors are contracted with the
    scaled maps, and each result is divided once by the product of those
    denominators.  The tensors are the ones Fraction evaluation gives."""

    def scaled(t: np.ndarray) -> tuple[np.ndarray, int]:
        den = xla.common_denominator(t)
        return xla.scaled_ints(t, den), den

    phi0 = xla.as_exact(phi0)
    phi1 = xla.as_exact(phi1)
    map0, map1 = scaled(phi0), scaled(phi1)
    inv0, inv1 = scaled(xla.inverse(phi0)), scaled(xla.inverse(phi1))

    def push(t: np.ndarray, out_map, in_maps) -> np.ndarray:
        out, den = scaled(t)
        out = xla.postcompose(out_map[0], out)
        den *= out_map[1]
        for slot, (m, m_den) in enumerate(in_maps, start=1):
            out = xla.precompose(out, slot, m)
            den *= m_den
        return xla.unscaled(out, den)

    d, d_den = scaled(e.complex.d)
    d = xla.unscaled(np.dot(map0[0], np.dot(d, inv1[0])), d_den * map0[1] * inv1[1])
    return EL2Algebra(
        TwoTermComplex(e.complex.n0, e.complex.n1, d),
        push(e.b00, map0, (inv0, inv0)),
        push(e.b01, map1, (inv0, inv1)),
        push(e.b10, map1, (inv1, inv0)),
        push(e.alt, map1, (inv0, inv0)),
        push(e.jac, map1, (inv0, inv0, inv0)),
    )


def _tensors(e: EL2Algebra) -> tuple[np.ndarray, ...]:
    return (e.complex.d, e.b00, e.b01, e.b10, e.alt, e.jac)


def _scaled_copy(e: EL2Algebra, den: int, p: int, q: int) -> EL2Algebra:
    """``transport(e, den**-p * I, den**-q * I)``, built by scaling each tensor.

    The tensors scale by den to the powers q - p, p, p, p, 2p - q and 3p - q;
    with ``den`` a common denominator of every entry and each power positive,
    the copy holds Python ints."""
    n0, n1 = e.complex.n0, e.complex.n1
    scale = xla.scaled_ints
    return EL2Algebra(
        TwoTermComplex(n0, n1, scale(e.complex.d, den ** (q - p))),
        scale(e.b00, den ** p),
        scale(e.b01, den ** p),
        scale(e.b10, den ** p),
        scale(e.alt, den ** (2 * p - q)),
        scale(e.jac, den ** (3 * p - q)),
    )


def _integer_copy(e: EL2Algebra) -> tuple[EL2Algebra, int]:
    """The copy the checkers run on, and its den."""
    den = xla.common_denominator(*_tensors(e))
    return _scaled_copy(e, den, 2, 3), den


# ---------------------------------------------------------------------------
# Categorical coherence: the independent checker
# ---------------------------------------------------------------------------

EL2_TO_CATEGORICAL: dict[str, str] = {
    "chain.b01": "cat.target.b01",
    "chain.b10": "cat.target.b10",
    "chain.derived": "cat.compose",
    "skew.00": "cat.alternator.arrow",
    "skew.10": "cat.alternator.nat10",
    "skew.01": "cat.alternator.nat01",
    "jacobi.000": "cat.jacobiator.arrow",
    "jacobi.100": "cat.jacobiator.nat100",
    "jacobi.010": "cat.jacobiator.nat010",
    "jacobi.001": "cat.jacobiator.nat001",
    "coh.bracket-jacobiator": "cat.pentagon",
    "coh.jacobiator-sym12": "cat.triangle-sym12",
    "coh.jacobiator-sym23": "cat.square-sym23",
    "coh.alternator-bracket": "cat.triangle-symm",
}

CATEGORICAL_TO_EL2: dict[str, str] = {v: k for k, v in EL2_TO_CATEGORICAL.items()}


def _ev2(t: np.ndarray, x, y) -> np.ndarray:
    """Evaluate a bilinear tensor on arguments that are either basis indices
    (plain ints, costing a slice) or coordinate vectors."""
    if isinstance(x, int):
        sub = t[:, x, :]
        return sub[:, y] if isinstance(y, int) else np.dot(sub, y)
    if isinstance(y, int):
        return np.dot(t[:, :, y], x)
    return np.dot(np.tensordot(t, x, axes=([1], [0])), y)


def _ev3(t: np.ndarray, x, y, z) -> np.ndarray:
    if isinstance(x, int):
        return _ev2(t[:, x, :, :], y, z)
    if isinstance(y, int):
        return _ev2(t[:, :, y, :], x, z)
    if isinstance(z, int):
        return _ev2(t[:, :, :, z], x, y)
    return _ev2(np.tensordot(t, z, axes=([3], [0])), x, y)


class _FastArrow:
    """An arrow of the associated category held as (object, arrow part);
    either component may be a basis index or a coordinate vector."""

    __slots__ = ("obj", "part")

    def __init__(self, obj, part):
        self.obj = obj
        self.part = part


class _GammaEvaluator:
    """Arrow-level evaluation of the structure on the associated category.

    Implements the same operations as :class:`~lie2alg.dkcore.BilinearBracket`
    and :func:`~lie2alg.dkcore.compose_arrows` but accepts basis indices in
    place of coordinate vectors so that diagram paths cost slices instead of
    dense contractions; agreement with the reference arrow operations is
    pinned by tests."""

    def __init__(self, e: EL2Algebra):
        self.e = e
        self.n0 = e.complex.n0
        self.n1 = e.complex.n1
        # plain ints: a Fraction constant would turn the integer-scaled run
        # back into Fraction arithmetic
        self.zero0 = xla.freeze(np.zeros(self.n0, dtype=object))
        self.zero1 = xla.freeze(np.zeros(self.n1, dtype=object))

    def vec0(self, x) -> np.ndarray:
        if isinstance(x, int):
            out = self.zero0.copy()
            out[x] = 1
            return out
        return x

    def vec1(self, a) -> np.ndarray:
        if isinstance(a, int):
            out = self.zero1.copy()
            out[a] = 1
            return out
        return a

    def d_of(self, a) -> np.ndarray:
        d = self.e.complex.d
        return d[:, a] if isinstance(a, int) else np.dot(d, a)

    def one(self, x) -> _FastArrow:
        """Identity arrows carry the shared zero part, recognized by the
        elision logic of :meth:`on_arrows`."""
        return _FastArrow(x, self.zero1)

    def part_arrow(self, a) -> _FastArrow:
        """The arrow (0, a): 0 -> d a."""
        return _FastArrow(self.zero0, self.vec1(a))

    def target(self, f: _FastArrow) -> np.ndarray:
        return self.vec0(f.obj) + np.dot(self.e.complex.d, self.vec1(f.part))

    def b(self, x, y) -> np.ndarray:
        return _ev2(self.e.b00, x, y)

    def on_arrows(self, f: _FastArrow, g: _FastArrow, need_obj: bool = True) -> _FastArrow:
        """[(x,a), (y,b)] = ([x,y], [x,b] + [a,y] + [da,b]).

        Terms multiplied by the zero part of an identity arrow are elided;
        ``need_obj=False`` skips the object component for path-sum use."""
        f_id = f.part is self.zero1
        g_id = g.part is self.zero1
        part = self.zero1
        if not g_id:
            part = _ev2(self.e.b01, f.obj, g.part)
        if not f_id:
            part = part + _ev2(self.e.b10, f.part, g.obj)
        if not (f_id or g_id):
            part = part + _ev2(self.e.b01, self.d_of(f.part), g.part)
        obj = _ev2(self.e.b00, f.obj, g.obj) if need_obj else None
        return _FastArrow(obj, part)

    def s_part(self, x, y) -> np.ndarray:
        return -_ev2(self.e.alt, x, y)

    def j_part(self, x, y, z) -> np.ndarray:
        return -_ev3(self.e.jac, x, y, z)

    def alternator_arrow(self, x, y) -> _FastArrow:
        """([x,y], -alt(x,y)): the component of the alternator at (x, y)."""
        return _FastArrow(self.b(x, y), self.s_part(x, y))

    def jacobiator_arrow(self, x, y, z) -> _FastArrow:
        """([x,[y,z]], -jac(x,y,z)): the component of the Jacobiator."""
        return _FastArrow(self.b(x, self.b(y, z)), self.j_part(x, y, z))



def categorical_coherence_check(e: EL2Algebra, *, stop_after: Optional[int] = None) -> CheckReport:
    """Re-derive the structure identities on the linear category.

    Checks, in order: the bracket of arrows has functorial targets and
    preserves composition; the alternator and Jacobiator components are
    arrows with the required targets; both are natural against arrows with
    pure arrow parts; and the four coherence diagrams commute, comparing the
    arrow parts of both composite paths on every basis tuple of objects.
    """
    return _categorical_body(*_integer_copy(e), stop_after)


def _categorical_body(e: EL2Algebra, den: int, stop_after: Optional[int]) -> CheckReport:
    """The checker on ``_integer_copy(x)``, reporting the residuals of x;
    each identity carries the power of its partner in RESIDUAL_POWERS."""
    ev = _GammaEvaluator(e)
    report = CheckReport()
    n0, n1 = ev.n0, ev.n1

    def done() -> bool:
        return stop_after is not None and len(report.violations) >= stop_after

    def record(name: str, at: tuple[int, ...], residual: np.ndarray) -> None:
        residual = np.asarray(residual)
        if not xla.is_zero(residual):
            scale = den ** RESIDUAL_POWERS[CATEGORICAL_TO_EL2[name]]
            report.violations.append(Violation(name, at, exact_residual(residual.flat, scale)))

    # cat.target.b01: t([1_x, (0,b)]) = [x, db]
    for i in range(n0):
        for a in range(n1):
            arr = ev.on_arrows(ev.one(i), ev.part_arrow(a))
            want = ev.b(i, ev.target(ev.part_arrow(a)))
            record("cat.target.b01", (i, a), ev.target(arr) - want)
            if done():
                return report

    # cat.target.b10: t([(0,a), 1_y]) = [da, y]
    for a in range(n1):
        for j in range(n0):
            arr = ev.on_arrows(ev.part_arrow(a), ev.one(j))
            want = ev.b(ev.target(ev.part_arrow(a)), j)
            record("cat.target.b10", (a, j), ev.target(arr) - want)
            if done():
                return report

    # cat.compose: [A'A, B'B] = [A',B'][A,B] for the composable pairs
    # A = 1_0 then A' = (0, a);  B = (0, b) then B' = 1_{db}.
    for a in range(n1):
        A = ev.one(ev.zero0)
        Ap = ev.part_arrow(a)
        AA = _FastArrow(ev.zero0, Ap.part)  # Ap after A: parts add
        for b in range(n1):
            B = ev.part_arrow(b)
            Bp = ev.one(ev.target(B))
            BB = _FastArrow(ev.zero0, B.part)  # Bp after B
            lhs = ev.on_arrows(AA, BB)
            first = ev.on_arrows(A, B)
            second = ev.on_arrows(Ap, Bp)
            record("cat.compose", (a, b), lhs.part - (first.part + second.part))
            if done():
                return report

    # cat.alternator.arrow: t(S_{x,y}) = -[y,x]
    for i in range(n0):
        for j in range(n0):
            s_arrow = ev.alternator_arrow(i, j)
            record("cat.alternator.arrow", (i, j), ev.target(s_arrow) + ev.b(j, i))
            if done():
                return report

    # cat.alternator.nat10 at (a, y): S against ((0,a), 1_y)
    for a in range(n1):
        A = ev.part_arrow(a)
        da = ev.target(A)
        for j in range(n0):
            lhs = ev.on_arrows(A, ev.one(j)).part + ev.alternator_arrow(da, j).part
            rhs = ev.alternator_arrow(ev.zero0, j).part - ev.on_arrows(ev.one(j), A).part
            record("cat.alternator.nat10", (a, j), lhs - rhs)
            if done():
                return report

    # cat.alternator.nat01 at (x, b): S against (1_x, (0,b))
    for i in range(n0):
        for b in range(n1):
            B = ev.part_arrow(b)
            db = ev.target(B)
            lhs = ev.on_arrows(ev.one(i), B).part + ev.alternator_arrow(i, db).part
            rhs = ev.alternator_arrow(i, ev.zero0).part - ev.on_arrows(B, ev.one(i)).part
            record("cat.alternator.nat01", (i, b), lhs - rhs)
            if done():
                return report

    # cat.jacobiator.arrow: t(J_{x,y,z}) = [[x,y],z] + [y,[x,z]]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                j_arrow = ev.jacobiator_arrow(i, j, k)
                want = ev.b(ev.b(i, j), k) + ev.b(j, ev.b(i, k))
                record("cat.jacobiator.arrow", (i, j, k), ev.target(j_arrow) - want)
                if done():
                    return report

    # Jacobiator naturality against one pure-arrow-part argument
    for a in range(n1):
        A = ev.part_arrow(a)
        da = ev.target(A)
        for j in range(n0):
            ab = ev.on_arrows(A, ev.one(j))
            for k in range(n0):
                inner = ev.one(ev.b(j, k))
                lhs = ev.on_arrows(A, inner).part + ev.jacobiator_arrow(da, j, k).part
                ac = ev.on_arrows(A, ev.one(k))
                rhs = (
                    ev.jacobiator_arrow(ev.zero0, j, k).part
                    + ev.on_arrows(ab, ev.one(k)).part
                    + ev.on_arrows(ev.one(j), ac).part
                )
                record("cat.jacobiator.nat100", (a, j, k), lhs - rhs)
                if done():
                    return report

    for i in range(n0):
        for b in range(n1):
            B = ev.part_arrow(b)
            db = ev.target(B)
            xb = ev.on_arrows(ev.one(i), B)
            for k in range(n0):
                inner = ev.on_arrows(B, ev.one(k))
                lhs = ev.on_arrows(ev.one(i), inner).part + ev.jacobiator_arrow(i, db, k).part
                rhs = (
                    ev.jacobiator_arrow(i, ev.zero0, k).part
                    + ev.on_arrows(xb, ev.one(k)).part
                    + ev.on_arrows(B, ev.one(ev.b(i, k))).part
                )
                record("cat.jacobiator.nat010", (i, b, k), lhs - rhs)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for c in range(n1):
                C = ev.part_arrow(c)
                dc = ev.target(C)
                inner = ev.on_arrows(ev.one(j), C)
                lhs = ev.on_arrows(ev.one(i), inner).part + ev.jacobiator_arrow(i, j, dc).part
                xc = ev.on_arrows(ev.one(i), C)
                rhs = (
                    ev.jacobiator_arrow(i, j, ev.zero0).part
                    + ev.on_arrows(ev.one(ev.b(i, j)), C).part
                    + ev.on_arrows(ev.one(j), xc).part
                )
                record("cat.jacobiator.nat001", (i, j, c), lhs - rhs)
                if done():
                    return report

    # the four coherence diagrams, compared by total path arrow parts;
    # whiskering through on_arrows with need_obj=False keeps the sums cheap,
    # and identity-side terms are elided by the composition law itself
    def whisk_left(x, arrow_part):
        """[1_x, A] for an arrow with the given part."""
        return ev.on_arrows(ev.one(x), _FastArrow(None, arrow_part), need_obj=False).part

    def whisk_right(arrow_part, y):
        """[A, 1_y]."""
        return ev.on_arrows(_FastArrow(None, arrow_part), ev.one(y), need_obj=False).part

    for i in range(n0):
        for j in range(n0):
            byx = {k: ev.b(j, k) for k in range(n0)}   # [y, -]
            bxy = {k: ev.b(i, k) for k in range(n0)}   # [x, -]
            for k in range(n0):
                for l in range(n0):
                    left = (
                        whisk_left(i, ev.j_part(j, k, l))
                        + ev.j_part(i, byx[k], l)
                        + ev.j_part(i, k, byx[l])
                        + whisk_right(ev.j_part(i, j, k), l)
                        + whisk_left(k, ev.j_part(i, j, l))
                    )
                    right = (
                        ev.j_part(i, j, ev.b(k, l))
                        + ev.j_part(ev.b(i, j), k, l)
                        + whisk_left(j, ev.j_part(i, k, l))
                        + ev.j_part(j, bxy[k], l)
                        + ev.j_part(j, k, bxy[l])
                    )
                    record("cat.pentagon", (i, j, k, l), left - right)
                    if done():
                        return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                # [S_{x,y}, z] then minus the flipped Jacobiator at (y, x, z),
                # against the flipped Jacobiator at (x, y, z); the flip carries
                # part +jac, so both appearances enter as j_part here
                residual = (
                    whisk_right(ev.s_part(i, j), k)
                    + ev.j_part(j, i, k)
                    + ev.j_part(i, j, k)
                )
                record("cat.triangle-sym12", (i, j, k), residual)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                path_a = whisk_left(i, ev.s_part(j, k)) - ev.j_part(i, k, j)
                path_b = (
                    ev.j_part(i, j, k)
                    + ev.s_part(ev.b(i, j), k)
                    + ev.s_part(j, ev.b(i, k))
                )
                record("cat.square-sym23", (i, j, k), path_a - path_b)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                yz = ev.b(j, k)
                loop = ev.s_part(i, yz) - ev.s_part(yz, i)
                record("cat.triangle-symm", (i, j, k), loop)
                if done():
                    return report

    return report
