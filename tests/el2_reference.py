"""The tensor checker's residual formulas as they were written with
positional-axis contractions (``np.tensordot``, ``transpose``, ``moveaxis``
and the ``exactla`` contraction helpers), kept verbatim as the reference
the named-axis formulas of ``el2`` and ``dkcore`` are compared against.

These formulas read the axes of their tensors by position, so they take
plain tensors only: a stacked residue image is compared one prime at a
time."""

from __future__ import annotations

import numpy as np

from lie2alg import exactla as xla
from lie2alg.el2 import EL2Algebra


def chain_b01(br) -> np.ndarray:
    """d[x,b] - [x,db], axes (out, x, b)."""
    return xla.postcompose(br.complex.d, br.b01) - xla.precompose(br.b00, 2, br.complex.d)


def chain_b10(br) -> np.ndarray:
    """d[a,y] - [da,y], axes (out, a, y)."""
    lhs = xla.postcompose(br.complex.d, br.b10)
    rhs = np.moveaxis(np.tensordot(br.b00, br.complex.d, axes=([1], [0])), 2, 1)
    return lhs - rhs


def chain_derived(br) -> np.ndarray:
    """[da,b] - [a,db], axes (out, a, b)."""
    da_b = np.moveaxis(np.tensordot(br.b01, br.complex.d, axes=([1], [0])), 2, 1)
    a_db = np.tensordot(br.b10, br.complex.d, axes=([2], [0]))
    return da_b - a_db


def _leibniz_defect(c: np.ndarray) -> np.ndarray:
    """[x,[y,z]] - [[x,y],z] - [y,[x,z]] as a tensor over (x, y, z)."""
    t1 = np.tensordot(c, c, axes=([2], [0]))                     # (k, i, j, l)
    t2 = np.transpose(np.tensordot(c, c, axes=([1], [0])), (0, 2, 3, 1))
    t3 = np.transpose(t1, (0, 2, 1, 3))
    return t1 - t2 - t3


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
    t3 = np.transpose(t1, (0, 2, 1, 3))
    rhs = np.tensordot(e.jac, e.complex.d, axes=([3], [0]))
    return t1 - t2 - t3 - rhs


def _residual_bracket_jacobiator(e: EL2Algebra) -> np.ndarray:
    # [x,<y,z,w>] + <x,[y,z],w> + <x,z,[y,w]> + [<x,y,z>,w] + [z,<x,y,w>]
    #   = <x,y,[z,w]> + <[x,y],z,w> + [y,<x,z,w>] + <y,[x,z],w> + <y,z,[x,w]>
    # residual axes (x, y, z, w)
    # five distinct contractions; t1/t5/t8, t2/t9 and t3/t6/t10 are axis
    # permutations of one each
    b00, b01, b10, jac = e.b00, e.b01, e.b10, e.jac
    bracket_jac = np.tensordot(b01, jac, axes=([2], [0]))
    jac_in2 = np.tensordot(jac, b00, axes=([2], [0]))
    jac_in3 = np.tensordot(jac, b00, axes=([3], [0]))
    t1 = bracket_jac                                                           # (k,x,y,z,w)
    t2 = np.transpose(jac_in2, (0, 1, 3, 4, 2))
    t3 = np.transpose(jac_in3, (0, 1, 3, 2, 4))
    t4 = np.moveaxis(np.tensordot(b10, jac, axes=([1], [0])), 1, 4)
    t5 = np.moveaxis(bracket_jac, 1, 3)
    t6 = jac_in3
    t7 = np.moveaxis(np.tensordot(jac, b00, axes=([1], [0])), (3, 4), (1, 2))
    t8 = bracket_jac.swapaxes(1, 2)
    t9 = np.transpose(jac_in2, (0, 3, 1, 4, 2))
    t10 = np.moveaxis(jac_in3, 3, 1)
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


REFERENCE: dict[str, object] = {
    "chain.b01": chain_b01,
    "chain.b10": chain_b10,
    "chain.derived": chain_derived,
    "skew.00": _residual_skew00,
    "skew.10": _residual_skew10,
    "skew.01": _residual_skew01,
    "jacobi.000": _residual_jacobi000,
    "jacobi.100": _residual_jacobi100,
    "jacobi.010": _residual_jacobi010,
    "jacobi.001": _residual_jacobi001,
    "coh.bracket-jacobiator": _residual_bracket_jacobiator,
    "coh.jacobiator-sym12": _residual_jacobiator_sym12,
    "coh.jacobiator-sym23": _residual_jacobiator_sym23,
    "coh.alternator-bracket": _residual_alternator_bracket,
    "red.alternator-left": _residual_red_alt_left,
    "red.alternator-right": _residual_red_alt_right,
    "red.d-alternator": _residual_red_d_alt,
    "red.alternator-exact": _residual_red_alt_exact,
}
