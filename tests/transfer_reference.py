"""Homotopy transfer with the transferred Jacobiator expanded by hand.

This is ``cohom.transfer_to_skeletal`` as it was before it read the
transferred Jacobiator off the inclusion's morphism Jacobiator, kept as the
reference that the construction is compared against.  With (i, p, h) the
splitting of the complex onto its cohomology, the candidates are

    bracket_H = p . bracket . (i (x) i)
    alt_H     = p . alt . (i (x) i)
    jac_H     = p . ( jac(i,i,i) - [i ., h[i ., i .]]  (two placements)
                                  + [h[i ., i .], i .] )
    f2        = h . bracket . (i (x) i)

with the six correction terms written out one by one.
"""

from __future__ import annotations

import numpy as np

from lie2alg import dkcore, exactla as xla, morph as morph_mod
from lie2alg.cohom import TransferError
from lie2alg.el2 import EL2Algebra, check_el2


def transfer_reference(e: EL2Algebra) -> tuple[EL2Algebra, morph_mod.ELMorphism]:
    hodge = dkcore.hodge_decompose(e.complex)
    i0, i1 = hodge.include.f0, hodge.include.f1
    p0, p1 = hodge.project.f0, hodge.project.f1
    h = hodge.homotopy.h

    b00_ii = xla.precompose(xla.precompose(e.b00, 1, i0), 2, i0)
    b_h = xla.postcompose(p0, b00_ii)
    b01_h = xla.postcompose(p1, xla.precompose(xla.precompose(e.b01, 1, i0), 2, i1))
    b10_h = xla.postcompose(p1, xla.precompose(xla.precompose(e.b10, 1, i1), 2, i0))
    alt_h = xla.postcompose(p1, xla.precompose(xla.precompose(e.alt, 1, i0), 2, i0))
    f2 = xla.postcompose(h, b00_ii)

    jac_iii = xla.precompose(xla.precompose(xla.precompose(e.jac, 1, i0), 2, i0), 3, i0)
    hb = xla.postcompose(h, b00_ii)                                   # h[i., i.]
    b01_i0 = xla.precompose(e.b01, 1, i0)
    c1 = np.tensordot(b01_i0, hb, axes=([2], [0]))                    # [i x, h[i y, i z]]
    c2 = np.tensordot(b01_i0, hb, axes=([2], [0])).swapaxes(1, 2)     # [i y, h[i x, i z]]
    b10_i0 = xla.precompose(e.b10, 2, i0)
    c3 = np.moveaxis(np.tensordot(b10_i0, hb, axes=([1], [0])), 1, 3)  # [h[i x, i y], i z]
    ib = xla.postcompose(i0, b_h)                                     # i bracket_H
    b00_i1 = xla.precompose(e.b00, 1, i0)
    hb_right = xla.postcompose(h, xla.precompose(e.b00, 2, i0))
    c4 = np.moveaxis(np.tensordot(hb_right, ib, axes=([1], [0])), 1, 3)
    # c4 = h[i bracket_H(x,y), i z]: hb_right[k, m(C0), z], ib[m, x, y] -> (k, z, x, y)
    c5 = np.tensordot(xla.postcompose(h, b00_i1), ib, axes=([2], [0])).swapaxes(1, 2)
    # c5 = h[i y, i bracket_H(x,z)]: postcompose(h, b00_i1)[k, y, m] ib[m, x, z]
    c6 = np.tensordot(xla.postcompose(h, b00_i1), ib, axes=([2], [0]))
    # c6 = h[i x, i bracket_H(y,z)]
    lifted = jac_iii - c1 + c2 + c3 + c4 + c5 - c6

    # the lifted Jacobiator must land in the kernel of d
    flat = lifted.reshape(e.complex.n1, -1)
    if not xla.is_zero(np.dot(e.complex.d, flat)):
        raise TransferError("transfer candidate does not land in the kernel of d")
    jac_h = xla.postcompose(p1, xla.freeze(lifted))
    if not xla.arrays_equal(xla.postcompose(i1, jac_h), lifted):
        raise TransferError("transfer candidate is not reproduced by the splitting")

    skeletal = EL2Algebra(hodge.skeletal, b_h, b01_h, b10_h, alt_h, jac_h)
    verdict = check_el2(skeletal)
    if not verdict.passed:
        raise TransferError(f"transferred structure fails validation:\n{verdict.render()}")
    inclusion = morph_mod.ELMorphism(skeletal, e, i0, i1, f2)
    verdict = morph_mod.check_morphism(inclusion)
    if not verdict.passed:
        raise TransferError(f"transfer inclusion fails validation:\n{verdict.render()}")
    if not morph_mod.is_equivalence(inclusion):
        raise TransferError("transfer inclusion is not an equivalence")
    return skeletal, inclusion
