"""The identities of morphisms and 2-morphisms as ``morph`` wrote them with
positional-axis contractions (``np.tensordot``, ``np.dot``, ``moveaxis`` and
the ``exactla`` contraction helpers), kept verbatim as the reference the
named-axis formulas are compared against."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from lie2alg import exactla as xla


def _morphism_identities(m) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each identity of the morphism as (name, residual, power of den)."""
    src, dst = m.src, m.dst
    d, dp = src.complex.d, dst.complex.d
    f0, f1, f2 = m.f0, m.f1, m.f2

    yield "chain-map", np.dot(f0, d) - np.dot(dp, f1), 4

    # [f0 x, f0 y]' - f0[x, y] = d' f2(x, y)
    b00_ff = xla.precompose(xla.precompose(dst.b00, 1, f0), 2, f0)
    yield "bracket.00", b00_ff - xla.postcompose(f0, src.b00) - xla.postcompose(dp, f2), 6

    # [f1 a, f0 y]' - f1[a, y] = f2(da, y)
    b10_ff = xla.precompose(xla.precompose(dst.b10, 1, f1), 2, f0)
    f2_da = np.moveaxis(np.tensordot(f2, d, axes=([1], [0])), 2, 1)
    yield "bracket.10", b10_ff - xla.postcompose(f1, src.b10) - f2_da, 7

    # [f0 x, f1 b]' - f1[x, b] = f2(x, db)
    b01_ff = xla.precompose(xla.precompose(dst.b01, 1, f0), 2, f1)
    f2_db = np.tensordot(f2, d, axes=([2], [0]))
    yield "bracket.01", b01_ff - xla.postcompose(f1, src.b01) - f2_db, 7

    # <f0 x, f0 y>' - f1<x, y> = f2(x, y) + f2(y, x)
    alt_ff = xla.precompose(xla.precompose(dst.alt, 1, f0), 2, f0)
    yield "alternator", alt_ff - xla.postcompose(f1, src.alt) - f2 - f2.swapaxes(1, 2), 5
    yield "jacobiator", _morphism_jacobiator(m), 9


def _morphism_jacobiator(m) -> np.ndarray:
    """Residual of the Jacobiator identity of a morphism (``cohom``'s
    homotopy transfer solves it for the source Jacobiator):

        <f0 x, f0 y, f0 z>' - f1<x, y, z> =
          [f0x, f2(y,z)]' - [f0y, f2(x,z)]' - [f2(x,y), f0z]'
          - f2([x,y], z) - f2(y, [x,z]) + f2(x, [y,z])"""
    src, dst = m.src, m.dst
    f0, f1, f2 = m.f0, m.f1, m.f2
    jac_ff = xla.precompose(xla.precompose(xla.precompose(dst.jac, 1, f0), 2, f0), 3, f0)
    lhs = jac_ff - xla.postcompose(f1, src.jac)
    b01p_f0 = xla.precompose(dst.b01, 1, f0)
    t1 = np.tensordot(b01p_f0, f2, axes=([2], [0]))                       # (k, x, y, z)
    t2 = np.tensordot(b01p_f0, f2, axes=([2], [0])).swapaxes(1, 2)         # [f0y, f2(x,z)]
    b10p_f0 = xla.precompose(dst.b10, 2, f0)
    t3 = np.moveaxis(np.tensordot(b10p_f0, f2, axes=([1], [0])), 1, 3)     # (k, x, y, z)
    t4 = np.moveaxis(np.tensordot(f2, src.b00, axes=([1], [0])), (2, 3), (1, 2))
    t5 = np.swapaxes(np.tensordot(f2, src.b00, axes=([2], [0])), 1, 2)
    t6 = np.tensordot(f2, src.b00, axes=([2], [0]))
    return lhs - (t1 - t2 - t3 - t4 - t5 + t6)


def _2morphism_identities(t) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each identity of the 2-morphism as (name, residual, power of den)."""
    f, g = t.src, t.dst
    theta = t.theta
    src = f.src
    dst = f.dst
    d, dp = src.complex.d, dst.complex.d

    yield "homotopy.objects", g.f0 - f.f0 - np.dot(dp, theta), 2
    yield "homotopy.parts", g.f1 - f.f1 - np.dot(theta, d), 3

    t1 = np.tensordot(xla.precompose(dst.b01, 1, f.f0), theta, axes=([2], [0]))
    t2 = np.swapaxes(
        np.tensordot(xla.precompose(dst.b10, 2, f.f0), theta, axes=([1], [0])), 1, 2
    )
    # t2 axes: b10'[k, m, y-slot after f0] theta[m, x] -> (k, y, x) -> (k, x, y)
    t3 = xla.postcompose(theta, src.b00)
    dtheta = np.dot(dp, theta)
    t4 = np.tensordot(
        np.tensordot(dst.b01, dtheta, axes=([1], [0])), theta, axes=([1], [0])
    )
    # t4 axes: b01'[k, m, b] dtheta[m, x] -> (k, b, x); then theta[b, y] -> (k, x, y)
    yield "homotopy.bracket", f.f2 - g.f2 - t1 - t2 + t3 + t4, 5
