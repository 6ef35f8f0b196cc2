"""The cocycle equations and the coboundary formula as ``cohom`` wrote them
before it evaluated them through ``el2``'s coherence residuals and
``morph``'s Jacobiator, kept verbatim as the reference those are compared
against, with the assemblies that ran on them.

These formulas read the axes of their tensors by position (``tensordot``,
``moveaxis``, ``exactla.plug``), so a batch of cochains rides on one
trailing axis."""

from __future__ import annotations

import math

import numpy as np

from lie2alg import cohom, exactla as xla
from lie2alg.report import check_identities

_COCYCLE_EQUATIONS = ("cocycle.jacobiator", "cocycle.sym12", "cocycle.sym23", "cocycle.alternator")


def _act(rho: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Left module action on the output of a tensor: [x, t(...)], with an
    extra input axis for x at position 1."""
    return np.tensordot(rho, t, axes=([2], [0]))           # (out, x, inputs...)


def _cocycle_equations(c: np.ndarray, rho: np.ndarray, s: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """Residuals of the four cocycle equations (``_COCYCLE_EQUATIONS``) of
    (s, j) for the bracket c and the action rho.  s and j may carry one
    trailing batch axis, which every residual keeps."""

    def j_plug(slot: int) -> np.ndarray:
        """j with the bracket substituted into one slot, axes ordered as
        (out, x, y, then the two bracket arguments in place)."""
        return xla.plug(j, slot, c)

    # equation 1 (from the bracket-Jacobiator coherence with d = 0):
    #  [x, j(y,z,w)] - [y, j(x,z,w)] + [z, j(x,y,w)] + [j(x,y,z), w]
    #  - j([x,y],z,w) - j(y,[x,z],w) - j(y,z,[x,w])
    #  + j(x,[y,z],w) + j(x,z,[y,w]) - j(x,y,[z,w]) = 0
    a1 = _act(rho, j)                                        # (out, x, y, z, w)
    a2 = a1.swapaxes(1, 2)                                   # [y, j(x,z,w)]
    a3 = np.moveaxis(a1, 1, 3)                               # [z, j(x,y,w)]
    a4 = -np.moveaxis(a1, 1, 4)                              # [j(x,y,z), w] = -[w, j(x,y,z)]
    b1 = j_plug(1)                                           # j([x,y], z, w) as (out, x, y, z, w)
    b2 = np.swapaxes(j_plug(2), 1, 2)                        # j(y, [x,z], w): plug axes (out, y, x, z, w)
    b3 = np.moveaxis(j_plug(3), 3, 1)                        # j(y, z, [x,w]): plug axes (out, y, z, x, w)
    b4 = j_plug(2)                                           # j(x, [y,z], w)
    b5 = np.moveaxis(j_plug(3), 3, 2)                        # j(x, z, [y,w]): plug axes (out, x, z, y, w)
    b6 = j_plug(3)                                           # j(x, y, [z,w])
    eq1 = a1 - a2 + a3 + a4 - b1 - b2 - b3 + b4 + b5 - b6

    # equation 2: j(x,y,z) + j(y,x,z) - [z, s(x,y)] = 0
    zs = np.moveaxis(_act(rho, s), 1, 3)                     # [z, s(x,y)] as (out, x, y, z)
    eq2 = j + j.swapaxes(1, 2) - zs

    # equation 3: j(x,y,z) + j(x,z,y) - [x, s(y,z)] + s([x,y], z) + s(y, [x,z]) = 0
    xs = _act(rho, s)                                        # [x, s(y,z)] as (out, x, y, z)
    s_b_first = xla.plug(s, 1, c)                            # s([x,y], z): (out, x, y, z)
    s_b_second = np.swapaxes(xla.plug(s, 2, c), 1, 2)        # s(y, [x,z]): plug axes (out,y,x,z)
    eq3 = j + j.swapaxes(2, 3) - xs + s_b_first + s_b_second

    # equation 4: s([x,y], z) - s(z, [x,y]) = 0
    right = np.moveaxis(xla.plug(s, 2, c), 1, 3)             # s(z, [x,y]) -> (out, x, y, z)
    eq4 = s_b_first - right

    return eq1, eq2, eq3, eq4


def _coboundary_terms(c: np.ndarray, rho: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_f, j_f) of :func:`coboundary`; f may carry one trailing batch axis."""
    s_f = f + f.swapaxes(1, 2)
    t1 = _act(rho, f)                                        # [x, f(y,z)]
    t2 = t1.swapaxes(1, 2)                                   # [y, f(x,z)]
    t3 = -np.moveaxis(t1, 1, 3)                              # [f(x,y), z] = -[z, f(x,y)]
    t4 = xla.plug(f, 1, c)                                   # f([x,y], z)
    t5 = np.swapaxes(xla.plug(f, 2, c), 1, 2)                # f(y, [x,z])
    t6 = xla.plug(f, 2, c)                                   # f(x, [y,z])
    return s_f, t1 - t2 - t3 - t4 - t5 + t6


# ---------------------------------------------------------------------------
# the assemblies on the formulas above, as cohom ran them
# ---------------------------------------------------------------------------

def cocycle_residuals(g, m, p) -> list[tuple[str, np.ndarray]]:
    return list(zip(_COCYCLE_EQUATIONS, _cocycle_equations(g.c, m.rho, p.s, p.j)))


def is_cocycle(g, m, p):
    den = xla.common_denominator(g.c, m.rho, p.s, p.j)
    residuals = _cocycle_equations(
        xla.scaled_ints(g.c, den), xla.scaled_ints(m.rho, den),
        xla.scaled_ints(p.s, den), xla.scaled_ints(p.j, den**2),
    )
    report = check_identities(zip(_COCYCLE_EQUATIONS, residuals, (3, 2, 2, 2)), den=den)
    return report.passed, report


def _scaled_structure(g, m):
    den = xla.common_denominator(g.c, m.rho)
    return den, xla.scaled_ints(g.c, den), xla.scaled_ints(m.rho, den)


def coboundary(g, m, f):
    f = xla.as_exact(f)
    den_f = xla.common_denominator(f)
    den, c, rho = _scaled_structure(g, m)
    s_f, j_f = _coboundary_terms(c, rho, xla.scaled_ints(f, den_f))
    return cohom.CocyclePair(xla.unscaled(s_f, den_f), xla.unscaled(j_f, den * den_f))


def _unit_batch(shape):
    size = math.prod(shape)
    out = np.zeros((size, size), dtype=object)
    np.fill_diagonal(out, 1)
    return out.reshape(*shape, size)


def _batch_rows(t):
    return t.reshape(math.prod(t.shape[:-1]), t.shape[-1])


def coboundary_matrix(g, m):
    n, dm = g.dim, m.dim
    den, c, rho = _scaled_structure(g, m)
    s_f, j_f = _coboundary_terms(c, rho, _unit_batch((dm, n, n)))
    return xla.freeze(np.concatenate([xla.unscaled(_batch_rows(s_f), 1),
                                      xla.unscaled(_batch_rows(j_f), den)]))


def cocycle_matrix(g, m):
    n, dm = g.dim, m.dim
    den, c, rho = _scaled_structure(g, m)
    split, ambient = dm * n * n, cohom.pair_ambient_dim(g, m)
    probes = _unit_batch((ambient,))
    probes[split:] *= den
    s = probes[:split].reshape(dm, n, n, ambient)
    j = probes[split:].reshape(dm, n, n, n, ambient)
    return xla.freeze(np.concatenate([_batch_rows(e) for e in _cocycle_equations(c, rho, s, j)]))
