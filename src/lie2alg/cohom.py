"""Classification machinery for skeletal structures.

A skeletal structure on a Lie algebra g with module M is a pair of tensors
(s, j) - the alternator and the Jacobiator - subject to four cocycle
equations; coboundaries come from a single bilinear map f.  The quotient
space classifies skeletal structures up to equivalence.

Each formula is the one the package already has.  The cocycle equations
are el2's four coh.* identities on the skeletal structure (d = 0) with
bracket c, b01 = rho, b10 = -rho^T, alt = s and jac = j; the coboundary of
f is (f + f(y,x), j_f), with j_f minus morph's Jacobiator residual of the
morphism (1, 1, f) between skeletal structures with zero Jacobiator.  Both
formula families name every axis, so the operators are assembled by one
evaluation over a leading batch of unit cochains.  Skew-symmetrization
projects this space onto degree-3 Chevalley-Eilenberg cohomology, with
kernel the alternating bilinear maps on the abelianization, giving the exact
sequence checked by :func:`exact_sequence_report`.

Both cohomologies are one record, :class:`CohomologySpace`.  A
skew-symmetrized cochain t is closed exactly when (0, t) is a cocycle pair:
for an alternating t the first cocycle equation is the Chevalley-Eilenberg
differential of t term for term, and the other three vanish.

``transfer_to_skeletal`` realizes homotopy invariance: any structure is
equivalent to a skeletal one living on its cohomology.  With (i, p, h) the
deterministic splitting of the complex onto its cohomology, the bracket,
the alternator and the inclusion's bracket homotopy are projections,

    bracket_H = p . bracket . (i (x) i)
    alt_H     = p . alt . (i (x) i)
    f2        = h . bracket . (i (x) i)

and jac_H is the Jacobiator the inclusion (i, f2) asks for: the residual of
the inclusion's morphism Jacobiator identity with jac_H = 0 lands in the
image of i and is solved through the splitting, jac_H = p . residual.  The
construction verifies its own output - the skeletal structure, the
inclusion morphism, and the equivalence property - and raises rather than
returning anything unvalidated.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from . import dkcore, exactla as xla, morph as morph_mod, skew
from .el2 import (
    AXES,
    EL2Algebra,
    LieAlgebraFD,
    RepresentationFD,
    _push,
    _residual_alternator_bracket,
    _residual_bracket_jacobiator,
    _residual_jacobiator_sym12,
    _residual_jacobiator_sym23,
    _scaled,
    check_el2,
    extract_skeletal_data,
    zero_el2,
)
from .exactla import ShapeError, Subspace, TensorRecord
from .report import CheckReport, ReportError, check_identities


class CocycleError(ReportError):
    """A cochain pair fails the cocycle equations; carries their report."""


class TransferError(ValueError):
    """A homotopy-transfer candidate failed validation (never silenced)."""


@dataclass(frozen=True, eq=False)
class CocyclePair(TensorRecord):
    """s: g (x) g -> M and j: g (x) g (x) g -> M, stored output-first."""

    s: np.ndarray
    j: np.ndarray

    def shapes(self):
        # dim M and dim g are read off s
        m, n = (np.shape(self.s) + (None, None))[:2]
        return {"s": (m, n, n), "j": (m, n, n, n)}

    def __add__(self, other: "CocyclePair") -> "CocyclePair":
        return CocyclePair(self.s + other.s, self.j + other.j)

    def __sub__(self, other: "CocyclePair") -> "CocyclePair":
        return CocyclePair(self.s - other.s, self.j - other.j)

    def scale(self, scalar) -> "CocyclePair":
        q = xla.rat(scalar)
        return CocyclePair(self.s * q, self.j * q)


def zero_pair(g: LieAlgebraFD, m: RepresentationFD) -> CocyclePair:
    return CocyclePair(xla.zeros(m.dim, g.dim, g.dim), xla.zeros(m.dim, g.dim, g.dim, g.dim))


def pair_ambient_dim(g: LieAlgebraFD, m: RepresentationFD) -> int:
    return m.dim * g.dim**2 + m.dim * g.dim**3


def flatten_pair(p: CocyclePair) -> np.ndarray:
    """Coordinates of (s, j): the s block first, then the j block, each in
    row-major index order."""
    return xla.freeze(np.concatenate([p.s.reshape(-1), p.j.reshape(-1)]))


def unflatten_pair(g: LieAlgebraFD, m: RepresentationFD, v: np.ndarray) -> CocyclePair:
    n, dm = g.dim, m.dim
    split = dm * n * n
    v = np.asarray(v)
    if v.shape != (pair_ambient_dim(g, m),):
        raise ShapeError("flattened pair has the wrong length")
    return CocyclePair(v[:split].reshape(dm, n, n), v[split:].reshape(dm, n, n, n))


# ---------------------------------------------------------------------------
# Cocycle equations and coboundaries
# ---------------------------------------------------------------------------

_COCYCLE_EQUATIONS = ("cocycle.jacobiator", "cocycle.sym12", "cocycle.sym23", "cocycle.alternator")


def _skeletal_view(c: np.ndarray, rho: np.ndarray, s: Optional[np.ndarray], j: np.ndarray) -> SimpleNamespace:
    """The skeletal structure (d = 0) of the bracket c, the action rho and
    the pair (s, j), as the namespace the formulas of ``el2`` and ``morph``
    read: b00 = c, b01 = rho, b10 = -rho^T (the right action), alt = s and
    jac = j.  s and j may carry leading batch axes."""
    return SimpleNamespace(b00=c, b01=rho, b10=-xla.einsum("kxa->kax", rho), alt=s, jac=j)


def _coherence_residuals(c: np.ndarray, rho: np.ndarray, s: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, ...]:
    """Residuals of the four cocycle equations (``_COCYCLE_EQUATIONS``) of
    (s, j): el2's coh.* identities on the skeletal view, the last one
    relabelled and negated, s([x,y],z) - s(z,[x,y]) at (x, y, z).  s and j
    may carry leading batch axes, which every residual keeps."""
    e = _skeletal_view(c, rho, s, j)
    return (_residual_bracket_jacobiator(e), _residual_jacobiator_sym12(e), _residual_jacobiator_sym23(e),
            -xla.einsum("kzxy->kxyz", _residual_alternator_bracket(e)))


def cocycle_residuals(g: LieAlgebraFD, m: RepresentationFD, p: CocyclePair) -> list[tuple[str, np.ndarray]]:
    """The four cocycle equations as residual tensors, on Fractions.  The
    module is acted on from the left; the right action is [a, z] = -[z, a]."""
    return list(zip(_COCYCLE_EQUATIONS, _coherence_residuals(g.c, m.rho, p.s, p.j)))


def is_cocycle(g: LieAlgebraFD, m: RepresentationFD, p: CocyclePair) -> tuple[bool, CheckReport]:
    """The verdict and report of :func:`cocycle_residuals`, computed on
    Python ints: with D the common denominator of (c, rho, s, j), the
    equations run on (c, rho, s) * D and j * D**2, so equation 1 comes out
    times D**3 and equations 2-4 times D**2.  A zero residual is final; a
    violating one is divided back by its equation's scale, so the report is
    the Fraction one."""
    den = xla.common_denominator(g.c, m.rho, p.s, p.j)
    residuals = _coherence_residuals(
        xla.scaled_ints(g.c, den), xla.scaled_ints(m.rho, den),
        xla.scaled_ints(p.s, den), xla.scaled_ints(p.j, den**2),
    )
    report = check_identities(zip(_COCYCLE_EQUATIONS, residuals, (3, 2, 2, 2)), den=den)
    return report.passed, report


def _coboundary_jacobiator(c: np.ndarray, rho: np.ndarray, f: np.ndarray) -> np.ndarray:
    """j_f of :func:`coboundary`: minus the Jacobiator residual of the
    morphism (1, 1, f) between skeletal structures with zero Jacobiator,
    with f0 and f1 identities in Python ints.  f may carry leading batch
    axes."""
    n, dm = c.shape[0], rho.shape[0]
    e = _skeletal_view(c, rho, None, np.zeros((dm, n, n, n), dtype=object))
    ones = SimpleNamespace(src=e, dst=e, f0=np.identity(n, dtype=object), f1=np.identity(dm, dtype=object), f2=f)
    return -morph_mod._morphism_jacobiator(ones)


def coboundary(g: LieAlgebraFD, m: RepresentationFD, f: np.ndarray) -> CocyclePair:
    """The pair (s_f, j_f) of a bilinear map f: g (x) g -> M:

        s_f(x,y) = f(x,y) + f(y,x)
        j_f(x,y,z) = [x,f(y,z)] - [y,f(x,z)] - [f(x,y),z]
                     - f([x,y],z) - f(y,[x,z]) + f(x,[y,z])

    Always a cocycle; the test suite checks this exhaustively.  Computed on
    Python ints: with (c, rho) scaled by their common denominator D and f by
    its own, E, the s block comes out times E and the j block times D * E,
    and each is divided back once."""
    f = xla.as_exact(f)
    if f.shape != (m.dim, g.dim, g.dim):
        raise ShapeError(f"f has shape {f.shape}, expected {(m.dim, g.dim, g.dim)}")
    den_f = xla.common_denominator(f)
    den, c, rho = _scaled_structure(g, m)
    f = xla.scaled_ints(f, den_f)
    s_f = f + xla.einsum("kyx->kxy", f)
    return CocyclePair(xla.unscaled(s_f, den_f), xla.unscaled(_coboundary_jacobiator(c, rho, f), den * den_f))


# The operators below are assembled in one evaluation of the formulas above
# over the whole unit basis, held as a leading batch axis, on Python ints:
# c and rho are scaled by D, their common denominator.


def _scaled_structure(g: LieAlgebraFD, m: RepresentationFD) -> tuple[int, np.ndarray, np.ndarray]:
    den = xla.common_denominator(g.c, m.rho)
    return den, xla.scaled_ints(g.c, den), xla.scaled_ints(m.rho, den)


def _unit_batch(shape: tuple[int, ...]) -> np.ndarray:
    """The unit basis of the given shape in Python ints: the batch axis k
    (first) holds the k-th basis tensor in row-major order."""
    size = math.prod(shape)
    return np.identity(size, dtype=object).reshape(size, *shape)


def _batch_rows(t: np.ndarray) -> np.ndarray:
    """A batched tensor as a matrix: one row per entry, one column per batch."""
    return t.reshape(t.shape[0], math.prod(t.shape[1:])).T


def coboundary_matrix(g: LieAlgebraFD, m: RepresentationFD) -> np.ndarray:
    """Matrix of f -> flatten(coboundary(f)) in coordinates.  The scaled
    structure multiplies the j block by D, which is divided back out."""
    n, dm = g.dim, m.dim
    den, c, rho = _scaled_structure(g, m)
    f = _unit_batch((dm, n, n))
    s_f = f + xla.einsum("kyx->kxy", f)
    return xla.freeze(np.concatenate([xla.unscaled(_batch_rows(s_f), 1),
                                      xla.unscaled(_batch_rows(_coboundary_jacobiator(c, rho, f)), den)]))


def _cocycle_matrix(g: LieAlgebraFD, m: RepresentationFD) -> np.ndarray:
    """Stacked integer matrix of the four cocycle equations acting on
    flattened pairs.  The Jacobiator probes are scaled by D as well, so the
    rows of equation 1 come out multiplied by D**2 and the others by D: the
    row space, and with it the kernel, is the exact operator's."""
    n, dm = g.dim, m.dim
    den, c, rho = _scaled_structure(g, m)
    split, ambient = dm * n * n, pair_ambient_dim(g, m)
    probes = _unit_batch((ambient,))
    probes[:, split:] *= den
    s = probes[:, :split].reshape(ambient, dm, n, n)
    j = probes[:, split:].reshape(ambient, dm, n, n, n)
    return xla.freeze(np.concatenate([_batch_rows(r) for r in _coherence_residuals(c, rho, s, j)]))


@dataclass(frozen=True, eq=False)
class CohomologySpace(TensorRecord):
    """Cocycles modulo coboundaries, with deterministic representatives
    (pivot extension of the coboundary basis).  For HL3 the representatives
    are cocycle pairs and the subspaces live in :func:`flatten_pair`
    coordinates; for Chevalley-Eilenberg H3 they are alternating
    (dm, n, n, n) tensors and the subspaces live in :func:`alt3_to_coords`
    coordinates."""

    cocycles: Subspace
    coboundaries: Subspace
    representatives: tuple

    @property
    def dim(self) -> int:
        return len(self.representatives)


def _cohomology(z: Subspace, b: Subspace, cochain) -> CohomologySpace:
    """z/b with each representative column turned into a cochain."""
    dim, reps = xla.quotient(z, b)
    return CohomologySpace(z, b, tuple(cochain(reps[:, k]) for k in range(dim)))


def _class_coordinates(space: CohomologySpace, coords, x, message: str) -> np.ndarray:
    """Coordinates of the class of x against the representatives of
    ``space``, with ``coords`` flattening a cochain.  ``x`` is one cochain
    (a coordinate vector) or a sequence of cochains (one column each),
    answered by one elimination."""
    reps = np.empty((space.cocycles.ambient_dim, space.dim), dtype=object)
    for k, rep in enumerate(space.representatives):
        reps[:, k] = coords(rep)
    if isinstance(x, (CocyclePair, np.ndarray)):
        v = coords(x)
    else:
        v = np.column_stack([coords(t) for t in x])
    found = xla.coset_coordinates(space.coboundaries, reps, v)
    if found is None:
        raise CocycleError(message)
    return found


def zl3(g: LieAlgebraFD, m: RepresentationFD) -> Subspace:
    return xla.kernel_basis(_cocycle_matrix(g, m))


def bl3(g: LieAlgebraFD, m: RepresentationFD) -> Subspace:
    return xla.image_basis(coboundary_matrix(g, m))


def hl3(g: LieAlgebraFD, m: RepresentationFD) -> CohomologySpace:
    return _cohomology(zl3(g, m), bl3(g, m), lambda v: unflatten_pair(g, m, v))


def classes_equal(
    g: LieAlgebraFD, m: RepresentationFD, p: CocyclePair, q: CocyclePair
) -> bool:
    for pair in (p, q):
        ok, report = is_cocycle(g, m, pair)
        if not ok:
            raise CocycleError("classes_equal requires cocycle pairs", report)
    return coboundary_preimage(g, m, p, q) is not None


def coboundary_preimage(
    g: LieAlgebraFD, m: RepresentationFD, p: CocyclePair, q: CocyclePair
) -> Optional[np.ndarray]:
    """A bilinear map f with coboundary(f) = q - p, or None when the classes
    differ."""
    target = flatten_pair(q - p)
    sol = xla.solve(coboundary_matrix(g, m), target)
    if sol is None:
        return None
    return xla.freeze(sol.reshape(m.dim, g.dim, g.dim))


def class_coordinates(space: CohomologySpace, p: CocyclePair | Sequence[CocyclePair]) -> np.ndarray:
    """Coordinates of [p] against the HL3 representatives, for one pair or a
    sequence of pairs (see :func:`_class_coordinates`)."""
    return _class_coordinates(space, flatten_pair, p, "pair is not a cocycle (not in the span of Z)")


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg cohomology in degree 3
# ---------------------------------------------------------------------------

def ce_differential(g: LieAlgebraFD, m: RepresentationFD, k: int) -> np.ndarray:
    """Matrix of d: Hom(wedge^k g, M) -> Hom(wedge^{k+1} g, M) in the basis
    of increasing index tuples, with the standard alternating-sum formula."""
    n, dm = g.dim, m.dim
    rows_idx = xla.increasing_tuples(n, k + 1)
    cols_idx = xla.increasing_tuples(n, k)
    row_pos = {t: i for i, t in enumerate(rows_idx)}
    col_pos = {t: i for i, t in enumerate(cols_idx)}
    out = xla.zeros(dm * len(rows_idx), dm * len(cols_idx)).copy()

    def add(row_tuple, out_coord, col_tuple, col_coord, coeff):
        if coeff == 0:
            return
        r = row_pos[row_tuple] * dm + out_coord
        ccol = col_pos[col_tuple] * dm + col_coord
        out[r, ccol] += coeff

    for row_t in rows_idx:
        for i_pos, xi in enumerate(row_t):
            rest = row_t[:i_pos] + row_t[i_pos + 1:]
            sign = (-1) ** i_pos
            # rho(x_i) phi(rest)
            for out_c in range(dm):
                for in_c in range(dm):
                    add(row_t, out_c, rest, in_c, m.rho[out_c, xi, in_c] * sign)
        for i_pos, xi in enumerate(row_t):
            for j_pos in range(i_pos + 1, len(row_t)):
                xj = row_t[j_pos]
                rest = tuple(v for t, v in enumerate(row_t) if t not in (i_pos, j_pos))
                sign = (-1) ** (i_pos + j_pos)
                # phi([x_i, x_j], rest): expand the bracket and wedge its
                # index onto the front of rest
                for b_out in range(n):
                    coeff = g.c[b_out, xi, xj]
                    merged = None if coeff == 0 else xla.wedge((b_out,), rest)
                    if merged is None:
                        continue
                    msign, mono = merged
                    for out_c in range(dm):
                        add(row_t, out_c, mono, out_c, sign * msign * coeff)
    return xla.freeze(out)


def alt3_to_coords(g: LieAlgebraFD, m: RepresentationFD, t: np.ndarray) -> np.ndarray:
    triples = xla.increasing_tuples(g.dim, 3)
    out = xla.zeros(m.dim * len(triples)).copy()
    for pos, (a, b, c) in enumerate(triples):
        for mc in range(m.dim):
            out[pos * m.dim + mc] = t[mc, a, b, c]
    return xla.freeze(out)


def coords_to_alt3(g: LieAlgebraFD, m: RepresentationFD, v: np.ndarray) -> np.ndarray:
    """The alternating tensor with the given values on increasing triples:
    each value is placed at its triple, then the tensor is alternated."""
    n, dm = g.dim, m.dim
    t = xla.zeros(dm, n, n, n).copy()
    for pos, (a, b, c) in enumerate(xla.increasing_tuples(n, 3)):
        t[:, a, b, c] = v[pos * dm:(pos + 1) * dm]
    return xla.alternate(t, xla.ONE)


def is_alternating3(t: np.ndarray) -> bool:
    return xla.arrays_equal(t, -t.swapaxes(1, 2)) and xla.arrays_equal(t, -t.swapaxes(2, 3))


def ce_h3(g: LieAlgebraFD, m: RepresentationFD) -> CohomologySpace:
    z = xla.kernel_basis(ce_differential(g, m, 3))
    b = xla.image_basis(ce_differential(g, m, 2))
    return _cohomology(z, b, lambda v: coords_to_alt3(g, m, v))


# ---------------------------------------------------------------------------
# The comparison map and the exact sequence
# ---------------------------------------------------------------------------

def ss_class(g: LieAlgebraFD, m: RepresentationFD, p: CocyclePair) -> np.ndarray:
    """Skew-symmetrization of a cocycle pair: the alternating 3-cochain

        (x,y,z) -> 1/6 sum_perm sgn j(perm) - 1/12 sum_perm sgn s([.,.], .)

    computed by the Jacobiator kernel of :func:`lie2alg.skew.skew_symmetrize`
    on (j, s, c).  It is alternating and closed (the pair (0, t) is a
    cocycle), coboundary pairs land on coboundaries, and pairs (0, phi) with
    phi alternating return phi itself."""
    ok, report = is_cocycle(g, m, p)
    if not ok:
        raise CocycleError("skew-symmetrization requires a cocycle", report)
    t = skew.skew_jacobiator(p.j, p.s, g.c)
    if not is_alternating3(t):
        raise AssertionError("skew-symmetrized cochain is not alternating")
    if not is_cocycle(g, m, CocyclePair(xla.zeros(m.dim, g.dim, g.dim), t))[0]:
        raise AssertionError("skew-symmetrized cochain is not closed")
    return t


def abelianization(g: LieAlgebraFD) -> tuple[int, np.ndarray, Subspace]:
    """dim(g/[g,g]), representative columns, and [g,g]."""
    n = g.dim
    cols = [g.c[:, i, j] for i in range(n) for j in range(i + 1, n)]
    mat = np.empty((n, len(cols)), dtype=object)
    for k, col in enumerate(cols):
        mat[:, k] = col
    derived = xla.image_basis(mat if cols else xla.zeros(n, 0))
    dim, reps = xla.quotient(xla.full_space(n), derived)
    return dim, reps, derived


def invariants_basis(m: RepresentationFD) -> Subspace:
    """The submodule {v : rho(x) v = 0 for all x} of the module."""
    # rho(x) for each basis vector x, stacked into one (dim g * dim M, dim M) matrix
    return xla.kernel_basis(m.rho.transpose(1, 0, 2).reshape(m.algebra.dim * m.dim, m.dim))


def iota_pairs(g: LieAlgebraFD, m: RepresentationFD) -> list[CocyclePair]:
    """Basis pairs (a, 0) with a an alternating bilinear map on the
    abelianization pulled back along the quotient projection.  The values
    are taken in the invariant submodule, which is what the cocycle
    equations force on pairs with trivial Jacobiator part (no restriction at
    all when the module is trivial)."""
    dim_a, reps, derived = abelianization(g)
    n = g.dim
    inv = invariants_basis(m)
    # projection onto the representative coordinates along [g,g]
    proj = xla.inverse(np.column_stack([derived.basis, reps]))[derived.dim:]
    out = []
    for mc in range(inv.dim):
        value = inv.basis[:, mc]
        for (u, v) in itertools.combinations(range(dim_a), 2):
            # value * (u (x) v - v (x) u), u and v the projections' rows
            a = xla.alternate(np.multiply.outer(value, np.outer(proj[u], proj[v])), xla.ONE)
            out.append(CocyclePair(a, xla.zeros(m.dim, n, n, n)))
    return out


@dataclass(frozen=True, eq=False)
class ExactSequenceReport:
    space: CohomologySpace
    ce: CohomologySpace
    ss_matrix: np.ndarray  # ss on the HL3 representatives (columns), in H3 coordinates
    abelianization_dim: int
    hom_wedge2_dim: int
    dims_match: bool
    splitting_section: bool
    kernel_matches_iota: bool

    @property
    def hl3_dim(self) -> int:
        return self.space.dim

    @property
    def ce_dim(self) -> int:
        return self.ce.dim

    @property
    def passed(self) -> bool:
        return self.dims_match and self.splitting_section and self.kernel_matches_iota

    def render(self) -> str:
        lines = [
            f"dim HL3 = {self.hl3_dim}",
            f"dim H3 (Chevalley-Eilenberg) = {self.ce_dim}",
            f"dim abelianization = {self.abelianization_dim}",
            f"dim Hom(wedge^2 a, M) = {self.hom_wedge2_dim}",
            f"dimension identity dim HL3 = dim Hom(wedge^2 a, M) + dim H3: "
            f"{'ok' if self.dims_match else 'FAIL'}",
            f"splitting phi -> (0, phi) section of ss: "
            f"{'ok' if self.splitting_section else 'FAIL'}",
            f"kernel of ss = image of iota: "
            f"{'ok' if self.kernel_matches_iota else 'FAIL'}",
        ]
        return "\n".join(lines)


def ce_class_coordinates(
    ce: CohomologySpace, phi: np.ndarray | Sequence[np.ndarray], g: LieAlgebraFD, m: RepresentationFD
) -> np.ndarray:
    """Coordinates of the class of a closed alternating 3-cochain against the
    H3 representatives, for one cochain or a sequence of cochains (see
    :func:`_class_coordinates`)."""
    return _class_coordinates(ce, lambda t: alt3_to_coords(g, m, t), phi, "cochain is not closed")


def exact_sequence_report(g: LieAlgebraFD, m: RepresentationFD) -> ExactSequenceReport:
    """Verify the short exact sequence
    0 -> Hom(wedge^2 a, M) -> HL3 -> H3 -> 0 with a the abelianization.  The
    report carries HL3, H3 and the ss map it computed on the way."""
    space = hl3(g, m)
    ce = ce_h3(g, m)
    dim_a, _, _ = abelianization(g)
    hom_dim = invariants_basis(m).dim * (dim_a * (dim_a - 1) // 2)
    dims_match = space.dim == hom_dim + ce.dim

    # the canonical splitting: phi -> (0, phi) is a cocycle pair (ss_class
    # raises CocycleError otherwise) that hits phi again under ss
    splitting = True
    for phi in ce.representatives:
        pair = CocyclePair(xla.zeros(m.dim, g.dim, g.dim), phi)
        try:
            if not xla.arrays_equal(ss_class(g, m, pair), phi):
                splitting = False
        except CocycleError:
            splitting = False

    # kernel of ss on classes equals the image of iota
    if space.dim:
        ss = [ss_class(g, m, rep) for rep in space.representatives]
        h3_mat = ce_class_coordinates(ce, ss, g, m)
    else:
        h3_mat = xla.zeros(ce.dim, 0)
    kernel = xla.kernel_basis(h3_mat)
    pairs = iota_pairs(g, m)
    for pair in pairs:
        ok, _ = is_cocycle(g, m, pair)
        if not ok:
            return ExactSequenceReport(
                space, ce, h3_mat, dim_a, hom_dim, dims_match, splitting, False
            )
    if pairs:
        iota_space = xla.image_basis(class_coordinates(space, pairs))
    else:
        iota_space = xla.zero_space(space.dim)
    kernel_ok = xla.subspaces_equal(kernel, iota_space)

    return ExactSequenceReport(space, ce, h3_mat, dim_a, hom_dim, dims_match, splitting, kernel_ok)


# ---------------------------------------------------------------------------
# Skeletal equivalences and homotopy transfer
# ---------------------------------------------------------------------------

def skeletal_morphism(
    src: EL2Algebra, dst: EL2Algebra, f: np.ndarray
) -> morph_mod.ELMorphism:
    """The morphism (1, f) between skeletal structures on one carrier."""
    n0, n1 = src.complex.n0, src.complex.n1
    return morph_mod.ELMorphism(src, dst, xla.identity(n0), xla.identity(n1), f)


def quasi_inverse_data(
    src: EL2Algebra, dst: EL2Algebra, f: np.ndarray, theta: np.ndarray
) -> tuple[morph_mod.ELMorphism, morph_mod.ELTwoMorphism]:
    """Given (1, f): src -> dst between skeletal structures and any linear
    theta, build the reverse morphism (1, g) with

        g(x,y) = -f(x,y) + [x, theta y] + [theta x, y] - theta([x,y])

    and the 2-morphism theta: (1,g) . (1,f) => identity."""
    theta = xla.as_exact(theta)
    t1 = xla.einsum("kxm,my->kxy", src.b01, theta)            # [x, theta y]
    t2 = xla.einsum("kmy,mx->kxy", src.b10, theta)            # [theta x, y]
    t3 = xla.einsum("km,mxy->kxy", theta, src.b00)            # theta [x, y]
    gmat = -np.asarray(f) + t1 + t2 - t3
    back = skeletal_morphism(dst, src, xla.freeze(gmat))
    composite = morph_mod.compose(back, skeletal_morphism(src, dst, f))
    ident = morph_mod.identity_morphism(src)
    two = morph_mod.ELTwoMorphism(composite, ident, theta)
    return back, two


def transfer_to_skeletal(e: EL2Algebra) -> tuple[EL2Algebra, morph_mod.ELMorphism]:
    """Skeletal model on the cohomology of the complex, with the inclusion
    as a verified equivalence.  Raises :class:`TransferError` when any
    candidate tensor fails validation."""
    hodge = dkcore.hodge_decompose(e.complex)
    i0, i1 = hodge.include.f0, hodge.include.f1
    p0, p1 = hodge.project.f0, hodge.project.f1
    h = hodge.homotopy.h

    # the brackets and the alternator p . t . (i (x) i), f2 = h . b00 . (i (x) i)
    outs, ins = (_scaled(p0), _scaled(p1)), (_scaled(i0), _scaled(i1))
    projected = {name: _push(getattr(e, name), axes, outs, ins)
                 for name, axes in AXES.items() if name != "jac"}
    f2 = _push(e.b00, AXES["b00"], (_scaled(h),), ins)

    # the Jacobiator i1 jac_H that the inclusion needs: its morphism
    # Jacobiator residual while jac_H is still zero
    sk = hodge.skeletal
    candidate = zero_el2(sk.n0, sk.n1, sk.d, **projected)
    lifted = morph_mod._morphism_jacobiator(morph_mod.ELMorphism(candidate, e, i0, i1, f2))

    # the lifted Jacobiator must land in the kernel of d
    flat = lifted.reshape(e.complex.n1, -1)
    if not xla.is_zero(np.dot(e.complex.d, flat)):
        raise TransferError("transfer candidate does not land in the kernel of d")
    jac_h = xla.postcompose(p1, xla.freeze(lifted))
    if not xla.arrays_equal(xla.postcompose(i1, jac_h), lifted):
        raise TransferError("transfer candidate is not reproduced by the splitting")

    skeletal = replace(candidate, jac=jac_h)
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


def extract_class(e: EL2Algebra) -> tuple[LieAlgebraFD, RepresentationFD, CocyclePair]:
    """The classifying data of a skeletal structure: its Lie algebra, module
    and cocycle pair (alternator, Jacobiator)."""
    g, m = extract_skeletal_data(e)
    pair = CocyclePair(e.alt, e.jac)
    ok, report = is_cocycle(g, m, pair)
    if not ok:
        raise CocycleError("skeletal structure has a non-cocycle pair", report)
    return g, m, pair
