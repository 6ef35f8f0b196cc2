"""Two-term complexes, linear categories and the normalization equivalence.

A two-term complex ``C^-1 --d--> C^0`` corresponds to a linear category whose
objects form C^0 and whose arrows are pairs (x, a) with source x and target
x + d a: an arrow bold-a : x -> y decomposes uniquely as 1_x + a with arrow
part a in ker(source).  Composition adds arrow parts, which makes every
linear category a groupoid, with (x + da, -a) inverse to (x, a).

The two constructions ``gamma`` (complex -> category) and ``normalize``
(category -> complex) are mutually inverse on this representation, the
finite-dimensional two-term case of the Dold-Kan correspondence.

This module also houses bilinear bracket data on a complex (the chain-level
avatar of a bilinear functor on the category, including the derived bracket
of two arrow parts), quasi-isomorphism detection, and the deterministic
Hodge-style splitting used by homotopy transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import exactla as xla
from .exactla import Subspace, TensorRecord
from .report import CheckReport, check_identities


class CompositionError(ValueError):
    """Arrows or maps are not composable."""


class ChainMapError(ValueError):
    """Matrices do not commute with the differentials."""


@dataclass(frozen=True, eq=False)
class TwoTermComplex(TensorRecord):
    """C^-1 --d--> C^0 with chosen bases; d is an (n0 x n1) matrix."""

    n0: int
    n1: int
    d: np.ndarray

    def shapes(self):
        return {"d": (self.n0, self.n1)}

    @property
    def is_skeletal(self) -> bool:
        return xla.is_zero(self.d)


def zero_complex(n0: int = 0, n1: int = 0) -> TwoTermComplex:
    return TwoTermComplex(n0, n1, xla.zeros(n0, n1))


@dataclass(frozen=True, eq=False)
class Arrow(TensorRecord):
    """An arrow (x, a): x -> x + d a of a linear category, stored as its
    source object and arrow part."""

    obj: np.ndarray
    part: np.ndarray

    def shapes(self):
        return {"obj": (None,), "part": (None,)}

    def __add__(self, other: "Arrow") -> "Arrow":
        return Arrow(self.obj + other.obj, self.part + other.part)

    def __sub__(self, other: "Arrow") -> "Arrow":
        return Arrow(self.obj - other.obj, self.part - other.part)

    def __neg__(self) -> "Arrow":
        return Arrow(-self.obj, -self.part)


@dataclass(frozen=True, eq=False)
class LinearCategory(TensorRecord):
    """The linear groupoid with object space Q^objects_dim and arrows
    (x, a) with target x + t_matrix a."""

    objects_dim: int
    arrow_part_dim: int
    t_matrix: np.ndarray

    def shapes(self):
        return {"t_matrix": (self.objects_dim, self.arrow_part_dim)}

    def source(self, f: Arrow) -> np.ndarray:
        return f.obj

    def target(self, f: Arrow) -> np.ndarray:
        return xla.freeze(f.obj + np.dot(self.t_matrix, f.part))

    def identity(self, x: np.ndarray) -> Arrow:
        return Arrow(x, xla.zeros(self.arrow_part_dim))

    def inverse(self, f: Arrow) -> Arrow:
        return Arrow(self.target(f), -f.part)


def gamma(c: TwoTermComplex) -> LinearCategory:
    """The linear category of a two-term complex: objects C^0, arrows
    C^0 + C^-1 with t(x, a) = x + d a."""
    return LinearCategory(c.n0, c.n1, c.d)


def normalize(v: LinearCategory) -> TwoTermComplex:
    """Normalized complex of a linear category: degree 0 the objects, degree
    -1 the arrow parts (the kernel of the source map), differential the
    restriction of the target map."""
    return TwoTermComplex(v.objects_dim, v.arrow_part_dim, v.t_matrix)


def compose_arrows(v: LinearCategory, g: Arrow, f: Arrow) -> Arrow:
    """The composite g after f; defined when target(f) = source(g), and then
    equal to (source(f), part(f) + part(g))."""
    if not xla.arrays_equal(v.target(f), g.obj):
        raise CompositionError("target of the first arrow differs from source of the second")
    return Arrow(f.obj, f.part + g.part)


# ---------------------------------------------------------------------------
# Chain maps and homotopies
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainMap(TensorRecord):
    """A chain map (f0, f1): src -> dst, with f0 d = d' f1."""

    src: TwoTermComplex
    dst: TwoTermComplex
    f0: np.ndarray
    f1: np.ndarray

    def shapes(self):
        return {"f0": (self.dst.n0, self.src.n0), "f1": (self.dst.n1, self.src.n1)}

    def validate(self) -> None:
        if not xla.arrays_equal(np.dot(self.f0, self.src.d), np.dot(self.dst.d, self.f1)):
            raise ChainMapError("f0 d != d' f1")


def identity_chain_map(c: TwoTermComplex) -> ChainMap:
    return ChainMap(c, c, xla.identity(c.n0), xla.identity(c.n1))


@dataclass(frozen=True, eq=False)
class ChainHomotopy(TensorRecord):
    """A degree -1 map h: C^0 -> C'^-1; its meaning is fixed by the use site."""

    h: np.ndarray

    def shapes(self):
        return {"h": (None, None)}


# ---------------------------------------------------------------------------
# Bilinear bracket data and the derived bracket on arrows
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BilinearBracket(TensorRecord):
    """Chain-level data of a bilinear functor on gamma(complex).

    b00: C0 x C0 -> C0, b01: C0 x C-1 -> C-1, b10: C-1 x C0 -> C-1, each
    stored with the output coordinate on axis 0.  The bracket of two arrow
    parts is derived: [a, b] = [da, b], evaluated through b01.
    """

    complex: TwoTermComplex
    b00: np.ndarray
    b01: np.ndarray
    b10: np.ndarray

    def shapes(self):
        n0, n1 = self.complex.n0, self.complex.n1
        return {"b00": (n0, n0, n0), "b01": (n1, n0, n1), "b10": (n1, n1, n0)}

    def on_objects(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return xla.apply_multilinear(self.b00, x, y)

    def derived(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """[a, b] = [da, b] for two arrow parts."""
        return xla.apply_multilinear(self.b01, np.dot(self.complex.d, a), b)

    def on_arrows(self, f: Arrow, g: Arrow) -> Arrow:
        """[(x,a), (y,b)] = ([x,y], [x,b] + [a,y] + [a,b])."""
        x, a = f.obj, f.part
        y, b = g.obj, g.part
        obj = self.on_objects(x, y)
        part = (
            xla.apply_multilinear(self.b01, x, b)
            + xla.apply_multilinear(self.b10, a, y)
            + self.derived(a, b)
        )
        return Arrow(obj, part)


# The chain-map identities of a bracket, as residual tensors of any object
# with ``complex``, ``b00``, ``b01`` and ``b10`` (a BilinearBracket, an
# EL2Algebra or a check-local view of one, stacked residues included);
# check_el2 lists them as chain.b01, chain.b10, chain.derived.

def chain_b01(br) -> np.ndarray:
    """d[x,b] - [x,db], axes (out, x, b)."""
    d = br.complex.d
    return xla.einsum("km,mxb->kxb", d, br.b01) - xla.einsum("kxm,mb->kxb", br.b00, d)


def chain_b10(br) -> np.ndarray:
    """d[a,y] - [da,y], axes (out, a, y)."""
    d = br.complex.d
    return xla.einsum("km,may->kay", d, br.b10) - xla.einsum("kmy,ma->kay", br.b00, d)


def chain_derived(br) -> np.ndarray:
    """[da,b] - [a,db], axes (out, a, b)."""
    d = br.complex.d
    return xla.einsum("kmb,ma->kab", br.b01, d) - xla.einsum("kam,mb->kab", br.b10, d)


def crossed_module_report(bracket: BilinearBracket, stop_after: Optional[int] = None) -> CheckReport:
    """The four identities a bilinear functor imposes on its components,
    evaluated on basis elements:

        d[x,b] = [x,db]   d[a,y] = [da,y]   [da,b] = [a,db]   d[a,b] = [da,db]
    """
    r_b01 = chain_b01(bracket)
    identities = (
        ("d[x,b]=[x,db]", r_b01, 0),
        ("d[a,y]=[da,y]", chain_b10(bracket), 0),
        ("[da,b]=[a,db]", chain_derived(bracket), 0),
        # the first identity at x = da: d[da,b] - [da,db]
        ("d[a,b]=[da,db]", xla.precompose(r_b01, 1, bracket.complex.d), 0),
    )
    return check_identities(identities, stop_after=stop_after)


# ---------------------------------------------------------------------------
# Cohomology of a two-term complex, quasi-isomorphisms, Hodge splitting
# ---------------------------------------------------------------------------

def h_minus1_basis(c: TwoTermComplex) -> Subspace:
    """H^-1 = ker d as a subspace of C^-1."""
    return xla.kernel_basis(c.d)


def h0_data(c: TwoTermComplex) -> tuple[int, np.ndarray, Subspace]:
    """H^0 = C^0 / im d: dimension, representative columns, and im d."""
    im = xla.image_basis(c.d)
    dim, reps = xla.quotient(xla.full_space(c.n0), im)
    return dim, reps, im


def is_quasi_iso(f: ChainMap) -> bool:
    """True when the induced maps on H^0 and H^-1 are isomorphisms."""
    # induced map on H^-1 = ker d
    ker_src = h_minus1_basis(f.src)
    ker_dst = h_minus1_basis(f.dst)
    if ker_src.dim != ker_dst.dim:
        return False
    mat1 = xla.membership(ker_dst, np.dot(f.f1, ker_src.basis))
    # None: not a chain map image; cannot happen for valid maps
    if mat1 is None or xla.rank(mat1) != ker_dst.dim:
        return False

    # induced map on H^0 = C^0 / im d
    dim_src, reps_src, _ = h0_data(f.src)
    dim_dst, reps_dst, im_dst = h0_data(f.dst)
    if dim_src != dim_dst:
        return False
    if dim_dst == 0:
        return True
    mat0 = xla.coset_coordinates(im_dst, reps_dst, np.dot(f.f0, reps_src))
    return mat0 is not None and xla.rank(mat0) == dim_dst


@dataclass(frozen=True)
class HodgeData:
    """Deterministic splitting of a two-term complex onto its cohomology.

    include . project = identity on the skeletal complex, and on the original
    complex 1 - include . project equals d h in degree 0 and h d in degree -1.
    The side conditions h . include = 0 and project . h = 0 also hold.
    """

    skeletal: TwoTermComplex
    include: ChainMap
    project: ChainMap
    homotopy: ChainHomotopy


def hodge_decompose(c: TwoTermComplex) -> HodgeData:
    ker = h_minus1_basis(c)                 # basis K of ker d in C^-1
    h0_dim, h0_reps, im = h0_data(c)        # complement reps of im d in C^0

    # complement of ker d inside C^-1: coordinate vectors at the pivot
    # columns of d
    _, pivots = xla.rref(c.d)
    compl = xla.identity(c.n1)[:, list(pivots)]

    skeletal = TwoTermComplex(h0_dim, ker.dim, xla.zeros(h0_dim, ker.dim))
    i0, i1 = h0_reps, ker.basis

    # p0: coordinates along the splitting C^0 = im d + reps; p1: along
    # C^-1 = ker d + complement.  Each inverse raises SubspaceError when its
    # columns fail to form a basis.
    split0 = xla.inverse(np.column_stack([im.basis, i0]))
    im_coords, p0 = split0[: im.dim], split0[im.dim :]
    p1 = xla.inverse(np.column_stack([i1, compl]))[: ker.dim]

    # h: invert d on the complement of ker d, applied to the im-d component.
    # d maps the complement's unit vectors onto d's pivot columns, which are
    # the im-d basis itself, so h is the complement read in im-d coordinates.
    h = np.dot(compl, im_coords) if pivots else xla.zeros(c.n1, c.n0)

    include = ChainMap(skeletal, c, i0, i1)
    project = ChainMap(c, skeletal, p0, p1)
    return HodgeData(skeletal, include, project, ChainHomotopy(h))
