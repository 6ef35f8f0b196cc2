"""Ready-made algebras, modules and graded fixtures.

Everything here is finite-dimensional over Q with exact structure constants.
The graded fixtures at the bottom provide differential graded Lie algebras
with designed Maurer-Cartan elements for the deformation module: nilpotent
ones built from a Lie algebra tensored with a small commutative dg algebra,
and contraction ("big bracket") ones on the exterior algebra of an inner
product space, where a Maurer-Cartan trivector is the same thing as a
quadratic Lie algebra structure.

Each small commutative dg algebra is an exterior algebra on odd generators,
given by a generator table: the generator degrees, the differential of each
generator and an optional top degree.  Every monomial product, in these
algebras and in the big bracket, is one :func:`exactla.wedge`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactla as xla
from .defo import GradedL3Algebra
from .el2 import LeibnizAlgebraFD, LieAlgebraFD, RepresentationFD


# ---------------------------------------------------------------------------
# Lie algebras and modules
# ---------------------------------------------------------------------------

def abelian_lie(n: int) -> LieAlgebraFD:
    return LieAlgebraFD(n, xla.zeros(n, n, n))


def sl2() -> LieAlgebraFD:
    """Basis (h, e, f): [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    c = xla.zeros(3, 3, 3).copy()
    c[1, 0, 1], c[1, 1, 0] = Fraction(2), Fraction(-2)
    c[2, 0, 2], c[2, 2, 0] = Fraction(-2), Fraction(2)
    c[0, 1, 2], c[0, 2, 1] = Fraction(1), Fraction(-1)
    return LieAlgebraFD(3, xla.freeze(c))


def so3() -> LieAlgebraFD:
    """Basis (e1, e2, e3) with [e_i, e_j] = eps_ijk e_k (cross product)."""
    c = xla.zeros(3, 3, 3).copy()
    for i, j, k, sign in ((0, 1, 2, 1), (1, 2, 0, 1), (2, 0, 1, 1)):
        c[k, i, j] = Fraction(sign)
        c[k, j, i] = Fraction(-sign)
    return LieAlgebraFD(3, xla.freeze(c))


def affine_line() -> LieAlgebraFD:
    """The two-dimensional non-abelian algebra: [t, s] = s."""
    c = xla.zeros(2, 2, 2).copy()
    c[1, 0, 1], c[1, 1, 0] = Fraction(1), Fraction(-1)
    return LieAlgebraFD(2, xla.freeze(c))


def heisenberg() -> LieAlgebraFD:
    """Basis (X, Y, Z) with [X, Y] = Z central."""
    c = xla.zeros(3, 3, 3).copy()
    c[2, 0, 1], c[2, 1, 0] = Fraction(1), Fraction(-1)
    return LieAlgebraFD(3, xla.freeze(c))


def killing_form(g: LieAlgebraFD) -> np.ndarray:
    """K(x, y) = trace(ad x . ad y), exact."""
    # ad(e_i) has matrix c[:, i, :]
    return xla.freeze(np.einsum("aib,bja->ij", g.c, g.c))


def cartan_3form(g: LieAlgebraFD, pairing: np.ndarray) -> np.ndarray:
    """phi(x,y,z) = <[x,y], z> as a (1, n, n, n) tensor over a 1-dim module."""
    phi = np.tensordot(g.c, np.asarray(pairing), axes=([0], [0]))
    return xla.freeze(phi.reshape((1, g.dim, g.dim, g.dim)))


def trivial_rep(g: LieAlgebraFD, dim: int = 1) -> RepresentationFD:
    return RepresentationFD(g, dim, xla.zeros(dim, g.dim, dim))


def adjoint_rep(g: LieAlgebraFD) -> RepresentationFD:
    return RepresentationFD(g, g.dim, g.c)


# ---------------------------------------------------------------------------
# Leibniz algebras
# ---------------------------------------------------------------------------

def leibniz_square() -> LeibnizAlgebraFD:
    """Two-dimensional: [x, x] = y, all other brackets zero."""
    c = xla.zeros(2, 2, 2).copy()
    c[1, 0, 0] = Fraction(1)
    return LeibnizAlgebraFD(2, xla.freeze(c))


def lie_as_leibniz(g: LieAlgebraFD) -> LeibnizAlgebraFD:
    return LeibnizAlgebraFD(g.dim, g.c)


def hemidirect_leibniz(rep: RepresentationFD) -> LeibnizAlgebraFD:
    """g + M with [(x, m), (y, n)] = ([x, y], x . n): left Leibniz, and not
    skew whenever the action is nontrivial."""
    g = rep.algebra
    n, dm = g.dim, rep.dim
    total = n + dm
    c = xla.zeros(total, total, total).copy()
    c[:n, :n, :n] = g.c
    c[n:, :n, n:] = rep.rho
    return LeibnizAlgebraFD(total, xla.freeze(c))


def standard_leibniz_corpus() -> list[tuple[str, LeibnizAlgebraFD]]:
    """Named Leibniz fixtures: the squared-bracket example, Lie algebras
    viewed as Leibniz algebras, and hemidirect products with modules."""
    t = affine_line()
    return [
        ("square", leibniz_square()),
        ("sl2-as-leibniz", lie_as_leibniz(sl2())),
        ("abelian3", lie_as_leibniz(abelian_lie(3))),
        ("affine+module", hemidirect_leibniz(
            RepresentationFD(abelian_lie(1), 1, xla.tensor([1, 1, 1], [1]))
        )),
        ("affine+adjoint", hemidirect_leibniz(adjoint_rep(t))),
        ("sl2+adjoint", hemidirect_leibniz(adjoint_rep(sl2()))),
    ]


# ---------------------------------------------------------------------------
# Graded fixtures: Lie algebra tensor a small commutative dg algebra
# ---------------------------------------------------------------------------

class _SmallCdga:
    """The exterior algebra on odd generators of degrees ``gen_degrees``,
    with the differential ``gen_diff`` (generator -> list of (coeff,
    monomial)) extended as a derivation, and with the monomials above degree
    ``top`` dropped.  Monomials are increasing generator tuples listed in
    binary-counting order; products are :func:`exactla.wedge`."""

    def __init__(self, gen_degrees, gen_diff, top=None):
        k = len(gen_degrees)
        self.degrees = {}
        for bits in range(2 ** k):
            m = tuple(i for i in range(k) if bits >> i & 1)
            deg = sum(gen_degrees[i] for i in m)
            if top is None or deg <= top:
                self.degrees[m] = deg
        self.diff = {}
        for m in self.degrees:
            # d(a g b) = (-1)^len(a) a d(g) b for a generator g: all are odd
            terms = {}
            for pos, gen in enumerate(m):
                for coeff, u in gen_diff.get(gen, ()):
                    left = xla.wedge(m[:pos], u)
                    prod = None if left is None else self.mul(left[1], m[pos + 1:])
                    if prod is not None:
                        sign = (-1) ** pos * left[0] * prod[0]
                        terms[prod[1]] = terms.get(prod[1], 0) + sign * coeff
            self.diff[m] = [(c, w) for w, c in terms.items() if c]

    def mul(self, a, b):
        """``(sign, monomial)`` with a b = sign * monomial, or None when the
        product vanishes or is truncated."""
        prod = xla.wedge(a, b)
        return prod if prod is not None and prod[1] in self.degrees else None


def tensor_dgla(g: LieAlgebraFD, omega: _SmallCdga) -> GradedL3Algebra:
    """The dg Lie algebra g (x) Omega: bracket [x (x) a, y (x) b] =
    [x,y] (x) ab, differential 1 (x) d.  Degree k has the basis
    m (x) e_i, monomial by monomial."""
    n = g.dim
    degs = sorted(set(omega.degrees.values()))
    mono_by_deg = {k: [m for m, d in omega.degrees.items() if d == k] for k in degs}
    dims = {k: n * len(mono_by_deg[k]) for k in degs}
    block = {
        m: slice(w * n, (w + 1) * n) for k in degs for w, m in enumerate(mono_by_deg[k])
    }

    brackets = {}
    for k in degs:
        if k + 1 in dims:
            mat = xla.zeros(dims[k + 1], dims[k]).copy()
            for m in mono_by_deg[k]:
                for coeff, m2 in omega.diff[m]:
                    mat[block[m2], block[m]] += coeff * xla.identity(n)
            brackets[(k,)] = xla.freeze(mat)

    # each pair of monomials fills its own block of the bracket with +-c
    signed_c = {1: g.c, -1: -g.c}
    for k1 in degs:
        for k2 in degs:
            if k1 + k2 not in dims:
                continue
            t = xla.zeros(dims[k1 + k2], dims[k1], dims[k2]).copy()
            for m1 in mono_by_deg[k1]:
                for m2 in mono_by_deg[k2]:
                    prod = omega.mul(m1, m2)
                    if prod is not None:
                        sign, m3 = prod
                        t[block[m3], block[m1], block[m2]] = signed_c[sign]
            brackets[(k1, k2)] = xla.freeze(t)
    return GradedL3Algebra(dims, brackets)


def nilpotent_cdga_dgla(g: LieAlgebraFD | None = None) -> tuple[GradedL3Algebra, np.ndarray]:
    """A dgla in degrees -2..1 with a nonzero Maurer-Cartan element.

    Built as g (x) Omega for Omega generated by two degree -1 and one degree
    +1 odd generators with d(theta1) = 1.  Degree +2 is zero, so gamma =
    x (x) eta satisfies the Maurer-Cartan equation for free while twisting
    the differential nontrivially.
    """
    if g is None:
        g = affine_line()
    dgla = tensor_dgla(g, _SmallCdga((-1, -1, 1), {0: [(1, ())]}))
    gamma = xla.zeros(dgla.dim(1)).copy()
    gamma[0] = Fraction(1)  # first basis vector of g (x) eta
    return dgla, xla.freeze(gamma)


def nilpotent_cdga_dgla_n2(g: LieAlgebraFD | None = None) -> tuple[GradedL3Algebra, np.ndarray]:
    """A dgla populated in degrees -1..1 with nonzero differential and a
    nonzero Maurer-Cartan element, for the two-term symmetry construction:
    g (x) Omega for Omega generated by theta (degree -1) and eta (degree
    +1) with d(theta) = 1."""
    if g is None:
        g = affine_line()
    dgla = tensor_dgla(g, _SmallCdga((-1, 1), {0: [(1, ())]}))
    gamma = xla.zeros(dgla.dim(1)).copy()
    gamma[0] = Fraction(1)
    return dgla, xla.freeze(gamma)


def mc_balancing_dgla() -> tuple[GradedL3Algebra, np.ndarray, np.ndarray]:
    """A dgla whose Maurer-Cartan equation has genuine content: on the
    Heisenberg algebra tensored with the eta-cube algebra, the element
    X h1 + Y h2 + Z h3 is flat because d gamma = -Z h1h2 cancels
    1/2 [gamma, gamma] = Z h1h2, while dropping the h3 leg leaves a nonzero
    residual.  Returns (algebra, flat gamma, non-flat gamma)."""
    # three odd degree +1 generators with d(eta3) = -eta1 eta2, truncated
    # to degrees <= 2
    dgla = tensor_dgla(heisenberg(), _SmallCdga((1, 1, 1), {2: [(-1, (0, 1))]}, top=2))
    # degree 1 basis comes out as (h1 (x) basis, h2 (x) basis, h3 (x) basis)
    good = xla.zeros(dgla.dim(1)).copy()
    good[0] = Fraction(1)   # X (x) h1
    good[4] = Fraction(1)   # Y (x) h2
    good[8] = Fraction(1)   # Z (x) h3
    bad = xla.zeros(dgla.dim(1)).copy()
    bad[0] = Fraction(1)
    bad[4] = Fraction(1)
    return dgla, xla.freeze(good), xla.freeze(bad)


def action_dgla(rep: RepresentationFD) -> GradedL3Algebra:
    """The algebra in degree 0 and its module in degree -1, zero
    differential: [x, m] = x.m and [m, x] = -x.m."""
    g = rep.algebra
    return GradedL3Algebra(
        dims={0: g.dim, -1: rep.dim},
        brackets={
            (0, 0): g.c,
            (0, -1): rep.rho,
            (-1, 0): xla.freeze(-np.moveaxis(rep.rho, 1, 2)),
        },
    )


def inner_derivation_dgla(g: LieAlgebraFD) -> GradedL3Algebra:
    """The identity crossed module g -> g as a dgla in degrees -1, 0."""
    base = action_dgla(adjoint_rep(g))
    return GradedL3Algebra(base.dims, {**base.brackets, (-1,): xla.identity(g.dim)})


def two_term_l3_dgla(g: LieAlgebraFD, pairing: np.ndarray) -> GradedL3Algebra:
    """Degrees 0 and -1 with trivial one-dimensional module, zero
    differential, and trilinear bracket <[x,y], z> landing in degree -1.
    The arity-4 relation is the closedness of that 3-cochain."""
    phi = np.tensordot(g.c, np.asarray(pairing), axes=([0], [0]))
    return GradedL3Algebra(
        dims={0: g.dim, -1: 1},
        brackets={(0, 0): g.c, (0, 0, 0): xla.freeze(phi.reshape((1, g.dim, g.dim, g.dim)))},
    )


def twisted_big_bracket_dgla() -> tuple[GradedL3Algebra, np.ndarray]:
    """The contraction algebra on Lambda Q^4 with the inner differential
    {e2^e3^e4, .} and the Maurer-Cartan trivector e1^e2^e3."""
    mu = trivector_coords(4, [(1, (1, 2, 3))])
    dgla = big_bracket_dgla(xla.identity(4), mu=mu)
    return dgla, cross_product_gamma(4)


# ---------------------------------------------------------------------------
# Graded fixtures: contraction bracket on an exterior algebra
# ---------------------------------------------------------------------------

def big_bracket_dgla(
    form: np.ndarray, mu: np.ndarray | None = None
) -> GradedL3Algebra:
    """The graded Lie algebra Lambda V with Lambda^p V placed in degree
    p - 2 and the bracket induced by contracting one index pair through the
    symmetric form; a trivector mu with {mu, mu} = 0 may be supplied as an
    inner differential d = {mu, .}."""
    form = xla.as_exact(form)
    n = form.shape[0]
    if form.shape != (n, n) or not xla.arrays_equal(form, form.T):
        raise xla.ShapeError("contraction form must be square symmetric")
    subsets = {p: xla.increasing_tuples(n, p) for p in range(n + 1)}
    index = {p: {s: i for i, s in enumerate(subsets[p])} for p in subsets}
    dims = {p - 2: len(subsets[p]) for p in range(n + 1)}

    def bracket_monomials(s: tuple[int, ...], t: tuple[int, ...]):
        """{e_S, e_T} = sum over index pairs of the contracted monomial."""
        p, q = len(s), len(t)
        out = []
        for ai, vi in enumerate(s):
            for bj, wj in enumerate(t):
                coeff = form[vi, wj]
                if coeff == 0:
                    continue
                sign = (-1) ** (p - 1 - ai) * (-1) ** bj
                merged = xla.wedge(s[:ai] + s[ai + 1:], t[:bj] + t[bj + 1:])
                if merged is None:
                    continue
                msign, mono = merged
                out.append((coeff * sign * msign, mono))
        return out

    brackets = {}
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            r = p + q - 2
            if r > n:
                continue
            t = xla.zeros(len(subsets[r]), len(subsets[p]), len(subsets[q])).copy()
            for s_i, s in enumerate(subsets[p]):
                for t_i, tt in enumerate(subsets[q]):
                    for coeff, mono in bracket_monomials(s, tt):
                        t[index[r][mono], s_i, t_i] += coeff
            brackets[(p - 2, q - 2)] = xla.freeze(t)

    if mu is not None:
        mu = xla.as_exact(mu)
        if mu.shape != (len(subsets[3]),):
            raise xla.ShapeError("inner differential must be a trivector coordinate vector")
        for p in range(n + 1):
            if (1, p - 2) in brackets:
                brackets[(p - 2,)] = np.tensordot(brackets[(1, p - 2)], mu, axes=([1], [0]))
    return GradedL3Algebra(dims, brackets)


def trivector_coords(n: int, terms: list[tuple[int, tuple[int, int, int]]]) -> np.ndarray:
    """Coordinate vector in the basis of increasing triples of {0..n-1}."""
    subsets = xla.increasing_tuples(n, 3)
    v = xla.zeros(len(subsets)).copy()
    for coeff, triple in terms:
        v[subsets.index(tuple(sorted(triple)))] += Fraction(coeff)
    return xla.freeze(v)


def cross_product_gamma(n: int = 3) -> np.ndarray:
    """The trivector e1 ^ e2 ^ e3 in Lambda^3 Q^n, a Maurer-Cartan element of
    the contraction dgla for the standard form (it encodes the rotation
    algebra, extended by a center when n > 3)."""
    return trivector_coords(n, [(1, (0, 1, 2))])
