import random
from fractions import Fraction as F

import numpy as np
import pytest

import cohom_reference
from lie2alg import catalog, cohom, defo, dkcore, el2, exactla as xla


# ---------------------------------------------------------------------------
# deterministic random helpers
# ---------------------------------------------------------------------------

def rand_mat(rng, rows, cols, lo=-2, hi=3):
    out = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            out[i, j] = F(rng.randrange(lo, hi))
    return xla.freeze(out)


def rand_tensor(rng, *shape, lo=-2, hi=3):
    out = np.empty(shape, dtype=object)
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = F(rng.randrange(lo, hi))
    return xla.freeze(out)


def rand_invertible(rng, n):
    while True:
        m = rand_mat(rng, n, n)
        try:
            xla.inverse(m)
            return m
        except xla.SubspaceError:
            continue


def perturb(e, tensor_name, flat_idx, delta=F(1)):
    """Copy of a structure with one entry of d or of a structure tensor
    shifted by delta (C-ordered copies, so that the flat view writes through
    for any input layout)."""
    arrs = {
        name: np.array(t, dtype=object, copy=True, order="C")
        for name, t in zip(("d", "b00", "b01", "b10", "alt", "jac"), el2._tensors(e))
    }
    arrs[tensor_name].reshape(-1)[flat_idx] += delta
    d = arrs.pop("d")
    out = el2.EL2Algebra(dkcore.TwoTermComplex(e.complex.n0, e.complex.n1, d), **arrs)
    assert out != e
    return out


def twisted_nonskeletal(rng, skeletal, acyclic_dim):
    """A non-skeletal structure equivalent to the given skeletal one: block
    sum with an acyclic piece, pushed along a random invertible chain
    isomorphism.  Returns (structure, phi0, phi1)."""
    big = el2.direct_sum(skeletal, el2.zero_el2(acyclic_dim, acyclic_dim, xla.identity(acyclic_dim)))
    n0, n1 = big.complex.n0, big.complex.n1
    phi0 = rand_invertible(rng, n0)
    phi1 = rand_invertible(rng, n1)
    return el2.transport(big, phi0, phi1), phi0, phi1


def homotopy_invariance_trials():
    """Criterion 09's inputs on sl2 with the trivial module: the Killing
    pair, the Cartan 3-form pair and the zero pair in turn, each shifted by
    a random coboundary, made skeletal and moved off the skeleton by
    :func:`twisted_nonskeletal`.  30 tuples (base, moved, phi0, phi1)."""
    rng = random.Random(2718)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    bases = [
        cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3)),
        cohom.CocyclePair(xla.zeros(1, 3, 3), catalog.cartan_3form(g, k)),
        cohom.zero_pair(g, m),
    ]
    out = []
    for trial in range(30):
        base = bases[trial % len(bases)]
        pair = base + cohom.coboundary(g, m, rand_tensor(rng, 1, 3, 3))
        skeletal0 = el2.from_skeletal_cocycle(g, m, pair.s, pair.j)
        out.append((base, *twisted_nonskeletal(rng, skeletal0, rng.randrange(1, 3))))
    return out


def coboundary_reference(g, m, f):
    """The kept coboundary formula (``cohom_reference``) evaluated on
    Fractions, with no scaling."""
    return cohom.CocyclePair(*cohom_reference._coboundary_terms(g.c, m.rho, xla.as_exact(f)))


def rational_basis(g, p):
    """g in the basis given by the columns of the invertible matrix p."""
    c = np.tensordot(xla.inverse(p), g.c, axes=([1], [0]))
    c = np.tensordot(c, p, axes=([1], [0])).swapaxes(1, 2)
    c = np.tensordot(c, p, axes=([2], [0]))
    return el2.LieAlgebraFD(g.dim, xla.freeze(c))


def rational_cases():
    """(name, algebra, module) pairs whose structure constants have
    denominators."""
    sl2 = rational_basis(catalog.sl2(), xla.matrix([[F(1, 2), 1, 0], [0, 3, F(2, 5)], [1, 0, F(1, 7)]]))
    aff = rational_basis(catalog.affine_line(), xla.matrix([[F(2, 3), 1], [0, F(5, 4)]]))
    return [
        ("sl2-rational/trivial", sl2, catalog.trivial_rep(sl2)),
        ("affine-rational/adjoint", aff, catalog.adjoint_rep(aff)),
    ]


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def gm_corpus():
    """(name, algebra, module) pairs the cohomology tests range over."""
    sl2 = catalog.sl2()
    ab2 = catalog.abelian_lie(2)
    ab3 = catalog.abelian_lie(3)
    aff = catalog.affine_line()
    return [
        ("sl2/trivial", sl2, catalog.trivial_rep(sl2)),
        ("sl2/adjoint", sl2, catalog.adjoint_rep(sl2)),
        ("abelian2/trivial", ab2, catalog.trivial_rep(ab2)),
        ("abelian3/trivial", ab3, catalog.trivial_rep(ab3)),
        ("affine/trivial", aff, catalog.trivial_rep(aff)),
    ]


@pytest.fixture(scope="session")
def hl3_spaces(gm_corpus):
    return {name: (g, m, cohom.hl3(g, m)) for name, g, m in gm_corpus}


@pytest.fixture(scope="session")
def quadratic_corpus():
    """(name, algebra, pairing) triples with invariant symmetric forms."""
    sl2 = catalog.sl2()
    so3 = catalog.so3()
    ab2 = catalog.abelian_lie(2)
    return [
        ("sl2/killing", sl2, catalog.killing_form(sl2)),
        ("so3/killing", so3, catalog.killing_form(so3)),
        ("abelian2/identity", ab2, xla.identity(2)),
    ]


@pytest.fixture(scope="session")
def el2_corpus(quadratic_corpus, hl3_spaces):
    """Every constructor family: hemistrict structures of Leibniz algebras,
    quadratic hemistrict and semistrict structures, one skeletal structure
    per cocycle-space basis element of every (algebra, module), and the
    identity crossed module of sl2 (d = identity, b01 the adjoint action),
    the one family with a nonzero derived bracket [da, b], as built and
    moved along random invertible maps."""
    out = []
    for name, leib in catalog.standard_leibniz_corpus():
        out.append((f"leibniz:{name}", el2.from_leibniz(leib)))
    for name, g, pairing in quadratic_corpus:
        out.append((f"quadratic:{name}", el2.from_quadratic_lie(g, pairing)))
        out.append((f"string:{name}", el2.string_2_algebra(g, pairing)))
    for name, (g, m, space) in hl3_spaces.items():
        for k in range(space.cocycles.dim):
            pair = cohom.unflatten_pair(g, m, space.cocycles.basis[:, k])
            out.append(
                (f"skeletal:{name}#{k}", el2.from_skeletal_cocycle(g, m, pair.s, pair.j))
            )
    crossed = defo.inner_symmetries_n2(catalog.inner_derivation_dgla(catalog.sl2()), xla.zeros(0))
    rng = random.Random(3)
    out.append(("crossed:sl2-identity", crossed))
    out.append(
        ("crossed:sl2-identity-moved", el2.transport(crossed, rand_invertible(rng, 3), rand_invertible(rng, 3)))
    )
    return out
