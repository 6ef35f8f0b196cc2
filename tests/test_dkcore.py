import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lie2alg import dkcore, exactla as xla


def random_complex(rng, max_dim=8):
    n0 = rng.randrange(0, max_dim + 1)
    n1 = rng.randrange(0, max_dim + 1)
    d = xla.matrix([[F(rng.randrange(-3, 4)) for _ in range(n1)] for _ in range(n0)]) if n0 else xla.zeros(0, n1)
    return dkcore.TwoTermComplex(n0, n1, d)


complexes = st.builds(
    lambda n0, n1, seed: random_complex_from(n0, n1, seed),
    st.integers(0, 5),
    st.integers(0, 5),
    st.integers(0, 10**6),
)


def random_complex_from(n0, n1, seed):
    rng = random.Random(seed)
    d = np.empty((n0, n1), dtype=object)
    for i in range(n0):
        for j in range(n1):
            d[i, j] = F(rng.randrange(-3, 4))
    return dkcore.TwoTermComplex(n0, n1, d)


def test_records_check_shapes_store_frozen_copies_and_compare_structurally():
    d = np.array(xla.identity(2), copy=True)
    c = dkcore.TwoTermComplex(2, 2, d)
    d[0, 0] = 5
    assert c.d[0, 0] == 1 and not c.d.flags.writeable
    same = dkcore.TwoTermComplex(2, 2, xla.identity(2))
    assert c == same and hash(c) == hash(same)
    assert c != dkcore.TwoTermComplex(2, 2, xla.zeros(2, 2))
    with pytest.raises(xla.ShapeError, match=r"^d has shape \(2, 3\), expected \(2, 2\)$"):
        dkcore.TwoTermComplex(2, 2, xla.zeros(2, 3))
    # a None length is free, but the number of axes is not
    assert dkcore.ChainHomotopy(xla.zeros(3, 0)).h.shape == (3, 0)
    with pytest.raises(xla.ShapeError, match=r"^h has shape \(3,\), expected \(None, None\)$"):
        dkcore.ChainHomotopy(xla.zeros(3))
    with pytest.raises(xla.ShapeError, match=r"^obj has shape"):
        dkcore.Arrow(xla.zeros(2, 2), xla.zeros(1))
    with pytest.raises(dkcore.ChainMapError):
        dkcore.ChainMap(c, c, xla.identity(2), xla.zeros(2, 2))


def test_records_hold_fractions_only():
    """Every tensor a record stores is one frozen copy holding Fractions:
    ints, numpy integers and literal strings are converted, floats and
    booleans are refused when the record is built."""
    d = np.array([[1, np.int64(-2)], ["3/4", F(5, 6)]], dtype=object)
    c = dkcore.TwoTermComplex(2, 2, d)
    assert all(type(x) is F for x in c.d.flat) and not c.d.flags.writeable
    assert xla.arrays_equal(c.d, xla.matrix([[1, -2], [F(3, 4), F(5, 6)]]))
    assert all(type(x) is F for x in dkcore.ChainHomotopy(np.eye(2, dtype=np.int64)).h.flat)
    # a subspace built past the public constructor holds Fractions too
    assert all(type(x) is F for x in xla.image_basis(np.eye(2, dtype=np.int64)).basis.flat)
    for bad in (np.array([[0.5]]), np.zeros((1, 1)), np.array([[True]]),
                np.array([[F(1), 2.0]], dtype=object), np.array([[np.bool_(True)]], dtype=object)):
        with pytest.raises(xla.ShapeError):
            dkcore.TwoTermComplex(*bad.shape, bad)
    with pytest.raises(xla.ShapeError, match="invalid rational literal"):
        dkcore.Arrow(np.array(["1/2"]), np.array(["x"]))


def test_gamma_skeletal_endomorphisms():
    c = dkcore.TwoTermComplex(1, 1, xla.zeros(1, 1))
    v = dkcore.gamma(c)
    f = dkcore.Arrow(xla.vector([1]), xla.vector([2]))
    # d = 0: every arrow is an endomorphism
    assert xla.arrays_equal(v.source(f), v.target(f))


def test_gamma_invertible_d_connects_everything():
    c = dkcore.TwoTermComplex(2, 2, xla.identity(2))
    v = dkcore.gamma(c)
    # t - s is surjective: any object x is the target of an arrow from 0
    x = xla.vector([3, -2])
    f = dkcore.Arrow(xla.zeros(2), x)
    assert xla.arrays_equal(v.target(f), x)


def test_gamma_empty():
    c = dkcore.zero_complex()
    v = dkcore.gamma(c)
    assert v.objects_dim == 0 and v.arrow_part_dim == 0


def test_normalize_roundtrip_examples():
    for c in [
        dkcore.TwoTermComplex(1, 1, xla.zeros(1, 1)),
        dkcore.TwoTermComplex(2, 2, xla.identity(2)),
        dkcore.zero_complex(),
    ]:
        assert dkcore.normalize(dkcore.gamma(c)) == c


@settings(max_examples=60, deadline=None)
@given(complexes)
def test_normalize_gamma_roundtrip_random(c):
    assert dkcore.normalize(dkcore.gamma(c)) == c
    v = dkcore.gamma(c)
    assert dkcore.gamma(dkcore.normalize(v)) == v


def test_compose_arrows_identity_and_inverse():
    c = random_complex_from(3, 2, 11)
    v = dkcore.gamma(c)
    rng = random.Random(5)
    x = xla.vector([rng.randrange(-3, 4) for _ in range(3)])
    a = xla.vector([rng.randrange(-3, 4) for _ in range(2)])
    f = dkcore.Arrow(x, a)
    # f o 1_x = f
    assert dkcore.compose_arrows(v, f, v.identity(x)) == f
    # (x + da, -a) o (x, a) = 1_x
    inv = v.inverse(f)
    assert dkcore.compose_arrows(v, inv, f) == v.identity(x)


def test_compose_arrows_adds_parts_and_rejects_mismatch():
    c = random_complex_from(2, 2, 3)
    v = dkcore.gamma(c)
    f = dkcore.Arrow(xla.vector([1, 0]), xla.vector([1, 2]))
    g = dkcore.Arrow(v.target(f), xla.vector([-1, 1]))
    gf = dkcore.compose_arrows(v, g, f)
    assert xla.arrays_equal(gf.part, xla.vector([0, 3]))
    bad = dkcore.Arrow(v.target(f) + 1, xla.vector([0, 0]))
    with pytest.raises(dkcore.CompositionError):
        dkcore.compose_arrows(v, bad, f)


def test_arrow_composition_associative_unital():
    rng = random.Random(99)
    c = random_complex_from(3, 3, 42)
    v = dkcore.gamma(c)
    for _ in range(20):
        x = xla.vector([rng.randrange(-2, 3) for _ in range(3)])
        parts = [xla.vector([rng.randrange(-2, 3) for _ in range(3)]) for _ in range(3)]
        f = dkcore.Arrow(x, parts[0])
        g = dkcore.Arrow(v.target(f), parts[1])
        h = dkcore.Arrow(v.target(g), parts[2])
        lhs = dkcore.compose_arrows(v, h, dkcore.compose_arrows(v, g, f))
        rhs = dkcore.compose_arrows(v, dkcore.compose_arrows(v, h, g), f)
        assert lhs == rhs


def _leibniz_bracket_data():
    # two-term data from the Leibniz algebra [x,x] = y on span{x, y}:
    # C0 = Q^2, C-1 = Q y, d = inclusion.  Used as convenient bracket data.
    d = xla.matrix([[0], [1]])
    c = dkcore.TwoTermComplex(2, 1, d)
    b00 = xla.zeros(2, 2, 2).copy()
    b00[1, 0, 0] = F(1)  # [x, x] = y
    b01 = xla.zeros(1, 2, 1)
    b10 = xla.zeros(1, 1, 2)
    return dkcore.BilinearBracket(c, xla.freeze(b00), b01, b10)


def test_functor_bracket_identities_and_derived():
    br = _leibniz_bracket_data()
    v = dkcore.gamma(br.complex)
    x = xla.vector([1, 0])
    y = xla.vector([0, 1])
    one_x, one_y = v.identity(x), v.identity(y)
    res = br.on_arrows(one_x, one_y)
    assert res == v.identity(br.on_objects(x, y))
    # arrow-part-only inputs give the derived bracket [a, b] = [da, b]
    a = xla.vector([2])
    b = xla.vector([3])
    fa = dkcore.Arrow(xla.zeros(2), a)
    fb = dkcore.Arrow(xla.zeros(2), b)
    res = br.on_arrows(fa, fb)
    expect = xla.apply_multilinear(br.b01, np.dot(br.complex.d, a), b)
    assert xla.arrays_equal(res.part, expect)


def test_functor_bracket_componentwise_random():
    rng = random.Random(17)
    br = _leibniz_bracket_data()
    for _ in range(10):
        x = xla.vector([rng.randrange(-3, 4) for _ in range(2)])
        y = xla.vector([rng.randrange(-3, 4) for _ in range(2)])
        a = xla.vector([rng.randrange(-3, 4)])
        b = xla.vector([rng.randrange(-3, 4)])
        res = br.on_arrows(dkcore.Arrow(x, a), dkcore.Arrow(y, b))
        expect_obj = xla.apply_multilinear(br.b00, x, y)
        expect_part = (
            xla.apply_multilinear(br.b01, x, b)
            + xla.apply_multilinear(br.b10, a, y)
            + xla.apply_multilinear(br.b01, np.dot(br.complex.d, a), b)
        )
        assert xla.arrays_equal(res.obj, expect_obj)
        assert xla.arrays_equal(res.part, expect_part)


def test_crossed_module_identities():
    br = _leibniz_bracket_data()
    assert dkcore.crossed_module_report(br).passed


def test_is_quasi_iso_basics():
    c = random_complex_from(3, 2, 8)
    ident = dkcore.identity_chain_map(c)
    assert dkcore.is_quasi_iso(ident)
    # zero map between complexes with nonzero cohomology
    c2 = dkcore.TwoTermComplex(1, 0, xla.zeros(1, 0))
    zero = dkcore.ChainMap(c2, c2, xla.zeros(1, 1), xla.zeros(0, 0))
    assert not dkcore.is_quasi_iso(zero)
    assert dkcore.is_quasi_iso(dkcore.identity_chain_map(dkcore.zero_complex()))


def test_hodge_skeletal_input():
    c = dkcore.TwoTermComplex(2, 1, xla.zeros(2, 1))
    hd = dkcore.hodge_decompose(c)
    assert hd.skeletal == c
    assert xla.arrays_equal(hd.include.f0, xla.identity(2))
    assert xla.arrays_equal(hd.project.f1, xla.identity(1))
    assert xla.is_zero(hd.homotopy.h)


def test_hodge_invertible_d():
    c = dkcore.TwoTermComplex(2, 2, xla.matrix([[1, 1], [0, 1]]))
    hd = dkcore.hodge_decompose(c)
    assert hd.skeletal.n0 == 0 and hd.skeletal.n1 == 0


@settings(max_examples=50, deadline=None)
@given(complexes)
def test_hodge_identities_random(c):
    hd = dkcore.hodge_decompose(c)
    i, p, h = hd.include, hd.project, hd.homotopy.h
    # p o i = identity on the skeletal complex
    assert xla.arrays_equal(np.dot(p.f0, i.f0), xla.identity(hd.skeletal.n0))
    assert xla.arrays_equal(np.dot(p.f1, i.f1), xla.identity(hd.skeletal.n1))
    # 1 - i p = d h on C^0 and h d on C^-1
    lhs0 = xla.identity(c.n0) - np.dot(i.f0, p.f0)
    assert xla.arrays_equal(lhs0, np.dot(c.d, h))
    lhs1 = xla.identity(c.n1) - np.dot(i.f1, p.f1)
    assert xla.arrays_equal(lhs1, np.dot(h, c.d))
    # side conditions used by homotopy transfer
    assert xla.is_zero(np.dot(h, i.f0))
    assert xla.is_zero(np.dot(p.f1, h))
    assert dkcore.is_quasi_iso(i)
    assert dkcore.is_quasi_iso(p)
