import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import rand_tensor
from lie2alg import catalog, cohom, el2, exactla as xla, morph, skew


def test_semistrict_input_is_fixed(el2_corpus):
    for name, e in el2_corpus:
        if el2.is_semistrict(e):
            assert skew.skew_symmetrize(e) == e, name


def test_quadratic_to_string_bit_exact():
    g = catalog.sl2()
    k = catalog.killing_form(g)
    out = skew.skew_symmetrize(el2.from_quadratic_lie(g, k))
    expected = el2.string_2_algebra(g, k)
    assert out == expected
    # Jacobiator is -1/2 <[x,y], z> entrywise
    phi = np.tensordot(g.c, k, axes=([0], [0]))
    assert xla.arrays_equal(out.jac.reshape(3, 3, 3), phi * F(-1, 2))


def test_leibniz_square_collapses_to_strict():
    # on a 2-dimensional space every alternating trilinear map vanishes
    e = el2.from_leibniz(catalog.leibniz_square())
    out = skew.skew_symmetrize(e)
    assert el2.is_strict(out)
    assert el2.check_el2(out).passed


def test_idempotent_and_semistrict_on_corpus(el2_corpus):
    for name, e in el2_corpus:
        out = skew.skew_symmetrize(e)
        assert el2.is_semistrict(out), name
        report = el2.check_el2(out)
        assert report.passed, f"{name}: {report.render()}"
        assert skew.skew_symmetrize(out) == out, name


def test_hemistrict_corollary(el2_corpus):
    # with trivial Jacobiator the output Jacobiator is minus the alternated
    # bracket-alternator term alone
    for name, e in el2_corpus:
        if not el2.is_hemistrict(e):
            continue
        out = skew.skew_symmetrize(e)
        alt_br = xla.plug(e.alt, 1, e.b00)
        expected = -xla.alternate(alt_br, F(1, 12))
        assert xla.arrays_equal(out.jac, expected), name


def test_rejects_invalid_input():
    from conftest import perturb

    e = el2.from_quadratic_lie(catalog.sl2(), catalog.killing_form(catalog.sl2()))
    with pytest.raises(el2.InvalidStructureError):
        skew.skew_symmetrize(perturb(e, "alt", 0))


def test_morphism_functoriality():
    rng = random.Random(27)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    base = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    pairs = []
    current = base
    for _ in range(4):
        f = rand_tensor(rng, 1, 3, 3)
        nxt = current + cohom.coboundary(g, m, f)
        pairs.append(
            cohom.skeletal_morphism(
                el2.from_skeletal_cocycle(g, m, current.s, current.j),
                el2.from_skeletal_cocycle(g, m, nxt.s, nxt.j),
                f,
            )
        )
        current = nxt
    for mor in pairs:
        out = skew.skew_symmetrize_morphism(mor)
        assert morph.check_morphism(out).passed
        assert xla.arrays_equal(out.f2, (mor.f2 - mor.f2.swapaxes(1, 2)) * F(1, 2))
    for first, second in zip(pairs, pairs[1:]):
        lhs = skew.skew_symmetrize_morphism(morph.compose(second, first))
        rhs = morph.compose(
            skew.skew_symmetrize_morphism(second), skew.skew_symmetrize_morphism(first)
        )
        assert lhs == rhs


def test_morphism_between_semistrict_is_unchanged():
    st = el2.string_2_algebra(catalog.sl2(), catalog.killing_form(catalog.sl2()))
    ident = morph.identity_morphism(st)
    assert skew.skew_symmetrize_morphism(ident) == ident


def test_2morphism_carries_theta():
    rng = random.Random(31)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    base = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    f = rand_tensor(rng, 1, 3, 3)
    theta = rand_tensor(rng, 1, 3)
    src = el2.from_skeletal_cocycle(g, m, base.s, base.j)
    shifted = base + cohom.coboundary(g, m, f)
    dst = el2.from_skeletal_cocycle(g, m, shifted.s, shifted.j)
    back, two = cohom.quasi_inverse_data(src, dst, f, theta)
    out = skew.skew_symmetrize_2morphism(two)
    assert xla.arrays_equal(out.theta, two.theta)
    assert morph.check_2morphism(out).passed
    zero = morph.identity_2morphism(morph.identity_morphism(src))
    assert xla.is_zero(skew.skew_symmetrize_2morphism(zero).theta)


def test_preserves_2morphism_compositions():
    rng = random.Random(37)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    base = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    src = el2.from_skeletal_cocycle(g, m, base.s, base.j)

    def shifted_f(dst, fmat, theta):
        t1 = np.tensordot(dst.b01, theta, axes=([2], [0]))
        t2 = np.swapaxes(np.tensordot(dst.b10, theta, axes=([1], [0])), 1, 2)
        t3 = xla.postcompose(theta, src.b00)
        return xla.freeze(fmat - t1 - t2 + t3)

    f = rand_tensor(rng, 1, 3, 3)
    mid_pair = base + cohom.coboundary(g, m, f)
    mid = el2.from_skeletal_cocycle(g, m, mid_pair.s, mid_pair.j)
    theta1, theta2, psi = (rand_tensor(rng, 1, 3) for _ in range(3))
    m1 = cohom.skeletal_morphism(src, mid, f)
    m2 = cohom.skeletal_morphism(src, mid, shifted_f(mid, f, theta1))
    m3 = cohom.skeletal_morphism(src, mid, shifted_f(mid, m2.f2, theta2))
    t1 = morph.ELTwoMorphism(m1, m2, theta1)
    t2 = morph.ELTwoMorphism(m2, m3, theta2)
    # vertical composition commutes with skew-symmetrization
    lhs = skew.skew_symmetrize_2morphism(morph.vertical_compose(t2, t1))
    rhs = morph.vertical_compose(
        skew.skew_symmetrize_2morphism(t2), skew.skew_symmetrize_2morphism(t1)
    )
    assert lhs == rhs
    # and so does horizontal composition
    f2 = rand_tensor(rng, 1, 3, 3)
    far_pair = mid_pair + cohom.coboundary(g, m, f2)
    far = el2.from_skeletal_cocycle(g, m, far_pair.s, far_pair.j)
    h1 = cohom.skeletal_morphism(mid, far, f2)
    h2 = cohom.skeletal_morphism(mid, far, shifted_f(far, f2, psi))
    tg = morph.ELTwoMorphism(h1, h2, psi)
    lhs = skew.skew_symmetrize_2morphism(morph.horizontal_compose(tg, t1))
    rhs = morph.horizontal_compose(
        skew.skew_symmetrize_2morphism(tg), skew.skew_symmetrize_2morphism(t1)
    )
    assert lhs == rhs
    assert morph.check_2morphism(lhs).passed
