"""The axiom checkers run their bodies on an integer-scaled copy first.

These tests hold that path to the plain Fraction evaluation of the same
bodies: the public checker must return the Fraction body's report exactly,
and the integer run must fail at the same (identity, basis tuple) places,
every residual a fixed positive multiple, per identity, of the Fraction one
and computed in Python ints throughout.
"""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_tensor, twisted_nonskeletal
from lie2alg import catalog, cohom, dkcore, el2, exactla as xla, morph

EL2_CHECKERS = (
    (el2.check_el2, el2._check_el2_body),
    (el2.categorical_coherence_check, el2._categorical_body),
)


def assert_integer_path_agrees(public, body, exact, scaled):
    full = body(exact, None)
    cases = [(None, full)] if full.passed else [(None, full), (2, body(exact, 2))]
    for stop_after, want in cases:
        got = public(exact, stop_after=stop_after)
        assert got.violations == want.violations
        assert got.notes == want.notes
        assert got.render() == want.render()
    ints = body(scaled, None)
    assert [(v.equation, v.at) for v in ints.violations] == [
        (v.equation, v.at) for v in full.violations
    ]
    ratios: dict[str, set] = {}
    for vi, vf in zip(ints.violations, full.violations):
        assert all(type(x) is int for x in vi.residual), vi
        for xi, xf in zip(vi.residual, vf.residual):
            assert (xi == 0) == (xf == 0)
            if xf != 0:
                ratios.setdefault(vi.equation, set()).add(F(xi) / F(xf))
    for equation, seen in ratios.items():
        assert len(seen) == 1 and seen.pop() > 0, equation
    return full


def scalar(n, den, power):
    return xla.identity(n) * F(den) ** power


def assert_scaled_copy_is_transport(e, scaled, den, p=2, q=3):
    n0, n1 = e.complex.n0, e.complex.n1
    moved = el2.transport(e, scalar(n0, den, -p), scalar(n1, den, -q))
    assert scaled == moved
    assert all(type(x) is int for a in el2._tensors(scaled) for x in a.flat)


def check_el2_both(e):
    den = xla.common_denominator(*el2._tensors(e))
    scaled = el2._integer_copy(e)
    assert_scaled_copy_is_transport(e, scaled, den)
    return [assert_integer_path_agrees(pub, body, e, scaled) for pub, body in EL2_CHECKERS]


def transported_morphism(m, den, src_powers=(4, 6), dst_powers=(2, 3)):
    """m moved along the scalar isomorphisms den**-src_powers on its source
    and den**-dst_powers on its target, by matrix products."""
    (p, q), (pp, qp) = src_powers, dst_powers
    s0, s1 = m.src.complex.n0, m.src.complex.n1
    t0, t1 = m.dst.complex.n0, m.dst.complex.n1
    inv0 = scalar(s0, den, p)
    f2 = xla.postcompose(scalar(t1, den, -qp), m.f2)
    f2 = xla.precompose(xla.precompose(f2, 1, inv0), 2, inv0)
    return morph.ELMorphism(
        el2.transport(m.src, scalar(s0, den, -p), scalar(s1, den, -q)),
        el2.transport(m.dst, scalar(t0, den, -pp), scalar(t1, den, -qp)),
        np.dot(scalar(t0, den, -pp), np.dot(m.f0, inv0)),
        np.dot(scalar(t1, den, -qp), np.dot(m.f1, scalar(s1, den, q))),
        f2,
    )


def check_morphism_both(m):
    scaled = morph._integer_morphism(m)
    den = xla.common_denominator(*el2._tensors(m.src), *el2._tensors(m.dst), m.f0, m.f1, m.f2)
    assert scaled == transported_morphism(m, den)
    return assert_integer_path_agrees(morph.check_morphism, morph._check_morphism_body, m, scaled)


def check_2morphism_both(t):
    scaled = morph._integer_2morphism(t)
    f, g = t.src, t.dst
    den = xla.common_denominator(
        *el2._tensors(f.src), *el2._tensors(f.dst), f.f0, f.f1, f.f2, g.f0, g.f1, g.f2, t.theta
    )
    assert scaled.src == transported_morphism(f, den)
    assert scaled.dst == transported_morphism(g, den)
    theta = np.dot(scalar(t.theta.shape[0], den, -3), np.dot(t.theta, scalar(t.theta.shape[1], den, 4)))
    assert xla.arrays_equal(scaled.theta, theta)
    return assert_integer_path_agrees(morph.check_2morphism, morph._check_2morphism_body, t, scaled)


def with_entry(a, flat_idx, delta):
    """Copy of an array with one entry shifted by delta."""
    out = np.array(a, dtype=object, copy=True)
    out.reshape(-1)[flat_idx % out.size] += delta
    return out


def plant(e, name, flat_idx, delta):
    """Copy of a structure with one entry of d or of a tensor shifted."""
    arrs = dict(zip(("d", "b00", "b01", "b10", "alt", "jac"), el2._tensors(e)))
    arrs[name] = with_entry(arrs[name], flat_idx, delta)
    d = arrs.pop("d")
    return el2.EL2Algebra(dkcore.TwoTermComplex(e.complex.n0, e.complex.n1, d), **arrs)


def transport_iso(e, phi0, phi1):
    """The strict isomorphism e -> transport(e, phi0, phi1) and its identity
    2-morphism."""
    moved = el2.transport(e, phi0, phi1)
    iso = morph.ELMorphism(e, moved, phi0, phi1, xla.zeros(e.complex.n1, e.complex.n0, e.complex.n0))
    return iso, morph.identity_2morphism(iso)


# ---------------------------------------------------------------------------
# kernel-boundary helpers
# ---------------------------------------------------------------------------

def test_common_denominator_and_scaled_ints():
    a = xla.vector(["1/6", "-3/4", 5])
    b = xla.matrix([[F(1, 10)]])
    assert xla.common_denominator(a, b) == 60
    assert xla.common_denominator() == 1
    assert xla.common_denominator(xla.zeros(2, 0)) == 1
    out = xla.scaled_ints(a, 120)
    assert list(out) == [20, -90, 600] and all(type(x) is int for x in out)
    assert not out.flags.writeable
    with pytest.raises(xla.ExactLinearAlgebraError):
        xla.scaled_ints(a, 30)


# ---------------------------------------------------------------------------
# the test corpora
# ---------------------------------------------------------------------------

def test_el2_corpus_agrees(el2_corpus):
    rng = random.Random(17)
    for _, e in el2_corpus:
        phi0 = xla.identity(e.complex.n0) * F(rng.choice([1, 2, 3]), rng.choice([1, 5, 7]))
        phi1 = xla.identity(e.complex.n1) * F(rng.choice([1, 3]), rng.choice([2, 11]))
        moved = el2.transport(e, phi0, phi1)
        for report in check_el2_both(moved):
            assert report.passed


def test_morphism_corpus_agrees():
    rng = random.Random(21)
    g, m = catalog.sl2(), catalog.trivial_rep(catalog.sl2())
    base = cohom.CocyclePair(catalog.killing_form(g).reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    src = el2.from_skeletal_cocycle(g, m, base.s, base.j)
    for _ in range(3):
        f = rand_tensor(rng, 1, 3, 3) * F(1, rng.choice([2, 3, 5]))
        theta = rand_tensor(rng, 1, 3) * F(1, rng.choice([7, 9]))
        nxt = base + cohom.coboundary(g, m, f)
        dst = el2.from_skeletal_cocycle(g, m, nxt.s, nxt.j)
        fwd = cohom.skeletal_morphism(src, dst, f)
        back, two = cohom.quasi_inverse_data(src, dst, f, theta)
        for mor in (fwd, back, morph.identity_morphism(dst)):
            assert check_morphism_both(mor).passed
        assert check_2morphism_both(two).passed
    moved, phi0, phi1 = twisted_nonskeletal(rng, src, 1)
    moved = el2.transport(moved, xla.identity(4) * F(2, 3), xla.identity(2) * F(5, 7))
    iso, iso2 = transport_iso(src, xla.identity(3) * F(1, 4), xla.identity(1) * F(3))
    assert check_morphism_both(iso).passed
    assert check_2morphism_both(iso2).passed
    for report in check_el2_both(moved):
        assert report.passed


# ---------------------------------------------------------------------------
# planted one-entry defects and many coprime denominators
# ---------------------------------------------------------------------------

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


@pytest.fixture(scope="module")
def coprime_structure():
    """A skeletal sl2/adjoint structure with every bracket, alternator and
    Jacobiator block nonzero, moved along maps whose entries carry the eight
    denominators in PRIMES."""
    g, m = catalog.sl2(), catalog.adjoint_rep(catalog.sl2())
    pair = cohom.coboundary(g, m, rand_tensor(random.Random(3), 3, 3, 3))
    base = el2.from_skeletal_cocycle(g, m, pair.s, pair.j)
    phi0 = np.diag([F(1, p) for p in PRIMES[:3]]).astype(object)
    phi0[0, 2] = F(1, 17)
    phi1 = np.diag([F(1, p) for p in PRIMES[3:6]]).astype(object)
    phi1[1, 0] = F(-2, 19)
    return base, phi0, phi1, el2.transport(base, phi0, phi1)


def test_many_coprime_denominators(coprime_structure):
    base, phi0, phi1, e = coprime_structure
    den = xla.common_denominator(*el2._tensors(e))
    assert sum(den % p == 0 for p in PRIMES) >= 6
    for report in check_el2_both(e):
        assert report.passed
    iso, iso2 = transport_iso(base, phi0, phi1)
    assert check_morphism_both(iso).passed
    assert check_2morphism_both(iso2).passed


@pytest.mark.parametrize("name", ["d", "b00", "b01", "b10", "alt", "jac"])
def test_planted_structure_defect(coprime_structure, name):
    _, _, _, e = coprime_structure
    bad = plant(e, name, 5, F(1, 23))
    reports = check_el2_both(bad)
    assert not any(r.passed for r in reports)


def test_planted_f2_and_theta_defects(coprime_structure):
    base, phi0, phi1, _ = coprime_structure
    iso, _ = transport_iso(base, phi0, phi1)
    bad = morph.ELMorphism(iso.src, iso.dst, iso.f0, iso.f1, with_entry(iso.f2, 3, F(2, 29)))
    assert not check_morphism_both(bad).passed
    theta = with_entry(xla.zeros(*iso.f2.shape[:2]), 1, F(3, 31))
    bad2 = morph.ELTwoMorphism(iso, iso, theta)
    assert not check_2morphism_both(bad2).passed


# ---------------------------------------------------------------------------
# hypothesis structures
# ---------------------------------------------------------------------------

def _bases():
    g = catalog.sl2()
    k = catalog.killing_form(g)
    square = el2.from_leibniz(catalog.leibniz_square())
    return (
        el2.string_2_algebra(g, k),
        square,
        el2.direct_sum(square, el2.zero_el2(1, 1, xla.identity(1))),
    )


BASES = _bases()
entries = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def moved_structures(draw):
    base = draw(st.sampled_from(BASES))
    maps = []
    for n in (base.complex.n0, base.complex.n1):
        m = xla.matrix([[draw(entries) for _ in range(n)] for _ in range(n)])
        try:
            xla.inverse(m)
        except xla.SubspaceError:
            m = xla.identity(n) * draw(entries.filter(lambda x: x != 0))
        maps.append(m)
    return base, maps[0], maps[1]


@settings(max_examples=12, deadline=None)
@given(moved_structures(), st.sampled_from(["none", "d", "b00", "b01", "b10", "alt", "jac", "f2", "theta"]),
       st.integers(0, 200), entries.filter(lambda x: x != 0))
def test_hypothesis_structures_agree(moved, defect, flat_idx, delta):
    base, phi0, phi1 = moved
    iso, iso2 = transport_iso(base, phi0, phi1)
    e = iso.dst
    if defect in ("d", "b00", "b01", "b10", "alt", "jac"):
        e = plant(e, defect, flat_idx, delta)
    check_el2_both(e)
    f2 = with_entry(iso.f2, flat_idx, delta) if defect == "f2" else iso.f2
    check_morphism_both(morph.ELMorphism(iso.src, iso.dst, iso.f0, iso.f1, f2))
    theta = with_entry(iso2.theta, flat_idx, delta) if defect == "theta" else iso2.theta
    check_2morphism_both(morph.ELTwoMorphism(iso, iso, theta))
