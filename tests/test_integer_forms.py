"""The integer forms that records memoize, against the conversion they
replace.

A record derives each tensor's integer form once
(``TensorRecord.integer_form``), and ``el2._integer_copy`` scales the forms
into the view each check runs on.  The reference kept here clears
denominators the way the checkers did before the memo: one common
denominator over every entry, a per-entry ``scaled_ints`` of each tensor at
its power, and the view's height read off a scan of its entries.  Views and
reports must be the same, and the memo must neither go stale nor outlive its
record.
"""

import dataclasses
import gc
import random
import weakref
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import rand_tensor, twisted_nonskeletal
from lie2alg import catalog, cohom, dkcore, documents, el2, exactla as xla, morph
from test_integer_path import (
    SHAPE_BASES, assert_same_report, entries, lie_only, moved_structures, plant, transport_iso, with_entry,
)


def reference_copy(x):
    """The integer view of x as the checkers built it before the memo."""
    den = xla.common_denominator(*el2._tensors(x))
    view = el2._view(x, lambda t, k: xla.scaled_ints(t, den**k))
    view.height = max((abs(v) for t in el2._tensors(view) for v in t.flat), default=0)
    return view, den


STRUCTURE_CHECKS = ((el2.check_el2, el2._check_el2_body),
                    (el2.categorical_coherence_check, el2._categorical_body))
MORPHISM_CHECKS = ((morph.check_morphism, morph._check_morphism_body),)
TWO_MORPHISM_CHECKS = ((morph.check_2morphism, morph._check_2morphism_body),)


def assert_same_view(x):
    got, den = el2._integer_copy(x)
    want, want_den = reference_copy(x)
    assert den == want_den
    assert got.height == want.height
    for a, b in zip(el2._tensors(got), el2._tensors(want), strict=True):
        assert a.shape == b.shape and a.tolist() == b.tolist()
        assert all(type(v) is int for v in a.flat)
        assert not a.flags.writeable
    return den


def assert_matches_reference(x, checks):
    """Every check on x gives the report of its body on the reference view,
    for every ``stop_after``; returns the reports without a stop."""
    assert_same_view(x)
    reports = []
    for public, body in checks:
        for stop_after in (None, 1, 3):
            got = public(x, stop_after=stop_after)
            want = body(*reference_copy(x), stop_after)
            assert_same_report(got, want)
            assert got.notes == want.notes
            if stop_after is None:
                reports.append(got)
    return reports


def moved_by_scalars(e, rng):
    phi0 = xla.identity(e.complex.n0) * F(rng.choice([1, 2, 3]), rng.choice([5, 7]))
    phi1 = xla.identity(e.complex.n1) * F(rng.choice([1, 3]), rng.choice([2, 11]))
    return el2.transport(e, phi0, phi1)


# ---------------------------------------------------------------------------
# reports against the reference
# ---------------------------------------------------------------------------

def test_el2_corpus_matches_reference(el2_corpus):
    rng = random.Random(41)
    dens = []
    for _, e in el2_corpus:
        moved = moved_by_scalars(e, rng)
        for x in (e, moved):
            assert all(r.passed for r in assert_matches_reference(x, STRUCTURE_CHECKS))
        dens.append(xla.common_denominator(*el2._tensors(moved)))
    # only structures with every tensor zero or empty keep den 1
    assert sum(den > 1 for den in dens) > 0.9 * len(dens)


def test_shapes_without_arrows_or_objects_match_reference():
    for e in (lie_only(catalog.sl2()), el2.zero_el2(0, 2, xla.zeros(0, 2))):
        assert all(r.passed for r in assert_matches_reference(e, STRUCTURE_CHECKS))
        assert el2._integer_copy(e)[0].height == (0 if e.complex.n0 == 0 else 2)


def morphism_corpus():
    """(morphism, 2-morphisms on it) pairs: skeletal morphisms, quasi-inverse
    data, identities and transport isomorphisms, all with denominators."""
    rng = random.Random(43)
    g, m = catalog.sl2(), catalog.trivial_rep(catalog.sl2())
    base = cohom.CocyclePair(catalog.killing_form(g).reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    src = el2.from_skeletal_cocycle(g, m, base.s, base.j)
    out = []
    for _ in range(2):
        f = rand_tensor(rng, 1, 3, 3) * F(1, rng.choice([2, 3, 5]))
        theta = rand_tensor(rng, 1, 3) * F(1, rng.choice([7, 9]))
        nxt = base + cohom.coboundary(g, m, f)
        dst = el2.from_skeletal_cocycle(g, m, nxt.s, nxt.j)
        back, two = cohom.quasi_inverse_data(src, dst, f, theta)
        out += [(cohom.skeletal_morphism(src, dst, f), ()), (back, ()), (two.src, (two,))]
        out.append((morph.identity_morphism(dst), (morph.identity_2morphism(morph.identity_morphism(dst)),)))
    wide, _, _ = twisted_nonskeletal(rng, src, 1)
    iso, iso2 = transport_iso(wide, xla.identity(4) * F(3, 5), xla.identity(2) * F(2, 7))
    out.append((iso, (iso2,)))
    return out


def test_morphism_corpora_match_reference():
    for mor, twos in morphism_corpus():
        assert assert_matches_reference(mor, MORPHISM_CHECKS)[0].passed
        for two in twos:
            assert assert_matches_reference(two, TWO_MORPHISM_CHECKS)[0].passed
        for flat_idx in (0, 4):
            bad = dataclasses.replace(mor, f2=with_entry(mor.f2, flat_idx, F(1, 11)))
            assert not assert_matches_reference(bad, MORPHISM_CHECKS)[0].passed
        for two in twos:
            bad = dataclasses.replace(two, theta=with_entry(two.theta, 1, F(3, 13)))
            assert not assert_matches_reference(bad, TWO_MORPHISM_CHECKS)[0].passed


@settings(max_examples=12, deadline=None)
@given(moved_structures(SHAPE_BASES), st.sampled_from(["none", "d", "b00", "b01", "b10", "alt", "jac"]),
       st.integers(0, 200), entries.filter(lambda x: x != 0))
def test_hypothesis_structures_match_reference(moved, defect, flat_idx, delta):
    base, phi0, phi1 = moved
    iso, iso2 = transport_iso(base, phi0 * F(2, 7), phi1 * F(3, 5))
    e = iso.dst
    # n0 = 0: every tensor is empty
    assert xla.common_denominator(*el2._tensors(e)) > 1 or base.complex.n0 == 0
    if defect != "none" and dict(zip(("d", *el2.AXES), el2._tensors(e)))[defect].size:
        e = plant(e, defect, flat_idx, delta)
    assert_matches_reference(e, STRUCTURE_CHECKS)
    assert_matches_reference(iso, MORPHISM_CHECKS)
    assert_matches_reference(iso2, TWO_MORPHISM_CHECKS)


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------

def shared_records():
    """A structure, the transport isomorphism from it onto a structure with
    denominators and the identity 2-morphism on that, sharing their
    structure records."""
    g, m = catalog.sl2(), catalog.adjoint_rep(catalog.sl2())
    pair = cohom.coboundary(g, m, rand_tensor(random.Random(5), 3, 3, 3))
    base = el2.from_skeletal_cocycle(g, m, pair.s, pair.j)
    phi0 = xla.matrix([[F(1, 2), 0, F(1, 3)], [0, F(1, 5), 0], [0, 0, 1]])
    phi1 = xla.matrix([[F(1, 7), 0, 0], [F(2, 3), 1, 0], [0, 0, F(1, 11)]])
    iso, iso2 = transport_iso(base, phi0, phi1)
    return base, iso, iso2


@pytest.fixture
def shared():
    return shared_records()


def test_scaled_ints_runs_once_per_record_tensor(shared, monkeypatch):
    base, iso, iso2 = shared
    moved = iso.dst
    seen = []
    scaled_ints = xla.scaled_ints

    def counted(a, factor):
        seen.append(id(a))
        return scaled_ints(a, factor)

    monkeypatch.setattr(xla, "scaled_ints", counted)
    for _ in range(2):
        for check, x in ((el2.check_el2, moved), (el2.categorical_coherence_check, moved),
                         (el2.check_el2, base), (morph.check_morphism, iso), (morph.check_2morphism, iso2)):
            assert check(x).passed
    # the six tensors of each structure, f0, f1, f2 and theta
    assert len(seen) == len(set(seen)) == 6 + 6 + 3 + 1
    assert set(seen) == {id(t) for t in el2._tensors(iso2)}


def test_memo_is_not_a_field(shared):
    base, iso, _ = shared
    text = documents.serialize(iso.dst)
    twin = el2.EL2Algebra(*(getattr(iso.dst, f.name) for f in dataclasses.fields(iso.dst)))
    assert morph.check_morphism(iso).passed
    e = iso.dst
    assert "_integer_forms" in vars(e) and "_integer_forms" in vars(e.complex)
    assert [f.name for f in dataclasses.fields(e)] == ["complex", "b00", "b01", "b10", "alt", "jac"]
    assert e == twin and hash(e) == hash(twin) and "_integer_forms" not in vars(twin)
    assert documents.serialize(e) == text
    copy = dataclasses.replace(e)
    assert copy == e and "_integer_forms" not in vars(copy)


def test_integer_form_of_a_tensor():
    t = xla.tensor((2, 2), ["1/6", "-3/4", 0, 5])
    rec = dkcore.TwoTermComplex(2, 2, t)
    ints, den, height = rec.integer_form("d")
    assert den == 12 and ints.tolist() == [[2, -9], [0, 60]] and height == 60
    assert not ints.flags.writeable
    assert rec.integer_form("d") is rec.integer_form("d")
    empty = dkcore.TwoTermComplex(0, 3, xla.zeros(0, 3)).integer_form("d")
    assert (empty.den, empty.height, empty.ints.shape) == (1, 0, (0, 3))


def test_replaced_copy_reports_its_planted_defect(shared):
    _, iso, iso2 = shared
    e = iso.dst
    assert el2.check_el2(e).passed and el2.categorical_coherence_check(e).passed
    bad = dataclasses.replace(e, jac=with_entry(e.jac, 5, F(1, 23)))
    reports = assert_matches_reference(bad, STRUCTURE_CHECKS)
    assert not any(r.passed for r in reports)
    assert "coh.jacobiator-sym12" in reports[0].equations_violated()
    assert el2.check_el2(e).passed
    assert morph.check_morphism(iso).passed and morph.check_2morphism(iso2).passed
    bad_iso = dataclasses.replace(iso, f2=with_entry(iso.f2, 3, F(2, 29)))
    assert not assert_matches_reference(bad_iso, MORPHISM_CHECKS)[0].passed
    bad_two = dataclasses.replace(iso2, theta=with_entry(iso2.theta, 1, F(3, 31)))
    assert not assert_matches_reference(bad_two, TWO_MORPHISM_CHECKS)[0].passed


def test_memo_dies_with_its_record():
    base, iso, iso2 = shared_records()
    refs = [weakref.ref(x) for x in (iso2, iso, iso.dst, iso.dst.complex)]
    form = weakref.ref(iso.dst.integer_form("jac").ints)
    assert el2.check_el2(iso.dst).passed and el2.categorical_coherence_check(iso.dst).passed
    assert morph.check_morphism(iso).passed and morph.check_2morphism(iso2).passed
    del iso, iso2
    gc.collect()
    assert all(ref() is None for ref in refs) and form() is None
    assert el2.check_el2(base).passed


# ---------------------------------------------------------------------------
# what the memo relies on
# ---------------------------------------------------------------------------

def record_tensors():
    """Records built from ints, Fractions, zeros and transport."""
    from_ints = el2.from_quadratic_lie(
        el2.LieAlgebraFD(2, np.array([[[0, 1], [-1, 0]], [[0, 0], [0, 0]]])), np.array([[0, 0], [0, 0]])
    )
    from_fractions = el2.LieAlgebraFD(1, xla.tensor((1, 1, 1), [F(0)]))
    zero = el2.zero_el2(3, 2)
    moved = el2.transport(el2.string_2_algebra(catalog.sl2(), catalog.killing_form(catalog.sl2())),
                          xla.matrix([[1, F(1, 2), 0], [0, 1, 0], [0, 0, 2]]), xla.matrix([[F(3, 4)]]))
    vec = dkcore.TwoTermComplex(1, 1, xla.vector([5]).reshape(1, 1))
    return [*el2._tensors(from_ints), from_fractions.c, *el2._tensors(zero), *el2._tensors(moved),
            vec.d, xla.as_exact(np.array([1, 2])), xla.as_exact(np.array(7))]


def test_record_tensors_cannot_be_made_writeable():
    for t in record_tensors():
        assert not t.flags.writeable
        with pytest.raises(ValueError):
            t.flags.writeable = True


def test_frozen_arrays_cannot_be_made_writeable():
    """``freeze`` freezes the array that owns the buffer, so neither an
    owner nor a view of one can be made writeable again."""
    m = np.array([[1, 2, 3]], dtype=object)
    rec = dkcore.TwoTermComplex(2, 2, xla.tensor((2, 2), ["1/6", "-3/4", 0, 5]))
    arrays = [
        xla.zeros(2, 2), xla.zeros(0, 3), xla.identity(3),
        xla.kernel_basis(m).basis, xla.image_basis(m).basis,
        xla.Subspace._trusted(2, np.array([[F(1)], [F(0)]], dtype=object)).basis,
        rec.integer_form("d").ints,
        xla.freeze(np.zeros((2, 3), dtype=object).T), xla.freeze(np.arange(6).reshape(2, 3)),
    ]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flags.writeable = True


def test_equality_of_a_record_with_itself_compares_nothing(shared, monkeypatch):
    _, iso, _ = shared
    calls = []
    arrays_equal = xla.arrays_equal

    def counted(a, b):
        calls.append(1)
        return arrays_equal(a, b)

    monkeypatch.setattr(xla, "arrays_equal", counted)
    two = morph.identity_2morphism(iso)
    assert calls == [] and two.src is two.dst
    assert iso == iso and not iso != iso and calls == []
    twin = morph.ELMorphism(iso.src, iso.dst, iso.f0, iso.f1, iso.f2)
    assert twin == iso and calls
