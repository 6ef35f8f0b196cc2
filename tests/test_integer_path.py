"""The integer paths against plain Fraction evaluation.

The axiom checkers run their bodies once, on an integer-scaled copy, and
divide each violating residual by its identity's power of the scale.  The
public checker must return the report of the same body run on the Fraction
input at scale 1, and the integer run must fail at the same (identity,
basis tuple) places, every residual a fixed positive multiple, per
identity, of the Fraction one.  Every scaled copy holds Python ints only,
and so does every residual column that reaches a report, before it is
divided.

The constructions ``el2.transport``, ``cohom.coboundary`` and
``skew.skew_jacobiator`` and the residual checks ``cohom.is_cocycle`` and
``defo.crossed_module_identities_report`` clear denominators and divide
once.  They must return the values, entry types and reports of the Fraction
references kept here.
"""

import collections
import contextlib
import dataclasses
import math
import random
from fractions import Fraction as F
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cohom_reference
import el2_reference
from conftest import coboundary_reference, rand_tensor, rational_cases, twisted_nonskeletal
from lie2alg import catalog, cohom, defo, dkcore, el2, exactla as xla, morph, skew
from lie2alg import report as report_module
from lie2alg.report import CheckReport, Violation, collect_tensor_violations

EL2_CHECKERS = (
    (el2.check_el2, el2._check_el2_body),
    (el2.categorical_coherence_check, el2._categorical_body),
)


@contextlib.contextmanager
def int_columns_only():
    """Inside the block, every residual column a checker reports must hold
    Python ints only when it reaches the division by its scale."""
    divide = report_module.exact_residual

    def checked(column, scale=1):
        column = list(column)
        assert all(type(x) is int for x in column), column
        return divide(column, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report_module, "exact_residual", checked)
        yield


def assert_int_entries(*arrays):
    assert all(type(x) is int for a in arrays for x in np.asarray(a).flat)


def assert_integer_path_agrees(public, body, exact, scaled):
    full = body(exact, 1, None)
    cases = [(None, full)] if full.passed else [(None, full), (2, body(exact, 1, 2))]
    for stop_after, want in cases:
        with int_columns_only():
            got = public(exact, stop_after=stop_after)
        assert got.violations == want.violations
        assert got.notes == want.notes
        assert got.render() == want.render()
    with int_columns_only():
        ints = body(scaled, 1, None)
    assert [(v.equation, v.at) for v in ints.violations] == [
        (v.equation, v.at) for v in full.violations
    ]
    ratios: dict[str, set] = {}
    for vi, vf in zip(ints.violations, full.violations):
        for xi, xf in zip(vi.residual, vf.residual):
            assert (xi == 0) == (xf == 0)
            if xf != 0:
                ratios.setdefault(vi.equation, set()).add(F(xi) / F(xf))
    for equation, seen in ratios.items():
        assert len(seen) == 1 and seen.pop() > 0, equation
    return full


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def transport_reference(e, phi0, phi1):
    """``el2.transport`` evaluated on Fractions."""
    phi0, phi1 = xla.as_exact(phi0), xla.as_exact(phi1)
    inv0, inv1 = xla.inverse(phi0), xla.inverse(phi1)

    def push(t, out_map, in_maps):
        out = xla.postcompose(out_map, t)
        for slot, m in enumerate(in_maps, start=1):
            out = xla.precompose(out, slot, m)
        return out

    d = xla.freeze(np.dot(phi0, np.dot(e.complex.d, inv1)))
    return el2.EL2Algebra(
        dkcore.TwoTermComplex(e.complex.n0, e.complex.n1, d),
        push(e.b00, phi0, (inv0, inv0)),
        push(e.b01, phi1, (inv0, inv1)),
        push(e.b10, phi1, (inv1, inv0)),
        push(e.alt, phi1, (inv0, inv0)),
        push(e.jac, phi1, (inv0, inv0, inv0)),
    )


def skew_jacobiator_reference(jac, alt, b00):
    """``skew.skew_jacobiator`` evaluated on Fractions."""
    return xla.alternate(jac, F(1, 6)) - xla.alternate(xla.plug(alt, 1, b00), F(1, 12))


def is_cocycle_reference(g, m, p):
    """The report of ``cohom.is_cocycle`` from the Fraction residuals of
    the kept cocycle equations (``cohom_reference``)."""
    report = CheckReport()
    for name, residual in cohom_reference.cocycle_residuals(g, m, p):
        collect_tensor_violations(report, name, residual)
    return report


def crossed_module_reference(data):
    """``defo.crossed_module_identities_report`` evaluated on Fractions."""
    report = CheckReport()
    e = data.algebra
    d = e.complex.d
    on0, on1 = data.action.on_c0, data.action.on_c1
    f0 = data.boundary.f0
    tgt = data.boundary.dst
    for v in morph.check_morphism(data.boundary).violations:
        report.violations.append(Violation(f"n3.boundary/{v.equation}", v.at, v.residual))
    lhs = np.tensordot(d, on1, axes=([1], [0]))
    rhs = np.tensordot(on0, d, axes=([2], [0]))
    collect_tensor_violations(report, "action.chain", lhs - rhs)
    for name, on_out, t, on_x, on_y in (
        ("action.derivation.b00", on0, e.b00, on0, on0),
        ("action.derivation.b01", on1, e.b01, on0, on1),
        ("action.derivation.alt", on1, e.alt, on0, on0),
    ):
        lhs = np.tensordot(on_out, t, axes=([2], [0]))
        r1 = np.moveaxis(np.tensordot(t, on_x, axes=([1], [0])), (2, 3), (1, 2))
        r2 = np.swapaxes(np.tensordot(t, on_y, axes=([2], [0])), 1, 2)
        collect_tensor_violations(report, name, lhs - r1 - r2)
    lhs = np.tensordot(f0, on0, axes=([1], [0]))
    rhs = np.tensordot(tgt.b00, f0, axes=([2], [0]))
    collect_tensor_violations(report, "crossed.boundary-action", lhs - rhs)
    lhs = np.moveaxis(np.tensordot(on0, f0, axes=([1], [0])), 2, 1)
    collect_tensor_violations(report, "crossed.derived.objects", lhs - e.b00)
    lhs = np.moveaxis(np.tensordot(on1, f0, axes=([1], [0])), 2, 1)
    collect_tensor_violations(report, "crossed.derived.parts", lhs - e.b01)
    return report


def entry_types(*arrays):
    return [type(x) for a in arrays for x in np.asarray(a).flat]


def assert_same_arrays(got, want):
    assert xla.arrays_equal(got, want)
    assert entry_types(got) == entry_types(want)


def assert_same_structure(got, want):
    for a, b in zip(el2._tensors(got), el2._tensors(want)):
        assert_same_arrays(a, b)


def assert_same_report(got, want):
    assert got.violations == want.violations
    assert [type(x) for v in got.violations for x in v.residual] == [
        type(x) for v in want.violations for x in v.residual
    ]
    assert got.render() == want.render()


def scalar(n, den, power):
    return xla.identity(n) * F(den) ** power


def assert_tensors_equal(got, want):
    assert len(got) == len(want)
    assert all(xla.arrays_equal(a, b) for a, b in zip(got, want))


def assert_scaled_copy_is_transport(e, scaled, den, p=2, q=3):
    n0, n1 = e.complex.n0, e.complex.n1
    moved = transport_reference(e, scalar(n0, den, -p), scalar(n1, den, -q))
    assert_tensors_equal(el2._tensors(scaled), el2._tensors(moved))
    assert_int_entries(*el2._tensors(scaled))


def check_el2_both(e):
    scaled, den = el2._integer_copy(e)
    assert den == xla.common_denominator(*el2._tensors(e))
    assert_scaled_copy_is_transport(e, scaled, den)
    assert_int_entries(*(fn(scaled) for _, fn in el2.EL2_EQUATIONS + el2.EL2_REDUNDANT_EQUATIONS))
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
        transport_reference(m.src, scalar(s0, den, -p), scalar(s1, den, -q)),
        transport_reference(m.dst, scalar(t0, den, -pp), scalar(t1, den, -qp)),
        np.dot(scalar(t0, den, -pp), np.dot(m.f0, inv0)),
        np.dot(scalar(t1, den, -qp), np.dot(m.f1, scalar(s1, den, q))),
        f2,
    )


def morphism_tensors(m):
    return (*el2._tensors(m.src), *el2._tensors(m.dst), m.f0, m.f1, m.f2)


def check_morphism_both(m):
    scaled, den = el2._integer_copy(m)
    assert den == xla.common_denominator(*morphism_tensors(m))
    assert_tensors_equal(morphism_tensors(scaled), morphism_tensors(transported_morphism(m, den)))
    assert_int_entries(*morphism_tensors(scaled))
    return assert_integer_path_agrees(morph.check_morphism, morph._check_morphism_body, m, scaled)


def check_2morphism_both(t):
    scaled, den = el2._integer_copy(t)
    f, g = t.src, t.dst
    assert den == xla.common_denominator(*morphism_tensors(f), g.f0, g.f1, g.f2, t.theta)
    assert_tensors_equal(morphism_tensors(scaled.src), morphism_tensors(transported_morphism(f, den)))
    assert_tensors_equal(morphism_tensors(scaled.dst), morphism_tensors(transported_morphism(g, den)))
    theta = np.dot(scalar(t.theta.shape[0], den, -3), np.dot(t.theta, scalar(t.theta.shape[1], den, 4)))
    assert xla.arrays_equal(scaled.theta, theta)
    assert_int_entries(*morphism_tensors(scaled.src), *morphism_tensors(scaled.dst), scaled.theta)
    return assert_integer_path_agrees(morph.check_2morphism, morph._check_2morphism_body, t, scaled)


def with_entry(a, flat_idx, delta):
    """Copy of an array with one entry shifted by delta (a C-ordered copy,
    so that the flat view writes through for any input layout)."""
    out = np.array(a, dtype=object, copy=True, order="C")
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
    assert_same_structure(moved, transport_reference(e, phi0, phi1))
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
    back = xla.unscaled(out, 120)
    assert_same_arrays(back, a)
    assert entry_types(back) == [F] * 3 and not back.flags.writeable
    assert xla.unscaled(np.zeros((2, 0, 3), dtype=object), 7).shape == (2, 0, 3)


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


def test_checkers_build_no_record(coprime_structure, monkeypatch):
    """The checkers evaluate on check-local views: none of them constructs,
    copies or re-validates a record."""
    base, phi0, phi1, e = coprime_structure
    iso, iso2 = transport_iso(base, phi0, phi1)
    built = []
    post_init = xla.TensorRecord.__post_init__

    def counted(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(xla.TensorRecord, "__post_init__", counted)
    counts = {}
    for check, x in ((el2.check_el2, e), (el2.categorical_coherence_check, e),
                     (morph.check_morphism, iso), (morph.check_2morphism, iso2)):
        built.clear()
        assert check(x).passed
        counts[check.__name__] = len(built)
    assert counts == dict.fromkeys(counts, 0)
    dkcore.zero_complex()
    assert built == ["TwoTermComplex"]


@pytest.mark.parametrize("name", ["d", "b00", "b01", "b10", "alt", "jac"])
def test_planted_structure_defect(coprime_structure, name):
    _, _, _, e = coprime_structure
    bad = plant(e, name, 5, F(1, 23))
    reports = check_el2_both(bad)
    assert not any(r.passed for r in reports)


def el2_modes(e):
    """How check_el2 decides each identity of e: on int64 entries, on
    stacked residues, or on Python ints."""
    ints, _ = el2._integer_copy(e)
    return {name: plan_kind(el2._row_plan(ints, terms)) for name, (_, terms) in el2.RESIDUAL_TERMS.items()}


def plan_kind(plan):
    return "int64" if plan == () else "residues" if plan else "ints"


def wide_everywhere(e, delta):
    """e with delta added to the first entry of each of its six tensors, so
    that every tensor of the integer copy is about as tall as delta."""
    for name in ("d", "b00", "b01", "b10", "alt", "jac"):
        e = plant(e, name, 0, delta)
    return e


@pytest.fixture
def identity_evaluations(monkeypatch):
    """Counts each identity evaluation by (identity, kind of view): Python
    ints, int64 entries, or int64 residues stacked on a leading axis."""
    calls = collections.Counter()

    def wrap(name, fn):
        def counted(x):
            kind = "ints" if x.b00.dtype == object else "residues" if x.b00.ndim == 4 else "int64"
            calls[name, kind] += 1
            return fn(x)
        return name, counted

    for table in ("EL2_EQUATIONS", "EL2_REDUNDANT_EQUATIONS"):
        monkeypatch.setattr(el2, table, tuple(wrap(name, fn) for name, fn in getattr(el2, table)))
    return calls


def test_failing_check_evaluates_only_failing_identities_on_ints(coprime_structure, identity_evaluations):
    """Each identity is evaluated once in the mode its bound picks.  One
    decided on residues reaches Python ints exactly once when its residue
    modulo some prime is nonzero, and never when it is zero modulo every
    prime; one decided exactly in int64 never reaches them."""
    base, _, _, e = coprime_structure
    e = el2.transport(e, xla.identity(3) * Q, xla.identity(3) * Q)    # every tensor of at least 68 bits
    for bad, mode in ((plant(e, "jac", 5, F(1, 23)), "residues"), (plant(base, "jac", 5, F(1, 23)), "int64")):
        assert set(el2_modes(bad).values()) == {mode}
        want = el2._check_el2_body(*el2._integer_copy(bad), None)
        violated = set(want.equations_violated())
        assert 0 < len(violated) < len(el2.RESIDUAL_POWERS)
        identity_evaluations.clear()
        with int_columns_only():
            got = el2.check_el2(bad)
        assert_same_report(got, want)
        assert got.notes == want.notes
        on_ints = {name: n for (name, kind), n in identity_evaluations.items() if kind == "ints"}
        assert on_ints == (dict.fromkeys(violated, 1) if mode == "residues" else {})
        screened = {name: n for (name, kind), n in identity_evaluations.items() if kind == mode}
        assert screened == dict.fromkeys(el2.RESIDUAL_POWERS, 1)


def test_planted_f2_and_theta_defects(coprime_structure):
    base, phi0, phi1, _ = coprime_structure
    iso, _ = transport_iso(base, phi0, phi1)
    bad = morph.ELMorphism(iso.src, iso.dst, iso.f0, iso.f1, with_entry(iso.f2, 3, F(2, 29)))
    assert not check_morphism_both(bad).passed
    theta = with_entry(xla.zeros(*iso.f2.shape[:2]), 1, F(3, 31))
    bad2 = morph.ELTwoMorphism(iso, iso, theta)
    assert not check_2morphism_both(bad2).passed
    # with a nonzero differential, planted f0, f1, f2 and theta entries reach
    # every identity, so each power of the scale is held to the reference
    wide, _, _ = twisted_nonskeletal(random.Random(9), base, 1)
    iso, iso2 = transport_iso(wide, xla.identity(4) * F(3, 5), xla.identity(4) * F(2, 7))
    seen = set()
    for name in ("f0", "f1", "f2"):
        for flat_idx in (0, 5, 10):
            maps = {n: getattr(iso, n) for n in ("f0", "f1", "f2")}
            maps[name] = with_entry(maps[name], flat_idx, F(1, 11))
            seen |= set(check_morphism_both(morph.ELMorphism(iso.src, iso.dst, **maps)).equations_violated())
    assert seen == {"chain-map", "bracket.00", "bracket.10", "bracket.01", "alternator", "jacobiator"}
    seen = set()
    for flat_idx in (0, 5, 10, 15):
        theta = with_entry(iso2.theta, flat_idx, F(1, 13))
        seen |= set(check_2morphism_both(morph.ELTwoMorphism(iso, iso, theta)).equations_violated())
    assert seen == {"homotopy.objects", "homotopy.parts", "homotopy.bracket"}


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
def moved_structures(draw, bases=BASES):
    base = draw(st.sampled_from(bases))
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


# ---------------------------------------------------------------------------
# constructions and residual checks that clear denominators once
# ---------------------------------------------------------------------------

def lie_only(g):
    """g as a structure with no arrows (n1 = 0)."""
    n = g.dim
    return el2.EL2Algebra(dkcore.TwoTermComplex(n, 0, xla.zeros(n, 0)), g.c,
                          xla.zeros(0, n, 0), xla.zeros(0, 0, n), xla.zeros(0, n, n), xla.zeros(0, n, n, n))


def test_transport_matches_fraction_reference(coprime_structure):
    base, phi0, phi1, e = coprime_structure
    rational = np.array([[F(2, 3), F(1, 5)], [F(-1, 4), 1]], dtype=object)
    g = catalog.sl2()
    cases = [
        (base, phi0, phi1),
        (e, xla.inverse(phi0), np.array(phi1, dtype=object) * F(7, 3)),
        (lie_only(g), phi0, xla.zeros(0, 0)),
        (el2.zero_el2(0, 2, xla.zeros(0, 2)), xla.zeros(0, 0), rational),
        (el2.direct_sum(el2.from_quadratic_lie(g, catalog.killing_form(g)),
                        el2.zero_el2(1, 1, xla.identity(1))),
         xla.identity(4) * F(3, 2), rational),
    ]
    for src, p0, p1 in cases:
        got = el2.transport(src, p0, p1)
        assert_same_structure(got, transport_reference(src, p0, p1))
        assert all(t is F for t in entry_types(*el2._tensors(got)))
    assert lie_only(g) == el2.transport(lie_only(g), xla.identity(3), xla.zeros(0, 0))


def rational_pairs():
    """(name, g, m, pair) with the pair a coboundary of an f whose entries
    carry their own denominators."""
    rng = random.Random(41)
    out = []
    for name, g, m in rational_cases():
        f = rand_tensor(rng, m.dim, g.dim, g.dim) * F(1, 3)
        f.reshape(-1)[1] = F(5, 11)
        out.append((name, g, m, f, cohom.coboundary(g, m, f)))
    return out


def test_coboundary_matches_fraction_reference():
    for name, g, m, f, pair in rational_pairs():
        assert xla.common_denominator(g.c, m.rho) > 1 and xla.common_denominator(f) > 1, name
        want = coboundary_reference(g, m, f)
        assert_same_arrays(pair.s, want.s)
        assert_same_arrays(pair.j, want.j)
        assert all(t is F for t in entry_types(pair.s, pair.j)), name


@pytest.mark.parametrize("where", ["none", "s", "j", "both"])
def test_is_cocycle_matches_fraction_reference(where):
    for name, g, m, _, pair in rational_pairs():
        s, j = np.array(pair.s, copy=True), np.array(pair.j, copy=True)
        if where in ("s", "both"):
            s.reshape(-1)[4] += F(1, 13)
        if where in ("j", "both"):
            j.reshape(-1)[7] += F(-2, 17)
        planted = cohom.CocyclePair(s, j)
        ok, report = cohom.is_cocycle(g, m, planted)
        want = is_cocycle_reference(g, m, planted)
        assert ok == want.passed == (where == "none"), name
        assert_same_report(report, want)


def test_validators_report_fraction_residuals():
    c = xla.zeros(2, 2, 2).copy()
    c[0, 0, 1], c[1, 1, 0], c[1, 0, 0] = F(2, 3), F(-1, 5), F(3, 7)
    g = rational_cases()[0][1]
    rho = xla.zeros(1, 3, 1).copy()
    rho[0, 0, 0] = F(2, 3)
    lhs = np.transpose(np.tensordot(rho, g.c, axes=([1], [0])), (0, 2, 3, 1))
    comp = np.tensordot(rho, rho, axes=([2], [0]))
    cases = [
        (lambda: el2.LieAlgebraFD(2, c), "not a Lie algebra",
         [("skew-symmetry", c + c.swapaxes(1, 2)), ("jacobi", el2_reference._leibniz_defect(c))]),
        (lambda: el2.LeibnizAlgebraFD(2, c), "not a Leibniz algebra",
         [("leibniz", el2_reference._leibniz_defect(c))]),
        (lambda: el2.RepresentationFD(g, 1, rho), "not a representation",
         [("module-axiom", lhs - comp + comp.swapaxes(1, 2))]),
    ]
    for build, message, residuals in cases:
        want = CheckReport()
        for name, residual in residuals:
            collect_tensor_violations(want, name, residual)
        assert not want.passed
        with pytest.raises(el2.InvalidStructureError) as err:
            build()
        assert_same_report(err.value.report, want)
        assert str(err.value) == f"{message}\n{want.render()}"


def test_skew_jacobiator_matches_fraction_reference(coprime_structure):
    _, _, _, e = coprime_structure
    cases = [(e.jac, e.alt, e.b00)]
    for name, g, m, _, pair in rational_pairs():
        cases.append((pair.j, pair.s, g.c))
    for jac, alt, b00 in cases:
        assert xla.common_denominator(jac, alt, b00) > 1
        got = skew.skew_jacobiator(jac, alt, b00)
        assert_same_arrays(got, skew_jacobiator_reference(jac, alt, b00))
        assert all(t is F for t in entry_types(got))


def n3_cases():
    """inner_symmetries_n3 data with integer tensors and, at a rescaled
    Maurer-Cartan element of the big bracket, with rational ones."""
    cdga, gamma = catalog.nilpotent_cdga_dgla()
    big3, big4 = (catalog.big_bracket_dgla(xla.identity(n)) for n in (3, 4))
    return [
        defo.inner_symmetries_n3(cdga, gamma),
        defo.inner_symmetries_n3(big3, catalog.cross_product_gamma(3) * F(2, 3)),
        defo.inner_symmetries_n3(big4, catalog.cross_product_gamma(4) * F(3, 5)),
    ]


def planted_n3(data, where, flat_idx, delta):
    """Copy of the n = 3 data with one entry of on_c0, on_c1, f0 or the
    alternator shifted."""
    if where in ("on_c0", "on_c1"):
        shifted = with_entry(getattr(data.action, where), flat_idx, delta)
        return dataclasses.replace(data, action=dataclasses.replace(data.action, **{where: shifted}))
    if where == "f0":
        b = data.boundary
        f0 = with_entry(b.f0, flat_idx, delta)
        return dataclasses.replace(data, boundary=morph.ELMorphism(b.src, b.dst, f0, b.f1, b.f2))
    if where == "alt":
        return dataclasses.replace(data, algebra=plant(data.algebra, "alt", flat_idx, delta))
    return data


@pytest.mark.parametrize("where", ["none", "on_c0", "on_c1", "f0", "alt"])
def test_crossed_module_report_matches_fraction_reference(where):
    cases = n3_cases()
    assert [xla.common_denominator(c.algebra.b00, c.boundary.f0) > 1 for c in cases] == [False, True, True]
    for k, data in enumerate(cases):
        planted = planted_n3(data, where, 3 + k, F(2, 7))
        got = defo.crossed_module_identities_report(planted)
        want = crossed_module_reference(planted)
        assert got.passed == (where == "none")
        assert_same_report(got, want)


# ---------------------------------------------------------------------------
# verdicts certified by residues modulo a few primes
# ---------------------------------------------------------------------------

def test_residue_primes_are_the_largest_below_2_26():
    def is_prime(n):
        return n > 1 and all(n % q for q in range(2, math.isqrt(n) + 1))

    table = xla.RESIDUE_PRIMES
    assert len(table) == 64 and table[0] < 2**26
    assert [n for n in range(2**26 - 1, table[-1] - 1, -1) if is_prime(n)] == list(table)


def test_residue_stack_and_prime_count():
    a = np.array([[3, -5], [2**200 + 1, 0]], dtype=object)
    first = xla.RESIDUE_PRIMES[0]
    assert xla.residue_primes(0) == ()     # |r| <= 0 needs no prime
    assert xla.residue_primes(1) == (first,)
    image, row = xla.residue_stack([a, a[0]], (first,))
    assert image.dtype == np.int64 and image.tolist() == [[[3, first - 5], [(2**200 + 1) % first, 0]]]
    assert row.tolist() == [[3, first - 5]]
    # the fewest leading primes whose product exceeds the bound
    two = math.prod(xla.RESIDUE_PRIMES[:2])
    assert len(xla.residue_primes(two - 1)) == 2
    assert len(xla.residue_primes(two)) == 3
    whole = math.prod(xla.RESIDUE_PRIMES)
    assert len(xla.residue_primes(whole - 1)) == 64
    assert xla.residue_primes(whole) is None
    stacked = xla.residue_stack([a], xla.RESIDUE_PRIMES[:3])[0]
    assert stacked.shape == (3, 2, 2)
    for k, p in enumerate(xla.RESIDUE_PRIMES[:3]):
        assert stacked[k].tolist() == (a % p).tolist()


def test_residues_need_terms_of_width_products_below_2_63(identity_evaluations, monkeypatch):
    """Ten terms of n products of two residues stay below 2**63 up to
    n = 204: at width 205, coh.bracket-jacobiator (ten terms) is evaluated
    on Python ints only, while the others are still decided on residues
    (every tensor is wider than int64)."""
    first = xla.RESIDUE_PRIMES[0]
    assert 10 * 204 * first**2 < 2**63 <= 10 * 205 * first**2
    assert 5 * 205 * first**2 < 2**63
    e = wide_everywhere(el2.zero_el2(3, 1), F(2**64))
    monkeypatch.setattr(el2, "_width", lambda e: 205)
    assert el2.check_el2(e).render() == el2._check_el2_body(e, 1, None).render()
    kinds = collections.defaultdict(set)
    for name, kind in identity_evaluations:
        kinds[name].add(kind)
    assert kinds.pop("coh.bracket-jacobiator") == {"ints"}
    assert {frozenset(k) - {"ints"} for k in kinds.values()} == {frozenset({"residues"})}


def test_check_el2_falls_back_beyond_the_prime_table(identity_evaluations):
    huge = F(2**900 + 1, 3)
    e = wide_everywhere(el2.zero_el2(3, 1), huge)
    assert set(el2_modes(e).values()) == {"ints"}
    assert_matches_reference(e)
    assert not el2.check_el2(e).passed
    assert {kind for _, kind in identity_evaluations} == {"ints"}


class Magnitude:
    """An upper bound on |x| carried through arithmetic: a sum or difference
    adds the bounds, a product multiplies them, negation keeps it."""

    def __init__(self, bound):
        self.bound = bound

    def __add__(self, other):
        return Magnitude(self.bound + magnitude(other))

    def __mul__(self, other):
        return Magnitude(self.bound * magnitude(other))

    def __neg__(self):
        return self

    __radd__ = __sub__ = __rsub__ = __add__
    __rmul__ = __mul__


def magnitude(x):
    return x.bound if isinstance(x, Magnitude) else abs(x)


# Distinct heights for d, b00, b01, b10, alt and jac, so that a term table
# naming a wrong tensor, or missing or adding a term, shows in its bound.
HEIGHTS = (2, 3, 5, 7, 11, 13)


def bound_views(n0, n1):
    """Views of the shape (n0, n1) with every entry of each tensor minus its
    height in HEIGHTS: on Python ints, on int64 entries, on Magnitudes, and
    on residues modulo the first two primes stacked on a leading axis."""
    shapes = [t.shape for t in el2._tensors(el2.zero_el2(n0, n1))]

    def view(tensors):
        d, b00, b01, b10, alt, jac = tensors
        return SimpleNamespace(complex=SimpleNamespace(n0=n0, n1=n1, d=d), b00=b00, b01=b01, b10=b10, alt=alt,
                               jac=jac, heights=tuple(h if math.prod(shape) else 0 for h, shape in zip(HEIGHTS, shapes)))

    objects = view([np.full(shape, -h, dtype=object) for h, shape in zip(HEIGHTS, shapes)])
    ints = view([np.full(shape, -h, dtype=np.int64) for h, shape in zip(HEIGHTS, shapes)])
    mags = view([np.full(shape, Magnitude(h), dtype=object) for h, shape in zip(HEIGHTS, shapes)])
    residues = view(xla.residue_stack(el2._tensors(ints), xla.RESIDUE_PRIMES[:2]))
    return objects, ints, mags, residues


def assert_rows_within_bounds(rows, n0, n1):
    """Each row's residual on Magnitudes stays within its bound, with
    equality when n0 = n1 > 0, where every term attains its product of
    heights; its int64 evaluation equals the Python-int one, and its reduced
    residue image equals the exact residual modulo each prime."""
    objects, ints, mags, residues = bound_views(n0, n1)
    primes = xla.RESIDUE_PRIMES[:2]
    for name, _, terms, evaluate in rows:
        bound = el2._diagram_bound(ints, terms)
        if not n0:     # every tensor is empty
            assert bound == 0
        worst = max((magnitude(x) for x in np.asarray(evaluate(mags, None)).flat), default=0)
        assert worst <= bound, name
        if n0 == n1 > 0:
            assert worst == bound, name
        exact = evaluate(ints, None)
        assert exact.dtype == np.int64
        assert exact.tolist() == evaluate(objects, None).tolist()
        reduced = el2._on_residues(evaluate, residues, primes)
        assert reduced.shape == (len(primes),) + exact.shape
        for k, p in enumerate(primes):
            assert np.array_equal(reduced[k], exact % p), name


@pytest.mark.parametrize("n0, n1", [(3, 3), (2, 4), (4, 2), (1, 1), (0, 3), (3, 0)])
def test_identity_bounds_cover_every_identity(n0, n1):
    """Each identity, evaluated on tensors of distinct heights, stays within
    the bound of its own terms (RESIDUAL_TERMS), and attains it."""
    assert_rows_within_bounds(el2._identity_rows(), n0, n1)


@pytest.mark.parametrize("n0, n1", [(3, 3), (2, 4), (4, 2), (1, 1), (0, 3), (3, 0)])
def test_diagram_bounds_cover_every_diagram(n0, n1, monkeypatch):
    """Each categorical diagram, evaluated by the int64 mode's evaluator on
    tensors of distinct heights, stays within the bound its screen uses; every
    product in it is of a tensor entry and at most one batched entry, which
    on stacked residues lies in (-p, p), and is reduced."""
    operands = []
    apply = el2._GammaEvaluator._apply

    def counted(self, t, *args):
        batched = [a for a in args if a is not None and not isinstance(a, int)]
        operands.append(len(batched))
        out = apply(self, t, *args)
        if self.mod is not None:
            assert all(np.all(np.abs(a) < self.mod) for a in batched)
            assert out is None or np.all((out >= 0) & (out < self.mod))    # reduced after the product
        return out

    monkeypatch.setattr(el2._GammaEvaluator, "_apply", counted)
    assert_rows_within_bounds(el2._diagram_rows(), n0, n1)
    assert operands and max(operands) == 1


@pytest.mark.parametrize("rows", [el2._identity_rows, el2._diagram_rows])
def test_a_term_table_missing_a_term_fails_its_bound(rows):
    """A row whose term table misses any one of its terms is caught: on
    distinct heights its residual exceeds the bound of the terms left."""
    for name, rank, terms, evaluate in rows():
        for k in range(len(terms)):
            with pytest.raises(AssertionError):
                assert_rows_within_bounds([(name, rank, terms[:k] + terms[k + 1:], evaluate)], 3, 3)


def test_one_wide_tensor_leaves_the_others_in_int64(identity_evaluations):
    """A tensor wider than int64 is left out of the int64 view, so casting
    it cannot fail: the identities that do not read it are still decided in
    int64, the others on residues, and both checkers give their unscreened
    bodies' reports."""
    e = plant(plant(el2.zero_el2(3, 1), "b00", 1, F(3)), "jac", 5, F(2**70))
    ints, _ = el2._integer_copy(e)
    assert max(ints.heights) == 2**70
    modes = el2_modes(e)
    for name, (_, terms) in el2.RESIDUAL_TERMS.items():
        reads_jac = any("jac" in factors for factors in terms)
        assert modes[name] == ("residues" if reads_jac else "int64"), name
    assert_matches_reference(e)
    identity_evaluations.clear()
    el2.check_el2(e)
    assert {kind for (name, kind) in identity_evaluations if name == "skew.00"} == {"int64"}
    assert {kind for (name, kind) in identity_evaluations if name == "coh.jacobiator-sym12"} >= {"residues"}
    for stop_after in (None, 1):
        assert (el2.categorical_coherence_check(e, stop_after=stop_after).render(10**6)
                == el2._categorical_body(*el2._integer_copy(e), stop_after).render(10**6))


def test_row_reading_a_wide_tensor_with_zero_products_is_not_int64():
    """skew.00 multiplies d by alt; with d zero its products are all 0, but
    it still reads alt, which is too wide for int64: its bound covers that
    height, so it is decided on residues."""
    e = plant(el2.zero_el2(3, 1), "alt", 5, F(2**70))
    ints, _ = el2._integer_copy(e)
    assert ints.heights[0] == 0
    assert el2._diagram_bound(ints, el2.RESIDUAL_TERMS["skew.00"][1]) == 2**70
    assert el2_modes(e)["skew.00"] == "residues"
    terms = {name: t for name, _, t, _ in el2.CATEGORICAL_DIAGRAMS}
    assert plan_kind(el2._row_plan(ints, terms["cat.alternator.arrow"])) == "residues"
    assert_matches_reference(e)
    assert (el2.categorical_coherence_check(e).render(10**6)
            == el2._categorical_body(*el2._integer_copy(e), None).render(10**6))


def test_screen_with_too_few_primes_passes_a_defect(monkeypatch):
    """A residual equal to the product of the first k primes is zero modulo
    each of them: with the bound of every identity forced one prime short
    of it, the screen passes a broken structure whose failing identities
    are decided on stacked residues, and the real checker reports it."""
    k = 3
    product = math.prod(xla.RESIDUE_PRIMES[:k])
    bad = plant(el2.zero_el2(3, 1), "jac", 5, F(product))     # jac[0, 0, 1, 2]
    ints, den = el2._integer_copy(bad)
    assert den == 1
    residual = dict(el2.EL2_EQUATIONS)["coh.jacobiator-sym12"](ints)
    assert residual[0, 0, 1, 2] == product and set(np.unique(residual)) == {0, product}
    want = el2._check_el2_body(bad, 1, None)
    assert want.equations_violated() == ("coh.jacobiator-sym12", "coh.jacobiator-sym23")
    for name in want.equations_violated():
        assert el2_modes(bad)[name] == "residues"
        assert len(xla.residue_primes(el2._diagram_bound(ints, el2.RESIDUAL_TERMS[name][1]))) > k
    assert_matches_reference(bad)
    monkeypatch.setattr(el2, "_diagram_bound", lambda e, terms: product - 1)
    assert len(xla.residue_primes(product - 1)) == k
    assert el2.check_el2(bad).passed


def assert_matches_reference(e):
    """``check_el2`` gives the report of the exact body run on the Fraction
    input, for every ``stop_after``, with only Python ints reaching a
    report."""
    for stop_after in (None, 1, 3):
        want = el2._check_el2_body(e, 1, stop_after)
        with int_columns_only():
            got = el2.check_el2(e, stop_after=stop_after)
        assert_same_report(got, want)
        assert got.notes == want.notes


SHAPE_BASES = BASES + (lie_only(catalog.sl2()), el2.zero_el2(0, 2, xla.zeros(0, 2)))
# Moving along Q on both degrees divides the brackets and the alternator by
# Q and the Jacobiator by Q**2.  Moving along Q**3, every nonzero product
# of heights a term of an identity multiplies has at least 93 bits (the
# alternator, with the lowest power of den, can stay small, but it is only
# ever multiplied by d or a bracket), so every identity with a nonzero term
# needs at least three primes.
Q = 2**31 - 1


@settings(max_examples=15, deadline=None)
@given(moved_structures(SHAPE_BASES), st.sampled_from(["none", "d", "b00", "b01", "b10", "alt", "jac"]),
       st.integers(0, 200), entries.filter(lambda x: x != 0), st.booleans())
def test_check_el2_matches_exact_reference(moved, defect, flat_idx, delta, scaled):
    base, phi0, phi1 = moved
    n0, n1 = base.complex.n0, base.complex.n1
    e = el2.transport(base, phi0, phi1)
    if scaled:
        e = el2.transport(e, xla.identity(n0) * Q**3, xla.identity(n1) * Q**3)
    if defect != "none" and dict(zip(("d", "b00", "b01", "b10", "alt", "jac"), el2._tensors(e)))[defect].size:
        e = plant(e, defect, flat_idx, delta)
    if scaled and n0:     # n0 = 0: every tensor is empty
        ints, _ = el2._integer_copy(e)
        heights = el2._heights(ints)
        assert all(len(xla.residue_primes(el2._diagram_bound(ints, terms))) >= 3
                   for _, terms in el2.RESIDUAL_TERMS.values()
                   if any(math.prod(heights[t] for t in factors) for factors in terms))
    assert_matches_reference(e)
