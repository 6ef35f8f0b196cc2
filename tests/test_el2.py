import dataclasses
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import perturb, rand_tensor
from lie2alg import catalog, dkcore, el2, exactla as xla, skew


def test_check_el2_zero_structure_passes():
    for n0, n1 in [(0, 0), (2, 1), (3, 2)]:
        assert el2.check_el2(el2.zero_el2(n0, n1)).passed


SL2 = catalog.sl2()
KILLING = catalog.killing_form(SL2)
SQUARE = catalog.leibniz_square()
STRING = el2.string_2_algebra(SL2, KILLING)

# (constructor, tensors it converts before building the record: the span
# basis of from_leibniz, the pairing of the quadratic constructions)
CONSTRUCTORS = (
    (lambda: el2.from_leibniz(SQUARE), 1),
    (lambda: el2.from_quadratic_lie(SL2, KILLING), 1),
    (lambda: el2.string_2_algebra(SL2, KILLING), 1),
    (lambda: skew.skew_symmetrize(STRING), 0),
    (lambda: el2.zero_el2(3, 1, b00=SL2.c, jac=STRING.jac), 0),
)


@pytest.mark.parametrize("build, inputs", CONSTRUCTORS, ids=(
    "from_leibniz", "from_quadratic_lie", "string_2_algebra", "skew_symmetrize", "zero_el2"))
def test_constructors_convert_each_tensor_once(monkeypatch, build, inputs):
    """A constructor that sets only some tensors builds one record, whose
    six tensors (d first) are each converted once, last."""
    converted = []
    as_exact = xla.as_exact

    def counted(a):
        converted.append(np.shape(a))
        return as_exact(a)

    monkeypatch.setattr(xla, "as_exact", counted)
    e = build()
    assert converted[inputs:] == [t.shape for t in el2._tensors(e)]


def test_zero_el2_fills_only_the_missing_tensors():
    g = catalog.sl2()
    e = el2.zero_el2(3, 1, b00=g.c, alt=catalog.killing_form(g).reshape(1, 3, 3))
    assert xla.arrays_equal(e.b00, g.c) and xla.arrays_equal(e.alt[0], catalog.killing_form(g))
    assert all(xla.is_zero(t) for t in (e.complex.d, e.b01, e.b10, e.jac))
    assert e == el2.from_quadratic_lie(g, catalog.killing_form(g))


def test_float_structure_constants_are_refused():
    with pytest.raises(xla.ShapeError, match="cannot interpret 0.0 as an exact rational"):
        el2.LieAlgebraFD(1, np.zeros((1, 1, 1)))


def test_domain_type_validation():
    c = xla.zeros(2, 2, 2).copy()
    c[0, 0, 1] = F(1)  # not skew
    with pytest.raises(el2.InvalidStructureError):
        el2.LieAlgebraFD(2, xla.freeze(c))
    c = xla.zeros(2, 2, 2).copy()
    c[0, 0, 0] = F(1)  # [x,x] = x fails the Leibniz identity
    with pytest.raises(el2.InvalidStructureError):
        el2.LeibnizAlgebraFD(2, xla.freeze(c))
    g = catalog.sl2()
    bad_rho = xla.zeros(1, 3, 1).copy()
    bad_rho[0, 0, 0] = F(1)  # rho(h) = 1 is not a module structure for sl2
    with pytest.raises(el2.InvalidStructureError):
        el2.RepresentationFD(g, 1, xla.freeze(bad_rho))


def test_from_leibniz_square():
    e = el2.from_leibniz(catalog.leibniz_square())
    assert e.complex.n1 == 1
    report = el2.check_el2(e)
    assert report.passed
    assert el2.is_hemistrict(e) and not el2.is_semistrict(e)
    # <x, x> = 2y in ambient coordinates
    ambient = np.dot(e.complex.d, e.alt[:, 0, 0])
    assert xla.arrays_equal(ambient, xla.vector([0, 2]))


def test_from_leibniz_on_lie_algebra_is_strict():
    e = el2.from_leibniz(catalog.lie_as_leibniz(catalog.sl2()))
    assert e.complex.n1 == 0
    assert el2.is_strict(e)
    assert el2.check_el2(e).passed


def test_from_leibniz_abelian():
    e = el2.from_leibniz(catalog.lie_as_leibniz(catalog.abelian_lie(3)))
    assert e.complex.n1 == 0 and el2.is_strict(e)
    # the 0-dimensional Leibniz algebra gives the 0 x 0 structure
    e = el2.from_leibniz(el2.LeibnizAlgebraFD(0, xla.zeros(0, 0, 0)))
    assert (e.complex.n0, e.complex.n1) == (0, 0)
    assert [t.shape for t in (e.b00, e.b01, e.b10, e.alt, e.jac)] == [
        (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0), (0, 0, 0, 0)]
    assert el2.check_el2(e).passed


def _from_leibniz_per_vector(g, d):
    """Reference: b01, b10 and alt read off one membership solve per vector
    against the squared-bracket span with basis d."""
    n, m = d.shape
    span = xla.Subspace(n, d)
    b01 = np.empty((m, n, m), dtype=object)
    b10 = np.empty((m, m, n), dtype=object)
    for i in range(n):
        for a in range(m):
            b01[:, i, a] = xla.membership(span, np.dot(g.c[:, i, :], d[:, a]))
            b10[:, a, i] = xla.membership(span, np.dot(g.c[:, :, i], d[:, a]))
    alt = np.empty((m, n, n), dtype=object)
    sym = g.c + g.c.swapaxes(1, 2)
    for i in range(n):
        for j in range(n):
            alt[:, i, j] = xla.membership(span, sym[:, i, j])
    return b01, b10, alt


def test_from_leibniz_matches_per_vector_coordinates():
    for name, g in catalog.standard_leibniz_corpus():
        e = el2.from_leibniz(g)
        for got, want in zip((e.b01, e.b10, e.alt), _from_leibniz_per_vector(g, e.complex.d)):
            assert got.shape == want.shape and xla.arrays_equal(got, want), name


def test_hemistrict_extra_identities(el2_corpus):
    # structures of Leibniz algebras satisfy [<x,y>, z] = 0,
    # [x,<y,z>] = <[x,y],z> + <y,[x,z]>, and <x,[y,z]> = <[y,z],x>
    for name, e in el2_corpus:
        if not name.startswith("leibniz:"):
            continue
        lhs = np.moveaxis(np.tensordot(e.b10, e.alt, axes=([1], [0])), 1, 3)
        assert xla.is_zero(lhs), name
        t1 = np.tensordot(e.b01, e.alt, axes=([2], [0]))
        t2 = np.moveaxis(np.tensordot(e.alt, e.b00, axes=([1], [0])), (2, 3), (1, 2))
        t3 = np.swapaxes(np.tensordot(e.alt, e.b00, axes=([2], [0])), 1, 2)
        assert xla.is_zero(t1 - t2 - t3), name
        s1 = np.tensordot(e.alt, e.b00, axes=([2], [0]))
        s2 = np.tensordot(e.alt, e.b00, axes=([1], [0]))
        assert xla.is_zero(s1 - s2), name


def test_quadratic_requires_invariance():
    g = catalog.sl2()
    bad = xla.identity(3)  # not invariant for sl2
    with pytest.raises(el2.PairingError):
        el2.from_quadratic_lie(g, bad)
    asym = xla.zeros(3, 3).copy()
    asym[0, 1] = F(1)
    with pytest.raises(el2.PairingError):
        el2.from_quadratic_lie(g, xla.freeze(asym))


def test_pairing_entries_must_be_exact():
    """A float pairing is refused; an int64 one builds the structure of the
    exact pairing."""
    g = catalog.sl2()
    k = catalog.killing_form(g)
    for build in (el2.from_quadratic_lie, el2.string_2_algebra):
        with pytest.raises(xla.ShapeError):
            build(g, k.astype(float))
        e = build(g, k.astype(np.int64))
        assert e == build(g, k) and el2.check_el2(e).passed


def test_transport_accepts_int64_maps():
    g = catalog.sl2()
    e = el2.string_2_algebra(g, catalog.killing_form(g))
    assert el2.transport(e, np.eye(3, dtype=np.int64), np.eye(1, dtype=np.int64)) == e
    with pytest.raises(xla.ShapeError):
        el2.transport(e, np.eye(3), np.eye(1))


def test_quadratic_abelian_any_symmetric_form():
    g = catalog.abelian_lie(2)
    form = xla.matrix([[1, 2], [2, -1]])
    e = el2.from_quadratic_lie(g, form)
    assert el2.check_el2(e).passed and el2.is_hemistrict(e)


def test_string_equals_skew_of_quadratic():
    from lie2alg import skew

    for g, form in [
        (catalog.sl2(), catalog.killing_form(catalog.sl2())),
        (catalog.so3(), catalog.killing_form(catalog.so3())),
    ]:
        assert skew.skew_symmetrize(el2.from_quadratic_lie(g, form)) == el2.string_2_algebra(g, form)


def test_string_abelian_is_strict():
    e = el2.string_2_algebra(catalog.abelian_lie(2), xla.identity(2))
    assert el2.is_strict(e)


def test_from_skeletal_cocycle_families():
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    phi = catalog.cartan_3form(g, k)
    zero_s = xla.zeros(1, 3, 3)
    zero_j = xla.zeros(1, 3, 3, 3)
    both = el2.from_skeletal_cocycle(g, m, zero_s, zero_j)
    assert el2.is_strict(both)
    e_k = el2.from_skeletal_cocycle(g, m, k.reshape(1, 3, 3), zero_j)
    assert el2.check_el2(e_k).passed and el2.is_hemistrict(e_k)
    e_phi = el2.from_skeletal_cocycle(g, m, zero_s, phi)
    assert el2.check_el2(e_phi).passed and el2.is_semistrict(e_phi)
    # a non-cocycle is rejected
    from lie2alg import cohom

    bad_j = xla.zeros(1, 3, 3, 3).copy()
    bad_j[0, 0, 0, 0] = F(1)
    with pytest.raises(cohom.CocycleError):
        el2.from_skeletal_cocycle(g, m, zero_s, xla.freeze(bad_j))


def test_skeletal_roundtrip(el2_corpus):
    for name, e in el2_corpus:
        if not name.startswith("skeletal:"):
            continue
        g, m = el2.extract_skeletal_data(e)
        again = el2.from_skeletal_cocycle(g, m, e.alt, e.jac)
        assert again == e, name


def test_corpus_passes_checker(el2_corpus):
    for name, e in el2_corpus:
        report = el2.check_el2(e)
        assert report.passed, f"{name}: {report.render()}"


def test_redundant_identities_never_fire(el2_corpus):
    for name, e in el2_corpus:
        report = el2.check_el2(e)
        assert not any(v.equation.startswith("red.") for v in report.violations), name


def test_perturbation_localizes():
    g = catalog.sl2()
    k = catalog.killing_form(g)
    e = el2.from_quadratic_lie(g, k)
    bad = perturb(e, "jac", 5)
    report = el2.check_el2(bad)
    assert not report.passed
    # with zero differential the perturbed Jacobiator surfaces in the
    # bracket-Jacobiator coherence and its symmetry identities
    assert set(report.equations_violated()) <= {
        "coh.bracket-jacobiator",
        "coh.jacobiator-sym12",
        "coh.jacobiator-sym23",
    }
    bad = perturb(el2.from_leibniz(catalog.leibniz_square()), "b00", 3)
    assert not el2.check_el2(bad).passed


def test_categorical_matches_tensor_checker_on_corpus(el2_corpus):
    for name, e in el2_corpus:
        cat = el2.categorical_coherence_check(e)
        assert cat.passed, f"{name}: {cat.render()}"


def test_categorical_localization_bijection():
    rng = random.Random(11)
    corpus = [
        el2.from_leibniz(catalog.leibniz_square()),
        el2.from_quadratic_lie(catalog.sl2(), catalog.killing_form(catalog.sl2())),
        el2.string_2_algebra(catalog.so3(), catalog.killing_form(catalog.so3())),
    ]
    checked = 0
    for trial in range(30):
        e = corpus[trial % len(corpus)]
        tensor = ("b00", "b01", "b10", "alt", "jac")[rng.randrange(5)]
        arr = getattr(e, tensor)
        if arr.size == 0:
            continue
        bad = perturb(e, tensor, rng.randrange(arr.size))
        r1 = el2.check_el2(bad, stop_after=1)
        r2 = el2.categorical_coherence_check(bad, stop_after=1)
        assert r1.passed == r2.passed
        if not r1.passed:
            v1, v2 = r1.first(), r2.first()
            assert el2.EL2_TO_CATEGORICAL[v1.equation] == v2.equation
            assert v1.at == v2.at
            checked += 1
    assert checked >= 20


def test_categorical_detects_broken_sym12():
    # break only the first-two-argument symmetry of the Jacobiator: add a
    # diagonal (symmetric) unit to the string structure's Jacobiator
    e = el2.string_2_algebra(catalog.sl2(), catalog.killing_form(catalog.sl2()))
    idx = np.ravel_multi_index((0, 1, 1, 2), e.jac.shape)
    bad = perturb(e, "jac", int(idx))
    report = el2.categorical_coherence_check(bad)
    assert "cat.triangle-sym12" in report.equations_violated()


def _batched_vector(rng, n, shape, axes):
    """One random vector of length n per basis tuple, varying along the
    given tuple axes only (unit axes elsewhere)."""
    return rand_tensor(rng, n, *(size if p in axes else 1 for p, size in enumerate(shape)))


def _at(arg, idx, n):
    """The argument of a batched evaluator operation at one basis tuple."""
    if arg is None:
        return xla.zeros(n)
    if isinstance(arg, int):
        out = xla.zeros(n).copy()
        out[idx[arg]] = 1
        return out
    return arg[(slice(None),) + tuple(i if s > 1 else 0 for i, s in zip(idx, arg.shape[1:]))]


def test_fast_arrow_ops_match_reference():
    # arrow operations need no axiom: every tensor random
    rng = random.Random(3)
    n0, n1 = 3, 2
    e = el2.EL2Algebra(
        dkcore.TwoTermComplex(n0, n1, rand_tensor(rng, n0, n1)),
        rand_tensor(rng, n0, n0, n0),
        rand_tensor(rng, n1, n0, n1),
        rand_tensor(rng, n1, n1, n0),
        rand_tensor(rng, n1, n0, n0),
        rand_tensor(rng, n1, n0, n0, n0),
    )
    br = e.bracket
    # tuple axes: an object slot, an arrow-part slot and a free batch axis
    shape = (n0, n1, 2)
    ev = el2._GammaEvaluator(e, len(shape))

    def v0(*axes):
        return _batched_vector(rng, n0, shape, axes)

    def v1(*axes):
        return _batched_vector(rng, n1, shape, axes)

    arrow_pairs = [
        ((0, v1(1, 2)), (v0(0, 2), 1)),
        ((v0(2), 1), (0, v1(0, 1, 2))),
        ((None, 1), (0, None)),
        ((0, None), (None, 1)),
        ((None, None), (v0(0), 1)),
        ((v0(0, 1, 2), v1(0, 1, 2)), (v0(0, 1, 2), v1(0, 1, 2))),
    ]
    for (x, a), (y, b) in arrow_pairs:
        got = ev.on_arrows(el2._Arrow(x, a), el2._Arrow(y, b))
        for idx in np.ndindex(*shape):
            ref = br.on_arrows(
                dkcore.Arrow(_at(x, idx, n0), _at(a, idx, n1)),
                dkcore.Arrow(_at(y, idx, n0), _at(b, idx, n1)),
            )
            assert xla.arrays_equal(ref.obj, _at(got.obj, idx, n0))
            assert xla.arrays_equal(ref.part, _at(got.part, idx, n1))

    part, y = v1(1, 2), v0(0, 2)
    targets = [(el2._Arrow(y, 1), y, 1), (el2._Arrow(None, part), None, part)]
    for arrow, obj, a in targets:
        got = ev.target(arrow)
        for idx in np.ndindex(*shape):
            want = _at(obj, idx, n0) + np.dot(e.complex.d, _at(a, idx, n1))
            assert xla.arrays_equal(want, _at(got, idx, n0))

    z = v0(1)
    left, right = ev.whisk_left(0, part), ev.whisk_right(part, 0)
    s_arrow, j_arrow = ev.alternator_arrow(0, y), ev.jacobiator_arrow(0, y, z)
    for idx in np.ndindex(*shape):
        xi, yi, zi, ai = _at(0, idx, n0), _at(y, idx, n0), _at(z, idx, n0), _at(part, idx, n1)
        zero0, zero1 = xla.zeros(n0), xla.zeros(n1)
        whiskers = [
            (left, br.on_arrows(dkcore.Arrow(xi, zero1), dkcore.Arrow(zero0, ai))),
            (right, br.on_arrows(dkcore.Arrow(zero0, ai), dkcore.Arrow(xi, zero1))),
        ]
        for got, ref in whiskers:
            assert xla.arrays_equal(ref.part, _at(got, idx, n1))
        components = [
            (s_arrow, br.on_objects(xi, yi), xla.apply_multilinear(e.alt, xi, yi)),
            (j_arrow, br.on_objects(xi, br.on_objects(yi, zi)), xla.apply_multilinear(e.jac, xi, yi, zi)),
        ]
        for got, obj, minus_part in components:
            assert xla.arrays_equal(obj, _at(got.obj, idx, n0))
            assert xla.arrays_equal(-minus_part, _at(got.part, idx, n1))


def test_direct_sum_and_transport_preserve_validity():
    rng = random.Random(9)
    st = el2.string_2_algebra(catalog.sl2(), catalog.killing_form(catalog.sl2()))
    big = el2.direct_sum(st, el2.zero_el2(2, 2, xla.identity(2)))
    assert el2.check_el2(big).passed
    from conftest import rand_invertible

    moved = el2.transport(big, rand_invertible(rng, 5), rand_invertible(rng, 3))
    assert el2.check_el2(moved).passed
    assert not moved.complex.is_skeletal


def paper_shapes(n0, n1):
    """The shapes of d and the five tensors, each axis in C^0 (n0) or C^-1
    (n1), output first: stated here independently of el2.AXES."""
    return {"d": (n0, n1), "b00": (n0, n0, n0), "b01": (n1, n0, n1), "b10": (n1, n1, n0),
            "alt": (n1, n0, n0), "jac": (n1, n0, n0, n0)}


def dense_structure(rng, n0, n1):
    """A record (not a valid structure) with every entry of d and of the five
    tensors nonzero."""
    d, *tensors = (rand_tensor(rng, *shape, lo=1, hi=6) for shape in paper_shapes(n0, n1).values())
    return el2.EL2Algebra(dkcore.TwoTermComplex(n0, n1, d), *tensors)


def test_axes_table_lists_the_tensor_fields_in_order():
    fields = [f.name for f in dataclasses.fields(el2.EL2Algebra)]
    assert fields == ["complex", *el2.AXES]
    for n0, n1 in [(2, 3), (3, 1), (0, 2)]:
        shapes = paper_shapes(n0, n1)
        assert el2.EL2Algebra.shapes(el2.zero_el2(n0, n1)) == {k: shapes[k] for k in el2.AXES}
        assert [t.shape for t in el2._tensors(el2.zero_el2(n0, n1))] == list(shapes.values())


def test_direct_sum_puts_each_summand_on_its_diagonal_blocks():
    rng = random.Random(23)
    a, b = dense_structure(rng, 2, 3), dense_structure(rng, 3, 1)
    total = el2.direct_sum(a, b)
    assert (total.complex.n0, total.complex.n1) == (5, 4)
    for name, ta, tb, t in zip(("d", *el2.AXES), el2._tensors(a), el2._tensors(b), el2._tensors(total)):
        assert t.shape == tuple(x + y for x, y in zip(ta.shape, tb.shape)), name
        # one block per choice of summand along each axis
        for choice in itertools.product((0, 1), repeat=t.ndim):
            block = t[tuple(slice(s) if c == 0 else slice(s, None) for c, s in zip(choice, ta.shape))]
            if not any(choice):
                assert xla.arrays_equal(block, ta), name
            elif all(choice):
                assert xla.arrays_equal(block, tb), name
            else:
                assert xla.is_zero(block), (name, choice)


def test_transport_along_scalars_scales_each_tensor_by_its_axes():
    """Along (q0, q1) times the identity a tensor is multiplied by the
    output space's scalar over the product of its input spaces' scalars."""
    e = dense_structure(random.Random(29), 2, 3)
    q0, q1 = F(2, 3), F(5, 7)
    moved = el2.transport(e, xla.identity(2) * q0, xla.identity(3) * q1)
    factors = {"d": q0 / q1, "b00": 1 / q0, "b01": 1 / q0, "b10": 1 / q0,
               "alt": q1 / q0**2, "jac": q1 / q0**3}
    for (name, factor), t, got in zip(factors.items(), el2._tensors(e), el2._tensors(moved)):
        assert xla.arrays_equal(got, t * factor), name
