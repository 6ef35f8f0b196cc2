import dataclasses
import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import homotopy_invariance_trials, rand_invertible, rand_tensor, twisted_nonskeletal
from lie2alg import catalog, cli, cohom, dkcore, documents, el2, exactla as xla, morph
from transfer_reference import transfer_reference


def test_zero_pair_is_cocycle(gm_corpus):
    for name, g, m in gm_corpus:
        ok, _ = cohom.is_cocycle(g, m, cohom.zero_pair(g, m))
        assert ok, name


def test_sl2_worked_examples():
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    phi = catalog.cartan_3form(g, k)
    pair_k = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    pair_phi = cohom.CocyclePair(xla.zeros(1, 3, 3), phi)
    assert cohom.is_cocycle(g, m, pair_k)[0]
    assert cohom.is_cocycle(g, m, pair_phi)[0]
    # the comparison map: the splitting returns phi, the symmetric pair maps
    # to -phi/2, and the two are cohomologous
    assert xla.arrays_equal(cohom.ss_class(g, m, pair_phi), phi)
    assert xla.arrays_equal(cohom.ss_class(g, m, pair_k), phi * F(-1, 2))
    half = cohom.CocyclePair(xla.zeros(1, 3, 3), xla.freeze(phi * F(-1, 2)))
    assert cohom.classes_equal(g, m, pair_k, half)
    assert not cohom.classes_equal(g, m, pair_phi, cohom.zero_pair(g, m))
    assert cohom.hl3(g, m).dim == 1


def test_coboundary_lemma_random(gm_corpus):
    rng = random.Random(101)
    for name, g, m in gm_corpus:
        for _ in range(25):
            f = rand_tensor(rng, m.dim, g.dim, g.dim)
            pair = cohom.coboundary(g, m, f)
            ok, report = cohom.is_cocycle(g, m, pair)
            assert ok, f"{name}: {report.render()}"


def test_coboundary_zero_and_killing():
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    zero = cohom.coboundary(g, m, xla.zeros(1, 3, 3))
    assert xla.is_zero(zero.s) and xla.is_zero(zero.j)
    # symmetric f with trivial module: s part doubles, j part only keeps the
    # bracket-composition terms
    k = catalog.killing_form(g)
    pair = cohom.coboundary(g, m, k.reshape(1, 3, 3))
    assert xla.arrays_equal(pair.s, k.reshape(1, 3, 3) * F(2))
    c = g.c
    t4 = xla.plug(k.reshape(1, 3, 3), 1, c)
    t5 = np.swapaxes(xla.plug(k.reshape(1, 3, 3), 2, c), 1, 2)
    t6 = xla.plug(k.reshape(1, 3, 3), 2, c)
    assert xla.arrays_equal(pair.j, -t4 - t5 + t6)


def test_hl3_dimensions(hl3_spaces):
    expected = {
        "sl2/trivial": 1,
        "sl2/adjoint": 0,
        "abelian2/trivial": 1,
        "abelian3/trivial": 4,
        "affine/trivial": 0,
    }
    for name, (g, m, space) in hl3_spaces.items():
        assert space.dim == expected[name], name
        assert space.dim == space.cocycles.dim - space.coboundaries.dim
        assert xla.subspace_leq(space.coboundaries, space.cocycles)


def _coords_to_alt3_reference(g, m, v):
    """The triple-and-permutation loop coords_to_alt3 replaced: each value
    written at every permutation of its increasing triple, with the sign."""
    n, dm = g.dim, m.dim
    t = xla.zeros(dm, n, n, n).copy()
    for pos, (a, b, c) in enumerate(itertools.combinations(range(n), 3)):
        for mc in range(dm):
            for perm in itertools.permutations(range(3)):
                inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
                t[(mc,) + tuple((a, b, c)[p] for p in perm)] = v[pos * dm + mc] * (-1) ** inversions
    return t


def test_coords_to_alt3_matches_reference(gm_corpus):
    rng = random.Random(11)
    ab5 = catalog.abelian_lie(5)
    for name, g, m in gm_corpus + [("abelian5/trivial", ab5, catalog.trivial_rep(ab5))]:
        size = m.dim * len(list(itertools.combinations(range(g.dim), 3)))
        v = xla.vector([F(rng.randrange(-5, 6), rng.randrange(1, 4)) for _ in range(size)])
        got = cohom.coords_to_alt3(g, m, v)
        assert xla.arrays_equal(got, _coords_to_alt3_reference(g, m, v)), name
        assert all(isinstance(x, F) for x in got.flat), name
        assert cohom.is_alternating3(got) and xla.arrays_equal(cohom.alt3_to_coords(g, m, got), v), name


def test_ce_h3_dimensions(gm_corpus):
    expected = {
        "sl2/trivial": 1,
        "sl2/adjoint": 0,
        "abelian2/trivial": 0,
        "abelian3/trivial": 1,
        "affine/trivial": 0,
    }
    for name, g, m in gm_corpus:
        ce = cohom.ce_h3(g, m)
        assert ce.dim == expected[name], name
        for phi in ce.representatives:
            assert cohom.is_alternating3(phi)
    # sl2 representative is proportional to the bracket-pairing 3-form
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    ce = cohom.ce_h3(g, m)
    phi = catalog.cartan_3form(g, catalog.killing_form(g))
    coords_rep = cohom.alt3_to_coords(g, m, ce.representatives[0])
    coords_phi = cohom.alt3_to_coords(g, m, phi)
    stacked = np.column_stack([coords_rep])
    assert xla.solve(stacked, coords_phi) is not None


def test_ce_differential_squares_to_zero(gm_corpus):
    for name, g, m in gm_corpus:
        d2 = cohom.ce_differential(g, m, 2)
        d3 = cohom.ce_differential(g, m, 3)
        assert xla.is_zero(np.dot(d3, d2)), name


def test_ce_classical_betti_numbers():
    """Independent oracle for the cochain differential: cohomology in degrees
    0..3 against textbook values (vanishing for the simple algebra with both
    trivial and adjoint coefficients, the exterior algebra for abelian ones,
    and 1, 2, 2, 1 for the three-dimensional nilpotent algebra)."""

    def h_dim(g, m, k):
        z = xla.kernel_basis(cohom.ce_differential(g, m, k))
        if k == 0:
            return z.dim
        b = xla.image_basis(cohom.ce_differential(g, m, k - 1))
        return z.dim - b.dim

    cases = [
        (catalog.sl2(), catalog.trivial_rep(catalog.sl2()), [1, 0, 0, 1]),
        (catalog.abelian_lie(2), catalog.trivial_rep(catalog.abelian_lie(2)), [1, 2, 1, 0]),
        (catalog.abelian_lie(3), catalog.trivial_rep(catalog.abelian_lie(3)), [1, 3, 3, 1]),
        (catalog.affine_line(), catalog.trivial_rep(catalog.affine_line()), [1, 1, 0, 0]),
        (catalog.so3(), catalog.trivial_rep(catalog.so3()), [1, 0, 0, 1]),
        (catalog.sl2(), catalog.adjoint_rep(catalog.sl2()), [0, 0, 0, 0]),
        (catalog.heisenberg(), catalog.trivial_rep(catalog.heisenberg()), [1, 2, 2, 1]),
    ]
    for g, m, want in cases:
        assert [h_dim(g, m, k) for k in range(4)] == want


def test_ss_class_closed_and_descends(gm_corpus):
    rng = random.Random(55)
    for name, g, m in gm_corpus:
        ce = cohom.ce_h3(g, m)
        for _ in range(5):
            f = rand_tensor(rng, m.dim, g.dim, g.dim)
            phi = cohom.ss_class(g, m, cohom.coboundary(g, m, f))
            coords = cohom.alt3_to_coords(g, m, phi)
            # a coboundary pair lands on a coboundary cochain
            assert xla.membership(ce.coboundaries, coords) is not None, name


def test_ss_vanishes_for_abelian_pairs():
    g = catalog.abelian_lie(3)
    m = catalog.trivial_rep(g)
    rng = random.Random(77)
    a = rand_tensor(rng, 1, 3, 3)
    pair = cohom.CocyclePair(xla.freeze(a + a.swapaxes(1, 2)), xla.zeros(1, 3, 3, 3))
    assert cohom.is_cocycle(g, m, pair)[0]
    assert xla.is_zero(cohom.ss_class(g, m, pair))


def test_exact_sequence(gm_corpus):
    for name, g, m in gm_corpus:
        report = cohom.exact_sequence_report(g, m)
        assert report.passed, f"{name}: {report.render()}"
        assert report.hl3_dim == report.hom_wedge2_dim + report.ce_dim, name


def test_exact_sequence_specifics():
    # perfect algebra: the comparison map is an isomorphism
    g = catalog.sl2()
    rep = cohom.exact_sequence_report(g, catalog.trivial_rep(g))
    assert rep.abelianization_dim == 0 and rep.hl3_dim == rep.ce_dim == 1
    # two-dimensional abelian: everything comes from the alternating forms
    g = catalog.abelian_lie(2)
    rep = cohom.exact_sequence_report(g, catalog.trivial_rep(g))
    assert rep.hom_wedge2_dim == 1 and rep.ce_dim == 0 and rep.hl3_dim == 1
    # one-dimensional abelianization: no alternating forms, map injective
    g = catalog.affine_line()
    rep = cohom.exact_sequence_report(g, catalog.trivial_rep(g))
    assert rep.abelianization_dim == 1 and rep.hom_wedge2_dim == 0


def test_cohomology_spaces_compare_structurally():
    """H3 representatives are arrays and HL3 ones are records; both compare
    element by element."""
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    for build in (cohom.ce_h3, cohom.hl3):
        a, b = build(g, m), build(g, m)
        assert a.dim == 1 and a == b and hash(a) == hash(b)
        other = dataclasses.replace(a, representatives=tuple(2 * r if isinstance(r, np.ndarray) else r.scale(2)
                                                              for r in a.representatives))
        assert other != a and hash(other) == hash(a)
        assert dataclasses.replace(a, representatives=()) != a


def test_classes_equal_requires_cocycles():
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    bad = cohom.CocyclePair(xla.zeros(1, 3, 3), rand_tensor(random.Random(1), 1, 3, 3, 3))
    with pytest.raises(cohom.CocycleError):
        cohom.classes_equal(g, m, bad, cohom.zero_pair(g, m))


def test_transfer_on_skeletal_is_identity():
    st = el2.string_2_algebra(catalog.sl2(), catalog.killing_form(catalog.sl2()))
    skeletal, inclusion = cohom.transfer_to_skeletal(st)
    assert skeletal == st
    assert xla.arrays_equal(inclusion.f0, xla.identity(3))
    assert xla.is_zero(inclusion.f2)


def test_transfer_on_contractible_is_zero():
    e = el2.zero_el2(2, 2, xla.identity(2))
    skeletal, inclusion = cohom.transfer_to_skeletal(e)
    assert skeletal.complex.n0 == 0 and skeletal.complex.n1 == 0


def test_transfer_recovers_class():
    rng = random.Random(88)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    base = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    for _ in range(3):
        f = rand_tensor(rng, 1, 3, 3)
        shifted = base + cohom.coboundary(g, m, f)
        skel0 = el2.from_skeletal_cocycle(g, m, shifted.s, shifted.j)
        moved, phi0, phi1 = twisted_nonskeletal(rng, skel0, rng.randrange(1, 3))
        skeletal, inclusion = cohom.transfer_to_skeletal(moved)
        assert morph.is_equivalence(inclusion)
        g2, m2, pair2 = cohom.extract_class(skeletal)
        # compare through the canonical identification of the cohomologies
        hodge = dkcore.hodge_decompose(moved.complex)
        n0, n1 = moved.complex.n0, moved.complex.n1
        E0 = xla.zeros(n0, 3).copy(); E0[:3, :3] = xla.identity(3)
        E1 = xla.zeros(n1, 1).copy(); E1[:1, :1] = xla.identity(1)
        alpha = np.dot(hodge.project.f0, np.dot(phi0, E0))
        beta = np.dot(hodge.project.f1, np.dot(phi1, E1))
        ainv = xla.inverse(alpha)
        pushed = cohom.CocyclePair(
            xla.precompose(xla.precompose(xla.postcompose(beta, base.s), 1, ainv), 2, ainv),
            xla.precompose(
                xla.precompose(xla.precompose(xla.postcompose(beta, base.j), 1, ainv), 2, ainv),
                3,
                ainv,
            ),
        )
        assert cohom.classes_equal(g2, m2, pair2, pushed)


def test_transfer_matches_reference():
    """Reading jac_H off the inclusion's morphism Jacobiator gives the
    documents of the hand-expanded transfer, on criterion 09's moved
    structures and on skeletal sl2/adjoint coboundary structures moved along
    rational maps."""
    structures = [moved for _, moved, _, _ in homotopy_invariance_trials()]
    rng = random.Random(61)
    g = catalog.sl2()
    m = catalog.adjoint_rep(g)
    for acyclic in (0, 1, 2):
        pair = cohom.coboundary(g, m, rand_tensor(rng, 3, 3, 3))
        big = el2.direct_sum(el2.from_skeletal_cocycle(g, m, pair.s, pair.j),
                             el2.zero_el2(acyclic, acyclic, xla.identity(acyclic)))
        phi0, phi1 = (xla.freeze(rand_invertible(rng, n) * F(1, rng.randrange(2, 6)))
                      for n in (big.complex.n0, big.complex.n1))
        structures.append(el2.transport(big, phi0, phi1))
    assert any(xla.common_denominator(*el2._tensors(e)) > 1 for e in structures[30:])
    for k, e in enumerate(structures):
        got, want = cohom.transfer_to_skeletal(e), transfer_reference(e)
        for a, b in zip(got, want):
            assert documents.serialize(a) == documents.serialize(b), k


def test_cohomology_asks_the_operators_it_has(monkeypatch, tmp_path, capsys):
    """ss_class tests closedness with the cocycle test, not with a CE
    differential, and classes_equal solves against the coboundary matrix
    without building BL3: ``cohomology --ce`` on sl2 builds d2 and d3 once,
    in ce_h3."""
    calls = {"ce_differential": 0, "bl3": 0, "is_cocycle": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(cohom, name)):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(cohom, name, counted)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    phi = catalog.cartan_3form(g, k)
    pair_k = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    half = cohom.CocyclePair(xla.zeros(1, 3, 3), xla.freeze(phi * F(-1, 2)))
    assert xla.arrays_equal(cohom.ss_class(g, m, pair_k), phi * F(-1, 2))
    assert cohom.classes_equal(g, m, pair_k, half)
    assert not cohom.classes_equal(g, m, pair_k, cohom.zero_pair(g, m))
    assert calls["ce_differential"] == 0 and calls["bl3"] == 0
    path = tmp_path / "sl2.json"
    path.write_text(documents.serialize(g), encoding="utf-8")
    calls.update(dict.fromkeys(calls, 0))
    assert cli.main(["cohomology", str(path), "--ce"]) == 0
    assert "dim H3 = 1" in capsys.readouterr().out
    assert calls == {"ce_differential": 2, "bl3": 1, "is_cocycle": 4}


def test_extract_class_rejects_nonskeletal():
    e = el2.zero_el2(2, 2, xla.identity(2))
    with pytest.raises(el2.InvalidStructureError):
        cohom.extract_class(e)


def test_classification_soundness():
    rng = random.Random(202)
    g = catalog.sl2()
    m = catalog.trivial_rep(g)
    k = catalog.killing_form(g)
    phi = catalog.cartan_3form(g, k)
    base = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    # equal classes: an explicit morphism exists, passes, and has a
    # quasi-inverse with a verified 2-morphism
    for _ in range(3):
        f = rand_tensor(rng, 1, 3, 3)
        q = base + cohom.coboundary(g, m, f)
        assert cohom.classes_equal(g, m, base, q)
        found = cohom.coboundary_preimage(g, m, base, q)
        assert found is not None
        src = el2.from_skeletal_cocycle(g, m, base.s, base.j)
        dst = el2.from_skeletal_cocycle(g, m, q.s, q.j)
        mor = cohom.skeletal_morphism(src, dst, found)
        assert morph.check_morphism(mor).passed
        assert morph.is_equivalence(mor)
        theta = rand_tensor(rng, 1, 3)
        back, two = cohom.quasi_inverse_data(src, dst, found, theta)
        assert morph.check_morphism(back).passed
        assert morph.check_2morphism(two).passed
    # different classes: no bilinear map closes the gap
    q = base + cohom.CocyclePair(xla.zeros(1, 3, 3), phi)
    assert not cohom.classes_equal(g, m, base, q)
    assert cohom.coboundary_preimage(g, m, base, q) is None


def test_zero_algebra_cohomology():
    g = catalog.abelian_lie(0)
    m = catalog.trivial_rep(g)
    space = cohom.hl3(g, m)
    assert space.dim == 0 and space.cocycles.dim == 0
    assert cohom.ce_h3(g, m).dim == 0
    assert cohom.exact_sequence_report(g, m).passed


def test_extract_class_of_string_structure():
    g = catalog.sl2()
    k = catalog.killing_form(g)
    st = el2.string_2_algebra(g, k)
    g2, m2, pair = cohom.extract_class(st)
    assert g2 == g and m2.dim == 1
    phi = catalog.cartan_3form(g, k)
    assert xla.is_zero(pair.s)
    assert xla.arrays_equal(pair.j, phi * F(-1, 2))
    # and that class is the class of the symmetric pair (k, 0)
    pair_k = cohom.CocyclePair(k.reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
    assert cohom.classes_equal(g, m2, pair, pair_k)


def test_class_coordinates(hl3_spaces):
    g, m, space = hl3_spaces["abelian3/trivial"]
    assert space.dim == 4
    for k, rep in enumerate(space.representatives):
        coords = cohom.class_coordinates(space, rep)
        expected = xla.zeros(space.dim).copy()
        expected[k] = F(1)
        assert xla.arrays_equal(coords, expected)
    # several pairs at once: one column each, as the one-pair calls give
    rng = random.Random(5)
    pairs = list(space.representatives) + [
        space.representatives[0].scale(3) + cohom.coboundary(g, m, rand_tensor(rng, 1, 3, 3)),
        cohom.zero_pair(g, m),
    ]
    batch = cohom.class_coordinates(space, pairs)
    assert batch.shape == (space.dim, len(pairs))
    for k, pair in enumerate(pairs):
        assert xla.arrays_equal(batch[:, k], cohom.class_coordinates(space, pair))
    bad = cohom.CocyclePair(xla.zeros(1, 3, 3), rand_tensor(rng, 1, 3, 3, 3))
    with pytest.raises(cohom.CocycleError):
        cohom.class_coordinates(space, [pairs[0], bad])


def test_ce_class_coordinates_batch(gm_corpus):
    for name, g, m in gm_corpus:
        ce = cohom.ce_h3(g, m)
        cochains = list(ce.representatives) + [cohom.coords_to_alt3(g, m, v) for v in ce.coboundaries.basis.T]
        if not cochains:
            continue
        batch = cohom.ce_class_coordinates(ce, cochains, g, m)
        assert batch.shape == (ce.dim, len(cochains)), name
        for k, phi in enumerate(cochains):
            assert xla.arrays_equal(batch[:, k], cohom.ce_class_coordinates(ce, phi, g, m)), name


def test_exact_sequence_report_one_elimination_per_question(monkeypatch):
    calls = []
    real = xla.coset_coordinates

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(xla, "coset_coordinates", counted)
    for g, want in ((catalog.abelian_lie(3), 2), (catalog.sl2(), 1)):
        calls.clear()
        assert cohom.exact_sequence_report(g, catalog.trivial_rep(g)).passed
        assert len(calls) == want


def test_cocycle_pair_shapes_are_read_off_s():
    with pytest.raises(xla.ShapeError, match=r"^j has shape \(1, 3, 3, 2\), expected \(1, 3, 3, 3\)$"):
        cohom.CocyclePair(xla.zeros(1, 3, 3), xla.zeros(1, 3, 3, 2))
    with pytest.raises(xla.ShapeError, match=r"^s has shape \(1, 3\), expected \(1, 3, 3\)$"):
        cohom.CocyclePair(xla.zeros(1, 3), xla.zeros(1, 3, 3, 3))
    with pytest.raises(xla.ShapeError, match=r"^s has shape \(\), expected \(None, None, None\)$"):
        cohom.CocyclePair(xla.ZERO, xla.zeros(1, 3, 3, 3))


def iota_pairs_reference(g, m):
    """The pairs (a, 0) of ``cohom.iota_pairs``, each entry of a the 2x2
    minor of the projection rows u, v at (x, y) times the invariant value."""
    dim_a, reps, derived = cohom.abelianization(g)
    n, inv = g.dim, cohom.invariants_basis(m)
    proj = xla.inverse(np.column_stack([derived.basis, reps]))[derived.dim:]
    out = []
    for mc in range(inv.dim):
        for u, v in itertools.combinations(range(dim_a), 2):
            a = xla.zeros(m.dim, n, n).copy()
            for x, y in itertools.product(range(n), repeat=2):
                a[:, x, y] += inv.basis[:, mc] * (proj[u, x] * proj[v, y] - proj[v, x] * proj[u, y])
            out.append(a)
    return out


def test_iota_pairs_are_projection_minors():
    heis = catalog.heisenberg()
    cases = [(heis, catalog.trivial_rep(heis)), (catalog.abelian_lie(3), catalog.trivial_rep(catalog.abelian_lie(3))),
             (catalog.sl2(), catalog.trivial_rep(catalog.sl2()))]
    for g, m in cases:
        got, want = cohom.iota_pairs(g, m), iota_pairs_reference(g, m)
        assert len(got) == len(want)
        for pair, a in zip(got, want):
            assert xla.arrays_equal(pair.s, a) and xla.is_zero(pair.j)
            assert all(type(x) is F for x in pair.s.flat)
    assert len(cohom.iota_pairs(*cases[1])) == 3
