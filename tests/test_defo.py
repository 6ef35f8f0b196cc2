import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

from lie2alg import catalog, defo, dkcore, el2, exactla as xla, morph, skew


@pytest.fixture(scope="module")
def dgla_fixtures():
    """(name, algebra, gamma) with gamma a Maurer-Cartan element."""
    big3 = catalog.big_bracket_dgla(xla.identity(3))
    big4 = catalog.big_bracket_dgla(xla.identity(4))
    twisted, gamma_t = catalog.twisted_big_bracket_dgla()
    cdga, gamma_c = catalog.nilpotent_cdga_dgla()
    return [
        ("contraction3", big3, catalog.cross_product_gamma(3)),
        ("contraction4", big4, catalog.cross_product_gamma(4)),
        ("contraction4+differential", twisted, gamma_t),
        ("nilpotent-cdga", cdga, gamma_c),
    ]


def test_check_graded_dgla_fixtures(dgla_fixtures):
    for name, L, _ in dgla_fixtures:
        report = defo.check_graded(L)
        assert report.passed, f"{name}: {report.render()}"


def test_check_graded_trivial_and_action():
    # l2 = l3 = 0 with a squaring-to-zero differential
    d = xla.matrix([[0, 1], [0, 0]])
    L = defo.GradedL3Algebra(dims={0: 2, 1: 2}, brackets={(0,): d})
    assert defo.check_graded(L).passed
    # an honest action algebra in degrees 0, -1
    L = catalog.action_dgla(catalog.adjoint_rep(catalog.so3()))
    assert defo.check_graded(L).passed
    # identity crossed module
    assert defo.check_graded(catalog.inner_derivation_dgla(catalog.sl2())).passed


def test_check_graded_detects_sign_flip():
    L = catalog.action_dgla(catalog.adjoint_rep(catalog.so3()))
    brackets = {k: np.array(v, dtype=object, copy=True) for k, v in L.brackets.items()}
    brackets[(0, 0)][2, 0, 1] = -brackets[(0, 0)][2, 0, 1]
    bad = defo.GradedL3Algebra(dims=L.dims, brackets=brackets)
    assert not defo.check_graded(bad).passed


def test_l3_fixture_relations():
    so3 = catalog.so3()
    L = catalog.two_term_l3_dgla(so3, catalog.killing_form(so3))
    assert not L.is_dgla
    assert defo.check_graded(L).passed
    # a single-entry perturbation breaks graded antisymmetry
    brackets = {k: np.array(v, dtype=object, copy=True) for k, v in L.brackets.items()}
    brackets[(0, 0, 0)][0, 0, 1, 2] += F(1)
    bad = defo.GradedL3Algebra(dims=L.dims, brackets=brackets)
    report = defo.check_graded(bad)
    assert not report.passed
    assert any(v.equation.startswith("antisym.l3") for v in report.violations)


def test_mc_residual_cases(dgla_fixtures):
    for name, L, gamma in dgla_fixtures:
        assert xla.is_zero(defo.mc_residual(L, xla.zeros(L.dim(1)))), name
        assert xla.is_zero(defo.mc_residual(L, gamma)), name
    # an abelian algebra has residual d gamma
    d = xla.matrix([[1], [0]])
    L = defo.GradedL3Algebra(dims={1: 1, 2: 2}, brackets={(1,): d})
    gamma = xla.vector([3])
    assert xla.arrays_equal(defo.mc_residual(L, gamma), xla.vector([3, 0]))


def test_mc_balancing_fixture():
    """A flat element whose differential and bracket terms cancel each other
    nontrivially, next to a non-flat one."""
    L, good, bad = catalog.mc_balancing_dgla()
    assert defo.check_graded(L).passed
    d_term = np.dot(L.bracket(1), good)
    br_term = xla.apply_multilinear(L.brackets[(1, 1)], good, good) * F(1, 2)
    assert not xla.is_zero(d_term) and not xla.is_zero(br_term)
    assert xla.is_zero(defo.mc_residual(L, good))
    assert not xla.is_zero(defo.mc_residual(L, bad))
    tw = defo.twist(L, good)
    assert defo.check_graded(tw).passed
    assert tw != L


def test_twist_identity_and_validity(dgla_fixtures):
    for name, L, gamma in dgla_fixtures:
        assert defo.twist(L, xla.zeros(L.dim(1))) == L, name
        tw = defo.twist(L, gamma)
        report = defo.check_graded(tw)
        assert report.passed, f"{name}: {report.render()}"
    L, _, bad = catalog.mc_balancing_dgla()
    with pytest.raises(defo.MaurerCartanError):
        defo.twist(L, bad)


def test_twisted_differential_squares(dgla_fixtures):
    for name, L, gamma in dgla_fixtures:
        tw = defo.twist(L, gamma)
        for k in tw.degrees:
            prod = np.dot(tw.bracket(k + 1), tw.bracket(k))
            assert xla.is_zero(prod), name


def test_twisted_square_is_bracket_with_residual():
    # for a binary-bracket algebra, (d + [gamma, .])^2 x = [residual, x]
    # whether or not gamma is flat; the flat case is the vanishing square
    import random

    from conftest import rand_tensor

    L, good, bad = catalog.mc_balancing_dgla()
    rng = random.Random(61)
    for gamma in (good, bad, rand_tensor(rng, L.dim(1))):
        residual = defo.mc_residual(L, gamma)
        for k in L.degrees:
            if L.dim(k) == 0 or L.dim(k + 2) == 0:
                continue
            d1 = np.array(L.bracket(k), dtype=object, copy=True)
            if (1, k) in L.brackets:
                d1 = d1 + np.tensordot(L.brackets[(1, k)], gamma, axes=([1], [0]))
            d2 = np.array(L.bracket(k + 1), dtype=object, copy=True)
            if (1, k + 1) in L.brackets:
                d2 = d2 + np.tensordot(L.brackets[(1, k + 1)], gamma, axes=([1], [0]))
            square = np.dot(d2, d1)
            action = (
                np.tensordot(L.brackets[(2, k)], residual, axes=([1], [0]))
                if (2, k) in L.brackets
                else xla.zeros(L.dim(k + 2), L.dim(k))
            )
            assert xla.arrays_equal(square, action)


def test_twist_deforms_binary_bracket_via_trilinear():
    # designed example: all binary brackets vanish, and the trilinear bracket
    # evaluated on the degree-1 direction is a Lie bracket on the degree-0
    # part; twisting turns it into an honest binary bracket
    dims = {0: 2, 1: 1}
    A = xla.zeros(2, 2, 2).copy()      # the affine bracket [t, s] = s
    A[1, 0, 1], A[1, 1, 0] = F(1), F(-1)
    l3 = {
        (1, 0, 0): xla.freeze(A.reshape(2, 1, 2, 2).copy()),
        (0, 1, 0): xla.freeze(-np.moveaxis(A.reshape(2, 2, 1, 2), 1, 1)),
        (0, 0, 1): xla.freeze(A.reshape(2, 2, 2, 1).copy()),
    }
    L = defo.GradedL3Algebra(dims=dims, brackets=l3)
    report = defo.check_graded(L)
    assert report.passed, report.render()
    gamma = xla.vector([1])
    assert xla.is_zero(defo.mc_residual(L, gamma))
    tw = defo.twist(L, gamma)
    assert defo.check_graded(tw).passed, defo.check_graded(tw).render()
    assert (0, 0) in tw.brackets  # the twisted binary bracket picked up l3(gamma, ., .)
    assert xla.arrays_equal(tw.brackets[(0, 0)], A)
    out = defo.inner_symmetries_n2(tw, xla.zeros(1))
    assert el2.check_el2(out).passed
    # building the symmetry structure of gamma directly agrees with twisting
    # first and then taking the structure of the zero element
    assert defo.inner_symmetries_n2(L, gamma) == out


def test_symmetry_action_residual(dgla_fixtures):
    for name, L, gamma in dgla_fixtures:
        zero = xla.zeros(L.dim(0))
        assert xla.is_zero(defo.symmetry_action_residual(L, gamma, zero)), name
        # stabilizer elements act trivially on gamma
        K = defo.truncation_basis(L, gamma)
        for col in range(K.dim):
            res = defo.symmetry_action_residual(L, gamma, K.basis[:, col])
            assert xla.is_zero(res), name
    # abelian case reduces to the differential
    d = xla.matrix([[2, 0]])
    L = defo.GradedL3Algebra(dims={0: 2, 1: 1}, brackets={(0,): d})
    x = xla.vector([1, 5])
    assert xla.arrays_equal(
        defo.symmetry_action_residual(L, xla.zeros(1), x), xla.vector([2])
    )


def test_inner_symmetries_n2_families():
    # trivial differential: the action algebra gives a strict structure
    L = catalog.action_dgla(catalog.adjoint_rep(catalog.so3()))
    out = defo.inner_symmetries_n2(L, xla.zeros(0))
    assert el2.is_strict(out)
    assert out.complex.n0 == 3 and out.complex.n1 == 3
    # identity crossed module: strict, with the four functor identities
    out = defo.inner_symmetries_n2(catalog.inner_derivation_dgla(catalog.sl2()), xla.zeros(0))
    assert el2.is_strict(out)
    assert dkcore.crossed_module_report(out.bracket).passed
    # nonzero gamma
    L, gamma = catalog.nilpotent_cdga_dgla_n2()
    out = defo.inner_symmetries_n2(L, gamma)
    assert el2.check_el2(out).passed and el2.is_semistrict(out)
    # trilinear bracket becomes the Jacobiator
    so3 = catalog.so3()
    L = catalog.two_term_l3_dgla(so3, catalog.killing_form(so3))
    out = defo.inner_symmetries_n2(L, xla.zeros(0))
    assert el2.is_semistrict(out) and not el2.is_hemistrict(out)
    assert el2.check_el2(out).passed
    # a 0-dimensional stabilizer: nothing in degree 0
    out = defo.inner_symmetries_n2(defo.GradedL3Algebra(dims={-1: 1}), xla.zeros(0))
    assert (out.complex.n0, out.complex.n1) == (0, 1) and out.complex.d.shape == (0, 1)
    assert el2.check_el2(out).passed


def test_inner_symmetries_n2_degree_guard():
    L = defo.GradedL3Algebra(dims={-2: 1, -1: 1, 0: 1})
    with pytest.raises(defo.DegreeError):
        defo.inner_symmetries_n2(L, xla.zeros(0))


def test_inner_symmetries_n3_fixtures(dgla_fixtures):
    for name, L, gamma in dgla_fixtures:
        report = defo.theorem_n3_report(L, gamma)
        assert report.passed, f"{name}: {report.render()}"
        data = defo.inner_symmetries_n3(L, gamma)
        assert el2.is_hemistrict(data.algebra), name
        assert morph.check_morphism(data.boundary).passed, name
        ss = skew.skew_symmetrize(data.algebra)
        assert el2.is_semistrict(ss) and el2.check_el2(ss).passed, name


def test_inner_symmetries_n3_records_compare_structurally():
    L, gamma = catalog.nilpotent_cdga_dgla()
    a, b = defo.inner_symmetries_n3(L, gamma), defo.inner_symmetries_n3(L, gamma)
    assert a == b and hash(a) == hash(b)
    assert a.action == b.action and hash(a.action) == hash(b.action)
    flipped = defo.ActionData(a.action.stabilizer, -a.action.on_c0, a.action.on_c1)
    assert not xla.is_zero(a.action.on_c0) and flipped != a.action
    assert defo.InnerSymmetriesN3(a.algebra, a.boundary, flipped) != a


def test_inner_symmetries_n3_abelian():
    L = defo.GradedL3Algebra(dims={-2: 1, -1: 2, 0: 1})
    report = defo.theorem_n3_report(L, xla.zeros(0))
    assert report.passed


def test_inner_symmetries_n3_recovers_quadratic_structure():
    big4 = catalog.big_bracket_dgla(xla.identity(4))
    gamma = catalog.cross_product_gamma(4)
    data = defo.inner_symmetries_n3(big4, gamma)
    e = data.algebra
    # the alternator is the inner product, the differential vanishes, and
    # the bracket is the quadratic Lie algebra the trivector encodes
    assert xla.arrays_equal(e.alt.reshape(4, 4), xla.identity(4))
    assert e.complex.is_skeletal
    derived = el2.LieAlgebraFD(4, e.b00)
    assert el2.from_quadratic_lie(derived, xla.identity(4)) == e


def test_inner_symmetries_n3_guards():
    so3 = catalog.so3()
    with_l3 = catalog.two_term_l3_dgla(so3, catalog.killing_form(so3))
    with pytest.raises(el2.InvalidStructureError):
        defo.inner_symmetries_n3(with_l3, xla.zeros(0))
    too_deep = defo.GradedL3Algebra(dims={-3: 1, -2: 1, -1: 1, 0: 1})
    with pytest.raises(defo.DegreeError):
        defo.inner_symmetries_n3(too_deep, xla.zeros(0))


def test_bracket_table_validation():
    assert [f.name for f in dataclasses.fields(defo.GradedL3Algebra)] == ["dims", "brackets"]
    d = xla.matrix([[2]])
    L = defo.GradedL3Algebra(dims={0: 1, 1: 1, 2: 0}, brackets={(0,): d})
    assert L.dims == {0: 1, 1: 1} and L.is_dgla
    assert L.bracket(0) is L.brackets[(0,)] and xla.is_zero(L.bracket(1, 1))
    assert L.bracket(1, 1, 0).shape == (1, 1, 1, 1)
    for bad in (
        {0: d},                              # not a tuple
        {(): xla.zeros(0)},                  # arity 0
        {(0, 0, 0, 0): xla.zeros(0, 1, 1, 1, 1)},  # arity 4
        {(0,): xla.zeros(2, 1)},             # wrong shape
    ):
        with pytest.raises(xla.ShapeError):
            defo.GradedL3Algebra(dims={0: 1, 1: 1}, brackets=bad)
    with pytest.raises(xla.ShapeError):
        defo.GradedL3Algebra(dims={0: 1, 1: -1})
    # the table holds Fractions only: int entries convert, floats are refused
    L = defo.GradedL3Algebra(dims={0: 1, 1: 1}, brackets={(0,): np.array([[2]])})
    assert L == defo.GradedL3Algebra(dims={0: 1, 1: 1}, brackets={(0,): d})
    assert type(L.bracket(0)[0, 0]) is F
    for bad in (np.array([[0.5]]), np.zeros((1, 1))):
        with pytest.raises(xla.ShapeError):
            defo.GradedL3Algebra(dims={0: 1, 1: 1}, brackets={(0,): bad})


def test_graded_equality_and_serialization_shapes():
    L, gamma = catalog.nilpotent_cdga_dgla()
    same = defo.GradedL3Algebra(dims=dict(L.dims), brackets=dict(L.brackets))
    assert L == same
    other = defo.twist(L, gamma)
    assert L != other


def test_float_gamma_and_x_are_refused():
    """A float copy of a flat gamma gives 0.0 residual entries, which is_zero
    would accept as Maurer-Cartan: gamma and x enter through as_exact."""
    L, good, _ = catalog.mc_balancing_dgla()
    floats = np.array([float(x) for x in good])
    for call in (
        lambda: defo.mc_residual(L, floats),
        lambda: defo.twist(L, floats),
        lambda: defo.symmetry_action_residual(L, floats, xla.zeros(L.dim(0))),
        lambda: defo.symmetry_action_residual(L, good, np.zeros(L.dim(0))),
    ):
        with pytest.raises(xla.ShapeError, match="cannot interpret 0.0|cannot interpret 1.0"):
            call()
    # int entries are exact, and the residuals hold Fractions
    ints = [int(x) for x in good]
    assert all(type(x) is F for x in defo.mc_residual(L, ints))
    assert all(type(x) is F for x in defo.symmetry_action_residual(L, ints, [0] * L.dim(0)))
