"""The one twisting series of ``defo`` against the hand-expanded formulas it
replaced: the Maurer-Cartan residual, the infinitesimal action on gamma and
the twisted differential and binary bracket, written out term by term.
Values and entry types (every entry a Fraction) must agree, on the catalog
fixtures and on seeded random bracket tables with random gamma."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest
from conftest import rand_tensor
from test_defo_pins import trilinear_example

from lie2alg import catalog, defo, exactla as xla


def ref_mc_residual(L, gamma):
    """d gamma + 1/2 [gamma, gamma] + 1/6 [gamma, gamma, gamma]."""
    out = xla.zeros(L.dim(2)).copy()
    out += np.dot(L.bracket(1), gamma)
    if (1, 1) in L.brackets:
        out += xla.apply_multilinear(L.brackets[(1, 1)], gamma, gamma) * F(1, 2)
    if (1, 1, 1) in L.brackets:
        out += xla.apply_multilinear(L.brackets[(1, 1, 1)], gamma, gamma, gamma) * F(1, 6)
    return out


def ref_symmetry_action_residual(L, gamma, x):
    """d x + [gamma, x] + 1/2 [gamma, gamma, x]."""
    out = xla.zeros(L.dim(1)).copy()
    out += np.dot(L.bracket(0), x)
    if (1, 0) in L.brackets:
        out += xla.apply_multilinear(L.brackets[(1, 0)], gamma, x)
    if (1, 1, 0) in L.brackets:
        out += xla.apply_multilinear(L.brackets[(1, 1, 0)], gamma, gamma, x) * F(1, 2)
    return out


def ref_twisted_differential(L, gamma, k):
    """d + [gamma, .] + 1/2 [gamma, gamma, .] on degree k."""
    mat = np.array(L.bracket(k), dtype=object, copy=True)
    if (1, k) in L.brackets:
        mat = mat + np.tensordot(L.brackets[(1, k)], gamma, axes=([1], [0]))
    if (1, 1, k) in L.brackets:
        contracted = np.tensordot(L.brackets[(1, 1, k)], gamma, axes=([1], [0]))
        mat = mat + np.tensordot(contracted, gamma, axes=([1], [0])) * F(1, 2)
    return mat


def ref_twisted_binary(L, gamma, a, b):
    """[., .] + [gamma, ., .] on degrees a, b."""
    t = np.array(L.bracket(a, b), dtype=object, copy=True)
    if (1, a, b) in L.brackets:
        t = t + np.tensordot(L.brackets[(1, a, b)], gamma, axes=([1], [0]))
    return t


def same(got, want):
    return (
        got.shape == want.shape
        and xla.arrays_equal(got, want)
        and all(type(x) is F for x in got.flat)
    )


def catalog_fixtures():
    """(name, algebra, Maurer-Cartan element) for every catalog graded
    fixture; the zero element where the fixture has no other."""
    so3, sl2 = catalog.so3(), catalog.sl2()
    for name in ("nilpotent_cdga_dgla", "nilpotent_cdga_dgla_n2", "twisted_big_bracket_dgla"):
        yield (name, *getattr(catalog, name)())
    L, good, _ = catalog.mc_balancing_dgla()
    yield "mc_balancing_dgla", L, good
    for n in (3, 4):
        yield f"big_bracket_dgla/I{n}", catalog.big_bracket_dgla(xla.identity(n)), catalog.cross_product_gamma(n)
    yield "action_dgla", catalog.action_dgla(catalog.adjoint_rep(so3)), xla.zeros(0)
    yield "inner_derivation_dgla", catalog.inner_derivation_dgla(sl2), xla.zeros(0)
    yield "two_term_l3_dgla", catalog.two_term_l3_dgla(so3, catalog.killing_form(so3)), xla.zeros(0)
    yield ("trilinear_example", *trilinear_example())


def random_algebra(rng):
    """Random brackets, not subject to any relation, on every key over the
    degrees -1..2 that some coin flip keeps."""
    dims = {k: rng.randrange(1, 4) for k in range(-1, 3)}
    L = defo.GradedL3Algebra(dims)
    brackets = {
        degs: rand_tensor(rng, *L.shape(*degs))
        for n in (1, 2, 3)
        for degs in itertools.product(sorted(dims), repeat=n)
        if L.dim(sum(degs) + 2 - n) and rng.random() < 0.5
    }
    return defo.GradedL3Algebra(dims, brackets)


FIXTURES = list(catalog_fixtures())


@pytest.mark.parametrize("name, L, gamma", FIXTURES, ids=[name for name, _, _ in FIXTURES])
def test_twist_matches_reference_on_catalog(name, L, gamma):
    tw = defo.twist(L, gamma)
    for k in L.degrees:
        assert xla.arrays_equal(tw.bracket(k), ref_twisted_differential(L, gamma, k)), (name, k)
    for a, b in itertools.product(L.degrees, repeat=2):
        assert xla.arrays_equal(tw.bracket(a, b), ref_twisted_binary(L, gamma, a, b)), (name, a, b)
    assert {k: v for k, v in tw.brackets.items() if len(k) == 3}.keys() == {
        k for k in L.brackets if len(k) == 3
    }
    for degs, t in tw.brackets.items():
        assert all(type(x) is F for x in t.flat), (name, degs)
        if len(degs) == 3:
            assert xla.arrays_equal(t, L.brackets[degs]), (name, degs)


@pytest.mark.parametrize("name, L, gamma", FIXTURES, ids=[name for name, _, _ in FIXTURES])
def test_residuals_match_reference_on_catalog(name, L, gamma):
    rng = random.Random(name)
    for g in (gamma, rand_tensor(rng, L.dim(1))):
        assert same(defo.mc_residual(L, g), ref_mc_residual(L, g)), name
        x = rand_tensor(rng, L.dim(0))
        assert same(defo.symmetry_action_residual(L, g, x), ref_symmetry_action_residual(L, g, x)), name


@pytest.mark.parametrize("seed", range(8))
def test_series_matches_reference_on_random_brackets(seed):
    rng = random.Random(seed)
    L = random_algebra(rng)
    gamma, x = rand_tensor(rng, L.dim(1)), rand_tensor(rng, L.dim(0))
    assert same(defo.mc_residual(L, gamma), ref_mc_residual(L, gamma))
    assert same(defo.symmetry_action_residual(L, gamma, x), ref_symmetry_action_residual(L, gamma, x))
    for k in L.degrees:
        assert same(defo._twisted(L, gamma, (k,)), ref_twisted_differential(L, gamma, k)), k
    for a, b in itertools.product(L.degrees, repeat=2):
        assert same(defo._twisted(L, gamma, (a, b)), ref_twisted_binary(L, gamma, a, b)), (a, b)
