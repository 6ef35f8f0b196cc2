"""Each identity of the paper is written once.

``cohom`` evaluates the cocycle equations as el2's coh.* coherence residuals
on a skeletal view (d = 0), and the coboundary's Jacobiator part as minus
morph's Jacobiator residual of the morphism (1, 1, f); ``morph`` names every
axis it contracts.  These tests hold both to the positional formulas they
replaced (``cohom_reference``, ``morph_reference``), entry for entry with
entry types, one cochain at a time and batched over the unit basis; and
they hold ``is_cocycle`` to the categorical checker, an independent
derivation of the same four coherence laws.
"""

import dataclasses
import random
from fractions import Fraction as F

import numpy as np
import pytest

import cohom_reference
import morph_reference
from conftest import rand_tensor, rational_cases
from lie2alg import cohom, dkcore, el2, exactla as xla, morph
from lie2alg.report import check_identities
from test_integer_forms import morphism_corpus
from test_integer_path import assert_same_arrays, assert_same_report, with_entry

# The el2 identity behind each cocycle equation.
COCYCLE_TO_EL2 = {
    "cocycle.jacobiator": "coh.bracket-jacobiator",
    "cocycle.sym12": "coh.jacobiator-sym12",
    "cocycle.sym23": "coh.jacobiator-sym23",
    "cocycle.alternator": "coh.alternator-bracket",
}


@pytest.fixture(scope="module")
def cases(gm_corpus):
    return list(gm_corpus) + rational_cases()


def cochains(g, m, rng):
    """(f, pair) draws with denominators: a coboundary pair, a coboundary
    plus a random s, and a random pair."""
    n, dm = g.dim, m.dim
    f = rand_tensor(rng, dm, n, n) * F(1, rng.choice([2, 3, 5]))
    cob = cohom.coboundary(g, m, f)
    s = rand_tensor(rng, dm, n, n) * F(1, 7)
    j = rand_tensor(rng, dm, n, n, n) * F(2, 3)
    return f, [cob, cohom.CocyclePair(cob.s + s, cob.j), cohom.CocyclePair(s, j)]


def test_one_cochain_matches_kept_formulas(cases):
    rng = random.Random(61)
    for name, g, m in cases:
        for _ in range(2):
            f, pairs = cochains(g, m, rng)
            got, want = cohom.coboundary(g, m, f), cohom_reference.coboundary(g, m, f)
            assert_same_arrays(got.s, want.s)
            assert_same_arrays(got.j, want.j)
            for p in pairs:
                got_res, want_res = cohom.cocycle_residuals(g, m, p), cohom_reference.cocycle_residuals(g, m, p)
                assert [k for k, _ in got_res] == [k for k, _ in want_res]
                for (_, a), (_, b) in zip(got_res, want_res, strict=True):
                    assert a.shape == b.shape, name
                    assert_same_arrays(a, b)
                (ok, report), (want_ok, want_report) = cohom.is_cocycle(g, m, p), cohom_reference.is_cocycle(g, m, p)
                assert ok == want_ok, name
                assert_same_report(report, want_report)
            assert cohom.is_cocycle(g, m, pairs[0])[0], name


def test_batched_operators_match_kept_formulas(cases):
    for name, g, m in cases:
        for got, want in ((cohom._cocycle_matrix(g, m), cohom_reference.cocycle_matrix(g, m)),
                          (cohom.coboundary_matrix(g, m), cohom_reference.coboundary_matrix(g, m))):
            assert got.shape == want.shape, name
            assert_same_arrays(got, want)


def planted_morphisms(mor):
    """The morphism with one entry of f0, of f1 or of f2 shifted, each where
    the tensor has entries."""
    out = []
    for field, flat_idx, delta in (("f0", 1, F(1, 5)), ("f1", 0, F(-2, 3)), ("f2", 4, F(1, 11))):
        if getattr(mor, field).size:
            out.append(dataclasses.replace(mor, **{field: with_entry(getattr(mor, field), flat_idx, delta)}))
    return out


def assert_formulas_match(x, formulas, kept):
    """The residuals of x and of its integer view, entry for entry, and
    the report for every ``stop_after``."""
    view, den = el2._integer_copy(x)
    for y in (x, view):
        for (name, a, k), (want_name, b, want_k) in zip(formulas(y), kept(y), strict=True):
            assert (name, k) == (want_name, want_k)
            assert_same_arrays(a, b)
    for stop_after in (None, 1, 3):
        public = morph.check_morphism if hasattr(x, "f2") else morph.check_2morphism
        got = public(x, stop_after=stop_after)
        want = check_identities(kept(view), den=den, stop_after=stop_after)
        assert_same_report(got, want)


def test_morphism_reports_match_kept_bodies():
    failed = 0
    for mor, twos in morphism_corpus():
        for x in (mor, *planted_morphisms(mor)):
            assert_formulas_match(x, morph._morphism_identities, morph_reference._morphism_identities)
            failed += not morph.check_morphism(x).passed
        for two in twos:
            bad = dataclasses.replace(two, theta=with_entry(two.theta, 1, F(3, 13)))
            for x in (two, bad):
                assert_formulas_match(x, morph._2morphism_identities, morph_reference._2morphism_identities)
            assert not morph.check_2morphism(bad).passed
    assert failed > 10


def skeletal_record(g, m, s, j):
    """The skeletal structure of (g, m, s, j) as a record, whether or not
    (s, j) is a cocycle."""
    n, dm = g.dim, m.dim
    return el2.EL2Algebra(dkcore.TwoTermComplex(n, dm, xla.zeros(n, dm)),
                          g.c, m.rho, xla.freeze(-m.rho.swapaxes(1, 2)), s, j)


@pytest.mark.parametrize("where", ["s", "j", "both"])
def test_is_cocycle_agrees_with_categorical_diagrams(cases, where):
    rng = random.Random(67)
    seen = set()
    for name, g, m in cases:
        _, (base, *_) = cochains(g, m, rng)
        for _ in range(4):
            s, j = np.array(base.s, copy=True), np.array(base.j, copy=True)
            if where in ("s", "both"):
                s.reshape(-1)[rng.randrange(s.size)] += F(1, rng.choice([1, 3]))
            if where in ("j", "both"):
                j.reshape(-1)[rng.randrange(j.size)] += F(-2, rng.choice([1, 5]))
            ok, report = cohom.is_cocycle(g, m, cohom.CocyclePair(s, j))
            equations = set(report.equations_violated())
            diagrams = set(el2.categorical_coherence_check(skeletal_record(g, m, s, j)).equations_violated())
            assert {el2.EL2_TO_CATEGORICAL[COCYCLE_TO_EL2[eq]] for eq in equations} == diagrams, name
            assert ok == (not diagrams)
            seen |= equations
    # every equation a defect of this kind can break is reached
    reachable = {"s": {"cocycle.sym12", "cocycle.sym23", "cocycle.alternator"},
                 "j": {"cocycle.jacobiator", "cocycle.sym12", "cocycle.sym23"}}
    assert seen == reachable.get(where, reachable["s"] | reachable["j"])


def test_quasi_inverse_matches_positional_formula(cases):
    """The reverse morphism's g = -f + [x, theta y] + [theta x, y] -
    theta[x, y] is the one the positional formula it replaced gives."""
    rng = random.Random(71)
    for name, g, m in cases:
        f, (cob, *_) = cochains(g, m, rng)
        src = skeletal_record(g, m, xla.zeros(m.dim, g.dim, g.dim), xla.zeros(m.dim, g.dim, g.dim, g.dim))
        dst = skeletal_record(g, m, cob.s, cob.j)
        theta = rand_tensor(rng, m.dim, g.dim) * F(1, 9)
        back, two = cohom.quasi_inverse_data(src, dst, f, theta)
        want = (-np.asarray(f) + np.tensordot(src.b01, theta, axes=([2], [0]))
                + np.swapaxes(np.tensordot(src.b10, theta, axes=([1], [0])), 1, 2)
                - xla.postcompose(theta, src.b00))
        assert_same_arrays(back.f2, cohom.skeletal_morphism(dst, src, xla.freeze(want)).f2)
        assert morph.check_2morphism(two).passed, name
