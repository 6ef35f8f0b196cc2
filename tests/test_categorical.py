"""The categorical coherence checker, which evaluates each diagram over all
basis tuples at once, against the per-tuple reference in
``categorical_reference``, and its independence from the tensor checker.

The checker decides each diagram in int64, exactly or on stacked residues,
and evaluates on Python ints only the diagrams a residue flags; the tests
here hold it to the reference in every mode, and count which diagrams
reach Python ints."""

import collections
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from categorical_reference import categorical_reference
from conftest import perturb, twisted_nonskeletal
from lie2alg import dkcore, el2, exactla as xla
from test_integer_path import SHAPE_BASES, Q, entries, int_columns_only, moved_structures

STOPS = (None, 1, 3)
TENSORS = ("d", "b00", "b01", "b10", "alt", "jac")


def assert_matches_reference(e):
    scaled, den = el2._integer_copy(e)
    full = categorical_reference(scaled, den, None)
    for stop_after in STOPS:
        got = el2.categorical_coherence_check(e, stop_after=stop_after)
        # a pass does not depend on stop_after
        want = full if full.passed or stop_after is None else categorical_reference(scaled, den, stop_after)
        assert got.violations == want.violations
        assert got.render(10**6) == want.render(10**6)


@pytest.fixture(scope="module")
def moved_44(el2_corpus):
    """(4,4) structures: (3,3) skeletal ones plus an acyclic piece, moved
    along random invertible maps, so every tensor has denominators."""
    rng = random.Random(44)
    skeletal = [e for _, e in el2_corpus if (e.complex.n0, e.complex.n1) == (3, 3)]
    return [twisted_nonskeletal(rng, e, 1)[0] for e in skeletal[:3]]


def test_matches_reference_on_valid_structures(el2_corpus, moved_44):
    for e in [e for _, e in el2_corpus] + moved_44:
        assert_matches_reference(e)


def test_matches_reference_on_planted_defects(el2_corpus, moved_44):
    rng = random.Random(7)
    corpus = dict(el2_corpus)
    bases = [corpus[name] for name in (
        "leibniz:square", "quadratic:sl2/killing", "string:so3/killing", "skeletal:sl2/adjoint#0",
    )] + moved_44[:1]
    failing = 0
    for e in bases:
        for name, t in zip(TENSORS, el2._tensors(e)):
            for _ in range(2 if t.size else 0):
                delta = F(rng.choice((1, -2, 3)), rng.choice((1, 2, 5)))
                bad = perturb(e, name, rng.randrange(t.size), delta)
                assert_matches_reference(bad)
                failing += not el2.categorical_coherence_check(bad, stop_after=1).passed
    assert failing >= 40


class TensorCheckerUsed(Exception):
    pass


def test_independent_of_tensor_checker(monkeypatch, el2_corpus):
    def refuse(*args, **kwargs):
        raise TensorCheckerUsed

    bad = perturb(dict(el2_corpus)["string:sl2/killing"], "jac", 5)
    inputs = [e for _, e in el2_corpus] + [bad, wide(bad)]
    before = [el2.categorical_coherence_check(e).render(10**6) for e in inputs]
    # the tensor checker's formulas, the einsum helper they are written
    # with, its rows and their term counts: only the plan is shared
    monkeypatch.setattr(el2, "RESIDUAL_TERMS", None)
    for name in dir(el2):
        if name.startswith("_residual_") or name in ("_leibniz_defect", "_identity_rows"):
            monkeypatch.setattr(el2, name, refuse)
    monkeypatch.setattr(xla, "einsum", refuse)
    for module in (dkcore, el2):
        for name in ("chain_b01", "chain_b10", "chain_derived"):
            monkeypatch.setattr(module, name, refuse)
    for table in ("EL2_EQUATIONS", "EL2_REDUNDANT_EQUATIONS"):
        monkeypatch.setattr(el2, table, tuple((name, refuse) for name, _ in getattr(el2, table)))
    with pytest.raises(TensorCheckerUsed):
        el2.check_el2(el2_corpus[0][1])

    for name, e in el2_corpus:
        assert el2.categorical_coherence_check(e).passed, name
    assert not el2.categorical_coherence_check(bad).passed
    assert [el2.categorical_coherence_check(e).render(10**6) for e in inputs] == before


# ---------------------------------------------------------------------------
# the int64 modes: exact, stacked residues, and Python ints only where a
# residue flags a diagram
# ---------------------------------------------------------------------------

def wide(e):
    """e moved along Q on both degrees: the integer copy has entries of at
    least 31 bits, so every diagram's bound exceeds 2**63 and the diagram
    is decided on stacked residues."""
    return el2.transport(e, xla.identity(e.complex.n0) * Q, xla.identity(e.complex.n1) * Q)


def modes(e):
    """How the checker decides each diagram of e: on int64 entries, on
    stacked residues, or on Python ints."""
    ints, _ = el2._integer_copy(e)
    out = {}
    for name, _, terms, _ in el2.CATEGORICAL_DIAGRAMS:
        bound = el2._diagram_bound(ints, terms)
        out[name] = "int64" if bound < 2**63 else "residues" if xla.residue_primes(bound) else "ints"
    return out


@pytest.fixture
def evaluations(monkeypatch):
    """Counts each diagram evaluation by (diagram, kind of evaluator)."""
    calls = collections.Counter()

    def wrap(name, diagram):
        def counted(ev):
            kind = "residues" if ev.mod is not None else "int64" if ev.e.b00.dtype == np.int64 else "ints"
            calls[name, kind] += 1
            return diagram(ev)
        return counted

    monkeypatch.setattr(el2, "CATEGORICAL_DIAGRAMS", tuple(
        (name, rank, terms, wrap(name, fn)) for name, rank, terms, fn in el2.CATEGORICAL_DIAGRAMS))
    return calls


def assert_python_residuals(report):
    for v in report.violations:
        assert all(type(x) is F and type(x.numerator) is int and type(x.denominator) is int
                   for x in v.residual), v


def test_python_ints_never_run_on_a_passing_corpus(el2_corpus, moved_44, evaluations):
    inputs = [e for _, e in el2_corpus] + moved_44 + [wide(e) for e in moved_44]
    seen = set()
    for e in inputs:
        seen |= set(modes(e).values())
        assert el2.categorical_coherence_check(e).passed
    assert seen == {"int64", "residues"}
    assert {kind for _, kind in evaluations} == {"int64", "residues"}


@pytest.mark.parametrize("where", ["d", "b01", "alt", "jac"])
def test_planted_defect_reevaluates_only_flagged_diagrams(moved_44, evaluations, where):
    small, big = perturb(moved_44[0], where, 3, F(1, 3)), perturb(wide(moved_44[0]), where, 3, F(1, 3))
    for bad, mode in ((small, None), (big, "residues")):
        if mode:
            assert set(modes(bad).values()) == {mode}
        want = categorical_reference(*el2._integer_copy(bad), None)
        flagged = set(want.equations_violated())
        assert 0 < len(flagged) < len(el2.CATEGORICAL_DIAGRAMS)
        evaluations.clear()
        with int_columns_only():
            got = el2.categorical_coherence_check(bad)
        assert got.violations == want.violations and got.render(10**6) == want.render(10**6)
        assert_python_residuals(got)
        on_ints = {name: n for (name, kind), n in evaluations.items() if kind == "ints"}
        # a diagram decided exactly in int64 is reported as it is; one
        # decided on residues is evaluated again, once, when flagged
        want_ints = {name: 1 for name in flagged if modes(bad)[name] == "residues"}
        assert on_ints == want_ints
        assert mode is None or set(want_ints) == flagged


def test_planted_defects_at_66_match_the_unscreened_body(el2_corpus):
    rng = random.Random(66)
    skeletal = [e for name, e in el2_corpus if name.startswith("skeletal:sl2/adjoint")][0]
    e = twisted_nonskeletal(rng, skeletal, 3)[0]
    assert (e.complex.n0, e.complex.n1) == (6, 6)
    assert set(modes(e).values()) == {"int64"} and set(modes(wide(e)).values()) == {"residues"}
    for name, base in (("b00", e), ("b10", wide(e)), ("jac", e), ("jac", wide(e))):
        bad = perturb(base, name, rng.randrange(el2._tensors(e)[TENSORS.index(name)].size), F(2, 7))
        ints, den = el2._integer_copy(bad)
        for stop_after in STOPS:
            want = el2._categorical_body(ints, den, stop_after)
            got = el2.categorical_coherence_check(bad, stop_after=stop_after)
            assert not got.passed and got.violations == want.violations
            assert got.render(10**6) == want.render(10**6)


def test_screen_with_too_few_primes_passes_a_defect(monkeypatch):
    """A residual equal to the product of the first k primes is zero modulo
    each of them: with each diagram's prime set forced one prime short of
    it, the screen passes a broken structure, and the unscreened body
    reports it."""
    k = 3
    product = math.prod(xla.RESIDUE_PRIMES[:k])
    bad = perturb(el2.zero_el2(3, 1), "jac", 5, F(product))       # jac[0, 0, 1, 2]
    ints, den = el2._integer_copy(bad)
    assert den == 1 and ints.height == product
    want = el2._categorical_body(ints, 1, None)
    assert want.equations_violated() == ("cat.triangle-sym12", "cat.square-sym23")
    assert {abs(x) for v in want.violations for x in v.residual} == {product}
    terms = {name: t for name, _, t, _ in el2.CATEGORICAL_DIAGRAMS}
    for name in want.equations_violated():
        assert len(xla.residue_primes(el2._diagram_bound(ints, terms[name]))) > k
    assert_matches_reference(bad)
    monkeypatch.setattr(el2, "_diagram_bound", lambda e, terms: product - 1)
    assert len(xla.residue_primes(product - 1)) == k
    assert el2.categorical_coherence_check(bad).passed


def test_int64_only_below_2_63(evaluations):
    """On a (1, 1) structure of height M, cat.compose is bounded by 2 * M**2:
    decided exactly in int64 for M = 2**31 - 1, on residues for M = 2**31."""
    for height, kind in ((2**31 - 1, "int64"), (2**31, "residues")):
        e = perturb(el2.zero_el2(1, 1), "d", 0, F(height))
        evaluations.clear()
        assert el2.categorical_coherence_check(e).passed
        assert evaluations[("cat.compose", kind)] == 1


def test_falls_back_to_python_ints_beyond_the_prime_table(evaluations):
    bad = perturb(el2.zero_el2(3, 1), "jac", 5, F(2**900 + 1, 3))
    assert set(modes(bad).values()) == {"ints"}
    assert_matches_reference(bad)
    assert {kind for _, kind in evaluations} == {"ints"}


@settings(max_examples=12, deadline=None)
@given(moved_structures(SHAPE_BASES), st.sampled_from(("none",) + TENSORS), st.integers(0, 200),
       entries.filter(lambda x: x != 0), st.booleans())
def test_hypothesis_structures_match_reference(moved, defect, flat_idx, delta, scaled):
    base, phi0, phi1 = moved
    e = el2.transport(base, phi0, phi1)
    e = wide(e) if scaled else e
    size = el2._tensors(e)[TENSORS.index(defect)].size if defect != "none" else 0
    if size:
        e = perturb(e, defect, flat_idx % size, delta)
    assert_matches_reference(e)
