"""The categorical coherence checker, which evaluates each diagram over all
basis tuples at once, against the per-tuple reference in
``categorical_reference``, and its independence from the tensor checker."""

import random
from fractions import Fraction as F

import pytest

from categorical_reference import categorical_reference
from conftest import perturb, twisted_nonskeletal
from lie2alg import dkcore, el2

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

    for name in dir(el2):
        if name.startswith("_residual_"):
            monkeypatch.setattr(el2, name, refuse)
    for module in (dkcore, el2):
        for name in ("chain_b01", "chain_b10", "chain_derived"):
            monkeypatch.setattr(module, name, refuse)
    for table in ("EL2_EQUATIONS", "EL2_REDUNDANT_EQUATIONS"):
        monkeypatch.setattr(el2, table, tuple((name, refuse) for name, _ in getattr(el2, table)))
    with pytest.raises(TensorCheckerUsed):
        el2.check_el2(el2_corpus[0][1])

    for name, e in el2_corpus:
        assert el2.categorical_coherence_check(e).passed, name
    bad = perturb(dict(el2_corpus)["string:sl2/killing"], "jac", 5)
    assert not el2.categorical_coherence_check(bad).passed
