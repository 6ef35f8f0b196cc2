"""The tensor checker's residual formulas, written with named axes
(``exactla.einsum``), against the positional-axis formulas kept verbatim in
``el2_reference``: entry for entry on Fractions, Python ints, int64 entries
and residue images stacked on a leading prime axis, and report for report
through the unscreened body and ``check_el2``."""

import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import perturb, twisted_nonskeletal
from el2_reference import REFERENCE
from lie2alg import catalog, el2, exactla as xla
from test_integer_path import SHAPE_BASES, assert_same_report, entries, lie_only, moved_structures

TENSORS = ("d", "b00", "b01", "b10", "alt", "jac")
STACKED_PRIMES = xla.RESIDUE_PRIMES[:3]


def formulas():
    return el2.EL2_EQUATIONS + el2.EL2_REDUNDANT_EQUATIONS


def entry_types(a):
    return [type(x) for x in np.asarray(a).flat]


def assert_formulas_match(e, fractions=True):
    """Every formula equals its reference on e (Fractions, unless
    ``fractions`` is false), on its integer view (Python ints), on the
    int64 view when the entries fit, and, prime by prime, on the view's
    residues stacked on a leading axis."""
    ints, _ = el2._integer_copy(e)
    stack = iter(xla.residue_stack(el2._tensors(ints), STACKED_PRIMES))
    stacked = el2._view(ints, lambda t, k: next(stack))
    views = [e, ints] if fractions else [ints]
    if ints.height < 2**31:
        views.append(el2._view(ints, lambda t, k: t.astype(np.int64)))
    assert [name for name, _ in formulas()] == list(REFERENCE)
    for name, fn in formulas():
        reference = REFERENCE[name]
        for view in views:
            got, want = fn(view), reference(view)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tolist() == want.tolist(), name
            assert entry_types(got) == entry_types(want), name
        got = fn(stacked)
        for k in range(len(STACKED_PRIMES)):
            want = reference(el2._view(stacked, lambda t, _: t[k]))
            assert got.dtype == want.dtype == np.int64, name
            assert got[k].shape == want.shape and got[k].tolist() == want.tolist(), name


def reference_body(monkeypatch, view, den, stop_after):
    """The unscreened body evaluating the reference formulas."""
    with monkeypatch.context() as m:
        for table in ("EL2_EQUATIONS", "EL2_REDUNDANT_EQUATIONS"):
            m.setattr(el2, table, tuple((name, REFERENCE[name]) for name, _ in getattr(el2, table)))
        return el2._check_el2_body(view, den, stop_after)


def assert_reports_match(monkeypatch, e):
    """``check_el2``, the unscreened body and the unscreened body on the
    reference formulas give one report, for every ``stop_after``."""
    ints, den = el2._integer_copy(e)
    for stop_after in (None, 1, 3):
        want = reference_body(monkeypatch, ints, den, stop_after)
        for got in (el2._check_el2_body(ints, den, stop_after), el2.check_el2(e, stop_after=stop_after)):
            assert_same_report(got, want)
            assert got.notes == want.notes


def test_formulas_match_reference_on_corpus(el2_corpus):
    # on Fractions for the hypothesis structures below only: the corpus
    # structures would take seconds
    for _, e in el2_corpus:
        assert_formulas_match(e, fractions=False)


@pytest.mark.parametrize("e", [lie_only(catalog.sl2()), el2.zero_el2(0, 2)], ids=["3x0", "0x2"])
def test_formulas_match_reference_without_arrows_or_objects(e):
    assert_formulas_match(e)


@settings(max_examples=15, deadline=None)
@given(moved_structures(SHAPE_BASES), st.sampled_from(("none",) + TENSORS), st.integers(0, 200),
       entries.filter(lambda x: x != 0))
def test_formulas_match_reference_on_hypothesis_structures(moved, defect, flat_idx, delta):
    base, phi0, phi1 = moved
    e = el2.transport(base, phi0, phi1)
    size = el2._tensors(e)[TENSORS.index(defect)].size if defect != "none" else 0
    if size:
        e = perturb(e, defect, flat_idx % size, delta)
    assert_formulas_match(e)


def test_reports_match_reference_on_planted_defects(el2_corpus, monkeypatch):
    """Defects planted in every tensor, on structures whose identities are
    decided exactly in int64 and, moved along 2**31 - 1, on residues."""
    rng = random.Random(21)
    corpus = dict(el2_corpus)
    skeletal = corpus["skeletal:sl2/adjoint#0"]
    bases = [corpus["leibniz:square"], corpus["string:so3/killing"], twisted_nonskeletal(rng, skeletal, 1)[0]]
    bases.append(el2.transport(bases[-1], xla.identity(4) * (2**31 - 1), xla.identity(4) * (2**31 - 1)))
    violated = set()
    for e in bases:
        for name, t in zip(TENSORS, el2._tensors(e)):
            if t.size:
                bad = perturb(e, name, rng.randrange(t.size), F(rng.choice((1, -2, 3)), rng.choice((1, 2, 5))))
                assert_reports_match(monkeypatch, bad)
                violated |= set(el2.check_el2(bad).equations_violated())
    assert violated >= {name for name in REFERENCE if not name.startswith("red.")}
