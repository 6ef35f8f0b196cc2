"""Pinned outputs of the graded layer: the serialized twist of every catalog
fixture with a Maurer-Cartan element, and the rendered ``check_graded``
report of planted defects.  The digests were taken from the hand-expanded
twisting formulas and the per-arity antisymmetry blocks, so any rewrite of
either must reproduce them byte for byte."""

import hashlib
from fractions import Fraction as F

import numpy as np
import pytest

from lie2alg import catalog, defo, documents, exactla as xla


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def trilinear_example():
    """All binary brackets vanish; the trilinear bracket on the degree-1
    direction is the affine Lie bracket on degree 0, so gamma = (1) twists
    it into a binary bracket."""
    A = xla.zeros(2, 2, 2).copy()
    A[1, 0, 1], A[1, 1, 0] = F(1), F(-1)
    l3 = {
        (1, 0, 0): xla.freeze(A.reshape(2, 1, 2, 2).copy()),
        (0, 1, 0): xla.freeze(-np.moveaxis(A.reshape(2, 2, 1, 2), 1, 1)),
        (0, 0, 1): xla.freeze(A.reshape(2, 2, 2, 1).copy()),
    }
    return defo.GradedL3Algebra(dims={0: 2, 1: 1}, brackets=l3), xla.vector([1])


def mc_fixtures():
    """(name, algebra, gamma) for every catalog fixture with a Maurer-Cartan
    element, plus the trilinear example."""
    for name in ("nilpotent_cdga_dgla", "nilpotent_cdga_dgla_n2", "twisted_big_bracket_dgla"):
        yield (name, *getattr(catalog, name)())
    dgla, good, _ = catalog.mc_balancing_dgla()
    yield "mc_balancing_dgla/good", dgla, good
    for n in (3, 4):
        yield f"big_bracket_dgla/I{n}", catalog.big_bracket_dgla(xla.identity(n)), catalog.cross_product_gamma(n)
    yield ("trilinear_example", *trilinear_example())


TWIST_DIGESTS = {
    "nilpotent_cdga_dgla": "e9a8c735112c6c5cb2700767fe2041d87106fbe1ee39bfe6127e54dcde8e783b",
    "nilpotent_cdga_dgla_n2": "6967f7bb19e69cfca8513c939cc2790b51f16c5ac98603456c57f76ae4b2d2a1",
    "twisted_big_bracket_dgla": "835a05a5fbb8d09ea8dd4d7f25abad8f36c7cbad264ff4036ef2cd1f825cb3f9",
    "mc_balancing_dgla/good": "1ee3c3b4482d9f9d5bc2d74fea4c22ee4cbab56f24cb672d1902ec1a905fd108",
    "big_bracket_dgla/I3": "0a3536a98e19b96d1510b14b1e2ec4ba71d12efe30681c82589d1998d830a809",
    "big_bracket_dgla/I4": "196517797b7b76e84e042db448336dc68fad23238c14716f9b8992b38967b42a",
    "trilinear_example": "6b242403c608169cb8561d7e1e879fe8be61174a456f511d963686701b61385c",
}


MC_FIXTURES = list(mc_fixtures())


@pytest.mark.parametrize("name, L, gamma", MC_FIXTURES, ids=[name for name, _, _ in MC_FIXTURES])
def test_twist_digests(name, L, gamma):
    assert sha(documents.serialize(defo.twist(L, gamma))) == TWIST_DIGESTS[name]


def _with_entries(L, key, edits):
    """Copy of L with entries of one bracket shifted: ``edits`` maps index
    tuples to the amount added."""
    arr = np.array(L.bracket(*key), dtype=object, copy=True)
    for idx, delta in edits.items():
        arr[idx] += F(delta)
    return defo.GradedL3Algebra(dims=L.dims, brackets={**L.brackets, key: arr})


def planted_defects():
    so3 = catalog.so3()
    action = catalog.action_dgla(catalog.adjoint_rep(so3))
    big3 = catalog.big_bracket_dgla(xla.identity(3))
    l3dgla = catalog.two_term_l3_dgla(so3, catalog.killing_form(so3))
    trilinear, _ = trilinear_example()
    return {
        # even x even: one entry of the so3 bracket with its sign flipped
        "action-so3/l2(0,0)": _with_entries(action, (0, 0), {(2, 0, 1): -2}),
        # odd x odd: the two residual orientations differ by a sign
        "big3/l2(-1,-1)": _with_entries(big3, (-1, -1), {(0, 0, 1): 1}),
        # one l3 entry: it enters both adjacent swaps
        "two-term-l3/l3-entry": _with_entries(l3dgla, (0, 0, 0), {(0, 0, 1, 2): 1}),
        # antisymmetric in the first two slots only: trips swap23 alone
        "two-term-l3/swap23": _with_entries(l3dgla, (0, 0, 0), {(0, 0, 1, 2): 1, (0, 1, 0, 2): -1}),
        # antisymmetric in the last two slots only: trips swap12 alone
        "two-term-l3/swap12": _with_entries(l3dgla, (0, 0, 0), {(0, 0, 1, 2): 1, (0, 0, 2, 1): -1}),
        # a trilinear bracket whose permuted keys are missing
        "trilinear/l3(1,1,0)": _with_entries(trilinear, (1, 1, 0), {(0, 0, 0, 1): 1}),
        # a trilinear bracket on two odd inputs of dimension 3, not symmetric in them
        "big3/l3(-1,-1,1)": _with_entries(big3, (-1, -1, 1), {(0, 0, 1, 0): 1}),
        # graded antisymmetric, but the Jacobi identity fails
        "action-so3/jacobi": _with_entries(action, (0, 0), {(0, 0, 1): 1, (0, 1, 0): -1}),
    }


CHECK_DIGESTS = {
    "action-so3/jacobi": "0303f50857ad5aed5723478676c64ff5a95d633db84e203bd2a557b6c48298d9",
    "action-so3/l2(0,0)": "a0c80bc144b17d99609eb7ccea1f7586468ae3ad74af73ba5b944bb8c74c632e",
    "big3/l2(-1,-1)": "723eefbcdd344fc87b9733164b4c8ff0ce7cab9fd5345590c545c09ab146fc97",
    "big3/l3(-1,-1,1)": "b36e1387dcc310bcf095215eac2accb11d944d3c866a8adc6ddaad9a2f9889e8",
    "trilinear/l3(1,1,0)": "929ac911d3cb51b0b9a409c3ed17ee93f8e9385a0517f004e8ad8b5bd59e169a",
    "two-term-l3/l3-entry": "75744bd3ddb9a034bf9ba3d96fce985b85f1fce66035bb81f4c2a4e7ef1b8875",
    "two-term-l3/swap12": "e045c5f14a190a191fece41d5eac66b4657e78e75fafcd9ac6b202bef4f480be",
    "two-term-l3/swap23": "26b04a9af51e1b76ab527f1a566458bdfcac4e2ec72b5f005e5725e062423bb1",
}


@pytest.mark.parametrize("name", sorted(CHECK_DIGESTS))
def test_check_graded_digests(name):
    report = defo.check_graded(planted_defects()[name])
    assert not report.passed
    assert sha(report.render(10**6)) == CHECK_DIGESTS[name]


def test_planted_defects_trip_what_they_name():
    first = {name: defo.check_graded(L).violations[0].equation for name, L in planted_defects().items()}
    assert first["two-term-l3/swap12"].startswith("antisym.l3.swap12")
    assert first["two-term-l3/swap23"].startswith("antisym.l3.swap23")
    assert first["action-so3/jacobi"].startswith("jacobi.")
    assert first["big3/l2(-1,-1)"] == "antisym.l2(-1, -1)"
