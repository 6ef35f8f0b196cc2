import hashlib

import pytest

from lie2alg import catalog, documents, exactla as xla


def _graded_fixtures():
    """Each graded fixture with the Maurer-Cartan elements it returns."""
    dgla, gamma = catalog.nilpotent_cdga_dgla()
    yield "nilpotent_cdga_dgla", documents.MCProblem(dgla, gamma)
    dgla, gamma = catalog.nilpotent_cdga_dgla_n2()
    yield "nilpotent_cdga_dgla_n2", documents.MCProblem(dgla, gamma)
    dgla, good, bad = catalog.mc_balancing_dgla()
    yield "mc_balancing_dgla/good", documents.MCProblem(dgla, good)
    yield "mc_balancing_dgla/bad", documents.MCProblem(dgla, bad)
    for n in (3, 4, 5):
        yield f"big_bracket_dgla/I{n}", catalog.big_bracket_dgla(xla.identity(n))
    dgla, gamma = catalog.twisted_big_bracket_dgla()
    yield "twisted_big_bracket_dgla", documents.MCProblem(dgla, gamma)


# sha256 of documents.serialize for each fixture, taken from the hand-written
# constructions these fixtures were first built with
FIXTURE_DIGESTS = {
    "nilpotent_cdga_dgla": "e815e08bc9e1cf5a56db1c7605d6925c864c0683eb17f75e1e4bba53e22d96c6",
    "nilpotent_cdga_dgla_n2": "27cfe83102bd40c981b2b540f874d4eff9f8c7f5d8b3b00489d13d1c22f05c27",
    "mc_balancing_dgla/good": "5db7a418bf00e1e4dcad8e763de57f013196089b3c9d724af85abbb39ec586da",
    "mc_balancing_dgla/bad": "b9382661ef29dbe498b946f828eb65a56bd3ed1816de6094b7c4a3a4b37067dc",
    "big_bracket_dgla/I3": "311b216871ed5d23ae779e67a3c0ac3e84f295881de03382f5fa96462584feaa",
    "big_bracket_dgla/I4": "2d755b91f88cde906ae6f6bf615fd7839934da261c03649e538c981e49735f15",
    "big_bracket_dgla/I5": "a0f0d7d1863f66735b51570551508b2fbc23dcedc0c2dea017cc1c61df309722",
    "twisted_big_bracket_dgla": "dc6476099ca4ae46523416afa006485cc7c84b8d0c51e7e142ab9b781994301a",
}


def test_graded_fixture_digests():
    got = {
        name: hashlib.sha256(documents.serialize(obj).encode()).hexdigest()
        for name, obj in _graded_fixtures()
    }
    assert got == FIXTURE_DIGESTS


@pytest.mark.parametrize("name, obj", list(_graded_fixtures()))
def test_graded_fixture_entries_are_fractions(name, obj):
    graded = obj.graded if isinstance(obj, documents.MCProblem) else obj
    for arr in graded.brackets.values():
        assert all(type(x) is xla.Rat for x in arr.flat), name


def test_killing_form_is_the_trace_of_ad_products():
    """The one contraction against trace(ad x . ad y), ad(e_i) = c[:, i, :]."""
    for g in (catalog.sl2(), catalog.so3(), catalog.heisenberg(), catalog.affine_line(), catalog.abelian_lie(0)):
        ad = [g.c[:, i, :] for i in range(g.dim)]
        want = [[sum((ad[i] @ ad[j]).diagonal(), xla.ZERO) for j in range(g.dim)] for i in range(g.dim)]
        got = catalog.killing_form(g)
        assert got.shape == (g.dim, g.dim) and not got.flags.writeable
        assert got.tolist() == want
        assert all(type(x) is xla.Rat for x in got.flat)
