import ast
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from conftest import perturb
from lie2alg import catalog, defo, dkcore, el2, exactla as xla, morph
from lie2alg.report import CheckReport, Violation, check_identities, collect_tensor_violations


def test_collect_localizes_and_stops():
    report = CheckReport()
    residual = xla.zeros(2, 3).copy()
    residual[0, 1] = F(1, 2)
    residual[1, 2] = F(-1)
    stopped = collect_tensor_violations(report, "demo", residual)
    assert not stopped
    assert [v.at for v in report.violations] == [(1,), (2,)]
    assert report.violations[0].residual == (F(1, 2), F(0))

    report = CheckReport()
    stopped = collect_tensor_violations(report, "demo", residual, stop_after=1)
    assert stopped and len(report.violations) == 1


def test_scalar_and_vector_residuals():
    report = CheckReport()
    collect_tensor_violations(report, "vec", xla.vector([0, 3]))
    assert report.violations[0].at == ()
    report = CheckReport()
    collect_tensor_violations(report, "ok", xla.zeros(4))
    assert report.passed


def test_render_truncates_to_twenty_with_total_count():
    report = CheckReport()
    residual = np.empty((1, 25), dtype=object)
    residual[...] = F(1)
    collect_tensor_violations(report, "everywhere", residual)
    text = report.render()
    assert "25 violation(s)" in text
    assert "... 5 more" in text
    assert text.count("at (") == 20
    shorter = report.render(max_per_equation=3)
    assert "... 22 more" in shorter


def test_render_pass_with_notes():
    report = CheckReport(notes=["alternator symmetric: yes"])
    assert report.passed
    assert "pass" in report.render() and "note:" in report.render()
    assert str(Violation("eq", (0, 1), (F(1),))) == "eq at basis tuple (0, 1): residual (1)"


def test_render_rejects_a_negative_cap():
    report = CheckReport()
    collect_tensor_violations(report, "everywhere", np.ones((1, 3), dtype=object))
    assert report.render(max_per_equation=0).splitlines()[-1] == "    ... 3 more"
    with pytest.raises(ValueError):
        report.render(max_per_equation=-1)


def _broken_checks():
    """Each checker on an input it rejects, as a function of stop_after."""
    g = catalog.sl2()
    quad = el2.from_quadratic_lie(g, catalog.killing_form(g))
    bad = perturb(quad, "jac", 5)
    ident = morph.identity_morphism(quad)
    f2 = np.array(ident.f2, copy=True)
    f2[0, 0, 1] += 1
    bad_morphism = morph.ELMorphism(quad, quad, ident.f0, ident.f1, f2)
    square = el2.from_leibniz(catalog.leibniz_square())
    square_ident = morph.identity_morphism(square)
    theta = np.array(xla.zeros(1, 2), copy=True)
    theta[0, 0] = 1
    bad_2morphism = morph.ELTwoMorphism(square_ident, square_ident, theta)
    bad_bracket = perturb(square, "b01", 0).bracket
    action = catalog.action_dgla(catalog.adjoint_rep(catalog.so3()))
    brackets = {k: np.array(v, copy=True) for k, v in action.brackets.items()}
    brackets[(0, 0)][2, 0, 1] = -brackets[(0, 0)][2, 0, 1]
    bad_graded = defo.GradedL3Algebra(dims=action.dims, brackets=brackets)
    return {
        "check_el2": lambda s: el2.check_el2(bad, stop_after=s),
        "categorical_coherence_check": lambda s: el2.categorical_coherence_check(bad, stop_after=s),
        "check_morphism": lambda s: morph.check_morphism(bad_morphism, stop_after=s),
        "check_2morphism": lambda s: morph.check_2morphism(bad_2morphism, stop_after=s),
        "check_graded": lambda s: defo.check_graded(bad_graded, stop_after=s),
        "crossed_module_report": lambda s: dkcore.crossed_module_report(bad_bracket, stop_after=s),
    }


@pytest.mark.parametrize("checker", sorted(_broken_checks()))
def test_stop_after_below_one_is_rejected(checker):
    run = _broken_checks()[checker]
    assert not run(None).passed
    assert len(run(1).violations) == 1
    for stop_after in (0, -1):
        with pytest.raises(ValueError):
            run(stop_after)


def test_check_graded_rejects_stop_after_below_one_on_an_empty_algebra():
    """With no brackets there is no identity to evaluate, so the guard must
    run before any of them."""
    empty = defo.GradedL3Algebra(dims={0: 2})
    assert defo.check_graded(empty).passed
    for stop_after in (0, -1):
        with pytest.raises(ValueError, match="stop_after must be at least 1"):
            defo.check_graded(empty, stop_after=stop_after)


def test_check_el2_rejects_stop_after_below_one_on_a_valid_structure():
    """A valid structure passes the residue screen without reaching
    ``collect_tensor_violations``, so the guard must run before it."""
    g = catalog.sl2()
    quad = el2.from_quadratic_lie(g, catalog.killing_form(g))
    assert el2.check_el2(quad).passed
    for stop_after in (0, -1):
        with pytest.raises(ValueError, match="stop_after must be at least 1"):
            el2.check_el2(quad, stop_after=stop_after)


def failing_at(*columns, value=1, width=3):
    """A residual of shape (1, width) that is ``value`` at the given columns."""
    residual = np.zeros((1, width), dtype=object)
    residual[0, list(columns)] = value
    return residual


def test_check_identities_draws_nothing_past_the_stop():
    def identities():
        yield "first", failing_at(0), 0
        raise AssertionError("an identity after the stop was evaluated")

    report = check_identities(identities(), stop_after=1)
    assert [(v.equation, v.at) for v in report.violations] == [("first", (0,))]


def test_check_identities_counts_stop_after_across_identities():
    identities = [("a", failing_at(0, 2), 0), ("pass", failing_at(), 0), ("b", failing_at(1, 2), 0),
                  ("c", failing_at(0), 0)]
    report = check_identities(identities, stop_after=3)
    assert [(v.equation, v.at) for v in report.violations] == [("a", (0,)), ("a", (2,)), ("b", (1,))]
    assert len(check_identities(identities).violations) == 5


def test_check_identities_divides_violators_by_den_to_their_power():
    identities = [("squared", failing_at(1, value=12), 2), ("plain", failing_at(0, value=12), 0)]
    report = check_identities(identities, den=2)
    assert [v.residual for v in report.violations] == [(F(3),), (F(12),)]
    assert all(type(x) is F for v in report.violations for x in v.residual)


def test_check_identities_rejects_stop_after_below_one_before_any_identity():
    def identities():
        raise AssertionError("an identity was evaluated")
        yield  # pragma: no cover

    for stop_after in (0, -1):
        for given in (identities(), []):
            with pytest.raises(ValueError, match="stop_after must be at least 1"):
                check_identities(given, stop_after=stop_after)


def test_check_identities_appends_to_the_report_given():
    given = CheckReport(violations=[Violation("earlier", (), (F(1),))], notes=["kept"])
    report = check_identities([("later", failing_at(2), 0)], report=given)
    assert report is given
    assert [(v.equation, v.at) for v in given.violations] == [("earlier", ()), ("later", (2,))]
    assert given.notes == ["kept"]


def test_only_the_report_module_collects_violations():
    """Every checker reaches ``collect_tensor_violations`` through
    ``check_identities``, so no second reporting loop exists."""
    package = Path(__file__).resolve().parents[1] / "src" / "lie2alg"
    callers = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if getattr(func, "id", getattr(func, "attr", None)) == "collect_tensor_violations":
                callers.add(path.name)
    assert callers == {"report.py"}
