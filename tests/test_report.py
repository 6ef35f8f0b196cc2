from fractions import Fraction as F

import numpy as np
import pytest

from conftest import perturb
from lie2alg import catalog, defo, dkcore, el2, exactla as xla, morph
from lie2alg.report import CheckReport, Violation, collect_tensor_violations


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
