"""The benchmark's tracer finds every function it hooks in the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

from lie2alg import catalog, el2, exactla as xla

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture
def tracer(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def test_tracer_hooks_resolve(tracer):
    assert tracer.unresolved == []
    assert tracer.identities


def test_tracer_records_every_identity_of_check_el2(tracer):
    """Each identity is evaluated once per check, on all primes of its
    residue screen at once."""
    g = catalog.sl2()
    e = el2.transport(el2.string_2_algebra(g, catalog.killing_form(g)),
                      xla.identity(3) * xla.Rat(5, 3), xla.identity(1) * xla.Rat(2, 7))
    ints, _ = el2._integer_copy(e)
    assert len(xla.residue_primes(el2._diagram_bound(ints, 2))) >= 2    # every identity is screened on residues
    assert el2.check_el2(e).passed
    names = [rec[0] for rec in tracer.spans]
    assert names.count("el2.check_el2") == 1
    for identity in tracer.identities:
        assert names.count(f"el2.identity.{identity}") == 1, identity


def test_tracer_records_one_span_per_categorical_check(tracer):
    """The categorical checker shares no residual function with
    ``check_el2``: its int64 and residue modes run inside its one span."""
    g = catalog.sl2()
    e = el2.transport(el2.string_2_algebra(g, catalog.killing_form(g)),
                      xla.identity(3) * (2**31 - 1), xla.identity(1) * xla.Rat(2, 7))
    ints, _ = el2._integer_copy(e)
    assert el2._diagram_bound(ints, 2) >= 2**63     # every diagram is screened on residues
    tracer.spans.clear()
    assert el2.categorical_coherence_check(e).passed
    names = [rec[0] for rec in tracer.spans]
    assert names.count("el2.categorical") == 1
    assert not [name for name in names if name.startswith("el2.identity")]
