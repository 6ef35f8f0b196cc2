"""The benchmark's tracer finds every function it hooks in the package."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from conftest import rand_tensor, twisted_nonskeletal
from lie2alg import catalog, cohom, el2, exactla as xla

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


def wide_44():
    """A valid (4,4) structure with every tensor nonzero (a skeletal
    sl2/adjoint structure plus an acyclic piece, twisted), moved along
    2**31 - 1 on both degrees: every tensor of its integer copy has entries
    of at least 31 bits, so each identity and diagram is screened on
    residues."""
    g, m = catalog.sl2(), catalog.adjoint_rep(catalog.sl2())
    pair = cohom.coboundary(g, m, rand_tensor(random.Random(3), 3, 3, 3))
    e = twisted_nonskeletal(random.Random(44), el2.from_skeletal_cocycle(g, m, pair.s, pair.j), 1)[0]
    return el2.transport(e, xla.identity(4) * (2**31 - 1), xla.identity(4) * (2**31 - 1))


def test_tracer_hooks_resolve(tracer):
    assert tracer.unresolved == []
    assert tracer.identities


def test_tracer_records_every_identity_of_check_el2(tracer):
    """Each identity is evaluated once per check, on all primes of its
    residue screen at once."""
    e = wide_44()
    ints, _ = el2._integer_copy(e)
    # every identity is screened on residues
    assert all(len(el2._row_plan(ints, terms) or ()) >= 2 for _, terms in el2.RESIDUAL_TERMS.values())
    assert el2.check_el2(e).passed
    names = [rec[0] for rec in tracer.spans]
    assert names.count("el2.check_el2") == 1
    for identity in tracer.identities:
        assert names.count(f"el2.identity.{identity}") == 1, identity


def test_tracer_records_one_span_per_categorical_check(tracer):
    """The categorical checker shares no residual function with
    ``check_el2``: its int64 and residue modes run inside its one span."""
    e = wide_44()
    ints, _ = el2._integer_copy(e)
    # every diagram is screened on residues
    assert all(el2._diagram_bound(ints, terms) >= 2**63 for _, _, terms, _ in el2.CATEGORICAL_DIAGRAMS)
    tracer.spans.clear()
    assert el2.categorical_coherence_check(e).passed
    names = [rec[0] for rec in tracer.spans]
    assert names.count("el2.categorical") == 1
    assert not [name for name in names if name.startswith("el2.identity")]
