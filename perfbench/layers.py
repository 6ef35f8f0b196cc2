"""How each per-layer metric of the traced run is computed.

``BENCHMARK.json`` lists the metrics with their units and directions; this
registry holds, for each of those names, the package module it belongs to,
the end-to-end metric and workload it is predicted to move, and how it is
computed from the aggregated spans (see ``tracing.aggregate``).  ``run.py``
refuses to run when the two lists of names differ.

* ``("calls", span)`` / ``("s", span)``: calls and inclusive seconds of the
  outermost spans of that name;
* ``("self_s", span)``: duration minus the time direct child spans cover;
* ``("extra", span)``: the summed per-call count (rref cells, residual
  entries, parsed bytes);
* ``("label_s", span, label)``: seconds split by a label (the rung);
* ``("child_calls", parent, child)``: direct children of one name in another;
* ``("per_child", parent, child)``: the parent's ``extra`` per such child;
* ``("run", key)``: a figure the run measures itself (import time, tracing
  overhead, host-speed probe).
"""

from __future__ import annotations

from typing import Optional

RUNGS = ("3x1", "3x3", "4x4", "6x6")

EL2_IDENTITIES = (
    "chain.b01", "chain.b10", "chain.derived", "skew.00", "skew.10", "skew.01",
    "jacobi.000", "jacobi.100", "jacobi.010", "jacobi.001",
    "coh.bracket-jacobiator", "coh.jacobiator-sym12", "coh.jacobiator-sym23",
    "coh.alternator-bracket",
    "red.alternator-left", "red.alternator-right", "red.d-alternator",
    "red.alternator-exact",
)

CLI_SUBCOMMANDS = ("check", "ss", "cohomology", "classify", "mc", "inner-sym")

_ELIM = "op_s.p90 and ops_per_s on cli (cohomology --ce); none on verify"
_EL2 = "op_s.* and ops_per_s on verify; op_s.p90 on cli (inner-sym, check)"
_CLI = "op_s.p50 on cli only"
_CONTRACT = "ops_per_s on verify (residuals) and cli (cocycle assembly)"
_REPEAT = "op_s.p90 on cli: hl3 is computed twice inside cohomology --ce"
_REPORT = "op_s.p50 on cli (check renders its report); about zero on verify"


def _m(name, module, moves, spec):
    return name, {"module": module, "moves": moves, "spec": spec}


LAYER_METRICS: dict[str, dict] = dict((
    _m("exactla.rref.calls", "exactla", _ELIM, ("calls", "exactla.rref")),
    _m("exactla.rref.s", "exactla", _ELIM, ("s", "exactla.rref")),
    _m("exactla.rref.cells", "exactla", _ELIM, ("extra", "exactla.rref")),
    _m("exactla.solve.calls", "exactla", _ELIM, ("calls", "exactla.solve")),
    _m("exactla.solve.s", "exactla", _ELIM, ("s", "exactla.solve")),
    _m("exactla.quotient.s", "exactla", _ELIM, ("s", "exactla.quotient")),
    _m("exactla.quotient.solve_calls", "exactla", _ELIM,
       ("child_calls", "exactla.quotient", "exactla.solve")),
    _m("exactla.quotient.reps_per_solve", "exactla", _ELIM,
       ("per_child", "exactla.quotient", "exactla.solve")),
    _m("exactla.kernel_basis.s", "exactla", _ELIM, ("s", "exactla.kernel_basis")),
    _m("exactla.image_basis.s", "exactla", _ELIM, ("s", "exactla.image_basis")),
    _m("exactla.contract.calls", "exactla", _CONTRACT, ("calls", "exactla.contract")),
    _m("exactla.contract.s", "exactla", _CONTRACT, ("s", "exactla.contract")),
    _m("el2.check_el2.calls", "el2", _EL2, ("calls", "el2.check_el2")),
    _m("el2.check_el2.s", "el2", _EL2, ("s", "el2.check_el2")),
    *(_m(f"el2.check_el2.s.{r}", "el2", _EL2, ("label_s", "el2.check_el2", r))
      for r in RUNGS),
    *(_m(f"el2.identity.{eq}.s", "el2", _EL2, ("s", f"el2.identity.{eq}"))
      for eq in EL2_IDENTITIES),
    _m("el2.identity.entries", "el2", _EL2, ("extra", "el2.identity")),
    _m("el2.categorical.calls", "el2", _EL2, ("calls", "el2.categorical")),
    _m("el2.categorical.s", "el2", _EL2, ("s", "el2.categorical")),
    _m("report.collect.s", "report", _REPORT, ("s", "report.collect")),
    _m("report.render.s", "report", _REPORT, ("s", "report.render")),
    _m("cohom.zl3.self_s", "cohom", _ELIM, ("self_s", "cohom.zl3")),
    _m("cohom.bl3.self_s", "cohom", _ELIM, ("self_s", "cohom.bl3")),
    _m("cohom.cocycle_residuals.calls", "cohom", _ELIM, ("calls", "cohom.cocycle_residuals")),
    _m("cohom.hl3.calls", "cohom", _REPEAT, ("calls", "cohom.hl3")),
    _m("cohom.bl3.calls", "cohom", _REPEAT, ("calls", "cohom.bl3")),
    _m("cohom.ce_differential.calls", "cohom", _REPEAT, ("calls", "cohom.ce_differential")),
    _m("cohom.ce_differential.s", "cohom", _REPEAT, ("s", "cohom.ce_differential")),
    *(_m(f"cohom.{f}.s", "cohom", "op_s.* on cli (cohomology, classify)", ("s", f"cohom.{f}"))
      for f in ("exact_sequence_report", "ss_class", "is_cocycle")),
    _m("cohom.transfer_to_skeletal.self_s", "cohom", "op_s.* on cli (classify)",
       ("self_s", "cohom.transfer_to_skeletal")),
    *(_m(f"{name}.s", name.split(".")[0],
         "op_s.* on verify (morphisms); cli (ss, classify)", ("s", name))
      for name in ("morph.check_morphism", "morph.check_2morphism", "morph.is_equivalence",
                   "dkcore.hodge_decompose", "dkcore.is_quasi_iso")),
    _m("skew.skew_symmetrize.self_s", "skew", "op_s.* on cli (ss, inner-sym)",
       ("self_s", "skew.skew_symmetrize")),
    *(_m(f"{name}.s", name.split(".")[0], _CLI, ("s", name))
      for name in ("defo.mc_residual", "defo.twist",
                   "defo.inner_symmetries_n3", "documents.parse")),
    _m("documents.parse.bytes", "documents", _CLI, ("extra", "documents.parse")),
    _m("documents.serialize.s", "documents", _CLI, ("s", "documents.serialize")),
    _m("cli.import_s", "cli", _CLI, ("run", "cli.import_s")),
    *(_m(f"cli.{sub}.s", "cli", _CLI, ("s", f"cli.{sub}")) for sub in CLI_SUBCOMMANDS),
    _m("trace.overhead_s", "perfbench",
       "none: traced minus untraced wall time of the same ops", ("run", "trace.overhead_s")),
    _m("host.probe_before_s", "perfbench",
       "none: host-speed diagnostic, never used to rescale", ("run", "host.probe_before_s")),
    _m("host.probe_after_s", "perfbench",
       "none: host-speed diagnostic, never used to rescale", ("run", "host.probe_after_s")),
))


def _resolved(span: str, dump: dict) -> bool:
    if span == "el2.identity":
        return bool(dump["identities"])
    if span.startswith("el2.identity."):
        return span.removeprefix("el2.identity.") in dump["identities"]
    return span not in dump["unresolved"]


def layer_value(spec: tuple, agg: dict, dump: dict, run: dict) -> Optional[float]:
    """The metric's value, or None when a hook it needs did not resolve."""
    kind = spec[0]
    if kind == "run":
        return run.get(spec[1])
    needed = spec[1:3] if kind in ("child_calls", "per_child") else spec[1:2]
    if not all(_resolved(span, dump) for span in needed):
        return None
    if kind == "extra" and spec[1] == "el2.identity":
        return sum(a["extra"] for n, a in agg.items() if n.startswith("el2.identity."))
    a = agg.get(spec[1], {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0,
                          "by_label": {}, "child_calls": {}})
    if kind in ("calls", "s", "self_s", "extra"):
        return a[kind]
    if kind == "label_s":
        return a["by_label"].get(spec[2], 0.0)
    children = a["child_calls"].get(spec[2], 0)
    if kind == "child_calls":
        return children
    if kind == "per_child":
        return a["extra"] / children if children else 0.0
    raise ValueError(f"unknown metric spec {spec!r}")
