"""Spans and tallies around lie2alg's public functions, installed from outside.

Nothing in the package is instrumented.  :meth:`Tracer.install` replaces each
hooked function by a wrapper in *every* ``lie2alg`` module that binds it (for
example ``check_el2`` is bound in ``el2``, ``skew``, ``cohom``, ``defo`` and the
package itself), and :meth:`Tracer.uninstall` puts the originals back.

Two kinds of hook exist:

* a *span* hook records ``[name, start, end, parent, op, extra]`` per call;
  spans nest, and a span's self time is its duration minus the time its
  direct child spans cover;
* a *tally* hook (the tensor-contraction family and the per-basis-vector
  cocycle residuals, called thousands of times inside operator assembly)
  only adds calls and seconds and is invisible to the span tree, so the
  assembly it belongs to stays in its caller's self time.

Spans stay in memory until the run ends; :func:`aggregate` turns them into
per-name totals.  A hook whose target no longer exists is listed in
``Tracer.unresolved`` and every metric that needs it is reported missing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

perf_counter = time.perf_counter


def _rref_cells(args, result):
    shape = getattr(args[0], "shape", ())
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _rung(args, result):
    c = args[0].complex
    return f"{c.n0}x{c.n1}"


def _quotient_dim(args, result):
    return result[0]


def _text_bytes(args, result):
    return len(args[0].encode("utf-8"))


def _residual_entries(args, result):
    return int(getattr(result, "size", 0))


@dataclass(frozen=True)
class Hook:
    module: str                 # module that defines the target
    attr: str                   # attribute path inside it ("CheckReport.render")
    name: str                   # span or tally name
    kind: str = "span"          # "span" or "tally"
    extra: Optional[Callable] = None   # (args, result) -> number or label


_CONTRACT_FAMILY = ("contract", "precompose", "postcompose", "plug")

HOOKS: tuple[Hook, ...] = (
    Hook("lie2alg.exactla", "rref", "exactla.rref", extra=_rref_cells),
    Hook("lie2alg.exactla", "solve", "exactla.solve"),
    Hook("lie2alg.exactla", "quotient", "exactla.quotient", extra=_quotient_dim),
    Hook("lie2alg.exactla", "kernel_basis", "exactla.kernel_basis"),
    Hook("lie2alg.exactla", "image_basis", "exactla.image_basis"),
    *(Hook("lie2alg.exactla", f, "exactla.contract", kind="tally") for f in _CONTRACT_FAMILY),
    Hook("lie2alg.el2", "check_el2", "el2.check_el2", extra=_rung),
    Hook("lie2alg.el2", "categorical_coherence_check", "el2.categorical"),
    Hook("lie2alg.report", "collect_tensor_violations", "report.collect"),
    Hook("lie2alg.report", "CheckReport.render", "report.render"),
    Hook("lie2alg.cohom", "zl3", "cohom.zl3"),
    Hook("lie2alg.cohom", "bl3", "cohom.bl3"),
    Hook("lie2alg.cohom", "hl3", "cohom.hl3"),
    Hook("lie2alg.cohom", "cocycle_residuals", "cohom.cocycle_residuals", kind="tally"),
    Hook("lie2alg.cohom", "is_cocycle", "cohom.is_cocycle"),
    Hook("lie2alg.cohom", "ce_differential", "cohom.ce_differential"),
    Hook("lie2alg.cohom", "ce_h3", "cohom.ce_h3"),
    Hook("lie2alg.cohom", "exact_sequence_report", "cohom.exact_sequence_report"),
    Hook("lie2alg.cohom", "coboundary_preimage", "cohom.coboundary_preimage"),
    Hook("lie2alg.cohom", "ss_class", "cohom.ss_class"),
    Hook("lie2alg.cohom", "transfer_to_skeletal", "cohom.transfer_to_skeletal"),
    Hook("lie2alg.morph", "check_morphism", "morph.check_morphism"),
    Hook("lie2alg.morph", "check_2morphism", "morph.check_2morphism"),
    Hook("lie2alg.morph", "is_equivalence", "morph.is_equivalence"),
    Hook("lie2alg.dkcore", "hodge_decompose", "dkcore.hodge_decompose"),
    Hook("lie2alg.dkcore", "is_quasi_iso", "dkcore.is_quasi_iso"),
    Hook("lie2alg.skew", "skew_symmetrize", "skew.skew_symmetrize"),
    Hook("lie2alg.defo", "mc_residual", "defo.mc_residual"),
    Hook("lie2alg.defo", "twist", "defo.twist"),
    Hook("lie2alg.defo", "inner_symmetries_n3", "defo.inner_symmetries_n3"),
    Hook("lie2alg.documents", "parse", "documents.parse", extra=_text_bytes),
    Hook("lie2alg.documents", "serialize", "documents.serialize"),
    *(Hook("lie2alg.cli", f"cmd_{sub.replace('-', '_')}", f"cli.{sub}")
      for sub in ("check", "ss", "cohomology", "classify", "mc", "inner-sym")),
)

# The 18 residual families of check_el2 live in two module-level tuples of
# (name, function) pairs; each function becomes a span "el2.identity.<name>".
IDENTITY_TABLES = ("EL2_EQUATIONS", "EL2_REDUNDANT_EQUATIONS")
IDENTITY_SPAN = "el2.identity"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.tallies: dict[str, list] = {}     # name -> [calls, seconds]
        self.op: int = -1
        self.enabled: bool = True          # off while the oracle checks an output
        self.unresolved: list[str] = []
        self.identities: list[str] = []
        self._stack: list[int] = []
        self._tally_depth: dict[str, int] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrappers ---------------------------------------------------------
    def _span(self, name: str, fn: Callable, extra) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[5] = extra(args, result)
            return result

        return wrapper

    def _tally(self, name: str, fn: Callable) -> Callable:
        tally = self.tallies.setdefault(name, [0, 0.0])
        depth = self._tally_depth
        depth.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[name] or not self.enabled:
                return fn(*args, **kwargs)   # nested in the same family, or off
            depth[name] = 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += perf_counter() - t0
                depth[name] = 0

        return wrapper

    # -- installation -----------------------------------------------------
    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name in sorted({hook.module for hook in HOOKS}):
            try:
                importlib.import_module(name)
            except ImportError:
                pass                            # its hooks stay unresolved
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lie2alg" or n.startswith("lie2alg."))]
        for hook in HOOKS:
            owner = sys.modules.get(hook.module)
            *path, last = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, last, None) if owner is not None else None
            if not callable(target):
                self.unresolved.append(hook.name)
                continue
            if hook.kind == "tally":
                wrapped = self._tally(hook.name, target)
            else:
                wrapped = self._span(hook.name, target, hook.extra)
            if inspect.isclass(owner):
                self._patch(owner, last, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is target:
                        self._patch(mod, key, wrapped)
        el2 = sys.modules.get("lie2alg.el2")
        for table in IDENTITY_TABLES:
            pairs = getattr(el2, table, None)
            if not isinstance(pairs, tuple):
                self.unresolved.append(IDENTITY_SPAN)
                continue
            self.identities.extend(eq for eq, _fn in pairs)
            self._patch(el2, table, tuple(
                (eq, self._span(f"{IDENTITY_SPAN}.{eq}", fn, _residual_entries))
                for eq, fn in pairs
            ))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "tallies": self.tallies,
                "unresolved": self.unresolved, "identities": self.identities}


def merge(into: dict, other: dict) -> None:
    """Append another process's dump, re-basing its parent indices."""
    base = len(into["spans"])
    for rec in other["spans"]:
        rec = list(rec)
        if rec[3] >= 0:
            rec[3] += base
        into["spans"].append(rec)
    for name, (calls, secs) in other["tallies"].items():
        tally = into["tallies"].setdefault(name, [0, 0.0])
        tally[0] += calls
        tally[1] += secs
    for key in ("unresolved", "identities"):
        for name in other[key]:
            if name not in into[key]:
                into[key].append(name)


def aggregate(dump: dict) -> dict:
    """Per-name totals: ``calls`` and ``s`` over spans with no same-name
    ancestor, ``self_s`` and ``extra`` over every span, ``by_label`` seconds
    split by a string ``extra`` (the (n0, n1) rung of check_el2), and
    ``child_calls`` counting direct children by name."""
    spans = dump["spans"]
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    agg: dict[str, dict] = {}

    def entry(name: str) -> dict:
        return agg.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0,
                                     "by_label": {}, "child_calls": {}})

    for i, (name, start, end, parent, _op, extra) in enumerate(spans):
        a = entry(name)
        dur = end - start
        a["self_s"] += dur - covered[i]
        if isinstance(extra, str):
            a["by_label"][extra] = a["by_label"].get(extra, 0.0) + dur
        else:
            a["extra"] += extra
        if parent >= 0:
            siblings = entry(spans[parent][0])["child_calls"]
            siblings[name] = siblings.get(name, 0) + 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            a["calls"] += 1
            a["s"] += dur
    for name, (calls, secs) in dump["tallies"].items():
        entry(name).update(calls=calls, s=secs, self_s=secs)
    return agg
