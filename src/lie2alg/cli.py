"""Command line interface.

Subcommands::

    check FILE          run the checker matching the document kind
    ss FILE [-o OUT]    skew-symmetrize a structure document
    cohomology FILE     cocycle/coboundary/quotient dimensions (--ce adds the
                        Chevalley-Eilenberg side and the exact sequence)
    classify FILE       skeletal model and classifying data of a structure
    mc FILE             Maurer-Cartan residual (--twist -o OUT writes the twist)
    inner-sym FILE      symmetry two-term structure of a Maurer-Cartan element

Exit codes: 0 success / all identities hold, 1 a mathematical violation was
found, 2 malformed input.  Output is deterministic: identical input files
produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

from . import cohom, defo, documents, el2, exactla as xla, morph, skew
from .documents import MCProblem, ParseError, ParsedDocument
from .report import CheckReport

PASS, VIOLATION, INPUT_ERROR = 0, 1, 2


def _load(path: str) -> ParsedDocument:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    return documents.parse(text)


def _emit(out: Optional[str], text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _report_exit(report: CheckReport, max_violations: int) -> int:
    print(report.render(max_per_equation=max_violations))
    return PASS if report.passed else VIOLATION


def _gamma_from_args(graded: defo.GradedL3Algebra, text: Optional[str]) -> np.ndarray:
    if text is None:
        return xla.zeros(graded.dim(1))
    entries = [s.strip() for s in text.split(",")] if text.strip() else []
    if "" in entries:
        raise ParseError(f"--gamma entry {entries.index('') + 1} of {len(entries)} is empty")
    if len(entries) != graded.dim(1):
        raise ParseError(
            f"--gamma needs {graded.dim(1)} comma-separated rationals, got {len(entries)}"
        )
    return xla.vector(entries)


def cmd_check(args) -> int:
    parsed = _load(args.file)
    kind, obj = parsed.kind, parsed.obj
    if kind in ("complex", "lie_algebra", "leibniz_algebra", "representation"):
        # axioms were enforced while constructing the domain object
        print("pass")
        return PASS
    if kind == "el2":
        return _report_exit(el2.check_el2(obj), args.max_violations)
    if kind == "morphism":
        return _report_exit(morph.check_morphism(obj), args.max_violations)
    if kind == "two_morphism":
        return _report_exit(morph.check_2morphism(obj), args.max_violations)
    if kind == "cocycle_pair":
        ok, report = cohom.is_cocycle(obj.representation.algebra, obj.representation, obj.pair)
        return _report_exit(report, args.max_violations)
    if kind == "graded_l3":
        return _report_exit(defo.check_graded(obj), args.max_violations)
    if kind == "mc_problem":
        report = defo.check_graded(obj.graded)
        residual = defo.mc_residual(obj.graded, obj.gamma)
        text = "zero" if xla.is_zero(residual) else xla.tuple_str(residual)
        report.notes.append(f"maurer-cartan residual: {text}")
        return _report_exit(report, args.max_violations)
    raise ParseError(f"no checker for kind {kind!r}")  # pragma: no cover


def cmd_ss(args) -> int:
    parsed = _load(args.file)
    if parsed.kind != "el2":
        raise ParseError(f"ss expects an el2 document, got {parsed.kind!r}")
    try:
        result = skew.skew_symmetrize(parsed.obj)
    except el2.InvalidStructureError as exc:
        print(f"input fails validation: {exc}")
        return VIOLATION
    flavor = "strict" if el2.is_strict(result) else "semistrict"
    print(f"skew-symmetrized structure is {flavor}")
    name = parsed.metadata.get("name", "")
    _emit(args.output, documents.serialize(result, name=f"ss({name})" if name else "ss"))
    return PASS


def _representation_from(parsed: ParsedDocument) -> cohom.RepresentationFD:
    if parsed.kind == "representation":
        return parsed.obj
    if parsed.kind == "lie_algebra":
        g = parsed.obj
        return el2.RepresentationFD(g, 1, xla.zeros(1, g.dim, 1))
    raise ParseError(
        f"cohomology expects a representation or lie_algebra document, got {parsed.kind!r}"
    )


def cmd_cohomology(args) -> int:
    rep = _representation_from(_load(args.file))
    g = rep.algebra
    if args.ce:
        seq = cohom.exact_sequence_report(g, rep)
        space = seq.space
    else:
        space = cohom.hl3(g, rep)
    print(f"dim ZL3 = {space.cocycles.dim}")
    print(f"dim BL3 = {space.coboundaries.dim}")
    print(f"dim HL3 = {space.dim}")
    for k, pair in enumerate(space.representatives):
        print(f"representative {k}: s = {xla.tuple_str(pair.s)} j = {xla.tuple_str(pair.j)}")
    if not args.ce:
        return PASS
    print(f"dim H3 = {seq.ce.dim}")
    for k, phi in enumerate(seq.ce.representatives):
        print(f"H3 representative {k}: {xla.tuple_str(phi)}")
    if space.dim:
        print("ss map on HL3 representatives (columns) in H3 coordinates:")
        for k in range(space.dim):
            print(f"  ss[rep {k}] = {xla.tuple_str(seq.ss_matrix[:, k])}")
    print(seq.render())
    return PASS if seq.passed else VIOLATION


def cmd_classify(args) -> int:
    parsed = _load(args.file)
    if parsed.kind != "el2":
        raise ParseError(f"classify expects an el2 document, got {parsed.kind!r}")
    verdict = el2.check_el2(parsed.obj)
    if not verdict.passed:
        print(verdict.render(args.max_violations))
        return VIOLATION
    try:
        skeletal, _ = cohom.transfer_to_skeletal(parsed.obj)
    except cohom.TransferError as exc:
        print(f"transfer failed: {exc}")
        return VIOLATION
    g, m, pair = cohom.extract_class(skeletal)
    print(f"algebra dimension: {g.dim}")
    print("structure constants: " + xla.tuple_str(g.c))
    print(f"module dimension: {m.dim}")
    print("action tensor: " + xla.tuple_str(m.rho))
    print("class representative s: " + xla.tuple_str(pair.s))
    print("class representative j: " + xla.tuple_str(pair.j))
    # transfer_to_skeletal has checked the inclusion's morphism axioms and
    # quasi-isomorphism, and raises TransferError when either fails
    print("equivalence certificate: morphism axioms pass, quasi-isomorphism yes")
    if args.output:
        _emit(args.output, documents.serialize(skeletal, name="skeletal model"))
    return PASS


def _graded_and_gamma(args) -> tuple[defo.GradedL3Algebra, np.ndarray]:
    parsed = _load(args.file)
    if parsed.kind == "mc_problem":
        problem: MCProblem = parsed.obj
        if args.gamma is not None:
            raise ParseError("--gamma conflicts with an mc_problem document")
        return problem.graded, problem.gamma
    if parsed.kind == "graded_l3":
        return parsed.obj, _gamma_from_args(parsed.obj, args.gamma)
    raise ParseError(f"expected a graded_l3 or mc_problem document, got {parsed.kind!r}")


def cmd_mc(args) -> int:
    graded, gamma = _graded_and_gamma(args)
    residual = defo.mc_residual(graded, gamma)
    if xla.is_zero(residual):
        print("maurer-cartan residual: zero")
        if args.twist:
            twisted = defo.twist(graded, gamma)
            _emit(args.output, documents.serialize(twisted, name="twisted structure"))
        return PASS
    print("maurer-cartan residual: " + xla.tuple_str(residual))
    return VIOLATION


def cmd_inner_sym(args) -> int:
    graded, gamma = _graded_and_gamma(args)
    try:
        if args.n == 2:
            algebra = defo.inner_symmetries_n2(graded, gamma)
            report = CheckReport()
        else:
            data = defo.inner_symmetries_n3(graded, gamma)
            report = defo.crossed_module_identities_report(data)
            algebra = data.algebra
    except (defo.MaurerCartanError, defo.DegreeError, el2.InvalidStructureError) as exc:
        print(f"construction failed: {exc}")
        return VIOLATION
    if not report.passed:
        print(report.render(args.max_violations))
        return VIOLATION
    print("all construction identities hold")
    if args.skew:
        algebra = skew.skew_symmetrize(algebra)
        print("skew-symmetrized: "
              + ("strict" if el2.is_strict(algebra) else "semistrict"))
    _emit(args.output, documents.serialize(algebra, name="symmetry structure"))
    return PASS


def _count(text: str) -> int:
    """argparse type of --max-violations: a non-negative integer."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lie2alg",
        description="Exact computations with weak Lie 2-algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the checker matching the document kind")
    p.add_argument("file")
    p.add_argument("--max-violations", type=_count, default=20, metavar="N",
                   help="residuals printed per identity (default 20)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("ss", help="skew-symmetrize a structure document")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_ss)

    p = sub.add_parser("cohomology", help="cocycle pair cohomology of an algebra with module")
    p.add_argument("file", help="representation document (or lie_algebra; trivial module assumed)")
    p.add_argument("--ce", action="store_true",
                   help="also compute the Chevalley-Eilenberg side and the exact sequence")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("classify", help="skeletal model and classifying data")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None, help="write the skeletal model document")
    p.add_argument("--max-violations", type=_count, default=20)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("mc", help="Maurer-Cartan residual, optionally writing the twist")
    p.add_argument("file", help="mc_problem document, or graded_l3 with --gamma")
    p.add_argument("--gamma", default=None, metavar="Q,Q,...",
                   help="degree-1 element as comma-separated rationals")
    p.add_argument("--twist", action="store_true", help="write the twisted structure when the residual is zero")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("inner-sym", help="symmetry two-term structure of a Maurer-Cartan element")
    p.add_argument("file", help="mc_problem document, or graded_l3 with --gamma")
    p.add_argument("--gamma", default=None, metavar="Q,Q,...")
    p.add_argument("--n", type=int, choices=(2, 3), default=3)
    p.add_argument("--skew", action="store_true", help="also skew-symmetrize the result")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--max-violations", type=_count, default=20)
    p.set_defaults(fn=cmd_inner_sym)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    from .dkcore import ChainMapError, CompositionError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, xla.ShapeError, CompositionError, ChainMapError, defo.DegreeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except (
        el2.InvalidStructureError,
        el2.PairingError,
        cohom.CocycleError,
        cohom.TransferError,
        defo.MaurerCartanError,
    ) as exc:
        print(f"structure violation: {exc}")
        return VIOLATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
