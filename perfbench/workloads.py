"""Seeded inputs, the ops of each workload, and the oracle for every op.

A workload's ``setup(seed, ctx)`` builds everything an op needs (inputs and
the expected results, known by construction), and ``ops(inputs, ctx)``
returns one *round*: the fixed list of ops that the timed loop repeats.  The
seed changes entries, never the mix, so every seed does the same kinds of
work at the same sizes.

Each :class:`Op` carries the (n0, n1) rung of its input or its subcommand
(``size``) and the largest numerator or denominator bit length in
it (``bits``), so a later analysis can report the share of ops that have a
property.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from lie2alg import catalog, cohom, documents, el2, morph
from lie2alg import exactla as xla

F = Fraction
SCALES = (F(1), F(-1), F(2), F(1, 2), F(-3, 2), F(5, 3))


@dataclass
class Op:
    key: str                                  # stable id within a round
    kind: str                                 # the public call it times
    size: str                                 # rung "3x1", or a subcommand
    bits: int                                 # largest numerator/denominator bit length
    call: Callable[..., Any]                  # the timed call
    check: Callable[[Any], Optional[str]]     # None, or why the output is wrong
    text: Callable[[Any], str]                # canonical text, digested for the default seed


@dataclass
class Context:
    root: Path                                # checkout root
    work: Path                                # scratch directory for documents
    tracer: Any = None                        # tracing.Tracer during a traced pass
    child_dumps: list = field(default_factory=list)   # spans of traced cli children
    cli_import_s: float = 0.0                 # their summed import time


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _rand_tensor(rng: random.Random, shape: tuple[int, ...], h: int) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    flat = out.reshape(-1)
    for i in range(flat.size):
        flat[i] = F(rng.randint(-h, h))
    return xla.freeze(out)


# Pivots of the seeded invertible maps: the determinant, and with it the
# denominators of the inverse, is the same for every seed.
PIVOTS = (1, 2, 1, 3, 1, 2)


def _rand_invertible(rng: random.Random, n: int, h: int) -> np.ndarray:
    """L D U with L, U unit triangular with entries in [-h, h] and D fixed,
    so the seed changes the entries but not their typical height."""
    lower = np.tril(_rand_tensor(rng, (n, n), h), -1) + xla.identity(n)
    upper = np.triu(_rand_tensor(rng, (n, n), h), 1) + xla.identity(n)
    pivots = np.diag([F(p) for p in PIVOTS[:n]])
    return xla.freeze(np.dot(np.dot(lower, pivots.astype(object)), upper))


def _bits(*arrays) -> int:
    best = 0
    for a in arrays:
        for x in np.asarray(a).reshape(-1):
            q = xla.rat(x)
            best = max(best, abs(q.numerator).bit_length(), q.denominator.bit_length())
    return best


def _el2_bits(e: el2.EL2Algebra) -> int:
    return _bits(e.complex.d, e.b00, e.b01, e.b10, e.alt, e.jac)


def _volume_form3() -> np.ndarray:
    t = xla.zeros(1, 3, 3, 3).copy()
    for perm in itertools.permutations(range(3)):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        t[(0,) + perm] = F((-1) ** inversions)
    return xla.freeze(t)


def _expect_pass(report) -> Optional[str]:
    return None if report.passed else "valid input reported violations: " + ", ".join(
        report.equations_violated())


# ---------------------------------------------------------------------------
# verify: a stream of valid structures on the (n0, n1) ladder
# ---------------------------------------------------------------------------

@dataclass
class Structure:
    label: str
    rung: str
    e: el2.EL2Algebra
    bits: int
    iso: Optional[morph.ELMorphism] = None    # transport isomorphism onto ``e``
    iso2: Optional[morph.ELTwoMorphism] = None


# Structures per round at each rung: the count halves at each step up the
# ladder.  This is a choice made without traffic data.  One (6,6) check
# costs as much as about 200 (3,1) checks, so equal counts would give a
# round either a handful of ops or too long a time to repeat several times
# in a run.  With halving, the (6,6) rung still takes about half a round.
PER_RUNG = {"3x1": 8, "3x3": 4, "4x4": 2, "6x6": 1}
# Entry bound of the seeded transport maps: small and large in turn at each
# rung, so both heights occur (the (6,6) rung, with one structure, gets the
# small one).
TRANSPORT_HEIGHTS = (2, 9)


def _skeletal_adjoint(rng: random.Random, g) -> el2.EL2Algebra:
    """Skeletal structure on (g, adjoint) whose cocycle pair is a seeded
    coboundary, so it is valid by construction."""
    m = catalog.adjoint_rep(g)
    pair = cohom.coboundary(g, m, _rand_tensor(rng, (m.dim, g.dim, g.dim), 2))
    return el2.from_skeletal_cocycle(g, m, pair.s, pair.j)


def el2_stream(seed: int) -> list[Structure]:
    rng = random.Random(seed)
    sl2, so3, heis = catalog.sl2(), catalog.so3(), catalog.heisenberg()
    out: list[Structure] = []

    def add(label: str, rung: str, e: el2.EL2Algebra, **kw) -> None:
        out.append(Structure(label, rung, e, _el2_bits(e), **kw))

    for i in range(PER_RUNG["3x1"]):
        g = (sl2, so3)[(i // 4) % 2]
        name = "sl2" if g is sl2 else "so3"
        kind = ("quadratic", "string", "leibniz", "skeletal")[i % 4]
        scale = rng.choice(SCALES)
        if kind == "quadratic":
            add(f"quadratic-{name}", "3x1", el2.from_quadratic_lie(g, catalog.killing_form(g) * scale))
        elif kind == "string":
            add(f"string-{name}", "3x1", el2.string_2_algebra(g, catalog.killing_form(g) * scale))
        elif kind == "leibniz":
            a, b = rng.choice([(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)])
            rep = el2.RepresentationFD(catalog.abelian_lie(2), 1, xla.tensor([1, 2, 1], [a, b]))
            add("leibniz-hemidirect", "3x1", el2.from_leibniz(catalog.hemidirect_leibniz(rep)))
        else:
            base = g if g is sl2 else heis
            m = catalog.trivial_rep(base)
            if base is sl2:
                known = cohom.CocyclePair(catalog.killing_form(sl2).reshape(1, 3, 3), xla.zeros(1, 3, 3, 3))
            else:
                known = cohom.CocyclePair(xla.zeros(1, 3, 3), _volume_form3())
            pair = known.scale(scale) + cohom.coboundary(base, m, _rand_tensor(rng, (1, 3, 3), 2))
            label = "skeletal-sl2-trivial" if base is sl2 else "skeletal-heisenberg-trivial"
            add(label, "3x1", el2.from_skeletal_cocycle(base, m, pair.s, pair.j))

    algebras = (("sl2", sl2), ("so3", so3), ("heisenberg", heis))
    for i in range(PER_RUNG["3x3"]):
        name, g = algebras[i % 3]
        add(f"skeletal-{name}-adjoint", "3x3", _skeletal_adjoint(rng, g))

    for rung, acyclic in (("4x4", 1), ("6x6", 3)):
        for i in range(PER_RUNG[rung]):
            name, g = algebras[i % 3]
            height = TRANSPORT_HEIGHTS[i % len(TRANSPORT_HEIGHTS)]
            big = el2.direct_sum(_skeletal_adjoint(rng, g),
                                 el2.zero_el2(acyclic, acyclic, xla.identity(acyclic)))
            n0, n1 = big.complex.n0, big.complex.n1
            phi0 = _rand_invertible(rng, n0, height)
            phi1 = _rand_invertible(rng, n1, height)
            moved = el2.transport(big, phi0, phi1)
            iso = morph.ELMorphism(big, moved, phi0, phi1, xla.zeros(n1, n0, n0))
            add(f"twisted-{name}-h{height}", rung, moved, iso=iso,
                iso2=morph.identity_2morphism(iso))
    return out


def _verify_ops(items: list[Structure], ctx: Context) -> list[Op]:
    ops = []
    for i, s in enumerate(items):
        key = f"{i:02d}.{s.label}"
        ops.append(Op(f"{key}.check_el2", "check_el2", s.rung, s.bits,
                      lambda e=s.e: el2.check_el2(e), _expect_pass, lambda r: r.render()))
        if s.rung != "6x6":
            ops.append(Op(f"{key}.categorical", "categorical_coherence_check", s.rung, s.bits,
                          lambda e=s.e: el2.categorical_coherence_check(e), _expect_pass,
                          lambda r: r.render()))
        if s.iso is not None:
            ops.append(Op(f"{key}.check_morphism", "check_morphism", s.rung, s.bits,
                          lambda m=s.iso: morph.check_morphism(m), _expect_pass,
                          lambda r: r.render()))
            ops.append(Op(f"{key}.check_2morphism", "check_2morphism", s.rung, s.bits,
                          lambda t=s.iso2: morph.check_2morphism(t), _expect_pass,
                          lambda r: r.render()))
    return ops


# ---------------------------------------------------------------------------
# cli: every subcommand on fixture documents, one fresh interpreter per op
# ---------------------------------------------------------------------------

@dataclass
class CliCall:
    label: str
    argv: tuple[str, ...]
    writes: Optional[str]            # document the subcommand writes, if any
    expect: tuple[str, ...]          # lines its stdout must contain
    writes_kind: Optional[str] = None
    bits: int = 0


def cli_inputs(seed: int, ctx: Context) -> list[CliCall]:
    """Write the fixture documents into the work directory."""
    rng = random.Random(seed)
    g = catalog.sl2()
    base = el2.direct_sum(el2.from_quadratic_lie(g, catalog.killing_form(g)),
                          el2.zero_el2(1, 1, xla.identity(1)))
    moved = el2.transport(base, _rand_invertible(rng, 4, 2), _rand_invertible(rng, 2, 2))
    mc, gamma = catalog.nilpotent_cdga_dgla()
    mc2, gamma2 = catalog.nilpotent_cdga_dgla_n2()
    fixtures = {
        "structure.json": documents.serialize(moved, name="sl2 quadratic structure, moved"),
        "sl2.json": documents.serialize(g, name="sl2"),
        "mc_problem.json": documents.serialize(documents.MCProblem(mc, gamma), name="nilpotent fixture"),
        "mc_problem_n2.json": documents.serialize(documents.MCProblem(mc2, gamma2), name="two-term fixture"),
    }
    for name, text in fixtures.items():
        (ctx.work / name).write_text(text, encoding="utf-8")
    bits = _el2_bits(moved)
    ok_seq = ("dimension identity dim HL3 = dim Hom(wedge^2 a, M) + dim H3: ok",
              "splitting phi -> (0, phi) section of ss: ok", "kernel of ss = image of iota: ok")
    return [
        CliCall("check", ("check", "structure.json"), None, ("pass",), bits=bits),
        CliCall("ss", ("ss", "structure.json", "-o", "semistrict.json"), "semistrict.json",
                ("skew-symmetrized structure is semistrict",), "el2", bits),
        CliCall("classify", ("classify", "structure.json", "-o", "skeletal.json"), "skeletal.json",
                ("algebra dimension: 3", "module dimension: 1",
                 "equivalence certificate: morphism axioms pass, quasi-isomorphism yes"), "el2", bits),
        # sl2 with the adjoint module is left out: about 9 s in a fresh
        # interpreter, too long to repeat several times in a run.
        CliCall("cohomology-sl2-trivial", ("cohomology", "sl2.json", "--ce"), None,
                ("dim HL3 = 1", "dim H3 = 1") + ok_seq),
        CliCall("mc-twist", ("mc", "mc_problem.json", "--twist", "-o", "twisted.json"), "twisted.json",
                ("maurer-cartan residual: zero",), "graded_l3"),
        CliCall("inner-sym-n3", ("inner-sym", "mc_problem.json", "--skew", "-o", "symmetries.json"),
                "symmetries.json", ("all construction identities hold",), "el2"),
        CliCall("inner-sym-n2", ("inner-sym", "mc_problem_n2.json", "--n", "2", "-o", "symmetries_n2.json"),
                "symmetries_n2.json", ("all construction identities hold",), "el2"),
    ]


CHILD_TIMEOUT_S = 150


def _run_cli(call: CliCall, ctx: Context, op_index: int):
    if call.writes:
        (ctx.work / call.writes).unlink(missing_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "lie2alg.cli", *call.argv]
    else:
        dump_path = ctx.work / f"spans-{op_index}.json"
        cmd = [sys.executable, str(Path(__file__).with_name("cli_shim.py")),
               str(dump_path), str(op_index), *call.argv]
    proc = subprocess.run(cmd, cwd=ctx.work, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if ctx.tracer is not None:
        child = json.loads(dump_path.read_text(encoding="utf-8"))
        ctx.cli_import_s += child.pop("import_s")
        ctx.child_dumps.append(child)
        dump_path.unlink()
    written = (ctx.work / call.writes).read_text(encoding="utf-8") if call.writes else ""
    return proc.returncode, proc.stdout, proc.stderr, written


def _check_cli(out, call: CliCall) -> Optional[str]:
    code, stdout, stderr, written = out
    if code != 0:
        return f"exit code {code}: {stderr.strip()[-200:]}"
    lines = stdout.splitlines()
    missing = [want for want in call.expect if want not in lines]
    if missing:
        return f"stdout lacks {missing[0]!r}"
    if call.writes:
        try:
            kind = documents.parse(written).kind
        except documents.ParseError as exc:
            return f"{call.writes} does not parse: {exc}"
        if kind != call.writes_kind:
            return f"{call.writes} has kind {kind}, expected {call.writes_kind}"
    return None


def _cli_ops(calls: list[CliCall], ctx: Context) -> list[Op]:
    counter = itertools.count()
    return [Op(f"{i:02d}.{c.label}", c.argv[0], c.argv[0], c.bits,
               lambda c=c: _run_cli(c, ctx, next(counter)),
               lambda out, c=c: _check_cli(out, c),
               lambda out, c=c: out[1] + (f"== {c.writes} ==\n{out[3]}" if c.writes else ""))
            for i, c in enumerate(calls)]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""
    name: str
    setup: Callable[[int, Context], Any]
    ops: Callable[[Any, Context], list[Op]]
    in_process: bool = True


WORKLOADS = {
    w.name: w for w in (
        Workload("verify", lambda seed, ctx: el2_stream(seed), _verify_ops),
        Workload("cli", cli_inputs, _cli_ops, in_process=False),
    )
}
