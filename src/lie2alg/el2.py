"""Weak Lie 2-algebras in chain form, their axioms, and example constructors.

The central object bundles a two-term complex with five structure tensors:

* ``b00``, ``b01``, ``b10`` - the components of a bilinear bracket, a chain
  map from the tensor square of the complex to the complex,
* ``alt`` - a bilinear homotopy trivializing ``[x,y] + [y,x]`` (weak
  skew-symmetry),
* ``jac`` - a trilinear homotopy trivializing the left Leibniz defect
  ``[x,[y,z]] - [[x,y],z] - [y,[x,z]]`` (weak Jacobi).

Each axis of each tensor lives in C^0 or in C^-1, and :data:`AXES` is the
one statement of which (output axis first; d is (0, 1)).  The record's
shapes, :func:`zero_el2`, :func:`direct_sum`, :func:`transport`, the
integer copy's powers and ``cohom.transfer_to_skeletal`` read it;
:func:`_push` maps one tensor along a map per space on its output axis and
one per space on its input axes, on Python ints.

``check_el2`` evaluates every defining identity on every basis tuple, which
is complete by multilinearity, and reports exact residuals.  Each identity
is stated once, as data, in :data:`IDENTITIES`: a signed sum of
named-axis contractions of the tensors (``exactla.SignedSum``), so one row
evaluates Python ints, int64 tensors and stacked residues.  The rest is
read off the rows: their ranks and terms (``RESIDUAL_TERMS``), their
powers of den (``RESIDUAL_POWERS``), ``EL2_EQUATIONS`` and
``EL2_REDUNDANT_EQUATIONS``, and ``cohom``'s cocycle equations.
``categorical_coherence_check`` re-derives the same identities independently
on the associated linear category: it checks that the bracket is a functor,
that the alternator and Jacobiator are well-formed natural transformations,
and that the four coherence diagrams commute, all by composing actual arrows,
each diagram over all basis tuples at once.
The two checkers agree identity by identity; the correspondence is recorded
in ``EL2_TO_CATEGORICAL``.

Both checkers, and those of :mod:`lie2alg.morph`, run once, on an integer
copy: ``transport`` along den**-2 on objects and den**-3 on arrow parts, with
den a common denominator, is a strict isomorphism that clears every
denominator (it puts den**2 on a tensor for each C^0 input axis and den**3
for each C^-1 input axis, over den**2 or den**3 for its output), so the
residuals are computed in Python ints instead of Fractions.  The copy is a
check-local view (``_integer_copy``), a namespace of the scaled tensors the
residual functions read, not a record.  Each record memoizes the integer
form of its tensors (``TensorRecord.integer_form``), so a structure checked
by both checkers and as the end of morphisms and 2-morphisms has its
denominators cleared once, and each view only scales the forms.  The copy
multiplies the residual of each identity by a fixed power of den, so the
copy fails at exactly the basis tuples where the input fails, and dividing
each violating residual by that power gives the report of the Fraction
input.  Each checker yields its identities with their powers, in order, to
``report.check_identities``, which builds the report and stops at
``stop_after``.

Both checkers decide their verdicts through one int64 plan
(:func:`_screened_residuals`), over rows of (name, rank, terms, evaluate):
``check_el2``'s identities and the categorical diagrams, whose terms
column is declared next to them; a term is the one or two tensors it
multiplies.  The integer copy
keeps the height of each tensor, the largest absolute value of its entries,
and a row's residual on it is at most its own bound B, the sum over its
terms of n**(factors - 1) times the heights the term multiplies, with n
the longest contraction (:func:`_diagram_bound`); B also covers the height
of every tensor the row reads.  When B is below 2**63 the row is evaluated
once on int64 tensors, exactly, and a nonzero residual is reported as it
is; the int64 view converts only the tensors whose height fits.
Otherwise the row is evaluated on the residues modulo the fewest primes
whose product exceeds B, stacked on one leading axis
(``exactla.residue_stack``), and only a row nonzero modulo some prime is
evaluated again on Python ints.  A row no prime set covers is evaluated on
Python ints only, as the unscreened bodies (``_check_el2_body``,
``_categorical_body``) evaluate every row.  Only the plan, the bound and
``exactla``'s residue helpers are shared: the two checkers' formulas and
terms stay independent.

Sign conventions: the alternator arrow at (x, y) is ([x,y], -alt(x,y)), the
Jacobiator arrow at (x, y, z) is ([x,[y,z]], -jac(x,y,z)), and the bracket of
two arrow parts is the derived one, [a,b] = [da,b].
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import exactla as xla
from .dkcore import CHAIN_IDENTITIES, TENSOR_PATHS, BilinearBracket, TwoTermComplex
from .exactla import ShapeError, TensorRecord
from .report import CheckReport, ReportError, check_identities


class InvalidStructureError(ReportError):
    """A constructor precondition failed; carries the offending report."""


class PairingError(ValueError):
    """A bilinear form is not symmetric or not invariant."""


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

# The space of every axis of each structure tensor, output axis first: 0 for
# C^0, 1 for C^-1.  Keys in the field order of EL2Algebra.
AXES: dict[str, tuple[int, ...]] = {"b00": (0, 0, 0), "b01": (1, 0, 1), "b10": (1, 1, 0),
                                    "alt": (1, 0, 0), "jac": (1, 0, 0, 0)}

# The axes of each tensor of _tensors(e), in order: d: C^-1 -> C^0, then AXES.
_TENSOR_AXES: tuple[tuple[int, ...], ...] = ((0, 1), *AXES.values())

# The power of den the integer copy puts on each tensor of _tensors(e): it
# moves along den**-2 on C^0 and den**-3 on C^-1, so a tensor gets 2 for each
# C^0 input axis and 3 for each C^-1 input axis, minus its output's weight.
_WEIGHTS = (2, 3)
_POWERS = tuple(sum(_WEIGHTS[k] for k in axes[1:]) - _WEIGHTS[axes[0]] for axes in _TENSOR_AXES)


@dataclass(frozen=True, eq=False)
class EL2Algebra(TensorRecord):
    """A two-term complex with bracket, alternator and Jacobiator tensors."""

    complex: TwoTermComplex
    b00: np.ndarray
    b01: np.ndarray
    b10: np.ndarray
    alt: np.ndarray
    jac: np.ndarray

    def shapes(self):
        dims = (self.complex.n0, self.complex.n1)
        return {name: tuple(dims[k] for k in axes) for name, axes in AXES.items()}

    @property
    def bracket(self) -> BilinearBracket:
        return BilinearBracket(self.complex, self.b00, self.b01, self.b10)


def zero_el2(n0: int, n1: int, d: Optional[np.ndarray] = None, **tensors: np.ndarray) -> EL2Algebra:
    """The structure on C^-1 --d--> C^0 (d = 0 when omitted) with the given
    tensors, keyed as in :data:`AXES`, and zero ones for the others; each
    tensor is converted once, by the record."""
    dims = (n0, n1)
    c = TwoTermComplex(n0, n1, xla.zeros(n0, n1) if d is None else d)
    return EL2Algebra(c, **{name: tensors[name] if name in tensors else xla.zeros(*(dims[k] for k in axes))
                            for name, axes in AXES.items()})


# The axioms the algebra and module validators check, rows of
# exactla.SignedSum (as IDENTITIES) over the bracket b00 = c and the action
# rho.  [x,[y,z]] - [[x,y],z] - [y,[x,z]] is also the bracket part of
# jacobi.000.
_LEIBNIZ = (("+kxyz -kyxz", "kxm,myz->kxyz", "b00", "b00"), ("-kxyz", "kmz,mxy->kxyz", "b00", "b00"))
_AXIOMS = {name: xla.SignedSum(groups) for name, groups in {
    "skew-symmetry": (("+kxy +kyx", "kxy->kxy", "b00"),),
    "jacobi": _LEIBNIZ,
    "leibniz": _LEIBNIZ,
    # rho([x,y]) a - rho(x) rho(y) a + rho(y) rho(x) a
    "module-axiom": (("+mxya", "mka,kxy->mxya", "rho", "b00"), ("-mxya +myxa", "mxb,bya->mxya", "rho", "rho")),
}.items()}


def _validate(message: str, axioms: Sequence[str], **tensors: np.ndarray) -> None:
    """Check the named axioms on the tensors scaled by their common
    denominator D, on Python ints: each residual is D to its row's power
    times the Fraction one.  Raise with the report when one fails."""
    den = xla.common_denominator(*tensors.values())
    ints = SimpleNamespace(**{name: xla.scaled_ints(t, den) for name, t in tensors.items()})
    scale = dict.fromkeys(tensors, 1)
    report = check_identities([(name, _AXIOMS[name](ints), _AXIOMS[name].power(scale)) for name in axioms],
                              den=den)
    if not report.passed:
        raise InvalidStructureError(message, report)


@dataclass(frozen=True, eq=False)
class LieAlgebraFD(TensorRecord):
    """Finite-dimensional Lie algebra by structure constants c[k,i,j]."""

    dim: int
    c: np.ndarray

    def shapes(self):
        return {"c": (self.dim,) * 3}

    def validate(self) -> None:
        _validate("not a Lie algebra", ("skew-symmetry", "jacobi"), b00=self.c)


@dataclass(frozen=True, eq=False)
class LeibnizAlgebraFD(TensorRecord):
    """Bracket satisfying the left Leibniz identity; no skew-symmetry."""

    dim: int
    c: np.ndarray

    def shapes(self):
        return {"c": (self.dim,) * 3}

    def validate(self) -> None:
        _validate("not a Leibniz algebra", ("leibniz",), b00=self.c)


@dataclass(frozen=True, eq=False)
class RepresentationFD(TensorRecord):
    """A module over a Lie algebra: rho[m, x, a] is the action tensor."""

    algebra: LieAlgebraFD
    dim: int
    rho: np.ndarray

    def shapes(self):
        return {"rho": (self.dim, self.algebra.dim, self.dim)}

    def validate(self) -> None:
        _validate("not a representation", ("module-axiom",), b00=self.algebra.c, rho=self.rho)


# ---------------------------------------------------------------------------
# The axiom checker
# ---------------------------------------------------------------------------

# Each identity of check_el2, a row of exactla.SignedSum over d (the field
# of the complex) and the tensors of AXES: groups of (signed placements,
# subscripts, tensor names), each one contraction added once per placement
# with its sign and its axes relabelled.  The chain.* rows are dkcore's.

IDENTITIES: dict[str, tuple[tuple[str, ...], ...]] = {
    **CHAIN_IDENTITIES,
    # [x,y] + [y,x] - d<x,y>, then at an arrow part a: [a,y] + [y,a] - <da,y>
    "skew.00": (("+kxy +kyx", "kxy->kxy", "b00"), ("-kxy", "km,mxy->kxy", "d", "alt")),
    "skew.10": (("+kay", "kay->kay", "b10"), ("+kay", "kya->kay", "b01"), ("-kay", "kmy,ma->kay", "alt", "d")),
    "skew.01": (("+kxb", "kxb->kxb", "b01"), ("+kxb", "kbx->kxb", "b10"), ("-kxb", "kxm,mb->kxb", "alt", "d")),
    # the Leibniz defect (_LEIBNIZ) minus d<x,y,z>, then at an arrow part a:
    # [a,[y,z]] - [[a,y],z] - [y,[a,z]] - <da,y,z>
    "jacobi.000": _LEIBNIZ + (("-kxyz", "km,mxyz->kxyz", "d", "jac"),),
    "jacobi.100": (("+kayz", "kam,myz->kayz", "b10", "b00"), ("-kayz", "kmz,may->kayz", "b10", "b10"),
                   ("-kayz", "kym,maz->kayz", "b01", "b10"), ("-kayz", "kmyz,ma->kayz", "jac", "d")),
    "jacobi.010": (("+kxbz", "kxm,mbz->kxbz", "b01", "b10"), ("-kxbz", "kmz,mxb->kxbz", "b10", "b01"),
                   ("-kxbz", "kbm,mxz->kxbz", "b10", "b00"), ("-kxbz", "kxmz,mb->kxbz", "jac", "d")),
    "jacobi.001": (("+kxyc -kyxc", "kxm,myc->kxyc", "b01", "b01"), ("-kxyc", "kmc,mxy->kxyc", "b01", "b00"),
                   ("-kxyc", "kxym,mc->kxyc", "jac", "d")),
    # [x,<y,z,w>] + <x,[y,z],w> + <x,z,[y,w]> + [<x,y,z>,w] + [z,<x,y,w>]
    #   - <x,y,[z,w]> - <[x,y],z,w> - [y,<x,z,w>] - <y,[x,z],w> - <y,z,[x,w]>
    "coh.bracket-jacobiator": (
        ("+kxyzw", "kmw,mxyz->kxyzw", "b10", "jac"), ("-kxyzw", "kmzw,mxy->kxyzw", "jac", "b00"),
        ("+kxyzw +kzxyw -kyxzw", "kxm,myzw->kxyzw", "b01", "jac"),
        ("+kxyzw -kyxzw", "kxmw,myz->kxyzw", "jac", "b00"),
        ("-kxyzw +kxzyw -kyzxw", "kxym,mzw->kxyzw", "jac", "b00")),
    # <x,y,z> + <y,x,z> + [<x,y>,z]
    "coh.jacobiator-sym12": (("+kxyz +kyxz", "kxyz->kxyz", "jac"), ("+kxyz", "kmz,mxy->kxyz", "b10", "alt")),
    # <x,y,z> + <x,z,y> - [x,<y,z>] + <[x,y],z> + <y,[x,z]>
    "coh.jacobiator-sym23": (("+kxyz +kxzy", "kxyz->kxyz", "jac"), ("-kxyz", "kxm,myz->kxyz", "b01", "alt"),
                             ("+kxyz", "kmz,mxy->kxyz", "alt", "b00"), ("+kxyz", "kym,mxz->kxyz", "alt", "b00")),
    # <x,[y,z]> - <[y,z],x>
    "coh.alternator-bracket": (("+kxyz", "kxm,myz->kxyz", "alt", "b00"),
                               ("-kxyz", "kmx,myz->kxyz", "alt", "b00")),
    # implied: [<x,y>,z], [x,<y,z>], d<x,y> and <da,x> are symmetric
    "red.alternator-left": (("+kxyz -kyxz", "kmz,mxy->kxyz", "b10", "alt"),),
    "red.alternator-right": (("+kxyz -kxzy", "kxm,myz->kxyz", "b01", "alt"),),
    "red.d-alternator": (("+kxy -kyx", "km,mxy->kxy", "d", "alt"),),
    "red.alternator-exact": (("+kax", "kmx,ma->kax", "alt", "d"), ("-kax", "kxm,ma->kax", "alt", "d")),
}

_ROWS = {name: xla.SignedSum(groups, TENSOR_PATHS) for name, groups in IDENTITIES.items()}

EL2_EQUATIONS = tuple((name, row) for name, row in _ROWS.items() if not name.startswith("red."))
EL2_REDUNDANT_EQUATIONS = tuple((name, row) for name, row in _ROWS.items() if name.startswith("red."))

# The rank and the terms of each identity, as in CATEGORICAL_DIAGRAMS: the
# residual has rank basis slots, its output axes but the first, and is a
# signed sum of the terms, one per placement, each an entry of one tensor
# or a contraction over one index of entries of two, named as in _heights.
RESIDUAL_TERMS: dict[str, tuple[int, tuple[tuple[str, ...], ...]]] = {
    name: (len(row.axes) - 1, row.terms) for name, row in _ROWS.items()}

# On the integer copy, where d and alt carry den, the brackets den**2 and jac
# den**3 (_POWERS), each residual is den to this power times the residual of
# the input.
RESIDUAL_POWERS: dict[str, int] = {
    name: row.power(dict(zip(("d", *AXES), _POWERS))) for name, row in _ROWS.items()}


def check_el2(e: EL2Algebra, *, stop_after: Optional[int] = None) -> CheckReport:
    """Evaluate every defining identity on every basis tuple.

    The report lists one violation per (identity, basis tuple) with the exact
    residual vector.  The four implied symmetry identities are re-checked as
    cross-validation under ``red.*`` names, and whether the alternator happens
    to be symmetric is reported as an informational note (it is never
    required).

    Verdicts are exact, and each identity is decided in int64 by the plan
    both axiom checkers share (:func:`_screened_residuals`): the report is
    the one ``_check_el2_body`` gives without the screen.
    """
    return _check_el2_body(*_integer_copy(e), stop_after, screened=True)


def _check_el2_body(e: EL2Algebra, den: int, stop_after: Optional[int], screened: bool = False) -> CheckReport:
    """The checker on ``_integer_copy(x)``, reporting the residuals of x.
    Unscreened, every identity is evaluated on ``e`` as it is, on Python
    ints; screened, each is decided in int64 first."""
    report = CheckReport()
    rows = _identity_rows()

    def identities():
        residuals = _screened_residuals(e, rows) if screened else _plain_residuals(e, rows)
        for name, r in residuals:
            yield name, r, RESIDUAL_POWERS[name]
        # reached only when check_identities has not stopped early
        report.notes.append(_alternator_note(e))

    return check_identities(identities(), den=den, stop_after=stop_after, report=report)


def _identity_rows() -> list[tuple[str, int, int, Callable]]:
    """The (name, rank, terms, evaluate) rows of the identities, read from
    EL2_EQUATIONS and EL2_REDUNDANT_EQUATIONS at call time."""
    return [(name, *RESIDUAL_TERMS[name], lambda view, primes, fn=fn: fn(view))
            for name, fn in EL2_EQUATIONS + EL2_REDUNDANT_EQUATIONS]


def _alternator_note(e: EL2Algebra) -> str:
    symmetric = xla.arrays_equal(e.alt, e.alt.swapaxes(1, 2))
    return f"alternator symmetric: {'yes' if symmetric else 'no'}"


def _width(e: EL2Algebra) -> int:
    """The length of the longest contraction: max(n0, n1, 1)."""
    return max(e.complex.n0, e.complex.n1, 1)


# ---------------------------------------------------------------------------
# The int64 plan of both axiom checkers
# ---------------------------------------------------------------------------

# At most this many int64 entries per prime chunk of a stacked residual of
# width**(rank + 1) entries a prime: a few megabytes per array.
_CHUNK_ENTRIES = 2**19


def _heights(e: SimpleNamespace) -> dict[str, int]:
    """The height of each tensor of the integer copy ``e`` of a structure,
    keyed d, then as in :data:`AXES`."""
    return dict(zip(("d", *AXES), e.heights))


def _diagram_bound(e: SimpleNamespace, terms: Sequence[tuple[str, ...]]) -> int:
    """The bound of a row (as in RESIDUAL_TERMS and CATEGORICAL_DIAGRAMS)
    on the integer copy ``e`` of width n (:func:`_width`): the sum over its
    terms of n**(factors - 1) times the heights of the tensors the term
    multiplies, or the height of a tensor the row reads when that is larger.
    No entry of the residual, of any array its evaluation builds, nor of any
    tensor it reads exceeds it."""
    heights, n = _heights(e), _width(e)
    total = sum(n ** (len(factors) - 1) * math.prod(heights[t] for t in factors) for factors in terms)
    return max([total] + [heights[t] for factors in terms for t in factors])


def _row_plan(e: SimpleNamespace, terms: Sequence[tuple[str, ...]]) -> Optional[tuple[int, ...]]:
    """How :func:`_screened_residuals` decides a row with these terms on
    ``e``: () in int64, the primes of its residues, or None on Python ints,
    the last also when len(terms) contractions of two residues could reach
    2**63."""
    if len(terms) * _width(e) * max(e.heights, default=0) ** 2 < 2**63:
        return ()       # terms * n * M**2, M the largest height, bounds every row: no sum needed
    bound = _diagram_bound(e, terms)
    if bound < 2**63:
        return ()
    fits = len(terms) * _width(e) * xla.RESIDUE_PRIMES[0] ** 2 < 2**63     # the bound at height p
    return xla.residue_primes(bound) if fits else None


def _plain_residuals(e: SimpleNamespace, rows: Sequence) -> Iterator[tuple[str, np.ndarray]]:
    """Each row's residual in order, evaluated on ``e`` as it is."""
    for name, _, _, evaluate in rows:
        yield name, evaluate(e, None)


def _screened_residuals(e: SimpleNamespace, rows: Sequence) -> Iterator[tuple[str, np.ndarray]]:
    """The nonzero residuals of the integer copy ``e`` in order, each row
    of (name, rank, terms, evaluate) decided as its :func:`_row_plan` says.
    The int64 view holds the tensors whose height fits in int64, and None
    for the others, which no row decided in int64 reads.

    ``evaluate(view, primes)`` gives the row's residual on a view: with
    ``primes`` None, on the view's tensors as they are; with an int64
    vector of primes, on residue images stacked on one leading axis, one
    per prime, to be reduced by :func:`_on_residues`."""
    plans = {name: _row_plan(e, terms) for name, _, terms, _ in rows}
    if () in plans.values():
        fits = iter([h < 2**63 for h in e.heights])
        exact = _view(e, lambda t, k: t.astype(np.int64) if next(fits) else None)
    if any(plans.values()):
        images = iter(xla.residue_stack(_tensors(e), max(filter(None, plans.values()), key=len)))
        stack = _view(e, lambda t, k: next(images))
    for name, rank, _, evaluate in rows:
        primes = plans[name]
        if primes == ():
            r = evaluate(exact, None)
            if np.count_nonzero(r):
                yield name, r.astype(object)
        elif primes is None or _flagged(evaluate, rank, stack, primes):
            yield name, evaluate(e, None)


def _flagged(evaluate: Callable, rank: int, stack: SimpleNamespace, primes: Sequence[int]) -> bool:
    """Whether a row is nonzero modulo one of ``primes``, the leading
    primes of the stacked residue images ``stack``, evaluated on chunks of
    at most ``_CHUNK_ENTRIES`` residual entries."""
    step = max(1, _CHUNK_ENTRIES // _width(stack) ** (rank + 1))
    for lo in range(0, len(primes), step):
        chunk = primes[lo:lo + step]
        image = _view(stack, lambda t, k: t[lo:lo + len(chunk)])
        if np.count_nonzero(_on_residues(evaluate, image, chunk)):
            return True
    return False


def _on_residues(evaluate: Callable, image: SimpleNamespace, primes: Sequence[int]) -> np.ndarray:
    """A row's residual on stacked residue images modulo ``primes``, reduced
    in place when the residual is a fresh writeable array, one that shares
    no memory with the images."""
    mods = np.array(primes, dtype=np.int64)
    r = evaluate(image, mods)
    mods = mods.reshape((-1,) + (1,) * (r.ndim - 1))
    if r.flags.writeable and not any(np.may_share_memory(r, t) for t in _tensors(image)):
        return np.remainder(r, mods, out=r)
    return r % mods


def is_semistrict(e: EL2Algebra) -> bool:
    return xla.is_zero(e.alt)


def is_hemistrict(e: EL2Algebra) -> bool:
    return xla.is_zero(e.jac)


def is_strict(e: EL2Algebra) -> bool:
    return is_semistrict(e) and is_hemistrict(e)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def from_leibniz(g: LeibnizAlgebraFD) -> EL2Algebra:
    """The two-term structure of a Leibniz algebra: degree 0 the algebra,
    degree -1 the span of all squared brackets [x,x] with the inclusion as
    differential, alternator <x,y> = [x,y] + [y,x], trivial Jacobiator."""
    n = g.dim
    sym = g.c + g.c.swapaxes(1, 2)
    cols = [sym[:, i, j] for i in range(n) for j in range(i, n)]
    span_matrix = np.empty((n, len(cols)), dtype=object)
    for k, col in enumerate(cols):
        span_matrix[:, k] = col
    ann = xla.image_basis(span_matrix)
    m = ann.dim
    d = ann.basis  # inclusion of the squared-bracket span

    def coords_of(t: np.ndarray) -> np.ndarray:
        """Coordinates in the span of every vector t[:, ...], from one
        elimination."""
        out = xla.membership(ann, t.reshape(n, math.prod(t.shape[1:])))
        if out is None:
            raise InvalidStructureError(
                "bracket does not preserve the squared-bracket span"
            )
        return xla.freeze(out.reshape((m,) + t.shape[1:]))

    b01 = coords_of(xla.precompose(g.c, 2, d))   # [e_i, d e_a]: (m, n, m)
    b10 = coords_of(xla.precompose(g.c, 1, d))   # [d e_a, e_i]: (m, m, n)
    alt = coords_of(sym)
    return zero_el2(n, m, d, b00=g.c, b01=b01, b10=b10, alt=alt)


def _check_pairing(g: LieAlgebraFD, pairing: np.ndarray) -> np.ndarray:
    pairing = xla.as_exact(pairing)
    if pairing.shape != (g.dim, g.dim):
        raise ShapeError(f"pairing shape {pairing.shape}, expected {(g.dim, g.dim)}")
    if not xla.arrays_equal(pairing, pairing.T):
        raise PairingError("pairing is not symmetric")
    # <[x,y],z> + <y,[x,z]> = 0 on basis triples
    t1 = np.tensordot(pairing, g.c, axes=([0], [0]))              # (z, x, y)
    t_left = np.transpose(t1, (1, 2, 0))                          # <[x,y],z> as (x,y,z)
    t_right = np.transpose(np.tensordot(pairing, g.c, axes=([1], [0])), (1, 0, 2))
    # t_right[x,y,z] = sum_m pairing[y,m] c[m,x,z] = <y,[x,z]>
    resid = t_left + t_right
    if not xla.is_zero(resid):
        bad = next(
            idx
            for idx in itertools.product(*(range(s) for s in resid.shape))
            if resid[idx] != 0
        )
        raise PairingError(f"pairing is not invariant, first violation at basis triple {bad}")
    return pairing


def from_quadratic_lie(g: LieAlgebraFD, pairing: np.ndarray) -> EL2Algebra:
    """Hemistrict structure of a Lie algebra with an invariant symmetric
    form: degree -1 is one-dimensional, d = 0, the mixed brackets vanish and
    the alternator is the form itself."""
    pairing = _check_pairing(g, pairing)
    n = g.dim
    return zero_el2(n, 1, b00=g.c, alt=pairing.reshape(1, n, n))


def string_2_algebra(g: LieAlgebraFD, pairing: np.ndarray) -> EL2Algebra:
    """Semistrict cousin of :func:`from_quadratic_lie` on the same carrier:
    trivial alternator and Jacobiator -1/2 <[x,y], z>."""
    pairing = _check_pairing(g, pairing)
    n = g.dim
    jac = np.tensordot(g.c, pairing, axes=([0], [0])) * xla.Rat(-1, 2)
    return zero_el2(n, 1, b00=g.c, jac=jac.reshape(1, n, n, n))


def from_skeletal_cocycle(
    g: LieAlgebraFD, m: RepresentationFD, s: np.ndarray, j: np.ndarray
) -> EL2Algebra:
    """Skeletal structure on (algebra, module) with alternator s and
    Jacobiator j; (s, j) must satisfy the degree-3 cocycle equations."""
    from . import cohom  # deferred: cohom depends on this module

    pair = cohom.CocyclePair(s, j)
    ok, report = cohom.is_cocycle(g, m, pair)
    if not ok:
        raise cohom.CocycleError("not a cocycle pair", report)
    n, dm = g.dim, m.dim
    return EL2Algebra(
        TwoTermComplex(n, dm, xla.zeros(n, dm)),
        g.c,
        m.rho,
        xla.freeze(-m.rho.swapaxes(1, 2)),
        pair.s,
        pair.j,
    )


def extract_skeletal_data(e: EL2Algebra) -> tuple[LieAlgebraFD, RepresentationFD]:
    """Lie algebra and module carried by a skeletal structure (d = 0)."""
    if not e.complex.is_skeletal:
        raise InvalidStructureError("structure is not skeletal")
    g = LieAlgebraFD(e.complex.n0, e.b00)
    m = RepresentationFD(g, e.complex.n1, e.b01)
    return g, m


def direct_sum(a: EL2Algebra, b: EL2Algebra) -> EL2Algebra:
    """Block sum of two structures; all identities hold componentwise.  Each
    tensor of a fills the leading block of each of its axes and the one of b
    the trailing block; every mixed block is zero."""
    dims_a, dims_b = (a.complex.n0, a.complex.n1), (b.complex.n0, b.complex.n1)

    def block(ta: np.ndarray, tb: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        out = xla.zeros(*(dims_a[k] + dims_b[k] for k in axes)).copy()
        out[tuple(slice(dims_a[k]) for k in axes)] = ta
        out[tuple(slice(dims_a[k], None) for k in axes)] = tb
        return out

    d, *tensors = map(block, _tensors(a), _tensors(b), _TENSOR_AXES)
    return EL2Algebra(TwoTermComplex(*d.shape, d), *tensors)


def transport(e: EL2Algebra, phi0: np.ndarray, phi1: np.ndarray) -> EL2Algebra:
    """Push the structure forward along an invertible change of coordinates
    (phi0 on objects, phi1 on arrow parts); strict isomorphisms preserve
    every identity.

    Each tensor, d included, goes through :func:`_push`: (phi0, phi1) on its
    output axis and their inverses on its input axes, each map scaled once
    per call."""
    phi0, phi1 = xla.as_exact(phi0), xla.as_exact(phi1)
    outs = (_scaled(phi0), _scaled(phi1))
    ins = (_scaled(xla.inverse(phi0)), _scaled(xla.inverse(phi1)))
    d, *tensors = (_push(t, axes, outs, ins) for t, axes in zip(_tensors(e), _TENSOR_AXES))
    return EL2Algebra(TwoTermComplex(e.complex.n0, e.complex.n1, d), *tensors)


def _scaled(t: np.ndarray) -> tuple[np.ndarray, int]:
    """t times its common denominator, as Python ints, and that denominator."""
    den = xla.common_denominator(t)
    return xla.scaled_ints(t, den), den


def _push(t: np.ndarray, axes: tuple[int, ...], outs: Sequence, ins: Sequence) -> np.ndarray:
    """t, with axes in the spaces ``axes`` (as in :data:`AXES`), mapped by
    ``outs[space]`` on its output axis and precomposed with ``ins[space]`` on
    each input axis, each map an (ints, den) pair of :func:`_scaled`.  The
    scaled t is contracted with the scaled maps on Python ints and divided
    once, so the tensor is the one Fraction evaluation gives."""
    out, den = _scaled(t)
    m, m_den = outs[axes[0]]
    out, den = xla.postcompose(m, out), den * m_den
    for slot, kind in enumerate(axes[1:], start=1):
        m, m_den = ins[kind]
        out, den = xla.precompose(out, slot, m), den * m_den
    return xla.unscaled(out, den)


def _slots(x) -> tuple[tuple[object, str], ...]:
    """(owner, field name) of every tensor of a structure, a morphism or a
    2-morphism (a record or a view), in the order :func:`_view` converts
    them; d is a field of the complex."""
    if hasattr(x, "theta"):
        return (*_slots(x.src), *_slots(x.dst), (x, "theta"))
    if hasattr(x, "f2"):
        return (*_slots(x.src), *_slots(x.dst), (x, "f0"), (x, "f1"), (x, "f2"))
    return ((x.complex, "d"), *((x, name) for name in AXES))


def _tensors(x) -> tuple[np.ndarray, ...]:
    """Every tensor of a structure, a morphism or a 2-morphism (a record or
    a view), in the order :func:`_view` converts them."""
    return tuple(getattr(owner, name) for owner, name in _slots(x))


def _view(x, convert: Callable[[np.ndarray, int], np.ndarray], s: int = 1) -> SimpleNamespace:
    """The check-local view of a structure, a morphism or a 2-morphism ``x``
    (a record or a view): a namespace of the attributes the residual
    functions read, each tensor t replaced by ``convert(t, k)``.

    k is the power of den that the integer copy puts on t, times ``s``.  A
    structure moves along den**-2 on objects and den**-3 on arrow parts, so
    a tensor gets 2 for each C^0 input axis of :data:`AXES` and 3 for each
    C^-1 input axis, minus 2 or 3 for its output (:data:`_POWERS`): den on
    d and alt, den**2 on the brackets and den**3 on jac.  The source of a
    morphism moves along den**-4 and den**-6 (the structure powers doubled)
    and its target along den**-2 and den**-3, which puts den**2, den**3 and
    den**5 on f0, f1 and f2; a 2-morphism's morphisms move that way and
    theta gets den.  Every power is positive, so with den a common
    denominator of every entry the integer copy holds Python ints.
    """
    if hasattr(x, "theta"):
        return SimpleNamespace(src=_view(x.src, convert, s), dst=_view(x.dst, convert, s),
                               theta=convert(x.theta, s))
    if hasattr(x, "f2"):
        return SimpleNamespace(
            src=_view(x.src, convert, 2 * s), dst=_view(x.dst, convert, s),
            f0=convert(x.f0, 2 * s), f1=convert(x.f1, 3 * s), f2=convert(x.f2, 5 * s),
        )
    d, *tensors = (convert(t, k * s) for t, k in zip(_tensors(x), _POWERS))
    c = SimpleNamespace(n0=x.complex.n0, n1=x.complex.n1, d=d)
    return SimpleNamespace(complex=c, **dict(zip(AXES, tensors)))


def _integer_copy(x) -> tuple[SimpleNamespace, int]:
    """The integer view of a structure, a morphism or a 2-morphism record
    that its checker runs on, and its den.

    Each tensor t of x comes from the integer form its record memoizes
    (``TensorRecord.integer_form``): den is the lcm of their dens, a common
    denominator of every entry, and the view tensor is the form's ints times
    ``den**k // den_t``, with k its power in :func:`_view`; a factor of 1
    takes the form's array as it is.  The view's ``heights`` are the
    largest absolute values of its tensors' entries, in the order of
    :func:`_tensors`: each ``height_t`` times its factor."""
    forms = [owner.integer_form(name) for owner, name in _slots(x)]
    den = math.lcm(*(form.den for form in forms))
    heights = []

    def scale(t: np.ndarray, k: int, form=iter(forms)) -> np.ndarray:
        ints, den_t, height = next(form)
        factor = den**k // den_t
        heights.append(height * factor)
        return ints if factor == 1 else xla.freeze(ints * factor)

    view = _view(x, scale)
    view.heights = tuple(heights)
    return view, den


# ---------------------------------------------------------------------------
# Categorical coherence: the independent checker
# ---------------------------------------------------------------------------

EL2_TO_CATEGORICAL: dict[str, str] = {
    "chain.b01": "cat.target.b01",
    "chain.b10": "cat.target.b10",
    "chain.derived": "cat.compose",
    "skew.00": "cat.alternator.arrow",
    "skew.10": "cat.alternator.nat10",
    "skew.01": "cat.alternator.nat01",
    "jacobi.000": "cat.jacobiator.arrow",
    "jacobi.100": "cat.jacobiator.nat100",
    "jacobi.010": "cat.jacobiator.nat010",
    "jacobi.001": "cat.jacobiator.nat001",
    "coh.bracket-jacobiator": "cat.pentagon",
    "coh.jacobiator-sym12": "cat.triangle-sym12",
    "coh.jacobiator-sym23": "cat.square-sym23",
    "coh.alternator-bracket": "cat.triangle-symm",
}

CATEGORICAL_TO_EL2: dict[str, str] = {v: k for k, v in EL2_TO_CATEGORICAL.items()}


class _Arrow(NamedTuple):
    """An arrow (object, arrow part) of the associated category; each
    component is a batched argument of :class:`_GammaEvaluator`."""

    obj: object
    part: object


# The pattern entry of a batched argument in :func:`_apply_plan`; a basis
# argument enters as its tuple axis.
_BATCHED = -1


@functools.lru_cache(maxsize=None)
def _apply_plan(rank: int, residues: bool, pattern: tuple[int, ...]) -> tuple:
    """How :meth:`_GammaEvaluator._apply` evaluates a tensor (out, m_1, ...,
    m_r), with a leading prime axis when ``residues``, on r arguments over
    ``rank`` tuple axes: ``pattern`` holds, for each argument, the tuple
    axis it runs along or :data:`_BATCHED`.

    The plan is (subscripts, perm, index).  With a batched argument it is
    one einsum whose tuple axes broadcast (perm and index None).  With basis
    arguments only, the tensor's input axes become their tuple axes, with
    no arithmetic: by the transpose perm when the axes are distinct
    (subscripts None), by an einsum taking the diagonal when one repeats
    (perm None); index then inserts a unit axis for each tuple axis no
    argument runs along.  The table holds strings and tuples, no arrays."""
    axes, lead = "abcd"[:rank], "y" if residues else ""
    subs, out = [lead + "z"], lead + "z"
    for slot, p in enumerate(pattern):
        if p == _BATCHED:
            subs[0] += "pqr"[slot]
            subs.append(lead + "pqr"[slot] + axes)
        else:
            subs[0] += axes[p]
    if len(subs) > 1:
        return ",".join(subs) + "->" + out + axes, None, None
    used = sorted(set(pattern))
    index = (slice(None),) * len(out) + tuple(slice(None) if p in used else None for p in range(rank))
    if len(used) < len(pattern):
        return subs[0] + "->" + out + "".join(axes[p] for p in used), None, index
    order = sorted(range(len(pattern)), key=pattern.__getitem__)
    return None, tuple(range(len(out))) + tuple(len(out) + slot for slot in order), index


class _GammaEvaluator:
    """Arrow-level evaluation of the structure on the associated category,
    over every basis tuple of a diagram at once.

    Implements the operations of :class:`~lie2alg.dkcore.BilinearBracket` and
    :func:`~lie2alg.dkcore.compose_arrows` on batched arguments.  A diagram on
    ``rank`` basis slots has tuple axes 0, ..., rank - 1, and an argument is

    * an int p: the basis vector that runs along tuple axis p, so the
      tensor's input axis becomes that tuple axis at no arithmetic cost: a
      call on distinct basis arguments only returns a transposed view of
      the tensor and calls no einsum;
    * an array of shape (n, s_0, ..., s_{rank-1}), one vector per basis
      tuple, with s_p = 1 along each axis p it does not depend on;
    * None: the zero vector, the part of an identity arrow or the object 0;
      terms multiplied by it are elided.

    Every operation returns arrays of the second kind; the object of an
    arrow from :meth:`on_arrows` is None when it is 0.  A call looks up its
    einsum subscripts, or its transpose, in :func:`_apply_plan`, a table
    keyed by the rank, the residue mode and the pattern of its arguments,
    so they are built once per pattern, not once per call.  Agreement with
    the reference arrow operations at every index is pinned by tests.

    The tensors of ``e`` hold Python ints (or Fractions), or int64
    entries.  With ``primes`` (an int64 vector), each tensor and each array
    carries one leading axis more, a residue image per prime, and every
    product and every sum is reduced modulo its prime, so each entry an operation
    returns lies in (-p, p).  Each product then is of a tensor entry and at
    most one batched entry, summed over one contraction, which stays below
    ``max(n0, n1) * p**2`` in absolute value."""

    def __init__(self, e: EL2Algebra, rank: int, primes: Optional[np.ndarray] = None):
        self.e = e
        self.rank = rank
        self.mod = None if primes is None else primes.reshape((-1,) + (1,) * (rank + 1))

    def _apply(self, t: np.ndarray, *args) -> Optional[np.ndarray]:
        """t (out, m_1, ..., m_r) on r batched arguments, as planned by
        :func:`_apply_plan` for their pattern; None when an argument is zero."""
        pattern, batched = [], []
        for a in args:
            if a is None:
                return None
            if isinstance(a, int):
                pattern.append(a)
            else:
                pattern.append(_BATCHED)
                batched.append(a)
        subscripts, perm, index = _apply_plan(self.rank, self.mod is not None, tuple(pattern))
        if batched:
            out = np.einsum(subscripts, t, *batched)
            return out if self.mod is None else out % self.mod
        return (t.transpose(perm) if subscripts is None else np.einsum(subscripts, t))[index]

    def _sum(self, n: int, *terms: Optional[np.ndarray]) -> np.ndarray:
        """The sum of the terms that are not elided, reduced when it adds
        two or more; zero when all are elided."""
        total, added = None, False
        for term in terms:
            if term is None:
                continue
            if total is None:
                total = term
            else:
                total, added = total + term, True
        if total is None:
            # zeros of the tensors' dtype: a Fraction constant would turn the
            # integer-scaled run back into Fraction arithmetic.  b00 is None
            # only in the int64 view, when it is too wide for int64
            lead = () if self.mod is None else self.mod.shape[:1]
            dtype = np.int64 if self.e.b00 is None else self.e.b00.dtype
            return np.zeros(lead + (n,) + (1,) * self.rank, dtype=dtype)
        return total % self.mod if added and self.mod is not None else total

    def one(self, x) -> _Arrow:
        return _Arrow(x, None)

    def part_arrow(self, a) -> _Arrow:
        """The arrow (0, a): 0 -> d a."""
        return _Arrow(None, a)

    def target(self, f: _Arrow) -> np.ndarray:
        """x + d a for f = (x, a); x is an array or None."""
        return self._sum(self.e.complex.n0, f.obj, self._apply(self.e.complex.d, f.part))

    def b(self, x, y) -> np.ndarray:
        return self._sum(self.e.complex.n0, self._apply(self.e.b00, x, y))

    def on_arrows(self, f: _Arrow, g: _Arrow) -> _Arrow:
        """[(x,a), (y,b)] = ([x,y], [x,b] + [a,y] + [da,b]).

        Terms multiplied by a zero object or by the zero part of an identity
        arrow are elided, so the object is None when x or y is."""
        e = self.e
        derived = None if g.part is None else self._apply(e.b01, self._apply(e.complex.d, f.part), g.part)
        part = self._sum(
            e.complex.n1, self._apply(e.b01, f.obj, g.part), self._apply(e.b10, f.part, g.obj), derived
        )
        return _Arrow(self._apply(e.b00, f.obj, g.obj), part)

    def whisk_left(self, x, part) -> np.ndarray:
        """The part of [1_x, A] for an arrow A with the given part."""
        return self.on_arrows(self.one(x), _Arrow(None, part)).part

    def whisk_right(self, part, y) -> np.ndarray:
        """The part of [A, 1_y]."""
        return self.on_arrows(_Arrow(None, part), self.one(y)).part

    def s_part(self, x, y) -> np.ndarray:
        return -self._sum(self.e.complex.n1, self._apply(self.e.alt, x, y))

    def j_part(self, x, y, z) -> np.ndarray:
        return -self._sum(self.e.complex.n1, self._apply(self.e.jac, x, y, z))

    def alternator_arrow(self, x, y) -> _Arrow:
        """([x,y], -alt(x,y)): the component of the alternator at (x, y)."""
        return _Arrow(self.b(x, y), self.s_part(x, y))

    def jacobiator_arrow(self, x, y, z) -> _Arrow:
        """([x,[y,z]], -jac(x,y,z)): the component of the Jacobiator."""
        return _Arrow(self.b(x, self.b(y, z)), self.j_part(x, y, z))


def categorical_coherence_check(e: EL2Algebra, *, stop_after: Optional[int] = None) -> CheckReport:
    """Re-derive the structure identities on the linear category.

    Checks, in order: the bracket of arrows has functorial targets and
    preserves composition; the alternator and Jacobiator components are
    arrows with the required targets; both are natural against arrows with
    pure arrow parts; and the four coherence diagrams commute, comparing the
    arrow parts of both composite paths.  Each diagram is evaluated once,
    over all its basis tuples at once.

    Verdicts are exact, and each diagram is decided in int64 by the plan
    both axiom checkers share (:func:`_screened_residuals`): the report is
    the one ``_categorical_body`` gives without the screen.
    """
    return _categorical_body(*_integer_copy(e), stop_after, screened=True)


def _categorical_body(
    e: EL2Algebra, den: int, stop_after: Optional[int], screened: bool = False
) -> CheckReport:
    """The checker on ``_integer_copy(x)``, reporting the residuals of x;
    each identity carries the power of its partner in RESIDUAL_POWERS.
    Unscreened, every diagram is evaluated on ``e`` as it is, on Python
    ints; screened, each is decided in int64 first (:func:`_screened_residuals`)."""
    rows = _diagram_rows()
    residuals = _screened_residuals(e, rows) if screened else _plain_residuals(e, rows)
    identities = ((name, r, RESIDUAL_POWERS[CATEGORICAL_TO_EL2[name]]) for name, r in residuals)
    return check_identities(identities, den=den, stop_after=stop_after)


def _diagram_rows() -> list[tuple[str, int, int, Callable]]:
    """The (name, rank, terms, evaluate) rows of the diagrams, read from
    CATEGORICAL_DIAGRAMS at call time: each evaluates its diagram with a
    :class:`_GammaEvaluator` of its rank."""
    return [(name, rank, terms, lambda view, primes, rank=rank, diagram=diagram:
             diagram(_GammaEvaluator(view, rank, primes)))
            for name, rank, terms, diagram in CATEGORICAL_DIAGRAMS]


# ---------------------------------------------------------------------------
# The diagrams, each a function of an evaluator of its rank; the variable
# names give the tuple axes in order.
# ---------------------------------------------------------------------------

def _cat_target_b01(ev: _GammaEvaluator) -> np.ndarray:
    # t([1_x, (0,b)]) = [x, db]
    x, b = 0, 1
    B = ev.part_arrow(b)
    return ev.target(ev.on_arrows(ev.one(x), B)) - ev.b(x, ev.target(B))


def _cat_target_b10(ev: _GammaEvaluator) -> np.ndarray:
    # t([(0,a), 1_y]) = [da, y]
    a, y = 0, 1
    A = ev.part_arrow(a)
    return ev.target(ev.on_arrows(A, ev.one(y))) - ev.b(ev.target(A), y)


def _cat_compose(ev: _GammaEvaluator) -> np.ndarray:
    # [A'A, B'B] = [A',B'][A,B] for the composable pairs
    # A = 1_0 then A' = (0, a);  B = (0, b) then B' = 1_{db}.
    a, b = 0, 1
    A, Ap = ev.one(None), ev.part_arrow(a)
    AA = _Arrow(None, Ap.part)  # Ap after A: parts add
    B = ev.part_arrow(b)
    Bp = ev.one(ev.target(B))
    BB = _Arrow(None, B.part)  # Bp after B
    first, second = ev.on_arrows(A, B), ev.on_arrows(Ap, Bp)
    return ev.on_arrows(AA, BB).part - (first.part + second.part)


def _cat_alternator_arrow(ev: _GammaEvaluator) -> np.ndarray:
    # t(S_{x,y}) = -[y,x]
    x, y = 0, 1
    return ev.target(ev.alternator_arrow(x, y)) + ev.b(y, x)


def _cat_alternator_nat10(ev: _GammaEvaluator) -> np.ndarray:
    # S against ((0,a), 1_y)
    a, y = 0, 1
    A = ev.part_arrow(a)
    da = ev.target(A)
    lhs = ev.on_arrows(A, ev.one(y)).part + ev.s_part(da, y)
    rhs = ev.s_part(None, y) - ev.on_arrows(ev.one(y), A).part
    return lhs - rhs


def _cat_alternator_nat01(ev: _GammaEvaluator) -> np.ndarray:
    # S against (1_x, (0,b))
    x, b = 0, 1
    B = ev.part_arrow(b)
    db = ev.target(B)
    lhs = ev.on_arrows(ev.one(x), B).part + ev.s_part(x, db)
    rhs = ev.s_part(x, None) - ev.on_arrows(B, ev.one(x)).part
    return lhs - rhs


def _cat_jacobiator_arrow(ev: _GammaEvaluator) -> np.ndarray:
    # t(J_{x,y,z}) = [[x,y],z] + [y,[x,z]]
    x, y, z = 0, 1, 2
    want = ev.b(ev.b(x, y), z) + ev.b(y, ev.b(x, z))
    return ev.target(ev.jacobiator_arrow(x, y, z)) - want


def _cat_jacobiator_nat100(ev: _GammaEvaluator) -> np.ndarray:
    # Jacobiator naturality against one pure-arrow-part argument, here the first
    a, y, z = 0, 1, 2
    A = ev.part_arrow(a)
    da = ev.target(A)
    ab = ev.on_arrows(A, ev.one(y))
    ac = ev.on_arrows(A, ev.one(z))
    lhs = ev.on_arrows(A, ev.one(ev.b(y, z))).part + ev.j_part(da, y, z)
    rhs = (
        ev.j_part(None, y, z)
        + ev.on_arrows(ab, ev.one(z)).part
        + ev.on_arrows(ev.one(y), ac).part
    )
    return lhs - rhs


def _cat_jacobiator_nat010(ev: _GammaEvaluator) -> np.ndarray:
    x, b, z = 0, 1, 2
    B = ev.part_arrow(b)
    db = ev.target(B)
    xb = ev.on_arrows(ev.one(x), B)
    inner = ev.on_arrows(B, ev.one(z))
    lhs = ev.on_arrows(ev.one(x), inner).part + ev.j_part(x, db, z)
    rhs = (
        ev.j_part(x, None, z)
        + ev.on_arrows(xb, ev.one(z)).part
        + ev.on_arrows(B, ev.one(ev.b(x, z))).part
    )
    return lhs - rhs


def _cat_jacobiator_nat001(ev: _GammaEvaluator) -> np.ndarray:
    x, y, c = 0, 1, 2
    C = ev.part_arrow(c)
    dc = ev.target(C)
    inner = ev.on_arrows(ev.one(y), C)
    xc = ev.on_arrows(ev.one(x), C)
    lhs = ev.on_arrows(ev.one(x), inner).part + ev.j_part(x, y, dc)
    rhs = (
        ev.j_part(x, y, None)
        + ev.on_arrows(ev.one(ev.b(x, y)), C).part
        + ev.on_arrows(ev.one(y), xc).part
    )
    return lhs - rhs


# the four coherence diagrams, compared by total path arrow parts;
# identity-side terms are elided by the composition law itself

def _cat_pentagon(ev: _GammaEvaluator) -> np.ndarray:
    j, br, wl, wr = ev.j_part, ev.b, ev.whisk_left, ev.whisk_right
    x, y, z, w = 0, 1, 2, 3
    left = (
        wl(x, j(y, z, w))
        + j(x, br(y, z), w)
        + j(x, z, br(y, w))
        + wr(j(x, y, z), w)
        + wl(z, j(x, y, w))
    )
    right = (
        j(x, y, br(z, w))
        + j(br(x, y), z, w)
        + wl(y, j(x, z, w))
        + j(y, br(x, z), w)
        + j(y, z, br(x, w))
    )
    return left - right


def _cat_triangle_sym12(ev: _GammaEvaluator) -> np.ndarray:
    # [S_{x,y}, z] then minus the flipped Jacobiator at (y, x, z), against
    # the flipped Jacobiator at (x, y, z); the flip carries part +jac, so
    # both appearances enter as j_part here
    x, y, z = 0, 1, 2
    return ev.whisk_right(ev.s_part(x, y), z) + ev.j_part(y, x, z) + ev.j_part(x, y, z)


def _cat_square_sym23(ev: _GammaEvaluator) -> np.ndarray:
    x, y, z = 0, 1, 2
    path_a = ev.whisk_left(x, ev.s_part(y, z)) - ev.j_part(x, z, y)
    path_b = ev.j_part(x, y, z) + ev.s_part(ev.b(x, y), z) + ev.s_part(y, ev.b(x, z))
    return path_a - path_b


def _cat_triangle_symm(ev: _GammaEvaluator) -> np.ndarray:
    x, y, z = 0, 1, 2
    yz = ev.b(y, z)
    return ev.s_part(x, yz) - ev.s_part(yz, x)


# (name, rank, terms, diagram) in report order: rank is the number of basis
# slots, and the residual is a signed sum of the terms, each an entry of one
# tensor or a contraction over one index of entries of two, named as in
# _heights, in the order the diagram adds them.
CATEGORICAL_DIAGRAMS: tuple[tuple[str, int, tuple[tuple[str, ...], ...], Callable[[_GammaEvaluator], np.ndarray]],
                            ...] = (
    ("cat.target.b01", 2, (("d", "b01"), ("b00", "d")), _cat_target_b01),
    ("cat.target.b10", 2, (("d", "b10"), ("b00", "d")), _cat_target_b10),
    ("cat.compose", 2, (("b01", "d"), ("b10", "d")), _cat_compose),
    ("cat.alternator.arrow", 2, (("b00",), ("d", "alt"), ("b00",)), _cat_alternator_arrow),
    ("cat.alternator.nat10", 2, (("b10",), ("alt", "d"), ("b01",)), _cat_alternator_nat10),
    ("cat.alternator.nat01", 2, (("b01",), ("alt", "d"), ("b10",)), _cat_alternator_nat01),
    ("cat.jacobiator.arrow", 3, (("b00", "b00"), ("d", "jac"), ("b00", "b00"), ("b00", "b00")),
     _cat_jacobiator_arrow),
    ("cat.jacobiator.nat100", 3, (("b10", "b00"), ("jac", "d"), ("b10", "b10"), ("b01", "b10")),
     _cat_jacobiator_nat100),
    ("cat.jacobiator.nat010", 3, (("b01", "b10"), ("jac", "d"), ("b10", "b01"), ("b10", "b00")),
     _cat_jacobiator_nat010),
    ("cat.jacobiator.nat001", 3, (("b01", "b01"), ("jac", "d"), ("b01", "b00"), ("b01", "b01")),
     _cat_jacobiator_nat001),
    ("cat.pentagon", 4, (("b01", "jac"), ("jac", "b00"), ("jac", "b00"), ("b10", "jac"), ("b01", "jac"),
                         ("jac", "b00"), ("jac", "b00"), ("b01", "jac"), ("jac", "b00"), ("jac", "b00")),
     _cat_pentagon),
    ("cat.triangle-sym12", 3, (("b10", "alt"), ("jac",), ("jac",)), _cat_triangle_sym12),
    ("cat.square-sym23", 3, (("b01", "alt"), ("jac",), ("jac",), ("alt", "b00"), ("alt", "b00")),
     _cat_square_sym23),
    ("cat.triangle-symm", 3, (("alt", "b00"), ("alt", "b00")), _cat_triangle_symm),
)
