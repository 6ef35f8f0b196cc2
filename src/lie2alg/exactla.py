"""Exact rational linear and multilinear algebra.

Everything in this package is computed over the rationals, with scalars
represented by :class:`fractions.Fraction` stored in numpy arrays of dtype
``object``.  Matrices are 2-d arrays acting on column vectors; a multilinear
map is stored as a dense array whose axis 0 indexes the output coordinate and
whose remaining axes index the input slots, so ``T[k, i, j]`` is the k-th
coordinate of the map applied to the pair of basis vectors ``(e_i, e_j)``.

All operations are pure and deterministic: row reduction scans columns left to
right and picks the first usable pivot, kernel vectors are enumerated by
increasing free column, and quotient representatives are produced by greedy
pivot extension.  Arrays returned by this module are frozen (non-writeable).

Every tensor of a domain record (:class:`TensorRecord`), whose shapes each
record type declares once, enters through :func:`as_exact`, the one
per-entry converter (:func:`vector`, :func:`matrix`, :func:`tensor` and
:func:`identity` use it too): a record holds frozen Fractions only, and an
entry that is not an exact rational (a float, a boolean, a malformed
string) is refused when the record is built, not later in arithmetic.

Zero-dimensional spaces are legal everywhere; contractions over an empty axis
produce integer zeros, which compare equal to ``Fraction(0)`` and mix safely
with exact arithmetic.

Fraction arithmetic normalizes by a gcd on every operation, so the hot
paths follow one rule: clear denominators once (:func:`common_denominator`,
:func:`scaled_ints`), evaluate once on Python ints, and divide once by a
known scale.  A construction (``el2.transport``, ``cohom.coboundary``,
``skew.skew_jacobiator``) divides each output tensor (:func:`unscaled`).  A
check (the axiom checkers, the algebra and module validators,
``cohom.is_cocycle``, ``defo.crossed_module_identities_report``) gives each
identity's residual one known power of the denominator and hands it, with
that power, to ``report.check_identities``, which divides only the
violating residuals.  A record clears each tensor's denominators once:
:meth:`TensorRecord.integer_form` memoizes the tensor's numerators at its
own common denominator, outside the record's fields, and every check on
the record scales these forms into a check-local view (a plain namespace
of the attributes its residual functions read), which is never a record.
Verdicts, values, residuals and entry types are the ones Fraction
evaluation gives.

A check decides most of its verdicts without Python ints at all.  Given
a bound B on the absolute value of a residual, it evaluates the residual
on int64 tensors: exactly when B is below 2**63, and otherwise on the
images of the integer tensors modulo the fewest primes of
:data:`RESIDUE_PRIMES` whose product exceeds B (:func:`residue_primes`),
stacked on one leading axis (:func:`residue_stack`).  A residual that is
zero modulo each of them is zero, by the Chinese remainder theorem, since
its absolute value is below their product; only one that is nonzero
modulo some prime is evaluated again, once, on Python ints, for its exact
residual.  ``el2`` holds the one plan that makes this choice for both
axiom checkers.  The tensor checker's formulas are written with
:func:`einsum`, which lets leading axes pass through every operand, so one
formula evaluates Python ints, Fractions, int64 tensors and stacked
residues.

Row reduction is fraction-free for the same reason: :func:`rref` clears
denominators row by row, eliminates on Python ints (Bareiss) and divides once
at the end.  The reduced row-echelon form of a row space is unique, so the
RREF, its pivots and every basis derived from them (kernel, image, solutions,
quotient representatives) are the ones Fraction elimination gives.  The
kernels take arrays of any dtype: one that is not object goes through
:func:`as_exact`, and :func:`rref` refuses an object entry that is not
rational, a boolean included, while it clears denominators.  The
contraction helpers, :func:`einsum` among them, and :func:`alternate` take
object and integer arrays and refuse float, complex and boolean dtypes
from the dtype alone.  Bases
independent by construction (the identity, kernel and image bases) skip the
rank check the public :class:`Subspace` constructor makes.

Every convention and subspace question has one helper here: the sign of a
permutation, with an optional Koszul sign (:func:`perm_sign`); the product
of two exterior monomials, as a sign and a merged increasing index tuple
(:func:`wedge`), behind the exterior-algebra fixtures of ``catalog`` and
the Chevalley-Eilenberg differential of ``cohom``; the signed sum
over the permutations of a tensor's input axes (:func:`alternate`), behind
skew-symmetrization and alternating cochains; and coordinates modulo a
subspace against chosen representatives (:func:`coset_coordinates`), one
solve of ``[B | reps] x = v``.  Coordinates along a square change of basis
are read off one :func:`inverse`.

:func:`solve` takes a vector or a matrix of right-hand sides, and so do
:func:`membership` and :func:`coset_coordinates`: each subspace question is
one elimination, however many vectors it asks about.

String scalars are ``-?digits`` or ``-?digits/digits`` with at most
:data:`MAX_LITERAL_DIGITS` digits in each part.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

import numpy as np

Rat = Fraction
Scalar = Union[int, str, Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)

# Below Python's 4300-digit limit on int <-> str conversion, so every accepted
# literal converts and renders.
MAX_LITERAL_DIGITS = 1000
_LITERAL = re.compile(rf"-?[0-9]{{1,{MAX_LITERAL_DIGITS}}}(/[0-9]{{1,{MAX_LITERAL_DIGITS}}})?")


class ExactLinearAlgebraError(ValueError):
    """Base class for errors raised by this module."""


class ShapeError(ExactLinearAlgebraError):
    """Operands have incompatible shapes or dimensions."""


class SubspaceError(ExactLinearAlgebraError):
    """A subspace argument violates a containment precondition."""


def rat(value: Scalar) -> Fraction:
    """Coerce ``value`` to a reduced Fraction.  Accepts ints (numpy integer
    scalars too), Fractions and strings like ``"3"`` or ``"-3/4"`` (see
    :data:`MAX_LITERAL_DIGITS`)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ShapeError("booleans are not rational scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, np.integer):
        return Fraction(int(value))
    if isinstance(value, str):
        if _LITERAL.fullmatch(value):
            try:
                return Fraction(value)
            except ZeroDivisionError:
                reason = "zero denominator"
        else:
            reason = (f"expected an integer or 'p/q' with at most {MAX_LITERAL_DIGITS} "
                      "digits in each part")
        shown = repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
        raise ShapeError(f"invalid rational literal {shown}: {reason}")
    raise ShapeError(f"cannot interpret {value!r} as an exact rational")


def rat_str(value: Scalar) -> str:
    """Canonical text form: bare integer when the denominator is 1."""
    q = rat(value)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def tuple_str(a: np.ndarray) -> str:
    """The entries in C order as ``(q, q, ...)``, each in :func:`rat_str` form."""
    return "(" + ", ".join(rat_str(x) for x in np.asarray(a).flat) + ")"


def freeze(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only for good: the array that owns its buffer is
    frozen too, and an owner comes back as a view of itself, so setting the
    writeable flag back raises ``ValueError``."""
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    owner.setflags(write=False)
    if a is owner:
        return a.view()
    a.setflags(write=False)
    return a


def zeros(*shape: int) -> np.ndarray:
    out = np.empty(shape, dtype=object)
    out[...] = ZERO
    return freeze(out)


def vector(entries: Iterable[Scalar]) -> np.ndarray:
    data = list(entries)
    return tensor((len(data),), data)


def matrix(rows: Sequence[Sequence[Scalar]]) -> np.ndarray:
    ncols = len(rows[0]) if len(rows) else 0
    if any(len(row) != ncols for row in rows):
        raise ShapeError("ragged matrix rows")
    return tensor((len(rows), ncols), [x for row in rows for x in row])


def tensor(shape: Sequence[int], entries: Iterable[Scalar]) -> np.ndarray:
    """Dense tensor from a flat entry sequence in row-major (lexicographic)
    index order."""
    shape = tuple(int(s) for s in shape)
    data = list(entries)
    size = math.prod(shape)
    if len(data) != size:
        raise ShapeError(f"expected {size} entries for shape {shape}, got {len(data)}")
    return as_exact(np.fromiter(data, dtype=object, count=size).reshape(shape))


def identity(n: int) -> np.ndarray:
    return as_exact(np.where(np.eye(n, dtype=bool), ONE, ZERO))


def as_exact(a: np.ndarray) -> np.ndarray:
    """A frozen copy of ``a`` holding Fractions only, each entry converted by
    :func:`rat`: ints, numpy integers and literal strings become Fractions,
    and floats, booleans and malformed strings raise :class:`ShapeError`.
    Setting the copy's writeable flag back raises ``ValueError``."""
    arr = np.asarray(a)
    entries = arr.reshape(-1).tolist()
    if set(map(type, entries)) != {Fraction}:
        entries = [rat(x) for x in entries]
    return freeze(np.fromiter(entries, dtype=object, count=arr.size).reshape(arr.shape))


def common_denominator(*arrays: np.ndarray) -> int:
    """Least common multiple of the denominators of every entry (1 for none);
    entries are ints or Fractions."""
    return math.lcm(*{x.denominator for a in arrays for x in np.asarray(a).flat})


def scaled_ints(a: np.ndarray, factor: int) -> np.ndarray:
    """``factor * a`` as a frozen object array of Python ints; ``factor`` must
    be a multiple of every entry's denominator."""
    arr = np.asarray(a)
    out = []
    for x in arr.reshape(-1).tolist():
        den = int(x.denominator)
        if factor % den:
            raise ExactLinearAlgebraError(f"{factor} does not clear the denominator of {x}")
        out.append(int(x.numerator) * (factor // den))
    return freeze(np.fromiter(out, dtype=object, count=arr.size).reshape(arr.shape))


def unscaled(a: np.ndarray, den: int) -> np.ndarray:
    """``a / den`` as a frozen object array of Fractions, for an array ``a``
    of Python ints: the inverse of :func:`scaled_ints`."""
    arr = np.asarray(a)
    out = np.fromiter((Fraction(x, den) for x in arr.flat), dtype=object, count=arr.size)
    return freeze(out.reshape(arr.shape))


# The 64 largest primes below 2**26, in decreasing order; their product has
# 1664 bits.
RESIDUE_PRIMES: tuple[int, ...] = (
    67108859, 67108837, 67108819, 67108777, 67108763, 67108757, 67108753, 67108747,
    67108739, 67108729, 67108721, 67108709, 67108693, 67108669, 67108667, 67108661,
    67108649, 67108633, 67108597, 67108579, 67108529, 67108511, 67108507, 67108493,
    67108471, 67108463, 67108453, 67108439, 67108387, 67108373, 67108369, 67108351,
    67108331, 67108313, 67108303, 67108289, 67108271, 67108219, 67108207, 67108201,
    67108199, 67108187, 67108183, 67108177, 67108127, 67108109, 67108081, 67108049,
    67108039, 67108037, 67108033, 67108009, 67108007, 67108003, 67107983, 67107977,
    67107967, 67107941, 67107919, 67107913, 67107883, 67107881, 67107871, 67107863,
)


def residue_primes(bound: int) -> Optional[tuple[int, ...]]:
    """The fewest leading :data:`RESIDUE_PRIMES` whose product exceeds
    ``bound``; None when the product of the whole table does not."""
    product = 1
    for k, p in enumerate(RESIDUE_PRIMES):
        if product > bound:
            return RESIDUE_PRIMES[:k]
        product *= p
    return RESIDUE_PRIMES if product > bound else None


def residue_stack(arrays: Sequence[np.ndarray], primes: Sequence[int]) -> list[np.ndarray]:
    """Each integer array modulo each of the (one or more) ``primes``, the
    images stacked on a new leading axis: int64 arrays of shape
    ``(len(primes), *a.shape)``, entries in ``[0, p)`` along the slice of p.
    An array whose entries fit in int64 is reduced in int64, at once; a wider
    one prime by prime, on Python ints."""
    mods = np.array(primes, dtype=np.int64)
    out = []
    for a in map(np.asarray, arrays):
        try:
            narrow = a.astype(np.int64)
        except OverflowError:
            out.append(np.stack([(a % p).astype(np.int64) for p in primes]))
        else:
            out.append(narrow % mods.reshape((-1,) + (1,) * a.ndim))
    return out


def is_zero(a: np.ndarray) -> bool:
    return all(x == 0 for x in np.asarray(a).reshape(-1))


def arrays_equal(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return all(x == y for x, y in zip(a.reshape(-1), b.reshape(-1)))


class IntegerForm(NamedTuple):
    """A tensor as ``ints / den``: ``ints`` its numerators at its own common
    denominator ``den``, a frozen array of Python ints, and ``height`` the
    largest absolute value of an entry of ``ints`` (0 for none)."""

    ints: np.ndarray
    den: int
    height: int


class TensorRecord:
    """Base of the frozen records of exact tensors, each subclass a
    ``@dataclass(frozen=True, eq=False)``.

    A subclass names its tensor fields and their shapes once, in
    :meth:`shapes`, read off its other fields (dimensions and nested
    records); a ``None`` length is free.  Construction checks every declared
    shape, stores each tensor as :func:`as_exact` of it, one frozen copy
    holding Fractions only, and runs :meth:`validate`.  So a record's
    tensors never hold ints or floats.  Equality is structural over all
    fields, tensors compared entry by entry and tuple fields element by
    element; a record equals itself without a comparison.

    A record memoizes the integer form of each tensor (:meth:`integer_form`)
    outside its fields, so the checks that share a record clear its
    denominators once; each check scales the forms into its own check-local
    view.
    """

    def shapes(self) -> dict[str, tuple[Optional[int], ...]]:
        return {}

    def validate(self) -> None:
        """Check the axioms of the frozen record; raise to reject it."""

    def __post_init__(self) -> None:
        for name, want in self.shapes().items():
            arr = np.asarray(getattr(self, name))
            if len(arr.shape) != len(want) or any(
                w is not None and w != s for s, w in zip(arr.shape, want)
            ):
                raise ShapeError(f"{name} has shape {arr.shape}, expected {want}")
            object.__setattr__(self, name, as_exact(arr))
        self.validate()

    def integer_form(self, name: str) -> IntegerForm:
        """The :class:`IntegerForm` of tensor field ``name``, derived on first
        use by :func:`common_denominator` and :func:`scaled_ints`.

        The record is frozen and its tensors cannot be made writeable
        (:func:`as_exact`), so the form is kept in the instance dict, outside
        the dataclass fields: equality, hashing, ``dataclasses.replace`` and
        the document codec never see it, and it lives as long as the record.
        """
        forms = self.__dict__.setdefault("_integer_forms", {})
        if name not in forms:
            t = getattr(self, name)
            den = common_denominator(t)
            ints = scaled_ints(t, den)
            forms[name] = IntegerForm(ints, den, max(map(abs, ints.flat), default=0))
        return forms[name]

    def _values(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _same(self._values(), other._values())

    def __hash__(self) -> int:
        return hash(_hash_key(self._values()))


def _same(a, b) -> bool:
    """Field equality: arrays entry by entry, tuples element by element."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same, a, b))
    return arrays_equal(a, b) if isinstance(a, np.ndarray) else a == b


def _hash_key(v):
    """A hashable key consistent with :func:`_same`: arrays by shape."""
    if isinstance(v, tuple):
        return tuple(map(_hash_key, v))
    return v.shape if isinstance(v, np.ndarray) else v


# ---------------------------------------------------------------------------
# Row reduction and derived computations
# ---------------------------------------------------------------------------

def rref(m: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced row-echelon form (Fraction entries) and pivot column indices.

    Deterministic: columns are scanned left to right and the first row with a
    nonzero entry at or below the current row is used as the pivot.

    Fraction-free: each row is scaled to a primitive integer row (positive
    leading entry, coprime entries), and Bareiss's integer-preserving
    Gauss-Jordan step

        row_i <- (p * row_i - row_i[col] * pivot_row) / p_prev

    (an exact division; p the new pivot, p_prev the one before) clears the
    pivot column above and below, so every pivot entry equals the last pivot;
    one division by it at the end gives the RREF.  Zero and repeated rows are
    dropped.  None of this changes the row space, whose RREF is unique, so the
    result is the one Fraction elimination gives.  An entry that is not
    rational, a boolean included, raises :class:`ShapeError`
    (:func:`_exact_input`).
    """
    m = _exact_input(m)
    if m.ndim != 2:
        raise ShapeError("rref expects a matrix")
    nrows, ncols = m.shape
    primitive: dict[tuple[int, ...], None] = {}
    for row in m.tolist():
        try:
            # a boolean has a numerator and a denominator too
            if bool in map(type, row):
                raise TypeError
            den = math.lcm(*(x.denominator for x in row))
            ints = [x.numerator * (den // x.denominator) for x in row]
        except (AttributeError, TypeError):
            bad = next(x for x in row if isinstance(x, bool) or not isinstance(x, (int, Fraction)))
            raise ShapeError(f"cannot interpret {bad!r} as an exact rational") from None
        content = math.gcd(*ints)
        if content:
            if next(x for x in ints if x) < 0:
                content = -content
            primitive[tuple(x // content for x in ints)] = None
    work = [list(row) for row in primitive]
    pivots: list[int] = []
    prev = 1
    for col in range(ncols):
        top = len(pivots)
        pivot_row = next((i for i in range(top, len(work)) if work[i][col]), None)
        if pivot_row is None:
            continue
        work[top], work[pivot_row] = work[pivot_row], work[top]
        prow = work[top]
        p = prow[col]
        kept = []
        for i, w in enumerate(work):
            if i != top:
                a = w[col]
                if a:
                    w = [(p * x - a * y) // prev for x, y in zip(w, prow)]
                elif p != prev:
                    w = [x * p // prev for x in w]
                if i > top and not any(w):
                    continue
            kept.append(w)
        work = kept
        pivots.append(col)
        prev = p
    out = np.full((nrows, ncols), ZERO, dtype=object)
    for i in range(len(pivots)):
        out[i, :] = [Fraction(x, prev) if x else ZERO for x in work[i]]
    return freeze(out), tuple(pivots)


def _exact_input(m) -> np.ndarray:
    """An object array as given, read once by :func:`rref`, which refuses an
    entry that is not rational while it clears denominators; any other dtype
    through :func:`as_exact`."""
    m = np.asarray(m)
    return m if m.dtype == object else as_exact(m)


def rank(m: np.ndarray) -> int:
    return len(rref(m)[1])


@dataclass(frozen=True, eq=False)
class Subspace(TensorRecord):
    """A linear subspace of Q^ambient_dim given by independent basis columns;
    the constructor checks their independence."""

    ambient_dim: int
    basis: np.ndarray

    def shapes(self):
        return {"basis": (self.ambient_dim, None)}

    def validate(self) -> None:
        if rank(self.basis) != self.dim:
            raise SubspaceError("basis columns are linearly dependent")

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """A subspace on a fresh basis array of Fractions whose columns are
        independent by construction (the identity, a kernel or image basis):
        the rank check of the public constructor is skipped and the array is
        not copied."""
        out = object.__new__(cls)
        object.__setattr__(out, "ambient_dim", ambient_dim)
        object.__setattr__(out, "basis", freeze(basis))
        return out

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def full_space(n: int) -> Subspace:
    return Subspace._trusted(n, identity(n))


def zero_space(n: int) -> Subspace:
    return Subspace._trusted(n, zeros(n, 0))


def kernel_basis(m: np.ndarray) -> Subspace:
    """Basis of the null space {v : m v = 0}, one column per free variable,
    enumerated by increasing free column index."""
    m = _exact_input(m)
    nrows, ncols = m.shape
    r, pivots = rref(m)
    free = [j for j in range(ncols) if j not in pivots]
    basis = np.empty((ncols, len(free)), dtype=object)
    basis[...] = ZERO
    for col_idx, j in enumerate(free):
        basis[j, col_idx] = ONE
        for i, pc in enumerate(pivots):
            basis[pc, col_idx] = -rat(r[i, j])
    return Subspace._trusted(ncols, basis)


def image_basis(m: np.ndarray) -> Subspace:
    """Column space basis: the original columns sitting at the pivot indices."""
    m = _exact_input(m)
    _, pivots = rref(m)
    return Subspace._trusted(m.shape[0], as_exact(m[:, list(pivots)]))


def solve(a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
    """One exact solution of ``a x = b``, or None when inconsistent.

    ``b`` is a vector or a matrix of right-hand-side columns; either way one
    elimination of ``[a | b]`` answers it.  A matrix gets the solution matrix
    (one column per column of b), or None when any column is inconsistent:
    exactly when the elimination puts a pivot in the b block.  Free variables
    are set to zero, so the answer is deterministic.
    """
    a = _exact_input(a)
    b = _exact_input(b)
    if a.ndim != 2 or b.ndim not in (1, 2) or a.shape[0] != b.shape[0]:
        raise ShapeError(f"cannot solve shapes {a.shape} x = {b.shape}")
    nrows, ncols = a.shape
    rhs = b.reshape(nrows, 1) if b.ndim == 1 else b
    aug = np.empty((nrows, ncols + rhs.shape[1]), dtype=object)
    aug[:, :ncols] = a
    aug[:, ncols:] = rhs
    r, pivots = rref(aug)
    if pivots and pivots[-1] >= ncols:
        return None
    x = np.full((ncols, rhs.shape[1]), ZERO, dtype=object)
    for i, pc in enumerate(pivots):
        x[pc] = r[i, ncols:]
    return freeze(x[:, 0] if b.ndim == 1 else x)


def inverse(m: np.ndarray) -> np.ndarray:
    """Exact inverse of a square matrix; raises on singular input."""
    m = _exact_input(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError("inverse expects a square matrix")
    n = m.shape[0]
    aug = np.empty((n, 2 * n), dtype=object)
    aug[:, :n] = m
    aug[:, n:] = identity(n)
    r, pivots = rref(aug)
    if pivots != tuple(range(n)):
        raise SubspaceError("matrix is singular")
    return freeze(np.array(r[:, n:], dtype=object, copy=True))


def membership(s: Subspace, v: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates of ``v`` in the basis of ``s`` when v lies in the span,
    otherwise None.  ``v`` is a vector or a matrix of columns, all of which
    must lie in the span."""
    v = np.asarray(v)
    if v.shape[:1] != (s.ambient_dim,):
        raise ShapeError(
            f"vector of length {v.shape} against ambient dimension {s.ambient_dim}"
        )
    return solve(s.basis, v)


def subspace_leq(a: Subspace, b: Subspace) -> bool:
    """True when span(a) is contained in span(b): one elimination, a lies in
    b exactly when appending its columns leaves the rank at b.dim."""
    if a.ambient_dim != b.ambient_dim:
        raise ShapeError("subspaces of different ambient spaces")
    return rank(np.column_stack([b.basis, a.basis])) == b.dim


def subspaces_equal(a: Subspace, b: Subspace) -> bool:
    return subspace_leq(a, b) and subspace_leq(b, a)


def quotient(z: Subspace, b: Subspace) -> tuple[int, np.ndarray]:
    """Dimension of z/b and representative vectors completing a basis of b to
    one of z, obtained by greedy pivot extension through z's basis columns:
    the z columns that are pivots of one elimination of ``[b | z]``.

    The same elimination checks b <= z: its rank is dim(b + z), which equals
    z.dim exactly when b lies in z."""
    if z.ambient_dim != b.ambient_dim:
        raise ShapeError("quotient of subspaces in different ambient spaces")
    _, pivots = rref(np.column_stack([b.basis, z.basis]))
    picked = [j - b.dim for j in pivots if j >= b.dim]
    if b.dim + len(picked) != z.dim:
        raise SubspaceError("denominator subspace is not contained in the numerator")
    return len(picked), freeze(np.array(z.basis[:, picked], dtype=object, copy=True))


def coset_coordinates(b: Subspace, reps: np.ndarray, v: np.ndarray) -> Optional[np.ndarray]:
    """Coordinates of v (a vector or a matrix of columns) modulo span(b)
    against the columns of ``reps``: the reps block of the solution of
    ``[b | reps] x = v``, or None when v lies outside span(b) + span(reps)."""
    x = solve(np.column_stack([b.basis, reps]), v)
    return None if x is None else freeze(x[b.dim:])


# ---------------------------------------------------------------------------
# Permutation signs and alternation
# ---------------------------------------------------------------------------

def perm_sign(perm: Sequence[int], degrees: Optional[Sequence[int]] = None) -> int:
    """Sign of ``perm`` (entries are original positions).  With ``degrees``,
    times the Koszul sign of moving graded arguments of those degrees into
    the order ``perm``: an inversion of two odd arguments does not flip."""
    sign = 1
    for r in range(len(perm)):
        for s in range(r + 1, len(perm)):
            if perm[r] > perm[s]:
                both_odd = degrees is not None and degrees[perm[r]] % 2 and degrees[perm[s]] % 2
                if not both_odd:
                    sign = -sign
    return sign


def increasing_tuples(n: int, k: int) -> list[tuple[int, ...]]:
    """The increasing k-tuples of range(n) in lexicographic order: the
    monomial basis of the k-th exterior power."""
    return list(itertools.combinations(range(n), k))


def wedge(left: Sequence[int], right: Sequence[int]) -> Optional[tuple[int, tuple[int, ...]]]:
    """Product of the exterior monomials on two increasing index tuples:
    ``(sign, merged)`` with ``e_left ^ e_right = sign * e_merged``, or None
    when they share an index.  The sign counts the inversions between the
    two tuples, the same as :func:`perm_sign` of the sorting permutation."""
    merged = []
    i = inversions = 0
    for b in right:
        while i < len(left) and left[i] < b:
            merged.append(left[i])
            i += 1
        if i < len(left) and left[i] == b:
            return None
        inversions += len(left) - i
        merged.append(b)
    merged.extend(left[i:])
    return (-1 if inversions % 2 else 1), tuple(merged)


def alternate(t: np.ndarray, coeff: Union[int, Fraction]) -> np.ndarray:
    """``coeff * sum_perm sgn(perm) t(x_perm(1), ..., x_perm(k))`` over the
    input axes (axis 0 is the output)."""
    t = _operand(t)
    k = t.ndim - 1
    out = None
    for perm in itertools.permutations(range(k)):
        axes = (0,) + tuple(1 + perm.index(i) for i in range(k))
        term = np.transpose(t, axes) * (coeff * perm_sign(perm))
        out = term if out is None else out + term
    return freeze(out)


# ---------------------------------------------------------------------------
# Dense multilinear contraction
# ---------------------------------------------------------------------------

def _operand(a) -> np.ndarray:
    """``a`` as an operand of the contraction helpers and :func:`alternate`:
    object arrays (Fractions or Python ints) and integer arrays (the int64
    residue images) pass; float, complex and boolean dtypes raise
    :class:`ShapeError`, from the dtype alone."""
    a = np.asarray(a)
    if a.dtype.kind in "fcb":
        raise ShapeError(f"{a.dtype} entries are not exact rationals")
    return a


def einsum(subscripts: str, *operands: np.ndarray) -> np.ndarray:
    """``np.einsum(subscripts, *operands)`` with ``...`` prepended to every
    operand and to the output: leading axes broadcast and pass through, so
    a formula written for plain tensors also evaluates stacked residue
    images (:func:`residue_stack`) one image per leading index.  Every
    axis is named, so no leading axis is mistaken for a tensor axis."""
    inputs, output = subscripts.split("->")
    spec = ",".join("..." + s for s in inputs.split(",")) + "->..." + output
    return np.einsum(spec, *map(_operand, operands))


def contract(t: np.ndarray, slot: int, arg: np.ndarray) -> np.ndarray:
    """Contract axis ``slot`` of ``t`` with a vector (removing the axis) or
    with a matrix of shape (slot_dim, k) (replacing the axis by one of size k,
    kept in place)."""
    t = _operand(t)
    arg = _operand(arg)
    if not 0 <= slot < t.ndim:
        raise ShapeError(f"slot {slot} out of range for shape {t.shape}")
    if arg.ndim == 1:
        if arg.shape[0] != t.shape[slot]:
            raise ShapeError(
                f"slot {slot} has dimension {t.shape[slot]}, vector has {arg.shape[0]}"
            )
        return freeze(np.tensordot(t, arg, axes=([slot], [0])))
    if arg.ndim == 2:
        if arg.shape[0] != t.shape[slot]:
            raise ShapeError(
                f"slot {slot} has dimension {t.shape[slot]}, matrix has {arg.shape[0]} rows"
            )
        res = np.tensordot(t, arg, axes=([slot], [0]))
        return freeze(np.moveaxis(res, -1, slot))
    raise ShapeError("contract expects a vector or matrix argument")


def precompose(t: np.ndarray, slot: int, m: np.ndarray) -> np.ndarray:
    """Plug the linear map ``m`` (rows = slot dimension of t) into input slot
    ``slot`` of the multilinear tensor ``t`` (axis 0 of t is the output)."""
    return contract(t, slot, m)


def postcompose(m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply the linear map ``m`` to the output axis of ``t``."""
    t = _operand(t)
    m = _operand(m)
    if m.shape[1] != t.shape[0]:
        raise ShapeError(
            f"map with {m.shape[1]} columns cannot act on output of dimension {t.shape[0]}"
        )
    return freeze(np.tensordot(m, t, axes=([1], [0])))


def plug(outer: np.ndarray, slot: int, inner: np.ndarray) -> np.ndarray:
    """Substitute the multilinear tensor ``inner`` into input slot ``slot`` of
    ``outer``; the inner input axes take the slot's position in order."""
    outer = _operand(outer)
    inner = _operand(inner)
    if not 1 <= slot < outer.ndim:
        raise ShapeError(f"input slot {slot} out of range for shape {outer.shape}")
    if outer.shape[slot] != inner.shape[0]:
        raise ShapeError(
            f"slot {slot} of shape {outer.shape} does not accept output of shape {inner.shape}"
        )
    res = np.tensordot(outer, inner, axes=([slot], [0]))
    # tensordot puts the inner input axes last; rotate them back into place.
    n_out = outer.ndim - 1  # axes of outer remaining
    n_in = inner.ndim - 1
    order = list(range(res.ndim))
    moved = order[:slot] + order[n_out : n_out + n_in] + order[slot:n_out]
    return freeze(np.transpose(res, moved))


def apply_multilinear(t: np.ndarray, *vectors: np.ndarray) -> np.ndarray:
    """Evaluate the multilinear map ``t`` on coordinate vectors."""
    t = np.asarray(t)
    if len(vectors) != t.ndim - 1:
        raise ShapeError(
            f"tensor with {t.ndim - 1} input slots applied to {len(vectors)} vectors"
        )
    out = t
    for v in reversed(vectors):
        v = np.asarray(v)
        if v.shape[0] != out.shape[-1]:
            raise ShapeError("argument length does not match slot dimension")
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return freeze(out)
