"""Graded Lie algebras with a trilinear bracket, twisting, and the symmetry
two-term structures of Maurer-Cartan elements.

A :class:`GradedL3Algebra` carries a differential (degree +1), a graded
antisymmetric binary bracket (degree 0) and optionally a graded antisymmetric
trilinear bracket (degree -1); all higher operations vanish.  The defining
relations are the generalized Jacobi identities

    sum_{i+j=n+1} (-1)^{i(j-1)} sum_{unshuffles} sgn(s) eps(s)
        l_j( l_i(x_{s(1)}, ..., x_{s(i)}), x_{s(i+1)}, ..., x_{s(n)} ) = 0

for n = 1..5, where eps is the Koszul sign of the permutation on the graded
arguments.  With the trilinear bracket zero these reduce to the textbook
differential graded Lie algebra axioms, and they are stable under twisting
by a Maurer-Cartan element; both facts are exercised by the test suite.

The brackets live in one table keyed by their input degrees: the key
length is the arity, so ``(k,)`` is the differential on degree k and
``(a, b)`` the binary bracket on degrees a and b.  Degrees outside the
populated range are zero spaces, so any bracket landing there is the zero
map, and a missing key is the zero map too.

Twisting by gamma in degree 1 is one series over that table (Getzler,
"Lie theory for nilpotent L-infinity algebras", Ann. Math. 170, 2009):

    l_n^gamma(x_1, ..., x_n) = sum_m 1/m! l_{n+m}(gamma, ..., gamma, x_1, ..., x_n)

At arity 0 it is the Maurer-Cartan residual, at arity 1..3 the twisted
brackets, and the twisted differential on degree 0 applied to x is the
infinitesimal action of x on gamma.

The two symmetry constructions:

* ``inner_symmetries_n2`` - for an algebra populated in degrees >= -1, the
  twisted truncation  L^-1 -> ker(d_gamma)  carries a semistrict two-term
  structure whose Jacobiator is the twisted trilinear bracket.
* ``inner_symmetries_n3`` - for a dgla populated in degrees -2..0 (plus
  positive degrees used only for twisting), the complex L^-2 -> L^-1 carries
  a hemistrict structure via derived brackets  [x,y] = {d x, y}, with
  alternator the symmetric pairing {.,.}: L^-1 x L^-1 -> L^-2, together with
  a morphism onto ker(d_gamma) in degree zero and a strict action of that
  kernel - a categorified crossed module.  All of its identities are checked
  exactly by :func:`theorem_n3_report`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

import numpy as np

from . import exactla as xla, morph as morph_mod
from .el2 import EL2Algebra, InvalidStructureError, check_el2, is_hemistrict, zero_el2
from .exactla import ShapeError, Subspace, TensorRecord
from .report import CheckReport, Violation, check_identities


class DegreeError(ValueError):
    """A degree is outside the range a construction permits."""


class MaurerCartanError(ValueError):
    """The Maurer-Cartan residual of gamma is nonzero."""


@dataclass(frozen=True, eq=False)
class GradedL3Algebra:
    """Graded vector space with brackets l1 (degree +1), l2 (degree 0) and
    l3 (degree -1), stored in one table keyed by their input degrees: the
    arity is the key length, so the differential on degree k is
    ``brackets[(k,)]`` and ``brackets[(a, b, c)]`` is the trilinear bracket
    on degrees a, b, c.  A missing key is the zero map; a key's tensor has
    shape :meth:`shape` of its degrees, output first.
    """

    dims: dict[int, int]
    brackets: dict[tuple[int, ...], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(int(v) < 0 for v in self.dims.values()):
            raise ShapeError(f"dimensions must be non-negative, got {self.dims}")
        dims = {int(k): int(v) for k, v in self.dims.items() if int(v) > 0}
        if dims and min(dims) < -3:
            raise DegreeError("components below degree -3 are not supported")
        object.__setattr__(self, "dims", dims)
        brackets = {}
        for degs, t in self.brackets.items():
            if not isinstance(degs, tuple) or not 1 <= len(degs) <= 3:
                raise ShapeError(f"bracket key {degs!r} must be a tuple of 1 to 3 degrees")
            degs = tuple(int(x) for x in degs)
            arr = np.asarray(t)
            want = self.shape(*degs)
            if arr.shape != want:
                raise ShapeError(f"bracket {degs} has shape {arr.shape}, expected {want}")
            arr = xla.as_exact(arr)
            if arr.size and not xla.is_zero(arr):
                brackets[degs] = arr
        object.__setattr__(self, "brackets", brackets)

    def dim(self, k: int) -> int:
        return self.dims.get(k, 0)

    def shape(self, *degs: int) -> tuple[int, ...]:
        """Shape of the n-ary bracket on the degrees degs (n = len(degs)),
        whose output has degree sum(degs) + 2 - n."""
        return (self.dim(sum(degs) + 2 - len(degs)),) + tuple(self.dim(x) for x in degs)

    @property
    def degrees(self) -> list[int]:
        return sorted(self.dims)

    @property
    def is_dgla(self) -> bool:
        return all(len(degs) < 3 for degs in self.brackets)

    def bracket(self, *degs: int) -> np.ndarray:
        """The bracket on the input degrees degs, zeros when not stored."""
        got = self.brackets.get(degs)
        return got if got is not None else xla.zeros(*self.shape(*degs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedL3Algebra):
            return NotImplemented
        return (
            self.dims == other.dims
            and self.brackets.keys() == other.brackets.keys()
            and all(xla.arrays_equal(t, other.brackets[degs]) for degs, t in self.brackets.items())
        )

    def __hash__(self) -> int:  # pragma: no cover
        return hash(tuple(sorted(self.dims.items())))


# ---------------------------------------------------------------------------
# Koszul machinery and the relation checker
# ---------------------------------------------------------------------------

def _relation_residual(L: GradedL3Algebra, degs: tuple[int, ...]) -> Optional[np.ndarray]:
    """Generalized Jacobi residual at arity n = len(degs) over the degree
    tuple; None when every term vanishes identically."""
    n = len(degs)
    out_deg = sum(degs) + 3 - n
    out_dim = L.dim(out_deg)
    if out_dim == 0:
        return None
    total: Optional[np.ndarray] = None
    for i in range(1, min(3, n) + 1):
        j = n + 1 - i
        if j < 1 or j > 3:
            continue
        coeff_ij = Fraction((-1) ** (i * (j - 1)))
        for sel in itertools.combinations(range(n), i):
            rest = tuple(r for r in range(n) if r not in sel)
            inner_degs = tuple(degs[s] for s in sel)
            inner = L.brackets.get(inner_degs)
            if inner is None:
                continue
            inner_out = sum(inner_degs) + 2 - i
            outer = L.brackets.get((inner_out,) + tuple(degs[r] for r in rest))
            if outer is None:
                continue
            composite = xla.plug(outer, 1, inner)
            # composite axes: (out, sel..., rest...) -> back to original order
            placed = sel + rest
            axes = (0,) + tuple(1 + placed.index(t) for t in range(n))
            composite = np.transpose(composite, axes)
            coeff = coeff_ij * xla.perm_sign(placed, degs)
            term = composite if coeff == 1 else composite * coeff
            total = term if total is None else total + term
    return total


def check_graded(L: GradedL3Algebra, *, stop_after: Optional[int] = None) -> CheckReport:
    """Graded antisymmetry of the stored brackets and the generalized Jacobi
    identities through arity 5, evaluated per degree tuple on basis tuples.

    For an algebra with no trilinear bracket the arity 4 and 5 relations
    vanish identically and are skipped.
    """
    return check_identities(_graded_identities(L), stop_after=stop_after)


def _graded_identities(L: GradedL3Algebra) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each identity of :func:`check_graded` as (name, residual, 0)."""
    # each adjacent swap of each permutation of a stored key; arity 2
    # reports l2(a,b) + s swap(l2(b,a)), arity 3 swap(l3(...)) + s l3(a,b,c)
    for n in (2, 3):
        keys = {perm for degs in L.brackets if len(degs) == n for perm in itertools.permutations(degs)}
        for degs in sorted(keys):
            base = L.bracket(*degs)
            for i in range(n - 1):
                a, b = degs[i], degs[i + 1]
                swapped = np.swapaxes(L.bracket(*degs[:i], b, a, *degs[i + 2:]), i + 1, i + 2)
                sign = Fraction((-1) ** (a * b))
                if n == 2:
                    yield f"antisym.l2{degs}", base + swapped * sign, 0
                else:
                    yield f"antisym.l3.swap{i + 1}{i + 2}{degs}", swapped + base * sign, 0

    max_arity = 3 if L.is_dgla else 5
    for n in range(1, max_arity + 1):
        for degs in itertools.product(L.degrees, repeat=n):
            residual = _relation_residual(L, degs)
            if residual is not None:
                yield f"jacobi.n{n}{degs}", residual, 0


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and twisting
# ---------------------------------------------------------------------------

def _twisted(L: GradedL3Algebra, gamma: np.ndarray, degs: tuple[int, ...]) -> np.ndarray:
    """The bracket twisted by gamma on the input degrees degs (arity 0 to 3),

        l^gamma(x...) = sum_m 1/m! l(gamma, ..., gamma, x...)

    with gamma in the first m slots, summed over the stored brackets
    ``(1,) * m + degs``; shape ``L.shape(*degs)``.  Arity 0 is the
    Maurer-Cartan residual."""
    total = None
    for m in range(4 - len(degs)):
        term = L.brackets.get((1,) * m + degs)
        if term is None:
            continue
        for _ in range(m):
            term = np.tensordot(term, gamma, axes=([1], [0]))
        if m > 1:
            term = term * Fraction(1, math.factorial(m))
        total = term if total is None else total + term
    return xla.zeros(*L.shape(*degs)) if total is None else xla.freeze(total)


def _check_gamma(L: GradedL3Algebra, gamma: np.ndarray) -> np.ndarray:
    gamma = xla.as_exact(gamma)
    if gamma.shape != (L.dim(1),):
        raise DegreeError(f"gamma must live in degree 1 (dimension {L.dim(1)})")
    return gamma


def mc_residual(L: GradedL3Algebra, gamma: np.ndarray) -> np.ndarray:
    """d gamma + 1/2 [gamma, gamma] + 1/6 [gamma, gamma, gamma] in degree 2."""
    return _twisted(L, _check_gamma(L, gamma), ())


def twist(L: GradedL3Algebra, gamma: np.ndarray) -> GradedL3Algebra:
    """The structure twisted by a Maurer-Cartan element:

        d_g = d + [g, .] + 1/2 [g, g, .]
        [.,.]_g = [.,.] + [g, ., .]
        [.,.,.]_g = [.,.,.]

    (the series terminate since all higher brackets vanish), on every degree
    tuple a stored bracket reaches.  The result satisfies the same
    relations, which :func:`check_graded` verifies."""
    residual = mc_residual(L, gamma)
    if not xla.is_zero(residual):
        raise MaurerCartanError(f"nonzero Maurer-Cartan residual: {xla.tuple_str(residual)}")
    gamma = xla.as_exact(gamma)
    reached = {degs[m:] for degs in L.brackets for m in range(len(degs)) if degs[:m] == (1,) * m}
    return GradedL3Algebra(dims=dict(L.dims), brackets={degs: _twisted(L, gamma, degs) for degs in reached})


def symmetry_action_residual(L: GradedL3Algebra, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The infinitesimal action of x in degree 0 on gamma:
    d x + [gamma, x] + 1/2 [gamma, gamma, x], a vector in degree 1."""
    x = xla.as_exact(x)
    if x.shape != (L.dim(0),):
        raise DegreeError(f"x must live in degree 0 (dimension {L.dim(0)})")
    # the zero vector keeps the entries exact when degree 0 is empty
    return xla.freeze(xla.zeros(L.dim(1)) + np.dot(_twisted(L, _check_gamma(L, gamma), (0,)), x))


def truncation_basis(L: GradedL3Algebra, gamma: np.ndarray) -> Subspace:
    """Basis of the degree-0 infinitesimal stabilizer of gamma: the kernel of
    the twisted differential on the degree-0 component."""
    tw = twist(L, gamma)
    return xla.kernel_basis(tw.bracket(0))


# ---------------------------------------------------------------------------
# Symmetry two-term structures
# ---------------------------------------------------------------------------

def _coords_in(K: Subspace, vecs: np.ndarray, what: str) -> np.ndarray:
    """Coordinates in the basis of K of the columns of ``vecs``, from one
    elimination."""
    coords = xla.membership(K, vecs)
    if coords is None:
        raise InvalidStructureError(f"{what} is not contained in the stabilizer span")
    return coords


def _stabilizer_bracket(tw: GradedL3Algebra, K: Subspace) -> np.ndarray:
    """The twisted degree-0 bracket of basis elements of the stabilizer K,
    in K coordinates: shape (k, k, k)."""
    k = K.dim
    values = xla.precompose(xla.precompose(tw.bracket(0, 0), 1, K.basis), 2, K.basis)
    flat = _coords_in(K, values.reshape(K.ambient_dim, k * k), "bracket of stabilizer elements")
    return xla.freeze(flat.reshape(k, k, k))


def inner_symmetries_n2(L: GradedL3Algebra, gamma: np.ndarray) -> EL2Algebra:
    """The semistrict two-term structure of a Maurer-Cartan element in an
    algebra populated in degrees >= -1: complex L^-1 -> ker(d_gamma) with the
    twisted binary bracket and the twisted trilinear bracket as Jacobiator."""
    if any(k <= -2 and d > 0 for k, d in L.dims.items()):
        raise DegreeError("components below degree -1 must vanish for this construction")
    tw = twist(L, gamma)  # raises MaurerCartanError when gamma is not MC
    K = xla.kernel_basis(tw.bracket(0))
    n0, n1 = K.dim, L.dim(-1)

    d = _coords_in(K, tw.bracket(-1), "image of the twisted differential")
    b00 = _stabilizer_bracket(tw, K)
    b01 = xla.precompose(tw.bracket(0, -1), 1, K.basis)
    b10 = xla.precompose(tw.bracket(-1, 0), 2, K.basis)
    jac3 = tw.bracket(0, 0, 0)
    jac = xla.precompose(xla.precompose(xla.precompose(jac3, 1, K.basis), 2, K.basis), 3, K.basis)

    algebra = zero_el2(n0, n1, d, b00=b00, b01=b01, b10=b10, jac=jac)
    verdict = check_el2(algebra)
    if not verdict.passed:
        raise InvalidStructureError("twisted truncation is not a valid structure", verdict)
    return algebra


@dataclass(frozen=True, eq=False)
class ActionData(TensorRecord):
    """The degree-0 stabilizer acting on the two-term complex: basis of the
    stabilizer and its action tensors on each level."""

    stabilizer: Subspace
    on_c0: np.ndarray  # (n0, k, n0)
    on_c1: np.ndarray  # (n1, k, n1)

    def shapes(self):
        k = self.stabilizer.dim
        return {"on_c0": (None, k, None), "on_c1": (None, k, None)}


@dataclass(frozen=True, eq=False)
class InnerSymmetriesN3(TensorRecord):
    algebra: EL2Algebra
    boundary: "morph_mod.ELMorphism"
    action: ActionData


def inner_symmetries_n3(L: GradedL3Algebra, gamma: np.ndarray) -> InnerSymmetriesN3:
    """Derived-bracket hemistrict structure of a Maurer-Cartan element in a
    dgla populated in degrees -2..0 (plus positive degrees that only feed the
    twist): on C^0 = L^-1, C^-1 = L^-2 with d the twisted differential,

        [x, y] = {d x, y}    [x, a] = {d x, a}    [a, x] = 0
        alternator <x, y> = {x, y}   (symmetric, degree -2 valued)

    together with the boundary morphism onto the degree-0 stabilizer and the
    stabilizer action on the complex."""
    if not L.is_dgla:
        raise InvalidStructureError("construction requires a dgla (no trilinear bracket)")
    if any(k <= -3 and d > 0 for k, d in L.dims.items()):
        raise DegreeError("components below degree -2 must vanish for this construction")
    tw = twist(L, gamma)
    n0, n1 = L.dim(-1), L.dim(-2)
    d = tw.bracket(-2)
    d_up = tw.bracket(-1)  # L^-1 -> L^0

    b00 = xla.precompose(tw.bracket(0, -1), 1, d_up)
    b01 = xla.precompose(tw.bracket(0, -2), 1, d_up)
    alt = tw.bracket(-1, -1)
    algebra = zero_el2(n0, n1, d, b00=b00, b01=b01, alt=alt)
    verdict = check_el2(algebra)
    if not verdict.passed:
        raise InvalidStructureError("derived-bracket structure is invalid", verdict)
    if not is_hemistrict(algebra):
        raise InvalidStructureError("derived-bracket structure is not hemistrict")

    K = xla.kernel_basis(tw.bracket(0))
    k = K.dim
    target = zero_el2(k, 0, b00=_stabilizer_bracket(tw, K))
    f0 = _coords_in(K, d_up, "image of the twisted differential")
    boundary = morph_mod.ELMorphism(
        src=algebra, dst=target, f0=f0, f1=xla.zeros(0, n1), f2=xla.zeros(0, n0, n0),
    )

    action = ActionData(
        stabilizer=K,
        on_c0=xla.precompose(tw.bracket(0, -1), 1, K.basis),
        on_c1=xla.precompose(tw.bracket(0, -2), 1, K.basis),
    )
    return InnerSymmetriesN3(algebra, boundary, action)


def theorem_n3_report(L: GradedL3Algebra, gamma: np.ndarray) -> CheckReport:
    """Every identity the n = 3 construction promises.  The structure axioms
    and hemistrictness are enforced by :func:`inner_symmetries_n3`, which
    raises :class:`InvalidStructureError` on either; the report holds the
    rest (see :func:`crossed_module_identities_report`)."""
    data = inner_symmetries_n3(L, gamma)
    return crossed_module_identities_report(data)


def crossed_module_identities_report(data: InnerSymmetriesN3) -> CheckReport:
    """The boundary morphism axioms, the stabilizer acting by strict
    derivations compatibly with d, and the two crossed-module identities
    (on objects and on arrow parts).  The structure axioms and
    hemistrictness of ``data.algebra`` are not rechecked: they are enforced
    by :func:`inner_symmetries_n3`, which built it.

    The identities after the boundary axioms are computed on Python ints.
    With D the common denominator of every tensor they read, d, the two
    actions, f0 and the target bracket are scaled by D, and b00, b01 and the
    alternator by D**2; each identity is then D**2 or D**3 times its
    Fraction residual.  A zero residual is final; a violating one is
    divided back, so the report is the Fraction one."""
    report = CheckReport()
    e = data.algebra
    sub = morph_mod.check_morphism(data.boundary)
    for v in sub.violations:
        report.violations.append(Violation(f"n3.boundary/{v.equation}", v.at, v.residual))

    once = (e.complex.d, data.action.on_c0, data.action.on_c1, data.boundary.f0, data.boundary.dst.b00)
    twice = (e.b00, e.b01, e.alt)
    den = xla.common_denominator(*once, *twice)
    d, on0, on1, f0, tgt_b00 = (xla.scaled_ints(t, den) for t in once)
    b00, b01, alt = (xla.scaled_ints(t, den**2) for t in twice)

    def derivation(on_out: np.ndarray, t: np.ndarray, on_x: np.ndarray, on_y: np.ndarray) -> np.ndarray:
        """T.t(x, y) - t(T.x, y) - t(x, T.y), axes (out, T, x, y)."""
        lhs = np.tensordot(on_out, t, axes=([2], [0]))
        r1 = np.moveaxis(np.tensordot(t, on_x, axes=([1], [0])), (2, 3), (1, 2))
        # r1 axes: t[out, m, y] on_x[m, T, x] -> (out, y, T, x) -> (out, T, x, y)
        r2 = np.swapaxes(np.tensordot(t, on_y, axes=([2], [0])), 1, 2)
        # r2 axes: t[out, x, m] on_y[m, T, y] -> (out, x, T, y) -> (out, T, x, y)
        return lhs - r1 - r2

    identities = (
        # action commutes with d: d . rho1(T) = rho0(T) . d, axes (n0, T, b)
        ("action.chain", np.tensordot(d, on1, axes=([1], [0])) - np.tensordot(on0, d, axes=([2], [0])), 2),
        # derivations of the bracket on objects, the mixed bracket and the alternator
        ("action.derivation.b00", derivation(on0, b00, on0, on0), 3),
        ("action.derivation.b01", derivation(on1, b01, on0, on1), 3),
        ("action.derivation.alt", derivation(on1, alt, on0, on0), 3),
        # boundary intertwines the action with the stabilizer bracket, axes (k, T, x)
        ("crossed.boundary-action",
         np.tensordot(f0, on0, axes=([1], [0])) - np.tensordot(tgt_b00, f0, axes=([2], [0])), 2),
        # the action of a boundary equals the bracket: objects and arrow parts
        ("crossed.derived.objects", np.moveaxis(np.tensordot(on0, f0, axes=([1], [0])), 2, 1) - b00, 2),
        ("crossed.derived.parts", np.moveaxis(np.tensordot(on1, f0, axes=([1], [0])), 2, 1) - b01, 2),
    )
    return check_identities(identities, den=den, report=report)
