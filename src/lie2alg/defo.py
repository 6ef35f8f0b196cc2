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

Degrees outside the populated range are zero spaces, so any bracket landing
there is the zero map.

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import exactla as xla, morph as morph_mod
from .dkcore import TwoTermComplex
from .el2 import EL2Algebra, InvalidStructureError, check_el2, is_hemistrict
from .exactla import ShapeError, Subspace
from .report import CheckReport, Violation, collect_tensor_violations, require_stop_after


class DegreeError(ValueError):
    """A degree is outside the range a construction permits."""


class MaurerCartanError(ValueError):
    """The Maurer-Cartan residual of gamma is nonzero."""


@dataclass(frozen=True, eq=False)
class GradedL3Algebra:
    """Graded vector space with l1 (degree +1), l2 (degree 0) and l3
    (degree -1); missing entries of the bracket dictionaries are zero maps.

    l1[k] is a matrix dim(k+1) x dim(k); l2[(a, b)] has shape
    (dim(a+b), dim(a), dim(b)); l3[(a, b, c)] has shape
    (dim(a+b+c-1), dim(a), dim(b), dim(c)).
    """

    dims: dict[int, int]
    l1: dict[int, np.ndarray] = field(default_factory=dict)
    l2: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    l3: dict[tuple[int, int, int], np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        dims = {int(k): int(v) for k, v in self.dims.items() if int(v) > 0}
        if dims and min(dims) < -3:
            raise DegreeError("components below degree -3 are not supported")
        object.__setattr__(self, "dims", dims)
        l1 = {}
        for k, m in self.l1.items():
            arr = np.asarray(m)
            want = self.shape(k)
            if arr.shape != want:
                raise ShapeError(f"l1[{k}] has shape {arr.shape}, expected {want}")
            if arr.size and not xla.is_zero(arr):
                l1[int(k)] = xla.freeze(np.array(arr, dtype=object, copy=True))
        object.__setattr__(self, "l1", l1)
        l2 = {}
        for (a, b), t in self.l2.items():
            arr = np.asarray(t)
            want = self.shape(a, b)
            if arr.shape != want:
                raise ShapeError(f"l2[{(a, b)}] has shape {arr.shape}, expected {want}")
            if arr.size and not xla.is_zero(arr):
                l2[(int(a), int(b))] = xla.freeze(np.array(arr, dtype=object, copy=True))
        object.__setattr__(self, "l2", l2)
        l3 = {}
        for (a, b, c), t in self.l3.items():
            arr = np.asarray(t)
            want = self.shape(a, b, c)
            if arr.shape != want:
                raise ShapeError(f"l3[{(a, b, c)}] has shape {arr.shape}, expected {want}")
            if arr.size and not xla.is_zero(arr):
                l3[(int(a), int(b), int(c))] = xla.freeze(np.array(arr, dtype=object, copy=True))
        object.__setattr__(self, "l3", l3)

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
        return not self.l3

    def l1_mat(self, k: int) -> np.ndarray:
        got = self.l1.get(k)
        return got if got is not None else xla.zeros(*self.shape(k))

    def l2_tensor(self, a: int, b: int) -> np.ndarray:
        got = self.l2.get((a, b))
        return got if got is not None else xla.zeros(*self.shape(a, b))

    def l3_tensor(self, a: int, b: int, c: int) -> np.ndarray:
        got = self.l3.get((a, b, c))
        return got if got is not None else xla.zeros(*self.shape(a, b, c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedL3Algebra):
            return NotImplemented
        return structurally_equal(self, other)

    def __hash__(self) -> int:  # pragma: no cover
        return hash(tuple(sorted(self.dims.items())))


def structurally_equal(a: GradedL3Algebra, b: GradedL3Algebra) -> bool:
    if a.dims != b.dims:
        return False
    for k in set(a.l1) | set(b.l1):
        if not xla.arrays_equal(a.l1_mat(k), b.l1_mat(k)):
            return False
    for key in set(a.l2) | set(b.l2):
        if not xla.arrays_equal(a.l2_tensor(*key), b.l2_tensor(*key)):
            return False
    for key in set(a.l3) | set(b.l3):
        if not xla.arrays_equal(a.l3_tensor(*key), b.l3_tensor(*key)):
            return False
    return True


# ---------------------------------------------------------------------------
# Koszul machinery and the relation checker
# ---------------------------------------------------------------------------

def _bracket_tensor(L: GradedL3Algebra, degs: tuple[int, ...]) -> Optional[np.ndarray]:
    """The stored k-ary bracket at the given input degrees, or None when it
    is the zero map (missing, or with a zero-dimensional target)."""
    k = len(degs)
    if k == 1:
        got = L.l1.get(degs[0])
        return got
    if k == 2:
        return L.l2.get((degs[0], degs[1]))
    if k == 3:
        return L.l3.get((degs[0], degs[1], degs[2]))
    return None


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
            inner = _bracket_tensor(L, inner_degs)
            if inner is None:
                continue
            inner_out = sum(inner_degs) + 2 - i
            outer = _bracket_tensor(L, (inner_out,) + tuple(degs[r] for r in rest))
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
    vanish identically and are skipped.  ``stop_after`` is checked before
    anything is evaluated: an algebra with no brackets never reaches
    ``collect_tensor_violations``.
    """
    require_stop_after(stop_after)
    report = CheckReport()
    degrees = L.degrees

    for (a, b) in sorted(set(L.l2) | {(y, x) for (x, y) in L.l2}):
        lhs = L.l2_tensor(a, b)
        sign = Fraction((-1) ** (a * b))
        rhs = np.swapaxes(L.l2_tensor(b, a), 1, 2)
        if collect_tensor_violations(
            report, f"antisym.l2{(a, b)}", lhs + rhs * sign, stop_after=stop_after
        ):
            return report

    l3_keys = set(L.l3)
    closure = set(l3_keys)
    for key in l3_keys:
        for perm in itertools.permutations(key):
            closure.add(perm)
    for (a, b, c) in sorted(closure):
        base = L.l3_tensor(a, b, c)
        swapped12 = np.swapaxes(L.l3_tensor(b, a, c), 1, 2)
        sign12 = Fraction((-1) ** (a * b))
        if collect_tensor_violations(
            report, f"antisym.l3.swap12{(a, b, c)}", swapped12 + base * sign12, stop_after=stop_after
        ):
            return report
        swapped23 = np.swapaxes(L.l3_tensor(a, c, b), 2, 3)
        sign23 = Fraction((-1) ** (b * c))
        if collect_tensor_violations(
            report, f"antisym.l3.swap23{(a, b, c)}", swapped23 + base * sign23, stop_after=stop_after
        ):
            return report

    max_arity = 3 if L.is_dgla else 5
    for n in range(1, max_arity + 1):
        for degs in itertools.product(degrees, repeat=n):
            residual = _relation_residual(L, degs)
            if residual is None:
                continue
            if collect_tensor_violations(
                report, f"jacobi.n{n}{degs}", residual, stop_after=stop_after
            ):
                return report
    return report


# ---------------------------------------------------------------------------
# Maurer-Cartan elements and twisting
# ---------------------------------------------------------------------------

def mc_residual(L: GradedL3Algebra, gamma: np.ndarray) -> np.ndarray:
    """d gamma + 1/2 [gamma, gamma] + 1/6 [gamma, gamma, gamma] in degree 2."""
    gamma = np.asarray(gamma)
    if gamma.shape != (L.dim(1),):
        raise DegreeError(f"gamma must live in degree 1 (dimension {L.dim(1)})")
    out = xla.zeros(L.dim(2)).copy()
    out += np.dot(L.l1_mat(1), gamma)
    if (1, 1) in L.l2:
        out += xla.apply_multilinear(L.l2[(1, 1)], gamma, gamma) * Fraction(1, 2)
    if (1, 1, 1) in L.l3:
        out += xla.apply_multilinear(L.l3[(1, 1, 1)], gamma, gamma, gamma) * Fraction(1, 6)
    return xla.freeze(out)


def is_mc(L: GradedL3Algebra, gamma: np.ndarray) -> bool:
    return xla.is_zero(mc_residual(L, gamma))


def twist(L: GradedL3Algebra, gamma: np.ndarray) -> GradedL3Algebra:
    """The structure twisted by a Maurer-Cartan element:

        d_g = d + [g, .] + 1/2 [g, g, .]
        [.,.]_g = [.,.] + [g, ., .]
        [.,.,.]_g = [.,.,.]

    (the series terminate since all higher brackets vanish).  The result
    satisfies the same relations, which :func:`check_graded` verifies."""
    if not is_mc(L, gamma):
        raise MaurerCartanError(f"nonzero Maurer-Cartan residual: {mc_residual(L, gamma)}")
    gamma = np.asarray(gamma)
    half = Fraction(1, 2)
    l1 = {}
    for k in L.degrees:
        if L.dim(k + 1) == 0:
            continue
        mat = np.array(L.l1_mat(k), dtype=object, copy=True)
        if (1, k) in L.l2:
            mat = mat + np.tensordot(L.l2[(1, k)], gamma, axes=([1], [0]))
        if (1, 1, k) in L.l3:
            contracted = np.tensordot(L.l3[(1, 1, k)], gamma, axes=([1], [0]))
            mat = mat + np.tensordot(contracted, gamma, axes=([1], [0])) * half
        l1[k] = mat
    l2 = {}
    for a in L.degrees:
        for b in L.degrees:
            if L.dim(a + b) == 0:
                continue
            t = np.array(L.l2_tensor(a, b), dtype=object, copy=True)
            if (1, a, b) in L.l3:
                t = t + np.tensordot(L.l3[(1, a, b)], gamma, axes=([1], [0]))
            l2[(a, b)] = t
    return GradedL3Algebra(dims=dict(L.dims), l1=l1, l2=l2, l3=dict(L.l3))


def symmetry_action_residual(L: GradedL3Algebra, gamma: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The infinitesimal action of x in degree 0 on gamma:
    d x + [gamma, x] + 1/2 [gamma, gamma, x], a vector in degree 1."""
    gamma = np.asarray(gamma)
    x = np.asarray(x)
    if x.shape != (L.dim(0),):
        raise DegreeError(f"x must live in degree 0 (dimension {L.dim(0)})")
    if gamma.shape != (L.dim(1),):
        raise DegreeError(f"gamma must live in degree 1 (dimension {L.dim(1)})")
    out = xla.zeros(L.dim(1)).copy()
    out += np.dot(L.l1_mat(0), x)
    if (1, 0) in L.l2:
        out += xla.apply_multilinear(L.l2[(1, 0)], gamma, x)
    if (1, 1, 0) in L.l3:
        out += xla.apply_multilinear(L.l3[(1, 1, 0)], gamma, gamma, x) * Fraction(1, 2)
    return xla.freeze(out)


def truncation_basis(L: GradedL3Algebra, gamma: np.ndarray) -> Subspace:
    """Basis of the degree-0 infinitesimal stabilizer of gamma: the kernel of
    the twisted differential on the degree-0 component."""
    tw = twist(L, gamma)
    return xla.kernel_basis(tw.l1_mat(0))


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
    values = xla.precompose(xla.precompose(tw.l2_tensor(0, 0), 1, K.basis), 2, K.basis)
    flat = _coords_in(K, values.reshape(K.ambient_dim, k * k), "bracket of stabilizer elements")
    return xla.freeze(flat.reshape(k, k, k))


def inner_symmetries_n2(L: GradedL3Algebra, gamma: np.ndarray) -> EL2Algebra:
    """The semistrict two-term structure of a Maurer-Cartan element in an
    algebra populated in degrees >= -1: complex L^-1 -> ker(d_gamma) with the
    twisted binary bracket and the twisted trilinear bracket as Jacobiator."""
    if any(k <= -2 and d > 0 for k, d in L.dims.items()):
        raise DegreeError("components below degree -1 must vanish for this construction")
    tw = twist(L, gamma)  # raises MaurerCartanError when gamma is not MC
    K = xla.kernel_basis(tw.l1_mat(0))
    n0, n1 = K.dim, L.dim(-1)

    d = _coords_in(K, tw.l1_mat(-1), "image of the twisted differential")
    b00 = _stabilizer_bracket(tw, K)
    b01 = xla.precompose(tw.l2_tensor(0, -1), 1, K.basis)
    b10 = xla.precompose(tw.l2_tensor(-1, 0), 2, K.basis)
    jac3 = tw.l3_tensor(0, 0, 0)
    jac = xla.precompose(xla.precompose(xla.precompose(jac3, 1, K.basis), 2, K.basis), 3, K.basis)

    algebra = EL2Algebra(TwoTermComplex(n0, n1, d), b00, b01, b10, xla.zeros(n1, n0, n0), jac)
    verdict = check_el2(algebra)
    if not verdict.passed:
        raise InvalidStructureError("twisted truncation is not a valid structure", verdict)
    return algebra


@dataclass(frozen=True)
class ActionData:
    """The degree-0 stabilizer acting on the two-term complex: basis of the
    stabilizer and its action tensors on each level."""

    stabilizer: Subspace
    on_c0: np.ndarray  # (n0, k, n0)
    on_c1: np.ndarray  # (n1, k, n1)


@dataclass(frozen=True)
class InnerSymmetriesN3:
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
    d = tw.l1_mat(-2)
    d_up = tw.l1_mat(-1)  # L^-1 -> L^0

    b00 = xla.precompose(tw.l2_tensor(0, -1), 1, d_up)
    b01 = xla.precompose(tw.l2_tensor(0, -2), 1, d_up)
    alt = tw.l2_tensor(-1, -1)
    algebra = EL2Algebra(
        TwoTermComplex(n0, n1, d), b00, b01, xla.zeros(n1, n1, n0),
        alt, xla.zeros(n1, n0, n0, n0),
    )
    verdict = check_el2(algebra)
    if not verdict.passed:
        raise InvalidStructureError("derived-bracket structure is invalid", verdict)
    if not is_hemistrict(algebra):
        raise InvalidStructureError("derived-bracket structure is not hemistrict")

    K = xla.kernel_basis(tw.l1_mat(0))
    k = K.dim
    target = EL2Algebra(
        TwoTermComplex(k, 0, xla.zeros(k, 0)), _stabilizer_bracket(tw, K),
        xla.zeros(0, k, 0), xla.zeros(0, 0, k), xla.zeros(0, k, k), xla.zeros(0, k, k, k),
    )
    f0 = _coords_in(K, d_up, "image of the twisted differential")
    boundary = morph_mod.ELMorphism(
        src=algebra, dst=target, f0=f0, f1=xla.zeros(0, n1), f2=xla.zeros(0, n0, n0),
    )

    action = ActionData(
        stabilizer=K,
        on_c0=xla.precompose(tw.l2_tensor(0, -1), 1, K.basis),
        on_c1=xla.precompose(tw.l2_tensor(0, -2), 1, K.basis),
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
    for name, residual, power in identities:
        collect_tensor_violations(report, name, residual, scale=den**power)
    return report
