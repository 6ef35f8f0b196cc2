"""Morphisms and 2-morphisms between two-term structures.

A morphism is a chain map (f0, f1) together with a bilinear homotopy f2
measuring the failure to preserve brackets on the nose;  f2 must also be
compatible with the alternators and Jacobiators of its endpoints.  A
2-morphism between parallel morphisms is a degree -1 map theta that is a
chain homotopy from one chain map to the other and relates the two bracket
homotopies, with the quadratic correction term [theta(x), theta(y)]' taken in
the derived sense [d'theta(x), theta(y)]'.

Composition formulas:

* morphisms:  (g . f)^2(x, y) = g2(f0 x, f0 y) + g1(f2(x, y))
* vertical:   theta = theta1 + theta2  (arrow parts add)
* horizontal: theta(x) = psi(f0 x) + k1(theta_F(x)),  obtained by expanding
  the whiskered composite on the categorical side; the tests validate the
  formula against that categorical expansion.

A morphism is an equivalence exactly when its chain map part is a
quasi-isomorphism.

The identities of morphisms and 2-morphisms are written with
``exactla.einsum``, every axis named, so a formula reads no axis by
position: ``cohom`` evaluates the Jacobiator identity over a leading batch
of bilinear maps f2 for its coboundary operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import dkcore, exactla as xla
from .dkcore import CompositionError
from .el2 import EL2Algebra, _integer_copy
from .exactla import TensorRecord
from .report import CheckReport, check_identities


@dataclass(frozen=True, eq=False)
class ELMorphism(TensorRecord):
    """(f0, f1, f2): src -> dst."""

    src: EL2Algebra
    dst: EL2Algebra
    f0: np.ndarray
    f1: np.ndarray
    f2: np.ndarray

    def shapes(self):
        m0, m1 = self.src.complex.n0, self.src.complex.n1
        n0, n1 = self.dst.complex.n0, self.dst.complex.n1
        return {"f0": (n0, m0), "f1": (n1, m1), "f2": (n1, m0, m0)}

    @property
    def chain_map(self) -> dkcore.ChainMap:
        return dkcore.ChainMap(self.src.complex, self.dst.complex, self.f0, self.f1)


def identity_morphism(e: EL2Algebra) -> ELMorphism:
    n0, n1 = e.complex.n0, e.complex.n1
    return ELMorphism(e, e, xla.identity(n0), xla.identity(n1), xla.zeros(n1, n0, n0))


def check_morphism(m: ELMorphism, *, stop_after: Optional[int] = None) -> CheckReport:
    """All defining identities of a morphism on basis tuples: the chain-map
    condition, the three bracket-homotopy conditions, and compatibility with
    the alternators and Jacobiators of the endpoints."""
    return _check_morphism_body(*_integer_copy(m), stop_after)


def _check_morphism_body(m: ELMorphism, den: int, stop_after: Optional[int]) -> CheckReport:
    """The checker on ``el2._integer_copy(x)``, reporting the residuals of x."""
    return check_identities(_morphism_identities(m), den=den, stop_after=stop_after)


def _morphism_identities(m: ELMorphism) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each identity of the morphism as (name, residual, power of den)."""
    src, dst = m.src, m.dst
    d, dp = src.complex.d, dst.complex.d
    f0, f1, f2 = m.f0, m.f1, m.f2

    yield "chain-map", xla.einsum("km,ma->ka", f0, d) - xla.einsum("km,ma->ka", dp, f1), 4

    # [f0 x, f0 y]' - f0[x, y] = d' f2(x, y)
    yield "bracket.00", (_pullback(dst.b00, f0, f0) - xla.einsum("km,mxy->kxy", f0, src.b00)
                         - xla.einsum("km,mxy->kxy", dp, f2)), 6

    # [f1 a, f0 y]' - f1[a, y] = f2(da, y)
    yield "bracket.10", (_pullback(dst.b10, f1, f0) - xla.einsum("km,may->kay", f1, src.b10)
                         - xla.einsum("kmy,ma->kay", f2, d)), 7

    # [f0 x, f1 b]' - f1[x, b] = f2(x, db)
    yield "bracket.01", (_pullback(dst.b01, f0, f1) - xla.einsum("km,mxb->kxb", f1, src.b01)
                         - xla.einsum("kxm,mb->kxb", f2, d)), 7

    # <f0 x, f0 y>' - f1<x, y> = f2(x, y) + f2(y, x)
    yield "alternator", (_pullback(dst.alt, f0, f0) - xla.einsum("km,mxy->kxy", f1, src.alt)
                         - f2 - xla.einsum("kyx->kxy", f2)), 5
    yield "jacobiator", _morphism_jacobiator(m), 9


def _pullback(t: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """t(a x, b y) for a bilinear t, axes (out, x, y)."""
    return xla.einsum("kxm,my->kxy", xla.einsum("kmy,mx->kxy", t, a), b)


def _morphism_jacobiator(m: ELMorphism) -> np.ndarray:
    """Residual of the Jacobiator identity of a morphism (``cohom``'s
    homotopy transfer solves it for the source Jacobiator, and its
    coboundary is minus it for (1, 1, f) between skeletal structures with
    zero Jacobiator):

        <f0 x, f0 y, f0 z>' - f1<x, y, z> =
          [f0x, f2(y,z)]' - [f0y, f2(x,z)]' - [f2(x,y), f0z]'
          - f2([x,y], z) - f2(y, [x,z]) + f2(x, [y,z])

    Axes (out, x, y, z); four distinct contractions of f2, the second and
    fifth terms axis permutations of the first and sixth."""
    src, dst = m.src, m.dst
    f0, f1, f2 = m.f0, m.f1, m.f2
    jac_ff = xla.einsum("kmyz,mx->kxyz", dst.jac, f0)
    jac_ff = xla.einsum("kxmz,my->kxyz", jac_ff, f0)
    jac_ff = xla.einsum("kxym,mz->kxyz", jac_ff, f0)
    lhs = jac_ff - xla.einsum("km,mxyz->kxyz", f1, src.jac)
    t1 = xla.einsum("kxm,myz->kxyz", xla.einsum("kmb,mx->kxb", dst.b01, f0), f2)    # [f0x, f2(y,z)]'
    t2 = xla.einsum("kyxz->kxyz", t1)                                              # [f0y, f2(x,z)]'
    t3 = xla.einsum("kmz,mxy->kxyz", xla.einsum("kam,mz->kaz", dst.b10, f0), f2)    # [f2(x,y), f0z]'
    t4 = xla.einsum("kmz,mxy->kxyz", f2, src.b00)                                  # f2([x,y], z)
    t6 = xla.einsum("kxm,myz->kxyz", f2, src.b00)                                  # f2(x, [y,z])
    t5 = xla.einsum("kyxz->kxyz", t6)                                              # f2(y, [x,z])
    return lhs - (t1 - t2 - t3 - t4 - t5 + t6)


def compose(g: ELMorphism, f: ELMorphism) -> ELMorphism:
    """(g . f)^2(x, y) = g2(f0 x, f0 y) + g1 f2(x, y)."""
    if f.dst != g.src:
        raise CompositionError("morphism endpoints do not match")
    f2 = _pullback(g.f2, f.f0, f.f0) + xla.postcompose(g.f1, f.f2)
    return ELMorphism(f.src, g.dst, np.dot(g.f0, f.f0), np.dot(g.f1, f.f1), f2)


def is_equivalence(m: ELMorphism) -> bool:
    return dkcore.is_quasi_iso(m.chain_map)


@dataclass(frozen=True, eq=False)
class ELTwoMorphism(TensorRecord):
    """theta: src => dst between parallel morphisms."""

    src: ELMorphism
    dst: ELMorphism
    theta: np.ndarray

    def shapes(self):
        return {"theta": (self.src.dst.complex.n1, self.src.src.complex.n0)}

    def validate(self) -> None:
        if self.src.src != self.dst.src or self.src.dst != self.dst.dst:
            raise CompositionError("2-morphism endpoints are not parallel")


def identity_2morphism(m: ELMorphism) -> ELTwoMorphism:
    return ELTwoMorphism(m, m, xla.zeros(m.dst.complex.n1, m.src.complex.n0))


def check_2morphism(t: ELTwoMorphism, *, stop_after: Optional[int] = None) -> CheckReport:
    """theta is a chain homotopy from the source to the target chain map, and

        f2(x,y) - g2(x,y) = [f0x, theta y]' + [theta x, f0y]'
                            - theta([x,y]) - [theta x, theta y]'

    with the last bracket the derived one, [d'theta x, theta y]'."""
    return _check_2morphism_body(*_integer_copy(t), stop_after)


def _check_2morphism_body(t: ELTwoMorphism, den: int, stop_after: Optional[int]) -> CheckReport:
    """The checker on ``el2._integer_copy(x)``, reporting the residuals of x."""
    return check_identities(_2morphism_identities(t), den=den, stop_after=stop_after)


def _2morphism_identities(t: ELTwoMorphism) -> Iterator[tuple[str, np.ndarray, int]]:
    """Each identity of the 2-morphism as (name, residual, power of den)."""
    f, g = t.src, t.dst
    theta = t.theta
    src = f.src
    dst = f.dst
    d, dp = src.complex.d, dst.complex.d

    dtheta = xla.einsum("km,mx->kx", dp, theta)
    yield "homotopy.objects", g.f0 - f.f0 - dtheta, 2
    yield "homotopy.parts", g.f1 - f.f1 - xla.einsum("km,ma->ka", theta, d), 3

    # f2 - g2 = [f0x, theta y]' + [theta x, f0y]' - theta[x, y] - [d'theta x, theta y]'
    t1 = _pullback(dst.b01, f.f0, theta)
    t2 = _pullback(dst.b10, theta, f.f0)
    t3 = xla.einsum("km,mxy->kxy", theta, src.b00)
    t4 = _pullback(dst.b01, dtheta, theta)
    yield "homotopy.bracket", f.f2 - g.f2 - t1 - t2 + t3 + t4, 5


def vertical_compose(t2: ELTwoMorphism, t1: ELTwoMorphism) -> ELTwoMorphism:
    """Arrow parts add: theta = theta1 + theta2."""
    if t1.dst != t2.src:
        raise CompositionError("2-morphisms are not vertically composable")
    return ELTwoMorphism(t1.src, t2.dst, t1.theta + t2.theta)


def inverse_2morphism(t: ELTwoMorphism) -> ELTwoMorphism:
    return ELTwoMorphism(t.dst, t.src, -t.theta)


def horizontal_compose(tG: ELTwoMorphism, tF: ELTwoMorphism) -> ELTwoMorphism:
    """For tF: F => G (between L -> L') and tG: H => K (between L' -> L''),
    the composite H.F => K.G has theta(x) = psi(f0 x) + k1(theta_F(x))."""
    if tF.src.dst != tG.src.src:
        raise CompositionError("2-morphisms do not share the middle structure")
    F, K = tF.src, tG.dst
    theta = np.dot(tG.theta, F.f0) + np.dot(K.f1, tF.theta)
    return ELTwoMorphism(compose(tG.src, tF.src), compose(tG.dst, tF.dst), theta)


def whisker_right(m: ELMorphism, t: ELTwoMorphism) -> ELTwoMorphism:
    """t * m: precompose both sides of t with m."""
    return horizontal_compose(t, identity_2morphism(m))


def whisker_left(t: ELTwoMorphism, m: ELMorphism) -> ELTwoMorphism:
    """m * t: postcompose both sides of t with m."""
    return horizontal_compose(identity_2morphism(m), t)
