"""The categorical coherence checker evaluated one basis tuple at a time.

This is the loop body ``el2.categorical_coherence_check`` had before it
evaluated each diagram over all basis tuples at once, kept as the reference
that the batched checker is compared against: the same diagrams, the same
paths of arrow operations, and the same report, built one (identity, basis
tuple) at a time in lexicographic order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from lie2alg import exactla as xla
from lie2alg.el2 import CATEGORICAL_TO_EL2, RESIDUAL_POWERS, EL2Algebra
from lie2alg.report import CheckReport, Violation, exact_residual


def _ev2(t: np.ndarray, x, y) -> np.ndarray:
    """Evaluate a bilinear tensor on arguments that are either basis indices
    (plain ints, costing a slice) or coordinate vectors."""
    if isinstance(x, int):
        sub = t[:, x, :]
        return sub[:, y] if isinstance(y, int) else np.dot(sub, y)
    if isinstance(y, int):
        return np.dot(t[:, :, y], x)
    return np.dot(np.tensordot(t, x, axes=([1], [0])), y)


def _ev3(t: np.ndarray, x, y, z) -> np.ndarray:
    if isinstance(x, int):
        return _ev2(t[:, x, :, :], y, z)
    if isinstance(y, int):
        return _ev2(t[:, :, y, :], x, z)
    if isinstance(z, int):
        return _ev2(t[:, :, :, z], x, y)
    return _ev2(np.tensordot(t, z, axes=([3], [0])), x, y)


class _FastArrow:
    """An arrow of the associated category held as (object, arrow part);
    either component may be a basis index or a coordinate vector."""

    __slots__ = ("obj", "part")

    def __init__(self, obj, part):
        self.obj = obj
        self.part = part


class _GammaEvaluator:
    """Arrow-level evaluation of the structure on the associated category.

    Implements the same operations as :class:`~lie2alg.dkcore.BilinearBracket`
    and :func:`~lie2alg.dkcore.compose_arrows` but accepts basis indices in
    place of coordinate vectors so that diagram paths cost slices instead of
    dense contractions; agreement with the reference arrow operations is
    pinned by tests."""

    def __init__(self, e: EL2Algebra):
        self.e = e
        self.n0 = e.complex.n0
        self.n1 = e.complex.n1
        # plain ints: a Fraction constant would turn the integer-scaled run
        # back into Fraction arithmetic
        self.zero0 = xla.freeze(np.zeros(self.n0, dtype=object))
        self.zero1 = xla.freeze(np.zeros(self.n1, dtype=object))

    def vec0(self, x) -> np.ndarray:
        if isinstance(x, int):
            out = self.zero0.copy()
            out[x] = 1
            return out
        return x

    def vec1(self, a) -> np.ndarray:
        if isinstance(a, int):
            out = self.zero1.copy()
            out[a] = 1
            return out
        return a

    def d_of(self, a) -> np.ndarray:
        d = self.e.complex.d
        return d[:, a] if isinstance(a, int) else np.dot(d, a)

    def one(self, x) -> _FastArrow:
        """Identity arrows carry the shared zero part, recognized by the
        elision logic of :meth:`on_arrows`."""
        return _FastArrow(x, self.zero1)

    def part_arrow(self, a) -> _FastArrow:
        """The arrow (0, a): 0 -> d a."""
        return _FastArrow(self.zero0, self.vec1(a))

    def target(self, f: _FastArrow) -> np.ndarray:
        return self.vec0(f.obj) + np.dot(self.e.complex.d, self.vec1(f.part))

    def b(self, x, y) -> np.ndarray:
        return _ev2(self.e.b00, x, y)

    def on_arrows(self, f: _FastArrow, g: _FastArrow, need_obj: bool = True) -> _FastArrow:
        """[(x,a), (y,b)] = ([x,y], [x,b] + [a,y] + [da,b]).

        Terms multiplied by the zero part of an identity arrow are elided;
        ``need_obj=False`` skips the object component for path-sum use."""
        f_id = f.part is self.zero1
        g_id = g.part is self.zero1
        part = self.zero1
        if not g_id:
            part = _ev2(self.e.b01, f.obj, g.part)
        if not f_id:
            part = part + _ev2(self.e.b10, f.part, g.obj)
        if not (f_id or g_id):
            part = part + _ev2(self.e.b01, self.d_of(f.part), g.part)
        obj = _ev2(self.e.b00, f.obj, g.obj) if need_obj else None
        return _FastArrow(obj, part)

    def s_part(self, x, y) -> np.ndarray:
        return -_ev2(self.e.alt, x, y)

    def j_part(self, x, y, z) -> np.ndarray:
        return -_ev3(self.e.jac, x, y, z)

    def alternator_arrow(self, x, y) -> _FastArrow:
        """([x,y], -alt(x,y)): the component of the alternator at (x, y)."""
        return _FastArrow(self.b(x, y), self.s_part(x, y))

    def jacobiator_arrow(self, x, y, z) -> _FastArrow:
        """([x,[y,z]], -jac(x,y,z)): the component of the Jacobiator."""
        return _FastArrow(self.b(x, self.b(y, z)), self.j_part(x, y, z))



def categorical_reference(e: EL2Algebra, den: int, stop_after: Optional[int]) -> CheckReport:
    """The per-tuple checker body on ``el2._integer_copy(x)``, reporting the
    residuals of x; each identity carries the power of its partner in
    RESIDUAL_POWERS."""
    ev = _GammaEvaluator(e)
    report = CheckReport()
    n0, n1 = ev.n0, ev.n1

    def done() -> bool:
        return stop_after is not None and len(report.violations) >= stop_after

    def record(name: str, at: tuple[int, ...], residual: np.ndarray) -> None:
        residual = np.asarray(residual)
        if not xla.is_zero(residual):
            scale = den ** RESIDUAL_POWERS[CATEGORICAL_TO_EL2[name]]
            report.violations.append(Violation(name, at, exact_residual(residual.flat, scale)))

    # cat.target.b01: t([1_x, (0,b)]) = [x, db]
    for i in range(n0):
        for a in range(n1):
            arr = ev.on_arrows(ev.one(i), ev.part_arrow(a))
            want = ev.b(i, ev.target(ev.part_arrow(a)))
            record("cat.target.b01", (i, a), ev.target(arr) - want)
            if done():
                return report

    # cat.target.b10: t([(0,a), 1_y]) = [da, y]
    for a in range(n1):
        for j in range(n0):
            arr = ev.on_arrows(ev.part_arrow(a), ev.one(j))
            want = ev.b(ev.target(ev.part_arrow(a)), j)
            record("cat.target.b10", (a, j), ev.target(arr) - want)
            if done():
                return report

    # cat.compose: [A'A, B'B] = [A',B'][A,B] for the composable pairs
    # A = 1_0 then A' = (0, a);  B = (0, b) then B' = 1_{db}.
    for a in range(n1):
        A = ev.one(ev.zero0)
        Ap = ev.part_arrow(a)
        AA = _FastArrow(ev.zero0, Ap.part)  # Ap after A: parts add
        for b in range(n1):
            B = ev.part_arrow(b)
            Bp = ev.one(ev.target(B))
            BB = _FastArrow(ev.zero0, B.part)  # Bp after B
            lhs = ev.on_arrows(AA, BB)
            first = ev.on_arrows(A, B)
            second = ev.on_arrows(Ap, Bp)
            record("cat.compose", (a, b), lhs.part - (first.part + second.part))
            if done():
                return report

    # cat.alternator.arrow: t(S_{x,y}) = -[y,x]
    for i in range(n0):
        for j in range(n0):
            s_arrow = ev.alternator_arrow(i, j)
            record("cat.alternator.arrow", (i, j), ev.target(s_arrow) + ev.b(j, i))
            if done():
                return report

    # cat.alternator.nat10 at (a, y): S against ((0,a), 1_y)
    for a in range(n1):
        A = ev.part_arrow(a)
        da = ev.target(A)
        for j in range(n0):
            lhs = ev.on_arrows(A, ev.one(j)).part + ev.alternator_arrow(da, j).part
            rhs = ev.alternator_arrow(ev.zero0, j).part - ev.on_arrows(ev.one(j), A).part
            record("cat.alternator.nat10", (a, j), lhs - rhs)
            if done():
                return report

    # cat.alternator.nat01 at (x, b): S against (1_x, (0,b))
    for i in range(n0):
        for b in range(n1):
            B = ev.part_arrow(b)
            db = ev.target(B)
            lhs = ev.on_arrows(ev.one(i), B).part + ev.alternator_arrow(i, db).part
            rhs = ev.alternator_arrow(i, ev.zero0).part - ev.on_arrows(B, ev.one(i)).part
            record("cat.alternator.nat01", (i, b), lhs - rhs)
            if done():
                return report

    # cat.jacobiator.arrow: t(J_{x,y,z}) = [[x,y],z] + [y,[x,z]]
    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                j_arrow = ev.jacobiator_arrow(i, j, k)
                want = ev.b(ev.b(i, j), k) + ev.b(j, ev.b(i, k))
                record("cat.jacobiator.arrow", (i, j, k), ev.target(j_arrow) - want)
                if done():
                    return report

    # Jacobiator naturality against one pure-arrow-part argument
    for a in range(n1):
        A = ev.part_arrow(a)
        da = ev.target(A)
        for j in range(n0):
            ab = ev.on_arrows(A, ev.one(j))
            for k in range(n0):
                inner = ev.one(ev.b(j, k))
                lhs = ev.on_arrows(A, inner).part + ev.jacobiator_arrow(da, j, k).part
                ac = ev.on_arrows(A, ev.one(k))
                rhs = (
                    ev.jacobiator_arrow(ev.zero0, j, k).part
                    + ev.on_arrows(ab, ev.one(k)).part
                    + ev.on_arrows(ev.one(j), ac).part
                )
                record("cat.jacobiator.nat100", (a, j, k), lhs - rhs)
                if done():
                    return report

    for i in range(n0):
        for b in range(n1):
            B = ev.part_arrow(b)
            db = ev.target(B)
            xb = ev.on_arrows(ev.one(i), B)
            for k in range(n0):
                inner = ev.on_arrows(B, ev.one(k))
                lhs = ev.on_arrows(ev.one(i), inner).part + ev.jacobiator_arrow(i, db, k).part
                rhs = (
                    ev.jacobiator_arrow(i, ev.zero0, k).part
                    + ev.on_arrows(xb, ev.one(k)).part
                    + ev.on_arrows(B, ev.one(ev.b(i, k))).part
                )
                record("cat.jacobiator.nat010", (i, b, k), lhs - rhs)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for c in range(n1):
                C = ev.part_arrow(c)
                dc = ev.target(C)
                inner = ev.on_arrows(ev.one(j), C)
                lhs = ev.on_arrows(ev.one(i), inner).part + ev.jacobiator_arrow(i, j, dc).part
                xc = ev.on_arrows(ev.one(i), C)
                rhs = (
                    ev.jacobiator_arrow(i, j, ev.zero0).part
                    + ev.on_arrows(ev.one(ev.b(i, j)), C).part
                    + ev.on_arrows(ev.one(j), xc).part
                )
                record("cat.jacobiator.nat001", (i, j, c), lhs - rhs)
                if done():
                    return report

    # the four coherence diagrams, compared by total path arrow parts;
    # whiskering through on_arrows with need_obj=False keeps the sums cheap,
    # and identity-side terms are elided by the composition law itself
    def whisk_left(x, arrow_part):
        """[1_x, A] for an arrow with the given part."""
        return ev.on_arrows(ev.one(x), _FastArrow(None, arrow_part), need_obj=False).part

    def whisk_right(arrow_part, y):
        """[A, 1_y]."""
        return ev.on_arrows(_FastArrow(None, arrow_part), ev.one(y), need_obj=False).part

    for i in range(n0):
        for j in range(n0):
            byx = {k: ev.b(j, k) for k in range(n0)}   # [y, -]
            bxy = {k: ev.b(i, k) for k in range(n0)}   # [x, -]
            for k in range(n0):
                for l in range(n0):
                    left = (
                        whisk_left(i, ev.j_part(j, k, l))
                        + ev.j_part(i, byx[k], l)
                        + ev.j_part(i, k, byx[l])
                        + whisk_right(ev.j_part(i, j, k), l)
                        + whisk_left(k, ev.j_part(i, j, l))
                    )
                    right = (
                        ev.j_part(i, j, ev.b(k, l))
                        + ev.j_part(ev.b(i, j), k, l)
                        + whisk_left(j, ev.j_part(i, k, l))
                        + ev.j_part(j, bxy[k], l)
                        + ev.j_part(j, k, bxy[l])
                    )
                    record("cat.pentagon", (i, j, k, l), left - right)
                    if done():
                        return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                # [S_{x,y}, z] then minus the flipped Jacobiator at (y, x, z),
                # against the flipped Jacobiator at (x, y, z); the flip carries
                # part +jac, so both appearances enter as j_part here
                residual = (
                    whisk_right(ev.s_part(i, j), k)
                    + ev.j_part(j, i, k)
                    + ev.j_part(i, j, k)
                )
                record("cat.triangle-sym12", (i, j, k), residual)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                path_a = whisk_left(i, ev.s_part(j, k)) - ev.j_part(i, k, j)
                path_b = (
                    ev.j_part(i, j, k)
                    + ev.s_part(ev.b(i, j), k)
                    + ev.s_part(j, ev.b(i, k))
                )
                record("cat.square-sym23", (i, j, k), path_a - path_b)
                if done():
                    return report

    for i in range(n0):
        for j in range(n0):
            for k in range(n0):
                yz = ev.b(j, k)
                loop = ev.s_part(i, yz) - ev.s_part(yz, i)
                record("cat.triangle-symm", (i, j, k), loop)
                if done():
                    return report

    return report
