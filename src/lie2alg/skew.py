"""Skew-symmetrization onto semistrict structures.

The binary bracket is replaced by its antisymmetrization, the alternator is
discarded, and the Jacobiator becomes

    {x,y,z} = 1/6 sum_perm sgn <perm> - 1/12 sum_perm sgn <[perm_1, perm_2], perm_3>

with those two rational coefficients exact and fixed.  The result is always
semistrict, the operation is idempotent, and on structures with trivial
Jacobiator the output Jacobiator is minus the bracket-alternator term alone.

On morphisms the bilinear homotopy is antisymmetrized; on 2-morphisms the
arrow part is untouched.  Both choices are validated by the checkers in the
test suite rather than assumed, and a checker failure would surface as a
counterexample, not get patched over.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactla as xla
from .el2 import EL2Algebra, InvalidStructureError, check_el2, zero_el2
from .morph import ELMorphism, ELTwoMorphism

_HALF = Fraction(1, 2)


def skew_jacobiator(jac: np.ndarray, alt: np.ndarray, b00: np.ndarray) -> np.ndarray:
    """1/6 sum_perm sgn jac(perm) - 1/12 sum_perm sgn alt([perm_1, perm_2], perm_3),
    axes (out, x, y, z).  On a skeletal structure this is the map from the
    cocycle pair (alt, jac) to its Chevalley-Eilenberg 3-cochain.

    Computed on Python ints as (2 A(jac D**2) - A(<[.,.],.> on alt D and
    b00 D)) / (12 D**2), with A the alternating sum and D the common
    denominator of the three tensors; the value is the Fraction one."""
    den = xla.common_denominator(jac, alt, b00)
    alt_br = xla.plug(xla.scaled_ints(alt, den), 1, xla.scaled_ints(b00, den))   # <[x,y], z>
    total = xla.alternate(xla.scaled_ints(jac, den**2), 2) - xla.alternate(alt_br, 1)
    return xla.unscaled(total, 12 * den**2)


def skew_symmetrize(e: EL2Algebra) -> EL2Algebra:
    """The semistrict structure with antisymmetrized brackets.

    Validates the input first (the construction is only meaningful on
    structures satisfying the axioms)."""
    verdict = check_el2(e)
    if not verdict.passed:
        raise InvalidStructureError("cannot skew-symmetrize an invalid structure", verdict)
    b00 = xla.alternate(e.b00, _HALF)
    # {x, a} = 1/2 ([x, a] - [a, x])  and  {a, x} = -{x, a}
    b01 = (e.b01 - np.moveaxis(e.b10, 1, 2)) * _HALF
    b10 = -np.moveaxis(b01, 1, 2)
    jac = skew_jacobiator(e.jac, e.alt, e.b00)
    return zero_el2(e.complex.n0, e.complex.n1, e.complex.d, b00=b00, b01=b01, b10=b10, jac=jac)


def skew_symmetrize_morphism(m: ELMorphism) -> ELMorphism:
    """Antisymmetrize the bilinear homotopy; endpoints are skew-symmetrized."""
    f2 = xla.alternate(m.f2, _HALF)
    return ELMorphism(skew_symmetrize(m.src), skew_symmetrize(m.dst), m.f0, m.f1, f2)


def skew_symmetrize_2morphism(t: ELTwoMorphism) -> ELTwoMorphism:
    """The arrow part carries over verbatim."""
    return ELTwoMorphism(skew_symmetrize_morphism(t.src), skew_symmetrize_morphism(t.dst), t.theta)
