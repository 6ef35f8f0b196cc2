"""The cohomology operators are assembled in one integer evaluation.

These tests hold that assembly to the plain construction it replaced: one
Fraction evaluation of the cocycle equations, or of the coboundary formula,
per basis vector.  The coboundary matrix must come out equal; the cocycle
matrix may differ by the row-block scaling (D**2 on the Jacobiator equation,
D on the other three, D the common denominator of the structure), which
keeps its row space and kernel.
"""

from fractions import Fraction as F

import numpy as np
import pytest

import cohom_reference
from conftest import coboundary_reference, rational_cases
from lie2alg import cohom, exactla as xla


def cocycle_matrix_reference(g, m):
    ambient = cohom.pair_ambient_dim(g, m)
    columns = []
    for idx in range(ambient):
        v = xla.zeros(ambient).copy()
        v[idx] = F(1)
        pair = cohom.unflatten_pair(g, m, xla.freeze(v))
        columns.append([res.reshape(-1) for _, res in cohom_reference.cocycle_residuals(g, m, pair)])
    blocks = cohom_reference.cocycle_residuals(g, m, cohom.zero_pair(g, m))
    sizes = [res.size for _, res in blocks]
    out = np.empty((sum(sizes), ambient), dtype=object)
    for idx, parts in enumerate(columns):
        out[:, idx] = np.concatenate(parts)
    return out, sizes


def coboundary_matrix_reference(g, m):
    n, dm = g.dim, m.dim
    cols = dm * n * n
    out = np.empty((cohom.pair_ambient_dim(g, m), cols), dtype=object)
    for idx in range(cols):
        f = xla.zeros(dm, n, n).copy()
        f.reshape(-1)[idx] = F(1)
        out[:, idx] = cohom.flatten_pair(coboundary_reference(g, m, f))
    return out


@pytest.fixture(scope="module")
def assembly_corpus(gm_corpus):
    return list(gm_corpus) + rational_cases()


def test_rational_cases_need_scaling():
    for name, g, m in rational_cases():
        assert xla.common_denominator(g.c, m.rho) > 1, name


def test_cocycle_matrix_is_row_scaled_reference(assembly_corpus):
    for name, g, m in assembly_corpus:
        den = xla.common_denominator(g.c, m.rho)
        want, sizes = cocycle_matrix_reference(g, m)
        got = cohom._cocycle_matrix(g, m)
        assert got.shape == want.shape, name
        assert all(type(x) is int for x in got.flat), name
        scale = np.repeat(np.array([den**2, den, den, den], dtype=object), sizes)
        assert xla.arrays_equal(got, want * scale[:, None]), name
        assert xla.arrays_equal(cohom.zl3(g, m).basis, xla.kernel_basis(want).basis), name


def test_coboundary_matrix_equals_reference(assembly_corpus):
    for name, g, m in assembly_corpus:
        got = cohom.coboundary_matrix(g, m)
        assert xla.arrays_equal(got, coboundary_matrix_reference(g, m)), name
        assert all(type(x) is F for x in got.flat), name
