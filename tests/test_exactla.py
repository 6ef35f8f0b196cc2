import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lie2alg import exactla as xla


rationals = st.fractions(min_value=-30, max_value=30, max_denominator=7)


def small_matrix(max_dim=5):
    return st.integers(0, max_dim).flatmap(
        lambda r: st.integers(0, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: xla.matrix(rows) if r else xla.zeros(0, c))
        )
    )


def rref_reference(m):
    """Plain Fraction Gauss-Jordan elimination with the same pivot rule as
    ``xla.rref``: the reference the fraction-free elimination must match."""
    m = np.asarray(m)
    nrows, ncols = m.shape
    r = np.array(m, dtype=object, copy=True)
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot_row = next((i for i in range(row, nrows) if r[i, col] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != row:
            r[[row, pivot_row], :] = r[[pivot_row, row], :]
        inv = F(1) / xla.rat(r[row, col])
        if inv != 1:
            r[row, :] = r[row, :] * inv
        for i in range(nrows):
            if i != row and r[i, col] != 0:
                r[i, :] = r[i, :] - r[i, col] * r[row, :]
        pivots.append(col)
        row += 1
    return r, tuple(pivots)


def assert_rref_matches_reference(m):
    r, pivots = xla.rref(m)
    want, want_pivots = rref_reference(m)
    assert pivots == want_pivots
    assert r.shape == want.shape and xla.arrays_equal(r, want)
    assert all(type(x) is F for x in r.flat)


def test_rat_parsing():
    assert xla.rat("3/4") == F(3, 4)
    assert xla.rat("-6/8") == F(-3, 4)
    assert xla.rat(5) == F(5)
    assert xla.rat_str(F(8, 2)) == "4"
    assert xla.rat_str(F(-1, 3)) == "-1/3"
    with pytest.raises(xla.ShapeError):
        xla.rat("1/0")
    with pytest.raises(xla.ShapeError):
        xla.rat("0.5x")


def test_numpy_integer_scalars_are_exact():
    """numpy integer scalars convert like Python ints; booleans and floats,
    Python or numpy, are refused."""
    ints = np.array([[1, -2], [3, 4]], dtype=np.int64)
    got = xla.as_exact(ints)
    assert xla.arrays_equal(got, xla.matrix([[1, -2], [3, 4]]))
    assert all(type(x) is F for x in got.flat)
    assert xla.arrays_equal(xla.vector(np.arange(3, dtype=np.int32)), xla.vector([0, 1, 2]))
    assert xla.rat(np.uint8(7)) == F(7) and type(xla.rat(np.int64(-5))) is F
    for bad in (True, np.bool_(False), 0.5, np.float64(1.0)):
        with pytest.raises(xla.ShapeError):
            xla.rat(bad)
    for bad in (np.array([1, 0], dtype=bool), np.array([1.0, 2.0])):
        with pytest.raises(xla.ShapeError):
            xla.as_exact(bad)
        with pytest.raises(xla.ShapeError):
            xla.vector(bad)


def test_rref_identity():
    m = xla.identity(2)
    r, pivots = xla.rref(m)
    assert xla.arrays_equal(r, m)
    assert pivots == (0, 1)


def test_rref_hand_reduced():
    # [[2,4],[1,2]]: scale row0 by 1/2, eliminate row1 -> [[1,2],[0,0]]
    m = xla.matrix([[2, 4], [1, 2]])
    r, pivots = xla.rref(m)
    assert xla.arrays_equal(r, xla.matrix([[1, 2], [0, 0]]))
    assert pivots == (0,)


def test_rref_empty():
    m = xla.zeros(0, 0)
    r, pivots = xla.rref(m)
    assert r.shape == (0, 0)
    assert pivots == ()


def test_rref_matches_fraction_reference_on_edge_cases():
    rng = random.Random(11)
    low_rank = [[F(rng.randrange(-3, 4), rng.choice([1, 2, 3])) for _ in range(2)] for _ in range(5)]
    right = [[F(rng.randrange(-3, 4), rng.choice([1, 5])) for _ in range(6)] for _ in range(2)]
    cases = [
        xla.zeros(0, 0), xla.zeros(0, 3), xla.zeros(3, 0),
        xla.zeros(3, 4),
        xla.matrix([[1, 2, 3], [2, 4, 6], [0, 0, 0], [-1, -2, -3]]),
        np.dot(xla.matrix(low_rank), xla.matrix(right)),
        xla.matrix([[0, 0, 5, 7], [0, 3, 1, 0], [0, 6, 2, 0], [9, 0, 0, 1]]),
        xla.matrix([[F(1, 3), F(-2, 7)], [F(2, 9), F(5, 11)], [F(7, 2), 1]]),
    ]
    ints = np.empty((3, 3), dtype=object)
    ints[...] = [[2, -4, 6], [1, 1, 1], [3, -3, 7]]
    cases += [ints, np.array([[4, 8], [6, 12]], dtype=np.int64)]
    for m in cases:
        assert_rref_matches_reference(m)


def test_quotient_matches_greedy_extension():
    """One elimination of [b | z] picks the columns of z that per-column
    solves against the growing basis would pick."""
    rng = random.Random(5)
    for _ in range(20):
        zb = xla.matrix([[F(rng.randrange(-2, 3), rng.choice([1, 2])) for _ in range(5)]
                         for _ in range(6)])
        z = xla.image_basis(zb)
        b = xla.image_basis(np.dot(z.basis, xla.matrix(
            [[rng.randrange(-1, 2) for _ in range(2)] for _ in range(z.dim)])))
        current = b.basis
        reps = []
        for j in range(z.dim):
            if xla.solve(current, z.basis[:, j]) is None:
                reps.append(j)
                current = np.column_stack([current, z.basis[:, j]])
        dim, got = xla.quotient(z, b)
        assert dim == len(reps) == z.dim - b.dim
        assert xla.arrays_equal(got, z.basis[:, reps])


def test_kernel_identity_and_zero():
    assert xla.kernel_basis(xla.identity(3)).dim == 0
    k = xla.kernel_basis(xla.zeros(1, 3))
    assert k.dim == 3
    assert xla.arrays_equal(k.basis, xla.identity(3))


def test_kernel_row_vector():
    k = xla.kernel_basis(xla.matrix([[1, 1]]))
    assert k.dim == 1
    v = k.basis[:, 0]
    # oracle: exhaustively m v = 0 and v spans the expected line
    assert sum(v) == 0
    assert v[1] == 1 and v[0] == -1


def test_image_basis():
    assert xla.image_basis(xla.identity(3)).dim == 3
    assert xla.image_basis(xla.zeros(2, 2)).dim == 0
    im = xla.image_basis(xla.matrix([[1, 2], [2, 4]]))
    assert im.dim == 1
    assert xla.arrays_equal(im.basis[:, 0], xla.vector([1, 2]))


def test_membership():
    s = xla.Subspace(2, xla.matrix([[1], [2]]))
    assert xla.membership(s, xla.vector([2, 4]))[0] == 2
    assert xla.membership(s, xla.vector([0, 0])) is not None
    # (1, 0) is outside span{(1, 2)}: solving [1;2] c = (1,0) is inconsistent
    assert xla.membership(s, xla.vector([1, 0])) is None
    with pytest.raises(xla.ShapeError):
        xla.membership(s, xla.vector([1, 0, 0]))
    # a matrix of columns: all of them in the span, or None
    assert xla.arrays_equal(xla.membership(s, xla.matrix([[2, 0, -1], [4, 0, -2]])),
                            xla.matrix([[2, 0, -1]]))
    assert xla.membership(s, xla.matrix([[1, 2], [0, 4]])) is None
    assert xla.membership(s, xla.zeros(2, 0)).shape == (1, 0)
    b = xla.Subspace(2, xla.matrix([[1], [0]]))
    reps = xla.matrix([[0], [1]])
    assert xla.arrays_equal(xla.coset_coordinates(b, reps, xla.matrix([[5, 1], [3, -1]])),
                            xla.matrix([[3, -1]]))
    with pytest.raises(xla.ShapeError):
        xla.membership(s, xla.zeros(3, 2))
    with pytest.raises(xla.ShapeError):
        xla.membership(s, xla.zeros(2, 1, 1))


def assert_solve_matches_per_column(a, b):
    """``solve(a, b)`` for a matrix b is None exactly when some column is
    inconsistent, and otherwise equals the per-column solutions."""
    per_column = [xla.solve(a, b[:, k]) for k in range(b.shape[1])]
    got = xla.solve(a, b)
    if any(x is None for x in per_column):
        assert got is None
    else:
        assert got.shape == (a.shape[1], b.shape[1])
        for k, x in enumerate(per_column):
            assert xla.arrays_equal(got[:, k], x)
    return got


@settings(max_examples=80, deadline=None)
@given(small_matrix(4), st.data())
def test_solve_matrix_rhs_matches_per_column(a, data):
    # each column is either a combination of a's columns (consistent) or
    # arbitrary (usually inconsistent when a has deficient row rank)
    nrows, ncols = a.shape
    b = np.empty((nrows, data.draw(st.integers(0, 4))), dtype=object)
    for k in range(b.shape[1]):
        if data.draw(st.booleans()):
            coeffs = xla.vector(data.draw(st.lists(rationals, min_size=ncols, max_size=ncols)))
            b[:, k] = np.dot(a, coeffs) if ncols else xla.zeros(nrows)
        else:
            b[:, k] = data.draw(st.lists(rationals, min_size=nrows, max_size=nrows))
    assert_solve_matches_per_column(a, xla.freeze(b))


def test_solve_matrix_rhs_edge_cases():
    a = xla.matrix([[1, 2], [0, 0]])
    # an inconsistent column before a consistent one: all or nothing
    assert assert_solve_matches_per_column(a, xla.matrix([[0, 3], [1, 0]])) is None
    got = assert_solve_matches_per_column(a, xla.matrix([[3, 0], [0, 0]]))
    assert xla.arrays_equal(got, xla.matrix([[3, 0], [0, 0]]))
    # zero rows: every column is consistent, and free variables are zero
    assert xla.arrays_equal(assert_solve_matches_per_column(xla.zeros(0, 3), xla.zeros(0, 2)),
                            xla.zeros(3, 2))
    # zero columns in a: only zero columns are consistent
    assert assert_solve_matches_per_column(xla.zeros(2, 0), xla.zeros(2, 3)).shape == (0, 3)
    assert assert_solve_matches_per_column(xla.zeros(2, 0), xla.matrix([[0, 1], [0, 0]])) is None
    # zero columns in b
    assert assert_solve_matches_per_column(a, xla.zeros(2, 0)).shape == (2, 0)
    assert assert_solve_matches_per_column(xla.zeros(0, 0), xla.zeros(0, 0)).shape == (0, 0)
    for bad in (xla.zeros(3, 1), xla.zeros(2, 1, 1)):
        with pytest.raises(xla.ShapeError):
            xla.solve(a, bad)


def test_quotient():
    z = xla.full_space(2)
    b = xla.Subspace(2, xla.matrix([[1], [0]]))
    dim, reps = xla.quotient(z, b)
    assert dim == 1
    assert xla.arrays_equal(reps[:, 0], xla.vector([0, 1]))
    dim, reps = xla.quotient(z, z)
    assert dim == 0
    dim, reps = xla.quotient(z, xla.zero_space(2))
    assert dim == 2
    assert xla.arrays_equal(reps, z.basis)
    with pytest.raises(xla.SubspaceError):
        xla.quotient(b, z)
    # b of the same dimension as z but meeting it only in 0, and b only
    # partly inside z: the [b | z] elimination rejects both
    z2 = xla.Subspace(4, xla.matrix([[1, 0], [0, 1], [0, 0], [0, 0]]))
    disjoint = xla.Subspace(4, xla.matrix([[0, 0], [0, 0], [1, 0], [1, 1]]))
    partial = xla.Subspace(4, xla.matrix([[1, 1], [2, 0], [0, 1], [0, 0]]))
    for b2 in (disjoint, partial):
        assert not xla.subspace_leq(b2, z2)
        with pytest.raises(xla.SubspaceError):
            xla.quotient(z2, b2)
    inside = xla.Subspace(4, xla.matrix([[1], [2], [0], [0]]))
    assert xla.subspace_leq(inside, z2) and xla.quotient(z2, inside)[0] == 1


def test_subspace_rank_check_and_trusted_constructors():
    # the public constructor still rejects a dependent basis
    for dependent in (xla.matrix([[1, 2], [2, 4]]), xla.matrix([[1, 0, 1], [0, 1, 1], [0, 0, 0]]),
                      xla.matrix([[0], [0]])):
        with pytest.raises(xla.SubspaceError):
            xla.Subspace(dependent.shape[0], dependent)
    with pytest.raises(xla.ShapeError):
        xla.Subspace(3, xla.identity(2))
    # the constructors that skip it give what the checked path gives
    m = xla.matrix([[1, 2, 0, 1], [2, 4, 1, 0], [3, 6, 1, 1]])
    for s in (xla.kernel_basis(m), xla.image_basis(m), xla.full_space(3), xla.zero_space(2)):
        checked = xla.Subspace(s.ambient_dim, s.basis)
        assert s == checked and s.dim == checked.dim
        assert not s.basis.flags.writeable


def test_contract():
    eye = xla.identity(2)
    e1 = xla.vector([1, 0])
    assert xla.arrays_equal(xla.contract(eye, 1, e1), e1)
    t = xla.zeros(2, 2, 2)
    assert xla.is_zero(xla.contract(t, 2, e1))
    # a structure tensor evaluated on basis pairs reproduces its entries
    t = xla.tensor([2, 2, 2], [F(k * 4 + i * 2 + j, 3) for k in range(2) for i in range(2) for j in range(2)])
    for i in range(2):
        for j in range(2):
            ei = xla.zeros(2).copy(); ei[i] = 1
            ej = xla.zeros(2).copy(); ej[j] = 1
            got = xla.apply_multilinear(t, ei, ej)
            assert xla.arrays_equal(got, t[:, i, j])
    with pytest.raises(xla.ShapeError):
        xla.contract(t, 1, xla.vector([1, 0, 0]))


def test_plug_matches_pointwise_composition():
    rng = np.random.default_rng(7)
    outer = xla.tensor([2, 3, 2], [F(int(x)) for x in rng.integers(-3, 4, 12)])
    inner = xla.tensor([3, 2, 2], [F(int(x)) for x in rng.integers(-3, 4, 12)])
    comp = xla.plug(outer, 1, inner)
    assert comp.shape == (2, 2, 2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ei = xla.identity(2)[:, i]
                ej = xla.identity(2)[:, j]
                ek = xla.identity(2)[:, k]
                expect = xla.apply_multilinear(outer, xla.apply_multilinear(inner, ei, ej), ek)
                assert xla.arrays_equal(comp[:, i, j, k], expect)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rref_idempotent_and_rank_nullity(m):
    assert_rref_matches_reference(m)
    r, pivots = xla.rref(m)
    r2, pivots2 = xla.rref(r)
    assert xla.arrays_equal(r, r2) and pivots == pivots2
    ker = xla.kernel_basis(m)
    im = xla.image_basis(m)
    assert ker.dim + im.dim == m.shape[1]
    for j in range(ker.dim):
        assert xla.is_zero(np.dot(m, ker.basis[:, j]))


@settings(max_examples=40, deadline=None)
@given(small_matrix(4), st.lists(rationals, min_size=4, max_size=4))
def test_image_membership(m, coeffs):
    v = xla.vector(coeffs[: m.shape[1]] + [0] * max(0, m.shape[1] - len(coeffs)))
    image = np.dot(m, v) if m.shape[1] else xla.zeros(m.shape[0])
    assert xla.membership(xla.image_basis(m), image) is not None


@settings(max_examples=100, deadline=None)
@given(rationals, rationals)
def test_exact_addition_roundtrip(a, b):
    assert (a + b) - b == a


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.lists(st.integers(-3, 3), min_size=n, max_size=n))))
def test_perm_sign_matches_brute_force(case):
    """perm_sign against sorting perm by adjacent swaps: every swap is one
    inversion and flips the sign, and swapping arguments of degrees p and q
    contributes the Koszul sign (-1)**(p q) as well."""
    perm, degrees = case
    work, plain, koszul = list(perm), 1, 1
    for end in range(len(work) - 1, 0, -1):
        for i in range(end):
            if work[i] > work[i + 1]:
                work[i], work[i + 1] = work[i + 1], work[i]
                plain = -plain
                koszul *= -((-1) ** (degrees[work[i]] * degrees[work[i + 1]] % 2))
    assert xla.perm_sign(perm) == plain
    assert xla.perm_sign(perm, degrees) == koszul
    assert xla.perm_sign(perm, [0] * len(perm)) == plain


_increasing = st.sets(st.integers(0, 7), max_size=6).map(lambda s: tuple(sorted(s)))


@settings(max_examples=300, deadline=None)
@given(_increasing, _increasing)
def test_wedge_matches_perm_sign(left, right):
    """wedge against perm_sign of the permutation sorting left + right, on
    disjoint and overlapping tuples alike."""
    got = xla.wedge(left, right)
    if set(left) & set(right):
        assert got is None
        return
    joined = left + right
    perm = sorted(range(len(joined)), key=joined.__getitem__)
    assert got == (xla.perm_sign(perm), tuple(sorted(joined)))



def test_inverse():
    m = xla.matrix([[1, 2], [3, 4]])
    inv = xla.inverse(m)
    assert xla.arrays_equal(np.dot(m, inv), xla.identity(2))
    assert xla.arrays_equal(np.dot(inv, m), xla.identity(2))
    assert inv[0, 0] == F(-2)
    with pytest.raises(xla.SubspaceError):
        xla.inverse(xla.matrix([[1, 2], [2, 4]]))
    with pytest.raises(xla.ShapeError):
        xla.inverse(xla.zeros(2, 3))
    assert xla.inverse(xla.zeros(0, 0)).shape == (0, 0)


def test_zero_dimensional_spaces_are_first_class():
    empty = xla.zeros(0, 0)
    r, p = xla.rref(empty)
    assert p == ()
    assert xla.kernel_basis(xla.zeros(3, 0)).dim == 0
    assert xla.image_basis(xla.zeros(0, 3)).ambient_dim == 0
    t = xla.zeros(0, 2)
    assert xla.contract(t, 1, xla.vector([1, 1])).shape == (0,)


# Each public elimination kernel on a 1x1 matrix m.  quotient takes
# subspaces, whose bases are exact by construction; only a basis past the
# public constructor can hold anything else.
KERNELS = {
    "rref": xla.rref,
    "solve": lambda m: xla.solve(m, xla.vector([1])),
    "solve rhs": lambda m: xla.solve(xla.identity(1), m[:, 0]),
    "inverse": xla.inverse,
    "kernel_basis": xla.kernel_basis,
    "image_basis": xla.image_basis,
    "membership": lambda m: xla.membership(xla.full_space(1), m[:, 0]),
    "quotient": lambda m: xla.quotient(xla.full_space(1), xla.Subspace._trusted(1, m.astype(object))),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_kernels_refuse_input_that_is_not_exact(kernel):
    """Float and boolean arrays go through as_exact; a float or a boolean
    inside an object array is refused by rref while it clears
    denominators."""
    bad = [np.array([[0.5]]), np.array([[0.5]], dtype=object), np.array([[True]]),
           np.array([[True]], dtype=object)]
    for m in bad:
        with pytest.raises(xla.ShapeError, match="0.5|booleans|True"):
            KERNELS[kernel](m)
    # exact input of any dtype is read as before
    KERNELS[kernel](np.array([[2]]))
    KERNELS[kernel](np.array([[F(1, 2)]], dtype=object))


def test_object_matrices_are_not_converted(monkeypatch):
    """An object matrix reaches the elimination as given: no second pass over
    it (the cocycle matrices of hl3 hold Python ints and are large)."""
    m = np.array([[1, 2, 3], [2, 4, 7]], dtype=object)

    def refuse(a):
        raise AssertionError("as_exact called on an object matrix")

    monkeypatch.setattr(xla, "as_exact", refuse)
    assert xla.rref(m)[1] == (0, 2)
    assert xla.kernel_basis(m).dim == 1
    assert xla.solve(m, np.array([1, 2], dtype=object)) is not None


def test_rref_refuses_booleans_in_object_arrays():
    """A boolean has a numerator and a denominator, but it is not a rational
    entry, wherever it sits in an object matrix."""
    with pytest.raises(xla.ShapeError, match="True"):
        xla.kernel_basis(np.array([[True, False]], dtype=object))
    mixed = np.array([[F(1, 2), 1, 0], [0, F(2, 3), False]], dtype=object)
    with pytest.raises(xla.ShapeError, match="False"):
        xla.rref(mixed)
    assert xla.rref(np.array([[F(1, 2), 1, 0], [0, F(2, 3), 0]], dtype=object))[1] == (0, 1)


CONTRACTIONS = {
    "contract": lambda a: xla.contract(a, 1, a[0, 0]),
    "contract arg": lambda a: xla.contract(np.ones((1, 2, 2), dtype=object), 1, a[0, 0]),
    "precompose": lambda a: xla.precompose(a, 1, a[0]),
    "postcompose": lambda a: xla.postcompose(a[0], a),
    "postcompose map": lambda a: xla.postcompose(a[0], np.ones((2, 2, 2), dtype=object)),
    "plug": lambda a: xla.plug(a, 1, np.ones((2, 2, 2), dtype=object)),
    "plug inner": lambda a: xla.plug(np.ones((2, 2, 2), dtype=object), 1, a),
    "alternate": lambda a: xla.alternate(a, 1),
}


@pytest.mark.parametrize("helper", CONTRACTIONS)
def test_contraction_helpers_refuse_inexact_dtypes(helper):
    """Float, complex and boolean arrays are refused from their dtype; object
    arrays (Fractions or Python ints) and int64 arrays (the residue images)
    are contracted as before."""
    a = np.array([[[0.5, 1.0], [0.0, 2.0]], [[1.0, 0.0], [0.0, 1.0]]])
    for bad in (a, a.astype(complex), a != 0):
        with pytest.raises(xla.ShapeError, match="not exact rationals"):
            CONTRACTIONS[helper](bad)
    exact = np.array([[[1, 2], [0, 3]], [[1, 0], [F(1, 2), 1]]], dtype=object)
    ints = np.array([[[1, 2], [0, 3]], [[1, 0], [5, 1]]], dtype=np.int64)
    for good in (exact, ints):
        CONTRACTIONS[helper](good)


def test_alternate_of_float_array_is_refused():
    """The example that returned a float array."""
    with pytest.raises(xla.ShapeError):
        xla.alternate(np.array([[[0.5, 1.0], [0.0, 2.0]]]), 1)
