"""Row reduction, kernels, and solving: frozen examples plus random invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heartglue.linalg import (
    RatMatrix,
    block_matrix,
    complement_pivots,
    hstack,
    kernel_basis,
    kron,
    rank,
    rref,
    solve,
    span_membership,
)

entries = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def matrices(max_rows=5, max_cols=5):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(lambda rows: RatMatrix(rows))
        )
    )


# frozen examples


def test_rref_identity():
    r, piv = rref(RatMatrix.identity(2))
    assert r == RatMatrix.identity(2)
    assert piv == (0, 1)


def test_rref_rank_one():
    r, piv = rref(RatMatrix([[1, 2], [2, 4]]))
    assert r == RatMatrix([[1, 2], [0, 0]])
    assert piv == (0,)


def test_rref_empty():
    r, piv = rref(RatMatrix([], cols=0))
    assert r.shape == (0, 0)
    assert piv == ()


def test_rref_rows_with_zero_in_pivot_column():
    # row 3 has 0 in column 0 but must still be rescaled by that pivot, or
    # the next exact division goes wrong and rank 3 reads as 2
    m = RatMatrix([[3, 0, 2], [-1, 1, -1], [0, 1, 0]])
    r, piv = rref(m)
    assert rank(m) == 3
    assert r == RatMatrix.identity(3)
    assert piv == (0, 1, 2)


def test_canonical_form():
    half = RatMatrix([[Fraction(1, 2), 1]])
    scaled = RatMatrix([[1, 2]]).scale(Fraction(1, 2))
    assert half == scaled
    assert hash(half) == hash(scaled)
    assert (half.nz, half.den) == (({0: 1, 1: 2},), 2)
    # no stored zero, and a row of zeros is an empty row
    assert RatMatrix([[0, Fraction(2, 3)], [0, 0]]).nz == ({1: 2}, {})
    zero = half - scaled
    assert zero.is_zero() and zero.den == 1
    assert zero == RatMatrix.zeros(1, 2)


def test_constructor_checks():
    with pytest.raises(TypeError):
        RatMatrix([[0.5]])
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMatrix([[1, 2]], cols=3)
    with pytest.raises(ValueError):
        RatMatrix([])
    m = RatMatrix([["1/3", Fraction(2, 3), True]])
    assert m.row(0) == (Fraction(1, 3), Fraction(2, 3), Fraction(1))
    assert m[0, 1] == Fraction(2, 3)


def test_sparse_rows_in_and_out():
    rows = [{2: Fraction(1, 2), 0: "-1/3"}, {}, {1: 0, 2: 4}]
    m = RatMatrix.from_sparse(rows, 3)
    assert m == RatMatrix([[Fraction(-1, 3), 0, Fraction(1, 2)], [0, 0, 0],
                           [0, 0, 4]])
    assert (m.nz, m.den) == (({0: -2, 2: 3}, {}, {2: 24}), 6)
    assert [m.row_entries(i) for i in range(3)] == [
        {0: Fraction(-1, 3), 2: Fraction(1, 2)}, {}, {2: Fraction(4)}]
    assert RatMatrix.from_sparse([{0: 0}], 1) == RatMatrix.zeros(1, 1)
    assert RatMatrix.from_sparse([], 4) == RatMatrix.zeros(0, 4)
    for bad in ({3: 1}, {-1: 1}):
        with pytest.raises(IndexError):
            RatMatrix.from_sparse([bad], 3)


@given(matrices())
@settings(max_examples=60, deadline=None)
def test_sparse_round_trip(m):
    rows = [m.row_entries(i) for i in range(m.rows)]
    assert RatMatrix.from_sparse(rows, m.cols) == m
    assert all(rows[i].get(j, 0) == m[i, j]
               for i in range(m.rows) for j in range(m.cols))


def test_kernel_of_identity_is_trivial():
    k = kernel_basis(RatMatrix.identity(3))
    assert k.shape == (3, 0)


def test_kernel_of_sum_functional():
    m = RatMatrix([[1, 1]])
    k = kernel_basis(m)
    assert k.shape == (2, 1)
    assert (m @ k).is_zero()
    # spanned by (1, -1) up to scalar
    assert span_membership(k.col_matrix(0), RatMatrix([[1], [-1]]))


def test_kernel_of_zero_map():
    k = kernel_basis(RatMatrix.zeros(2, 3))
    assert k.shape == (3, 3)
    assert rank(k) == 3


def test_solve_identity():
    b = RatMatrix.column([3, Fraction(1, 2)])
    x = solve(RatMatrix.identity(2), b)
    assert x == b


def test_solve_rank_deficient_no_solution():
    x = solve(RatMatrix([[1], [0]]), RatMatrix.column([0, 1]))
    assert x is None


def test_solve_exact_division():
    x = solve(RatMatrix([[2]]), RatMatrix.column([1]))
    assert x == RatMatrix.column([Fraction(1, 2)])


def test_span_membership_examples():
    zero = RatMatrix.column([0, 0])
    assert span_membership(zero, RatMatrix([[1], [2]]))
    assert not span_membership(RatMatrix.column([1, 0]), RatMatrix([[0], [1]]))
    assert span_membership(RatMatrix.column([2, 4]), RatMatrix([[1], [2]]))


def test_span_coordinates():
    s = RatMatrix([[1, 0], [0, 2]])
    c = solve(s, RatMatrix.column([3, 1]))
    assert c == RatMatrix.column([3, Fraction(1, 2)])


def test_complement_pivots():
    m = RatMatrix([[1], [1], [0]])
    comp = complement_pivots(m)
    assert len(comp) == 2
    full = hstack([m] + [RatMatrix.identity(3).col_matrix(j) for j in comp])
    assert rank(full) == 3


def test_stacking_and_blocks():
    a = RatMatrix([[1, 2]])
    b = RatMatrix([[3, 4]])
    assert block_matrix([[a], [b]], [1, 1], [2]) == RatMatrix([[1, 2], [3, 4]])
    assert hstack([a, b]) == RatMatrix([[1, 2, 3, 4]])
    assert block_matrix([[a, None], [None, b]], [1, 1], [2, 2]) == RatMatrix(
        [[1, 2, 0, 0], [0, 0, 3, 4]])
    half = RatMatrix([[Fraction(1, 2)]])
    mixed = block_matrix([[None, half], [a, None]], [1, 1], [2, 1])
    assert mixed == RatMatrix([[0, 0, Fraction(1, 2)], [1, 2, 0]])
    assert block_matrix([[None]], [2], [0]).shape == (2, 0)
    with pytest.raises(ValueError):
        block_matrix([[a]], [1], [3])
    m = RatMatrix([[Fraction(1, 2), 2, 3], [4, 5, 6]])
    assert m.take([1, 0], [2, 0]) == RatMatrix([[6, 4], [3, Fraction(1, 2)]])
    assert m.take(None, [1]) == RatMatrix([[2], [5]])
    assert m.take([0], None) == RatMatrix([[Fraction(1, 2), 2, 3]])
    assert m.take([], [0]).shape == (0, 1)


def test_kron_and_reshape():
    a = RatMatrix([[1, Fraction(1, 2)]])
    b = RatMatrix([[1, 2], [3, 4]])
    assert kron(a, b) == RatMatrix([[1, 2, Fraction(1, 2), 1],
                                    [3, 4, Fraction(3, 2), 2]])
    assert kron(RatMatrix.identity(2), a) == RatMatrix(
        [[1, Fraction(1, 2), 0, 0], [0, 0, 1, Fraction(1, 2)]])
    assert kron(RatMatrix.zeros(0, 2), b).shape == (0, 4)
    # vec(x m) = kron(I, m^T) vec(x) with x read row by row
    x = RatMatrix([[1, 2, 3], [4, 5, Fraction(1, 3)]])
    vec = x.reshape(6, 1)
    assert vec.reshape(2, 3) == x
    assert x.reshape(3, 2) == RatMatrix([[1, 2], [3, 4], [5, Fraction(1, 3)]])
    m = RatMatrix([[1, 0], [2, -1], [0, 3]])
    assert (kron(RatMatrix.identity(2), m.transpose()) @ vec
            == (x @ m).reshape(4, 1))
    assert RatMatrix.zeros(0, 3).reshape(3, 0).shape == (3, 0)
    with pytest.raises(ValueError):
        x.reshape(4, 2)


def test_immutability():
    m = RatMatrix([[1]])
    with pytest.raises(AttributeError):
        m.rows = 2


# random invariants


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r, piv = rref(m)
    r2, piv2 = rref(r)
    assert r2 == r
    assert piv2 == piv
    assert list(piv) == sorted(piv)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_annihilates(m):
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert rank(k) == k.cols


@settings(max_examples=60, deadline=None)
@given(matrices(), st.lists(entries, min_size=5, max_size=5))
def test_solve_verifies(m, coeffs):
    # build b inside the column span so a solution must exist
    x0 = RatMatrix.column(coeffs[: m.cols])
    b = m @ x0
    x = solve(m, b)
    assert x is not None
    assert (m @ x - b).is_zero()
    assert (m @ kernel_basis(m)).is_zero()


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_solve_none_means_outside_span(m):
    probe = RatMatrix.column([1] + [0] * (m.rows - 1))
    x = solve(m, probe)
    if x is None:
        assert rank(hstack([m, probe])) == rank(m) + 1
    else:
        assert (m @ x - probe).is_zero()


@settings(max_examples=40, deadline=None)
@given(matrices())
def test_rref_pivot_columns_are_unit_vectors(m):
    r, piv = rref(m)
    for k, pc in enumerate(piv):
        col = r.col(pc)
        assert col[k] == 1
        assert all(x == 0 for i, x in enumerate(col) if i != k)


def test_columns_out_of_range_raise():
    # a sparse row has no entry to miss, so the range is checked
    m = RatMatrix([[1, 0], [0, 2]])
    for read in (lambda: m[0, 2], lambda: m.col(2), lambda: m.col_matrix(-1),
                 lambda: m.take(None, [0, 2])):
        with pytest.raises(IndexError):
            read()
    with pytest.raises(ValueError, match="repeats"):
        m.take(None, [1, 1])
