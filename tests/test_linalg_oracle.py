"""The int-backed linalg kernel against the Fraction reference, exactly.

Every operation is run on both sides from the same Fraction grid and the
results must agree entry for entry, together with the pivots, and every
int-backed result must be in canonical form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_oracle as ref
from heartglue import linalg as lin

BIG = 10**6

entries = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, 7)),
)


def grids(max_rows=12, max_cols=14, min_rows=0, min_cols=0):
    """Fraction grids as (rows, cols, list of rows); rows or cols may be 0."""
    return st.integers(min_rows, max_rows).flatmap(
        lambda r: st.integers(min_cols, max_cols).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(
                lambda g: (r, c, g))))


def low_rank(max_rows=12, max_cols=14):
    """Products of random r x k and k x c factors with k <= 3."""
    return st.tuples(grids(max_rows, 3), st.integers(0, max_cols)).flatmap(
        lambda t: grids(t[0][1], t[1], t[0][1], t[1]).map(
            lambda g2: _product(t[0], g2)))


def _product(g1, g2):
    r, _, a = g1
    _, c, b = g2
    m = ref.RatMatrix(a, cols=g1[1]) @ ref.RatMatrix(b, cols=c)
    return (r, c, [list(m.row(i)) for i in range(r)])


nonzero = entries.filter(bool)


@st.composite
def sparse_grids(draw, max_rows=12, max_cols=14, min_rows=0, min_cols=0):
    """Fraction grids with at least 85% zeros, one whole zero row and one
    whole zero column; rows or cols may be 0."""
    r = draw(st.integers(min_rows, max_rows))
    c = draw(st.integers(min_cols, max_cols))
    g = [[Fraction(0)] * c for _ in range(r)]
    if r and c:
        zr, zc = draw(st.integers(0, r - 1)), draw(st.integers(0, c - 1))
        spots = draw(st.lists(st.tuples(st.integers(0, r - 1),
                                        st.integers(0, c - 1)),
                              max_size=r * c * 15 // 100))
        for i, j in spots:
            if i != zr and j != zc:
                g[i][j] = draw(nonzero)
    return (r, c, g)


def shaped(r, c):
    """Dense or sparse grids of exactly r x c."""
    return st.one_of(grids(r, c, r, c), sparse_grids(r, c, r, c))


any_grid = st.one_of(grids(), low_rank(), sparse_grids())


def pair(g):
    r, c, rows = g
    return lin.RatMatrix(rows, cols=c), ref.RatMatrix(rows, cols=c)


def canonical(m: lin.RatMatrix) -> bool:
    """Sparse rows with no stored zero and every column in range, the gcd
    of den and the entries 1, and den 1 for a zero matrix."""
    if type(m.nz) is not tuple or len(m.nz) != m.rows:
        return False
    flat = []
    for r in m.nz:
        if type(r) is not dict:
            return False
        for j, x in r.items():
            if not (type(j) is int and 0 <= j < m.cols
                    and type(x) is int and x):
                return False
            flat.append(x)
    if not flat:
        return m.den == 1
    return m.den > 0 and gcd(m.den, *flat) == 1


def agree(new: lin.RatMatrix, old: ref.RatMatrix) -> bool:
    return (canonical(new) and new.shape == old.shape
            and all(new.row(i) == old.row(i) for i in range(old.rows)))


@settings(max_examples=80, deadline=None)
@given(any_grid)
def test_entries_rows_cols(g):
    new, old = pair(g)
    assert agree(new, old)
    assert all(new.col(j) == old.col(j) for j in range(old.cols))
    assert all(new[i, j] == old[i, j]
               for i in range(old.rows) for j in range(old.cols))
    assert all(agree(new.col_matrix(j), old.col_matrix(j))
               for j in range(old.cols))
    assert new.is_zero() == old.is_zero()
    assert agree(new.transpose(), old.transpose())
    assert agree(-new, -old)
    assert repr(new) == repr(old)


@settings(max_examples=80, deadline=None)
@given(any_grid, entries)
def test_scale_and_canonical_equality(g, c):
    new, old = pair(g)
    assert agree(new.scale(c), old.scale(c))
    if c:
        back = new.scale(c).scale(1 / c)
        assert back == new
        assert hash(back) == hash(new)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12),
       st.data())
def test_matmul(r, k, c, data):
    a = data.draw(shaped(r, k))
    b = data.draw(shaped(k, c))
    na, oa = pair(a)
    nb, ob = pair(b)
    assert agree(na @ nb, oa @ ob)
    # products share rows with their operands and never write to them
    assert agree(na, oa) and agree(nb, ob)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 14), st.data())
def test_add_sub(r, c, data):
    na, oa = pair(data.draw(shaped(r, c)))
    nb, ob = pair(data.draw(shaped(r, c)))
    assert agree(na + nb, oa + ob)
    assert agree(na - nb, oa - ob)
    assert agree(na, oa) and agree(nb, ob)
    assert (na - na).is_zero() and (na - na).den == 1
    assert na + nb == nb + na


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.lists(st.integers(0, 5), min_size=1, max_size=3),
       st.data())
def test_stacking(r, widths, data):
    parts = [pair(data.draw(shaped(r, w))) for w in widths]
    news = [p[0] for p in parts]
    olds = [p[1] for p in parts]
    assert agree(lin.hstack(news), ref.hstack(olds))
    diag = [[m if i == j else None for j, m in enumerate(news)]
            for i in range(len(news))]
    assert agree(lin.block_matrix(diag, [r] * len(news), widths),
                 ref.block_diag(olds))
    flipped = [m.transpose() for m in news]
    assert agree(lin.block_matrix([[m] for m in flipped], widths, [r]),
                 ref.vstack([m.transpose() for m in olds]))


@settings(max_examples=100, deadline=None)
@given(any_grid)
def test_rref_rank_kernel(g):
    new, old = pair(g)
    nr, npiv = lin.rref(new)
    orr, opiv = ref.rref(old)
    assert npiv == opiv == lin.pivot_columns(new)
    assert agree(nr, orr)
    assert lin.rank(new) == ref.rank(old)
    assert agree(lin.kernel_basis(new), ref.kernel_basis(old))
    assert lin.complement_pivots(new) == ref.complement_pivots(old)
    assert agree(new, old)


@st.composite
def full_column_rank(draw, tall: bool, max_cols=8):
    """Grids of full column rank, square or with 1 to 4 rows more than
    columns: an upper triangle with a nonzero diagonal over random rows,
    the rows shuffled."""
    c = draw(st.integers(0, max_cols))
    r = c + (draw(st.integers(1, 4)) if tall else 0)
    g = [[draw(nonzero) if i == j
          else draw(entries) if i < j or i >= c else Fraction(0)
          for j in range(c)] for i in range(r)]
    return (r, c, draw(st.permutations(g)))


@pytest.mark.parametrize("tall", [False, True], ids=["square", "tall"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_at_full_column_rank(tall, data):
    # every column a pivot: the kernel is the empty cols x 0 matrix, read
    # from the matrix and from its kept forward pass alike
    g = data.draw(full_column_rank(tall))
    new, old = pair(g)
    c = g[1]
    assert lin.rank(new) == ref.rank(old) == c
    want = ref.kernel_basis(old)
    assert want.shape == (c, 0)
    assert agree(lin.kernel_basis(new), want)
    assert agree(lin.kernel_basis(lin.echelon(new)), want)


@settings(max_examples=100, deadline=None)
@given(any_grid, st.data())
def test_row_order_changes_no_result(g, data):
    # the pivot choice depends on the order of the rows; no result may
    r, c, rows = g
    perm = data.draw(st.permutations(range(r)))
    m = lin.RatMatrix(rows, cols=c)
    pm = lin.RatMatrix([rows[i] for i in perm], cols=c)
    assert lin.rref(pm) == lin.rref(m)
    assert lin.pivot_columns(pm) == lin.pivot_columns(m)
    assert lin.kernel_basis(pm) == lin.kernel_basis(m)
    x0 = lin.RatMatrix(data.draw(shaped(c, 2))[2], cols=2)
    probe = lin.RatMatrix(data.draw(shaped(r, 2))[2], cols=2)
    for b in (m @ x0, probe):
        assert lin.solve(pm, b.take(perm, None)) == lin.solve(m, b)
    # [m | p] with p = m @ x0 + a unit vector outside span(m)
    units = lin.complement_pivots(m)
    if not units:
        return
    p = m @ x0.take(None, [0]) + lin.RatMatrix.identity(r).col_matrix(units[0])
    full = lin.hstack([m, p])
    coords, check = lin.span_coordinates(full, 1)
    pcoords, pcheck = lin.span_coordinates(full.take(perm, None), 1)
    # the coordinates read off any vector of the span, the columns of
    # [m | p] among them, are the same; so is the membership test
    for b in (full, full @ lin.RatMatrix(data.draw(shaped(c + 1, 2))[2],
                                         cols=2)):
        assert pcoords @ b.take(perm, None) == coords @ b
        assert (pcheck @ b.take(perm, None)).is_zero()
    assert (pcheck @ probe.take(perm, None)).is_zero() == \
        (check @ probe).is_zero()


@settings(max_examples=100, deadline=None)
@given(any_grid, st.integers(0, 3), st.data())
def test_solve(g, nb, data):
    new, old = pair(g)
    r, c, _ = g
    x0 = data.draw(shaped(c, nb))
    inside = old @ ref.RatMatrix(x0[2], cols=nb)
    probe = data.draw(shaped(r, nb))
    for b in (inside, ref.RatMatrix(probe[2], cols=nb)):
        nbm = lin.RatMatrix([b.row(i) for i in range(b.rows)], cols=b.cols)
        got, want = lin.solve(new, nbm), ref.solve(old, b)
        assert (got is None) == (want is None)
        if want is not None:
            assert agree(got, want)
        if b.cols == 1:
            assert lin.span_membership(nbm, new) == ref.span_membership(b, old)


@settings(max_examples=100, deadline=None)
@given(any_grid, st.integers(0, 3), st.integers(0, 4))
def test_solve_with_a_zero_side(g, nb, k):
    # b = 0 is solved by 0, the free-variables-zero solution, and m = 0
    # solves only b = 0; shapes with 0 rows or 0 columns included
    new, old = pair(g)
    r, c, _ = g
    zero = lin.solve(new, lin.RatMatrix.zeros(r, nb))
    assert agree(zero, ref.solve(old, ref.RatMatrix.zeros(r, nb)))
    assert zero == lin.RatMatrix.zeros(c, nb)
    got = lin.solve(lin.RatMatrix.zeros(r, k), new)
    want = ref.solve(ref.RatMatrix.zeros(r, k), old)
    assert (got is None) == (want is None) == (not new.is_zero())
    if want is not None:
        assert agree(got, want)
    with pytest.raises(ValueError, match="rows"):
        lin.solve(lin.RatMatrix.zeros(r + 1, k), new)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 3))
def test_pivots_and_rank_of_a_matrix_with_no_nonzero_row(r, c, k):
    # no pivot and rank 0, read off without an elimination, as solve does;
    # a zero block joined to a zero block is zero too
    zero = lin.hstack([lin.RatMatrix.zeros(r, c), lin.RatMatrix.zeros(r, k)])
    old = ref.RatMatrix.zeros(r, c + k)
    eliminated = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lin, "_echelon",
                   lambda nz: eliminated.append(nz) or ([], []))
        assert lin.pivot_columns(zero) == ref.rref(old)[1] == ()
        assert lin.rank(zero) == ref.rank(old) == 0
    assert eliminated == []


@settings(max_examples=100, deadline=None)
@given(any_grid, st.integers(0, 4), st.data())
def test_span_coordinates(g, k, data):
    # m = [a | p] with p's columns unit vectors outside span(a) plus
    # elements of span(a): independent modulo a, so each is a pivot
    a, olda = pair(g)
    r, c, _ = g
    units = ref.complement_pivots(olda)[:k]
    k = len(units)
    mix = ref.RatMatrix(data.draw(grids(c, k, c, k))[2], cols=k)
    eye = ref.RatMatrix.identity(r)
    p = ref.hstack([ref.RatMatrix.column(eye.col(u)) for u in units]
                   or [ref.RatMatrix.zeros(r, 0)]) + olda @ mix
    old = ref.hstack([olda, p])
    new = lin.RatMatrix([old.row(i) for i in range(r)], cols=c + k)
    coords, check = lin.span_coordinates(new, k)
    assert canonical(coords) and canonical(check)
    assert coords.shape == (k, r) and check.shape == (r - ref.rank(old), r)
    x0 = data.draw(grids(c + k, 2, c + k, 2))
    inside = old @ ref.RatMatrix(x0[2], cols=2)
    probe = ref.RatMatrix(data.draw(grids(r, 2, r, 2))[2], cols=2)
    for b in (inside, probe):
        nbm = lin.RatMatrix([b.row(i) for i in range(r)], cols=2)
        want = ref.solve(old, b)
        assert (want is None) == (not (check @ nbm).is_zero())
        if want is not None:
            assert agree(coords @ nbm,
                         ref.RatMatrix([want.row(i) for i in range(c, c + k)],
                                       cols=2))


@settings(max_examples=50, deadline=None)
@given(any_grid)
def test_span_coordinates_refuses_dependent_columns(g):
    # a repeated column is not independent modulo the others
    new, old = pair(g)
    r, c, _ = g
    if not (c and any(any(x for x in row) for row in g[2])):
        return
    j = next(j for j in range(c) if any(old.col(j)))
    twice = lin.hstack([new, new.take(None, [j])])
    with pytest.raises(ValueError, match="not independent"):
        lin.span_coordinates(twice, 1)


@st.composite
def block_grids(draw):
    """Slot sizes and a grid of Fraction blocks (None for zero): 1x1
    grids, grids with no filled block, grids of total height or width 0,
    and ordinary grids."""
    kind = draw(st.sampled_from(["1x1", "unfilled", "flat", "ordinary"]))
    sizes = st.lists(st.integers(0, 4), min_size=1, max_size=3)
    heights, widths = draw(sizes), draw(sizes)
    if kind == "1x1":
        heights, widths = heights[:1], widths[:1]
    if kind == "flat":
        if draw(st.booleans()):
            heights = [0] * len(heights)
        else:
            widths = [0] * len(widths)
    grid = [[None if kind == "unfilled" or draw(st.booleans())
             else draw(grids(h, w, h, w)) for w in widths] for h in heights]
    return heights, widths, grid


@settings(max_examples=150, deadline=None)
@given(block_grids())
def test_block_matrix_fast_paths_join_as_values(case):
    heights, widths, grid = case
    new = [[None if g is None else pair(g)[0] for g in row] for row in grid]
    old = ref.vstack([
        ref.hstack([ref.RatMatrix.zeros(h, w) if g is None else pair(g)[1]
                    for g, w in zip(row, widths)])
        for row, h in zip(grid, heights)])
    assert agree(lin.block_matrix(new, heights, widths), old)


@pytest.mark.parametrize("grid, heights, widths", [
    ([[lin.RatMatrix.zeros(2, 3)]], [2], [2]),          # 1x1
    ([[lin.RatMatrix.zeros(0, 3)]], [0], [2]),          # 1x1 and empty
    ([[None, lin.RatMatrix.zeros(1, 2)]], [0], [3, 2]),  # total height 0
    ([[None], [lin.RatMatrix.zeros(2, 1)]], [1, 2], [0]),  # total width 0
], ids=["1x1", "1x1-empty", "no-height", "no-width"])
def test_block_matrix_fast_paths_refuse_a_misfit(grid, heights, widths):
    with pytest.raises(ValueError, match="a block does not fit its slot"):
        lin.block_matrix(grid, heights, widths)


@settings(max_examples=120, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=5),
       st.data())
def test_block_diagonal_is_the_diagonal_grid(shapes, data):
    # empty lists, 0 x k and k x 0 blocks, and mixed denominators
    mats = [pair(data.draw(shaped(r, c)))[0] for r, c in shapes]
    grid = [[m if i == j else None for j in range(len(mats))]
            for i, m in enumerate(mats)]
    got = lin.block_diagonal(mats)
    assert canonical(got)
    assert got == lin.block_matrix(grid, [m.rows for m in mats],
                                   [m.cols for m in mats])
