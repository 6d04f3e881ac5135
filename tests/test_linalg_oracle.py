"""The int-backed linalg kernel against the Fraction reference, exactly.

Every operation is run on both sides from the same Fraction grid and the
results must agree entry for entry, together with the pivots, and every
int-backed result must be in canonical form.
"""

from fractions import Fraction
from math import gcd

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


any_grid = st.one_of(grids(), low_rank())


def pair(g):
    r, c, rows = g
    return lin.RatMatrix(rows, cols=c), ref.RatMatrix(rows, cols=c)


def canonical(m: lin.RatMatrix) -> bool:
    flat = [x for r in m.num for x in r]
    if not all(type(x) is int for x in flat) or len(m.num) != m.rows:
        return False
    if any(len(r) != m.cols for r in m.num):
        return False
    if not any(flat):
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
    a = data.draw(grids(r, k, r, k))
    b = data.draw(grids(k, c, k, c))
    na, oa = pair(a)
    nb, ob = pair(b)
    assert agree(na @ nb, oa @ ob)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 12), st.integers(0, 14), st.data())
def test_add_sub(r, c, data):
    na, oa = pair(data.draw(grids(r, c, r, c)))
    nb, ob = pair(data.draw(grids(r, c, r, c)))
    assert agree(na + nb, oa + ob)
    assert agree(na - nb, oa - ob)
    assert (na - na).is_zero() and (na - na).den == 1
    assert na + nb == nb + na


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.lists(st.integers(0, 5), min_size=1, max_size=3),
       st.data())
def test_stacking(r, widths, data):
    parts = [pair(data.draw(grids(r, w, r, w))) for w in widths]
    news = [p[0] for p in parts]
    olds = [p[1] for p in parts]
    assert agree(lin.hstack(news), ref.hstack(olds))
    assert agree(lin.block_diag(news), ref.block_diag(olds))
    flipped = [m.transpose() for m in news]
    assert agree(lin.vstack(flipped), ref.vstack([m.transpose() for m in olds]))


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


@settings(max_examples=100, deadline=None)
@given(any_grid, st.integers(0, 3), st.data())
def test_solve(g, nb, data):
    new, old = pair(g)
    r, c, _ = g
    x0 = data.draw(grids(c, nb, c, nb))
    inside = old @ ref.RatMatrix(x0[2], cols=nb)
    probe = data.draw(grids(r, nb, r, nb))
    for b in (inside, ref.RatMatrix(probe[2], cols=nb)):
        nbm = lin.RatMatrix([b.row(i) for i in range(b.rows)], cols=b.cols)
        got, want = lin.solve(new, nbm), ref.solve(old, b)
        assert (got is None) == (want is None)
        if want is not None:
            assert agree(got, want)
        if b.cols == 1:
            assert lin.span_membership(nbm, new) == ref.span_membership(b, old)
