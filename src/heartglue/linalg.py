"""Exact rational matrices and the row-reduction kernel everything else calls.

A matrix is stored as one grid of Python ints, ``num``, and one positive
int denominator, ``den``: entry (i, j) is ``num[i][j] / den``.  The pair is
kept canonical, ``gcd(den, every entry) == 1`` and a zero matrix has
``den == 1``, so equal rational matrices have equal grids and hashing and
equality never build a ``Fraction``.  There is no floating point anywhere;
``Fraction`` appears only at the API boundary (entries, rows and columns
read back out, and coefficients passed in).

Row reduction runs Bareiss's fraction-free elimination (Bareiss 1968) on
the int grid.  After each step every entry below the pivot rows is a minor
of the input, so the division by the previous pivot is exact and ``//``
never rounds.  Back substitution works on ``d * rref`` with d the last
pivot, which is the determinant of the pivot minor up to sign; by Cramer's
rule that is an int matrix as well, so its divisions are exact too.
``pivot_columns``, ``rank`` and ``complement_pivots`` need the forward
pass only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class RatMatrix:
    """Immutable dense matrix over the rationals, as ``num / den``.

    ``num`` is a tuple of int row tuples and ``den`` a positive int with
    ``gcd(den, all entries of num) == 1``; a zero matrix has ``den == 1``.
    The public constructor accepts ints, Fractions and strings and brings
    them to that form; results of arithmetic are built by ``_new``.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        den = 1
        exact = True  # every entry is an int already
        rows = []
        for row in data:
            row = tuple(row)
            for x in row:
                if type(x) is not int:
                    exact = False
                    den = lcm(den, as_fraction(x).denominator)
            rows.append(row)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row width {width}")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        if not exact:
            rows = [tuple(_scaled(x, den) for x in r) for r in rows]
        # den is the lcm of reduced denominators, so the pair is canonical
        _set_rows(self, len(rows))
        _set_cols(self, cols)
        _set_num(self, tuple(rows))
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # constructors

    @staticmethod
    @lru_cache(maxsize=1024)  # immutable values: one per shape is shared
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return _new(((0,) * cols,) * rows, 1, cols)

    @staticmethod
    @lru_cache(maxsize=1024)
    def identity(n: int) -> "RatMatrix":
        return _new(tuple(tuple(1 if i == j else 0 for j in range(n))
                          for i in range(n)), 1, n)

    @staticmethod
    def column(entries: Sequence) -> "RatMatrix":
        return RatMatrix([[e] for e in entries], cols=1)

    @staticmethod
    def from_cols(columns: Sequence[Sequence], rows: int | None = None) -> "RatMatrix":
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ValueError("ragged columns")
            if rows is not None and rows != height:
                raise ValueError("rows does not match column height")
            rows = height
        elif rows is None:
            raise ValueError("rows is required with no columns")
        return RatMatrix([[columns[j][i] for j in range(len(columns))] for i in range(rows)],
                         cols=len(columns))

    # basic queries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return Fraction(self.num[i][j], self.den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(x, d) for x in self.num[i])

    def col(self, j: int) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(r[j], d) for r in self.num)

    def col_matrix(self, j: int) -> "RatMatrix":
        return _new(tuple((r[j],) for r in self.num), self.den, 1)

    def take(self, rows: Sequence[int] | None,
             cols: Sequence[int] | None) -> "RatMatrix":
        """The submatrix on the given row and column indices, in order;
        None keeps them all."""
        num = self.num
        if rows is not None:
            num = tuple(num[i] for i in rows)
        if cols is None:
            return _new(num, self.den, self.cols)
        return _new(tuple(tuple([r[j] for j in cols]) for r in num),
                    self.den, len(cols))

    def reshape(self, rows: int, cols: int) -> "RatMatrix":
        """The entries read row by row into a rows x cols matrix."""
        flat = tuple(chain.from_iterable(self.num))
        if len(flat) != rows * cols:
            raise ValueError(f"cannot reshape {self.shape} to {(rows, cols)}")
        return _new(tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)),
                    self.den, cols)

    def is_zero(self) -> bool:
        return not any(map(any, self.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.cols == other.cols and self.den == other.den
                and self.num == other.num)

    def __hash__(self) -> int:
        return hash((self.cols, self.den, self.num))

    def __repr__(self) -> str:
        d = self.den
        body = "; ".join(" ".join(str(Fraction(x, d)) for x in r) for r in self.num)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # arithmetic

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        n = other.cols
        if not (self.cols and n and any(map(any, self.num))):
            return RatMatrix.zeros(self.rows, n)
        ocols = tuple(zip(*other.num))
        return _new(tuple(tuple([sum(map(mul, r, c)) for c in ocols])
                          for r in self.num),
                    self.den * other.den, n)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return _combine(self, other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return _combine(self, other, -1)

    def __neg__(self) -> "RatMatrix":
        return _new(tuple(tuple([-x for x in r]) for r in self.num), self.den,
                    self.cols)

    def scale(self, c) -> "RatMatrix":
        c = as_fraction(c)
        a = c.numerator
        return _new(tuple(tuple([a * x for x in r]) for r in self.num),
                    self.den * c.denominator, self.cols)

    def __rmul__(self, c) -> "RatMatrix":
        return self.scale(c)

    def transpose(self) -> "RatMatrix":
        if not self.rows:
            return RatMatrix.zeros(self.cols, 0)
        return _new(tuple(zip(*self.num)), self.den, self.rows)


def _scaled(x, den: int) -> int:
    """den * x as an int, for den a multiple of x's denominator."""
    if type(x) is int:
        return x * den
    f = as_fraction(x)
    return f.numerator * (den // f.denominator)


_set_rows = RatMatrix.rows.__set__
_set_cols = RatMatrix.cols.__set__
_set_num = RatMatrix.num.__set__
_set_den = RatMatrix.den.__set__
_alloc = object.__new__


def _new(num: tuple, den: int, cols: int) -> RatMatrix:
    """Matrix num / den from an int grid (a tuple of int tuples) that
    arithmetic produced: only brings the pair to canonical form."""
    if den != 1:
        if den < 0:
            num = tuple(tuple([-x for x in r]) for r in num)
            den = -den
        g = gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple([x // g for x in r]) for r in num)
            den //= g
    m = _alloc(RatMatrix)
    _set_rows(m, len(num))
    _set_cols(m, cols)
    _set_num(m, num)
    _set_den(m, den)
    return m


def _combine(a: RatMatrix, b: RatMatrix, sign: int) -> RatMatrix:
    """a + sign * b over the lcm of the two denominators."""
    if a.den == b.den:
        op = add if sign > 0 else sub
        return _new(tuple(tuple(map(op, r, s)) for r, s in zip(a.num, b.num)),
                    a.den, a.cols)
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    return _new(tuple(tuple([fa * x + fb * y for x, y in zip(r, s)])
                      for r, s in zip(a.num, b.num)), den, a.cols)


def _common(mats: Sequence[RatMatrix]) -> tuple[int, list[tuple]]:
    """The lcm of the denominators and each matrix's grid over it."""
    den = lcm(*(m.den for m in mats))
    grids = []
    for m in mats:
        f = den // m.den
        grids.append(m.num if f == 1
                     else tuple(tuple([f * x for x in r]) for r in m.num))
    return den, grids


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The Kronecker product: block (i, j) is a[i, j] * b."""
    return _new(tuple(tuple([x * y for x in ra for y in rb])
                      for ra in a.num for rb in b.num),
                a.den * b.den, a.cols * b.cols)


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    den, grids = _common(mats)
    return _new(tuple(tuple(chain.from_iterable(g[i] for g in grids))
                      for i in range(rows)),
                den, sum(m.cols for m in mats))


def block_matrix(grid: Sequence[Sequence[RatMatrix | None]],
                 heights: Sequence[int], widths: Sequence[int]) -> RatMatrix:
    """The matrix with grid[i][j] as its block in block row i and block
    column j, of shape heights[i] x widths[j]; a None block is zero.
    Each row is joined once from the blocks' int grids.  An empty vertex
    piece costs nothing: a grid with no entries or no filled block is the
    shared zero, and a 1x1 grid is its block."""
    slots = [(m, h, w) for row, h in zip(grid, heights, strict=True)
             for m, w in zip(row, widths, strict=True)]
    if any(m is not None and m.shape != (h, w) for m, h, w in slots):
        raise ValueError("a block does not fit its slot")
    filled = [m for m, _, _ in slots if m is not None]
    if len(slots) == 1 and filled:
        return filled[0]
    if not (filled and sum(heights) and sum(widths)):
        return RatMatrix.zeros(sum(heights), sum(widths))
    den, grids = _common(filled)
    joined = iter(grids)
    out = []
    for row, h in zip(grid, heights):
        blocks = [[(0,) * w] * h if m is None else next(joined)
                  for m, w in zip(row, widths)]
        out.extend(tuple(chain.from_iterable(b[r] for b in blocks))
                   for r in range(h))
    return _new(tuple(out), den, sum(widths))


def _echelon(num: Sequence[Sequence[int]], nc: int) -> tuple[list[list[int]], list[int]]:
    """Bareiss forward elimination of an int grid with nc columns.

    Returns the echelon rows, pivot rows first, and the pivot columns.  The
    pivot of row k is the (k+1)-st leading minor on the pivot columns, so
    every update divides exactly, including rows with 0 in the pivot
    column, which are rescaled by p / prev like the others.
    """
    rows = [list(r) for r in num if any(r)]
    nr = len(rows)
    pivots: list[int] = []
    prev = 1
    h = 0
    for col in range(nc):
        if h == nr:
            break
        sel = h
        while sel < nr and not rows[sel][col]:
            sel += 1
        if sel == nr:
            continue
        if sel != h:
            rows[h], rows[sel] = rows[sel], rows[h]
        rh = rows[h]
        p = rh[col]
        for i in range(h + 1, nr):
            ri = rows[i]
            q = ri[col]
            if q:
                rows[i] = [(p * a - q * b) // prev for a, b in zip(ri, rh)]
            elif p != prev:
                rows[i] = [p * a // prev for a in ri]
        pivots.append(col)
        prev = p
        h += 1
    return rows, pivots


def _back(rows: list[list[int]], pivots: list[int],
          cols: Sequence[int]) -> tuple[int, list[list[int]]]:
    """Fraction-free back substitution on the pivot rows of _echelon.

    Returns (d, red) with d the last pivot and red[k] = d * (row k of the
    rref) restricted to cols.  d * rref is an int matrix by Cramer's rule,
    so each division by a row's own pivot is exact.
    """
    r = len(pivots)
    if not r:
        return 1, []
    d = rows[r - 1][pivots[r - 1]]
    red: list[list[int]] = [[]] * r
    for k in range(r - 1, -1, -1):
        ek = rows[k]
        acc = [d * ek[c] for c in cols]
        for j in range(k + 1, r):
            q = ek[pivots[j]]
            if q:
                acc = [a - q * b for a, b in zip(acc, red[j])]
        p = ek[pivots[k]]
        if p != 1:
            acc = [a // p for a in acc]
        red[k] = acc
    return d, red


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form of m, plus the strictly increasing pivot columns."""
    nc = m.cols
    rows, pivots = _echelon(m.num, nc)
    d, red = _back(rows, pivots, range(nc))
    zero = (0,) * nc
    grid = tuple(map(tuple, red)) + (zero,) * (m.rows - len(red))
    return _new(grid, d, nc), tuple(pivots)


def pivot_columns(m: RatMatrix) -> tuple[int, ...]:
    """The pivot columns of rref(m), from the forward pass alone."""
    return tuple(_echelon(m.num, m.cols)[1])


def rank(m: RatMatrix) -> int:
    return len(pivot_columns(m))


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Matrix whose columns are a basis of ker m (column count = nullity).

    The basis vector for free column j has v[j] = 1 and v[pc] = -rref[k][j]
    on the pivot columns pc, so it is the same rational basis rref gives.
    """
    rows, pivots = _echelon(m.num, m.cols)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    d, red = _back(rows, pivots, free)
    grid = [[0] * len(free) for _ in range(m.cols)]
    for t, j in enumerate(free):
        grid[j][t] = d
    for k, pc in enumerate(pivots):
        grid[pc] = [-x for x in red[k]]
    return _new(tuple(map(tuple, grid)), d, len(free))


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve m @ x = b for each column of b.

    Returns the particular solution with all free variables zero, or None
    when some column of b is outside the column span.
    """
    if b.rows != m.rows:
        raise ValueError(f"solve: rows(b)={b.rows} != rows(m)={m.rows}")
    nc = m.cols
    aug = hstack([m, b])
    rows, pivots = _echelon(aug.num, aug.cols)
    if pivots and pivots[-1] >= nc:
        return None
    d, red = _back(rows, pivots, range(nc, aug.cols))
    grid = [(0,) * b.cols] * nc
    for k, pc in enumerate(pivots):
        grid[pc] = tuple(red[k])
    return _new(tuple(grid), d, b.cols)


def span_coordinates(m: RatMatrix, k: int) -> tuple[RatMatrix, RatMatrix]:
    """(C, K) with K v == 0 iff v is in the column span of m, and then C v
    the last k entries of solve(m, v), for m whose last k columns are
    independent modulo the rest.  For [m | I] reduced to [R | E], C is the
    rows of E at those pivots (the last ones) and K the rows below rank."""
    nr, nc = m.rows, m.cols
    rows, pivots = _echelon(hstack([m, RatMatrix.identity(nr)]).num, nc + nr)
    rk = sum(p < nc for p in pivots)
    if rk < k or pivots[rk - k:rk] != list(range(nc - k, nc)):
        raise ValueError("the last columns are not independent modulo the rest")
    d, red = _back(rows[rk - k:rk], pivots[rk - k:rk], range(nc, nc + nr))
    check = tuple(tuple(r[nc:]) for r in rows[rk:])
    return _new(tuple(map(tuple, red)), d, nr), _new(check, 1, nr)


def span_membership(v: RatMatrix, s: RatMatrix) -> bool:
    """True iff the column v lies in the column span of s."""
    return solve(s, v) is not None


def complement_pivots(m: RatMatrix) -> tuple[int, ...]:
    """Indices of standard basis vectors completing col span(m) to the full space."""
    pivots = pivot_columns(hstack([m, RatMatrix.identity(m.rows)]))
    return tuple(p - m.cols for p in pivots if p >= m.cols)
