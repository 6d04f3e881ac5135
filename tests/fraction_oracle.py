"""Reference exact linear algebra over ``fractions.Fraction``.

A plain, slow model of ``heartglue.linalg``: every entry is a ``Fraction``
and row reduction divides in Q, so no step depends on exact integer
division.  The property tests in ``test_linalg_oracle.py`` compare the
int-backed kernel against it operation by operation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class RatMatrix:
    """Immutable dense matrix over the rationals."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Iterable[Iterable], cols: int | None = None):
        rows = tuple(tuple(as_fraction(x) for x in row) for row in data)
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError(f"cols={cols} does not match row width {width}")
            cols = width
        elif cols is None:
            raise ValueError("cols is required for a matrix with no rows")
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "data", rows)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # constructors

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)],
                         cols=n)

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
        return self.data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self.data)

    def col_matrix(self, j: int) -> "RatMatrix":
        return RatMatrix([[r[j]] for r in self.data], cols=1)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.data for x in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.cols == other.cols and self.data == other.data

    def __hash__(self) -> int:
        return hash((self.cols, self.data))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # arithmetic

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        ot = other.data
        out = []
        for r in self.data:
            row = [Fraction(0)] * other.cols
            for k, x in enumerate(r):
                if x:
                    orow = ot[k]
                    for j in range(other.cols):
                        if orow[j]:
                            row[j] += x * orow[j]
            out.append(row)
        return RatMatrix(out, cols=other.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return RatMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return self + (-other)

    def __neg__(self) -> "RatMatrix":
        return RatMatrix([[-x for x in r] for r in self.data], cols=self.cols)

    def scale(self, c) -> "RatMatrix":
        c = as_fraction(c)
        return RatMatrix([[c * x for x in r] for r in self.data], cols=self.cols)

    def __rmul__(self, c) -> "RatMatrix":
        return self.scale(c)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
                         cols=self.rows)


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    return RatMatrix([sum((list(m.data[i]) for m in mats), []) for i in range(rows)],
                     cols=sum(m.cols for m in mats))


def vstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("vstack column mismatch")
    out = []
    for m in mats:
        out.extend(list(r) for r in m.data)
    return RatMatrix(out, cols=cols)


def block_diag(mats: Sequence[RatMatrix]) -> RatMatrix:
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in mats:
        for i in range(m.rows):
            for j in range(m.cols):
                out[r0 + i][c0 + j] = m.data[i][j]
        r0 += m.rows
        c0 += m.cols
    return RatMatrix(out, cols=cols)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form of m, plus the strictly increasing pivot columns."""
    nr, nc = m.rows, m.cols
    rows = [list(r) for r in m.data]
    for r in rows:
        den = 1
        for x in r:
            den = lcm(den, x.denominator)
        if den != 1:
            for j in range(nc):
                r[j] = r[j] * den
    # fraction-free forward elimination; divisions below are exact by the
    # Bareiss identity, and Fraction absorbs the rank-deficient corner cases
    pivots: list[tuple[int, int]] = []
    prev = Fraction(1)
    h = 0
    for col in range(nc):
        sel = None
        for i in range(h, nr):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        if sel != h:
            rows[h], rows[sel] = rows[sel], rows[h]
        p = rows[h][col]
        for i in range(h + 1, nr):
            q = rows[i][col]
            if q == 0:
                continue
            ri, rh = rows[i], rows[h]
            rows[i] = [(p * ri[j] - q * rh[j]) / prev for j in range(nc)]
        pivots.append((h, col))
        prev = p
        h += 1
        if h == nr:
            break
    for h, col in reversed(pivots):
        p = rows[h][col]
        if p != 1:
            rows[h] = [x / p for x in rows[h]]
        rh = rows[h]
        for i in range(h):
            q = rows[i][col]
            if q != 0:
                ri = rows[i]
                rows[i] = [a - q * b for a, b in zip(ri, rh)]
    return RatMatrix(rows, cols=nc), tuple(col for _, col in pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Matrix whose columns are a basis of ker m (column count = nullity)."""
    r, pivots = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    cols = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for k, pc in enumerate(pivots):
            v[pc] = -r.data[k][j]
        cols.append(v)
    return RatMatrix.from_cols(cols, rows=m.cols)


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve m @ x = b for each column of b: the particular solution with
    all free variables zero, or None when some column of b is outside the
    column span."""
    if b.rows != m.rows:
        raise ValueError(f"solve: rows(b)={b.rows} != rows(m)={m.rows}")
    r, pivots = rref(hstack([m, b]))
    if any(p >= m.cols for p in pivots):
        return None
    out = [[Fraction(0)] * b.cols for _ in range(m.cols)]
    for k, pc in enumerate(pivots):
        out[pc] = list(r.data[k][m.cols:])
    return RatMatrix(out, cols=b.cols)


def span_membership(v: RatMatrix, s: RatMatrix) -> bool:
    """True iff the column v lies in the column span of s."""
    return solve(s, v) is not None


def complement_pivots(m: RatMatrix) -> tuple[int, ...]:
    """Indices of standard basis vectors completing col span(m) to the full space."""
    _, pivots = rref(hstack([m, RatMatrix.identity(m.rows)]))
    return tuple(p - m.cols for p in pivots if p >= m.cols)
