"""Exact rational matrices and the row-reduction kernel everything else calls.

A matrix is stored as sparse rows, ``nz``, over one positive int
denominator, ``den``: ``nz[i]`` is a dict from column to a nonzero int, and
entry (i, j) is ``nz[i].get(j, 0) / den``.  The pair is kept canonical: no
row stores a zero, ``gcd(den, every entry) == 1``, and a zero matrix has
``den == 1``, so equal rational matrices have equal rows, and hashing and
equality never build a ``Fraction``.  Matrices share row dicts (a zero
row, the rows a product by a unit picks, the rows ``take`` keeps), so a
dict is never mutated once a matrix holds it.  Products, sums, joins and
eliminations visit nonzeros only; there is no dense path.  There is no
floating point anywhere; ``Fraction`` appears only at the API boundary
(entries, rows and columns read back out, and coefficients passed in).

Row reduction runs Bareiss's fraction-free elimination (Bareiss 1968) with
row swaps only.  Each step pivots in the leftmost column where a remaining
row is nonzero, on the row there with the fewest nonzeros, which keeps
fill-in low.  After each step every remaining row is a row of minors of
the reordered input, so the division by the previous pivot is exact and
``//`` never rounds.  A row that a step does not eliminate would only be
rescaled by p / prev; those factors telescope, so the row is brought up to
date with one exact multiply and division when it is next used.  Back
substitution works on ``d * rref`` with d the last pivot, which is the
determinant of the pivot minor up to sign; by Cramer's rule that is an int
matrix as well, so its divisions are exact too.  ``pivot_columns``,
``rank`` and ``complement_pivots`` need the forward pass only; an
``Echelon`` keeps one, for a rank read now and a kernel read later.

Row order cannot change a result.  The pivot columns and the rref of a
matrix are unique, ``kernel_basis`` reads its basis off the rref, and
``solve`` returns the solution whose free variables are all zero, which
the rref determines (with b = 0 it is 0, and with m = 0 and b != 0 there
is none, both read off without an elimination).  Only the scale of the
intermediate rows depends on the order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain
from math import gcd, lcm
from operator import eq
from typing import Iterable, NamedTuple, Sequence

_NO: dict = {}  # the shared empty row
_ZERO = Fraction(0)


def as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


class RatMatrix:
    """Immutable matrix over the rationals: a tuple ``nz`` of sparse int
    rows over one denominator ``den``, in the canonical form the module
    docstring gives.  The public constructor takes dense rows of ints,
    Fractions and strings; results of arithmetic are built by ``_new``."""

    __slots__ = ("rows", "cols", "nz", "den")

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
            rows = [[_scaled(x, den) for x in r] for r in rows]
        nz = tuple({j: x for j, x in enumerate(r) if x} for r in rows)
        # den is the lcm of reduced denominators, so the pair is canonical
        _set_rows(self, len(nz))
        _set_cols(self, cols)
        _set_nz(self, nz)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # constructors

    @staticmethod
    @lru_cache(maxsize=1024)  # immutable values: one per shape is shared
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return _raw((_NO,) * rows, 1, cols)

    @staticmethod
    @lru_cache(maxsize=1024)
    def identity(n: int) -> "RatMatrix":
        return _raw(tuple({i: 1} for i in range(n)), 1, n)

    @staticmethod
    def column(entries: Sequence) -> "RatMatrix":
        fracs = [as_fraction(e) for e in entries]
        den = lcm(*(f.denominator for f in fracs))
        return _raw(tuple({0: f.numerator * (den // f.denominator)} if f else _NO
                          for f in fracs), den, 1)

    @staticmethod
    def from_sparse(rows: Sequence[dict], cols: int) -> "RatMatrix":
        """The matrix whose row i holds the entries of rows[i], a dict from
        column to a rational; no zero is read or written."""
        fracs = [{j: f for j, x in r.items() if (f := as_fraction(x))}
                 for r in rows]
        if any(min(r) < 0 or max(r) >= cols for r in fracs if r):
            raise IndexError(f"from_sparse: a column is out of range({cols})")
        den = lcm(*(f.denominator for r in fracs for f in r.values()))
        return _raw(tuple({j: f.numerator * (den // f.denominator)
                           for j, f in r.items()} if r else _NO
                          for r in fracs), den, cols)

    # basic queries

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        x = self.nz[i].get(self._index(j))
        return Fraction(x, self.den) if x else _ZERO

    def row(self, i: int) -> tuple[Fraction, ...]:
        out = [_ZERO] * self.cols
        for j, x in self.nz[i].items():
            out[j] = Fraction(x, self.den)
        return tuple(out)

    def row_entries(self, i: int) -> dict[int, Fraction]:
        """The nonzero entries of row i, keyed by column."""
        d = self.den
        return {j: Fraction(x, d) for j, x in self.nz[i].items()}

    def col(self, j: int) -> tuple[Fraction, ...]:
        d, j = self.den, self._index(j)
        return tuple(Fraction(x, d) if (x := r.get(j)) else _ZERO
                     for r in self.nz)

    def col_matrix(self, j: int) -> "RatMatrix":
        j = self._index(j)
        return _new(tuple({0: x} if (x := r.get(j)) else _NO for r in self.nz),
                    self.den, 1)

    def columns(self) -> list["RatMatrix"]:
        """Every column as a rows x 1 matrix, in one pass over the nonzeros."""
        out = [[_NO] * self.rows for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                out[j][i] = {0: x}
        return [_new(tuple(c), self.den, 1) for c in out]

    def _index(self, j: int) -> int:
        """j, checked against range(cols): a row dict has no key to miss."""
        if not 0 <= j < self.cols:
            raise IndexError(f"column {j} out of range({self.cols})")
        return j

    def take(self, rows: Sequence[int] | None,
             cols: Sequence[int] | None) -> "RatMatrix":
        """The submatrix on the given row and column indices, in order;
        None keeps them all.  Columns may not repeat."""
        nz = self.nz if rows is None else tuple(self.nz[i] for i in rows)
        if cols is None or (len(cols) == self.cols
                            and all(map(eq, cols, range(self.cols)))):
            return self if rows is None else _new(nz, self.den, self.cols)
        pos = {c: t for t, c in enumerate(cols)}
        if len(pos) != len(cols):
            raise ValueError("take: a column repeats")
        if pos and not (0 <= min(pos) and max(pos) < self.cols):
            raise IndexError(f"take: a column is out of range({self.cols})")
        return _new(tuple({pos[j]: x for j, x in r.items() if j in pos}
                          if r else r for r in nz), self.den, len(cols))

    def reshape(self, rows: int, cols: int) -> "RatMatrix":
        """The entries read row by row into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.shape} to {(rows, cols)}")
        out: list[dict] = [{} for _ in range(rows)]
        width = self.cols
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                q, s = divmod(i * width + j, cols)
                out[q][s] = x
        return _raw(tuple(out), self.den, cols)

    def is_zero(self) -> bool:
        return not any(self.nz)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (self.cols == other.cols and self.den == other.den
                and self.nz == other.nz)

    def __hash__(self) -> int:
        return hash((self.cols, self.den,
                     tuple(frozenset(r.items()) for r in self.nz)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, self.row(i)))
                         for i in range(self.rows))
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # arithmetic

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        onz = other.nz
        if not (any(self.nz) and any(onz)):
            return RatMatrix.zeros(self.rows, other.cols)
        out = []
        for r in self.nz:
            if not r:
                out.append(r)
            elif len(r) == 1:  # a multiple of one row of other, often itself
                (k, a), = r.items()
                out.append(onz[k] if a == 1
                           else {j: a * y for j, y in onz[k].items()})
            else:
                acc: dict = {}
                for k, a in r.items():
                    for j, y in onz[k].items():
                        acc[j] = acc.get(j, 0) + a * y
                if 0 in acc.values():
                    acc = {j: x for j, x in acc.items() if x}
                out.append(acc)
        return _new(tuple(out), self.den * other.den, other.cols)

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return _combine(self, other, 1)

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return _combine(self, other, -1)

    def __neg__(self) -> "RatMatrix":
        return _raw(_times(self.nz, -1), self.den, self.cols)

    def scale(self, c) -> "RatMatrix":
        c = as_fraction(c)
        if not c:
            return RatMatrix.zeros(self.rows, self.cols)
        return _new(_times(self.nz, c.numerator), self.den * c.denominator,
                    self.cols)

    def __rmul__(self, c) -> "RatMatrix":
        return self.scale(c)

    def transpose(self) -> "RatMatrix":
        out: list[dict] = [{} for _ in range(self.cols)]
        for i, r in enumerate(self.nz):
            for j, x in r.items():
                out[j][i] = x
        return _raw(tuple(out), self.den, self.rows)


def _scaled(x, den: int) -> int:
    """den * x as an int, for den a multiple of x's denominator."""
    if type(x) is int:
        return x * den
    f = as_fraction(x)
    return f.numerator * (den // f.denominator)


_set_rows = RatMatrix.rows.__set__
_set_cols = RatMatrix.cols.__set__
_set_nz = RatMatrix.nz.__set__
_set_den = RatMatrix.den.__set__
_alloc = object.__new__


def _raw(nz: tuple, den: int, cols: int) -> RatMatrix:
    """Matrix nz / den from rows already in canonical form."""
    m = _alloc(RatMatrix)
    _set_rows(m, len(nz))
    _set_cols(m, cols)
    _set_nz(m, nz)
    _set_den(m, den)
    return m


def _new(nz: tuple, den: int, cols: int) -> RatMatrix:
    """Matrix nz / den from sparse int rows (no stored zeros) that
    arithmetic produced: only brings the pair to canonical form."""
    if den != 1:
        if den < 0:
            nz, den = _times(nz, -1), -den
        g = gcd(den, *chain.from_iterable(map(dict.values, nz)))
        if g != 1:
            nz = tuple({j: x // g for j, x in r.items()} if r else r for r in nz)
            den //= g
    return _raw(nz, den, cols)


def _times(nz: Sequence[dict], f: int) -> tuple:
    """Every entry multiplied by the nonzero int f (new rows unless f is 1)."""
    if f == 1:
        return tuple(nz)
    return tuple({j: f * x for j, x in r.items()} if r else r for r in nz)


def _combine(a: RatMatrix, b: RatMatrix, sign: int) -> RatMatrix:
    """a + sign * b over the lcm of the two denominators."""
    den = lcm(a.den, b.den)
    fa, fb = den // a.den, sign * (den // b.den)
    out = []
    for r, s in zip(a.nz, b.nz):
        if not s:
            out.append(r if fa == 1 else {j: fa * x for j, x in r.items()})
            continue
        if not r:
            out.append({j: fb * y for j, y in s.items()})
            continue
        row = {j: fa * x for j, x in r.items()}
        for j, y in s.items():
            v = row.get(j, 0) + fb * y
            if v:
                row[j] = v
            else:
                del row[j]
        out.append(row)
    return _new(tuple(out), den, a.cols)


def _common(mats: Sequence[RatMatrix]) -> tuple[int, list[tuple]]:
    """The lcm of the denominators and each matrix's rows over it.  Rows
    of canonical matrices joined over that lcm are canonical again."""
    den = lcm(*(m.den for m in mats))
    return den, [m.nz if m.den == den else _times(m.nz, den // m.den)
                 for m in mats]


def _place(out: list[dict], top: int, left: int, rows: Sequence[dict]) -> None:
    """Write a block's rows into out from row top, column left; a row of
    out that is still the shared empty row gets a dict of its own."""
    for i, r in enumerate(rows, top):
        if not r:
            continue
        o = out[i]
        if o is _NO:
            out[i] = o = {}
        if left:
            for j, x in r.items():
                o[left + j] = x
        else:
            o.update(r)


def kron(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The Kronecker product: block (i, j) is a[i, j] * b."""
    w = b.cols
    return _new(tuple({ja * w + jb: x * y for ja, x in ra.items()
                       for jb, y in rb.items()}
                      for ra in a.nz for rb in b.nz),
                a.den * b.den, a.cols * w)


def hstack(mats: Sequence[RatMatrix]) -> RatMatrix:
    if not mats:
        raise ValueError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise ValueError("hstack row mismatch")
    den, grids = _common(mats)
    out: list[dict] = [_NO] * rows
    off = 0
    for m, g in zip(mats, grids):
        _place(out, 0, off, g)
        off += m.cols
    return _raw(tuple(out), den, off)


def block_matrix(grid: Sequence[Sequence[RatMatrix | None]],
                 heights: Sequence[int], widths: Sequence[int]) -> RatMatrix:
    """The matrix with grid[i][j] as its block in block row i and block
    column j, of shape heights[i] x widths[j]; a None block is zero.
    Each block's rows are written once into the joined rows.  An empty vertex
    piece costs nothing: a grid with no entries or no filled block is the
    shared zero, and a 1x1 grid is its block.  A grid one block wide
    shares its blocks' rows."""
    filled = []
    for row, h in zip(grid, heights, strict=True):
        for m, w in zip(row, widths, strict=True):
            if m is not None:
                if m.rows != h or m.cols != w:
                    raise ValueError("a block does not fit its slot")
                filled.append(m)
    if len(heights) == len(widths) == 1 and filled:
        return filled[0]
    if not (filled and sum(heights) and sum(widths)):
        return RatMatrix.zeros(sum(heights), sum(widths))
    den, grids = _common(filled)
    joined = iter(grids)
    lefts = [0, *accumulate(widths)]
    out: list[dict] = [_NO] * sum(heights)
    top = 0
    for row, h in zip(grid, heights):
        for m, left in zip(row, lefts):
            if m is None:
                continue
            if len(widths) == 1:
                out[top:top + h] = next(joined)
            else:
                _place(out, top, left, next(joined))
        top += h
    return _raw(tuple(out), den, lefts[-1])


def block_diagonal(mats: Sequence[RatMatrix]) -> RatMatrix:
    """The matrix with mats down its diagonal.  Each block's rows are
    written once, at its column offset, so the join is linear in the
    blocks (block_matrix would walk a grid of their count squared).  One
    block is itself."""
    if len(mats) == 1:
        return mats[0]
    den, grids = _common(mats)
    out: list[dict] = []
    left = 0
    for m, rows in zip(mats, grids):
        out += [{left + j: x for j, x in r.items()} if r and left else r
                for r in rows]
        left += m.cols
    return _raw(tuple(out), den, left)


def _echelon(nz: Sequence[dict]) -> tuple[list[dict], list[int]]:
    """Bareiss forward elimination of sparse int rows.

    Returns the pivot rows, in order, and their pivot columns; rows that
    eliminate to zero are dropped.  The remaining rows wait in buckets by
    leading column, each with the number of steps applied to it.  The
    rescaling by p / prev that a step owes a row it does not eliminate is
    paid when the row is next used, as one factor pivs[k] / pivs[steps]:
    pivs[k] is the pivot of step k - 1 (pivs[0] = 1) and the factors
    telescope.
    """
    waiting: dict[int, list[tuple[dict, int]]] = {}
    for r in nz:
        if r:
            waiting.setdefault(min(r), []).append((r, 0))
    rows: list[dict] = []
    pivots: list[int] = []
    pivs = [1]
    while waiting:
        col = min(waiting)
        hit = waiting.pop(col)
        k = len(pivots)
        prev = pivs[k]
        h = 0
        if len(hit) > 1:
            sizes = [len(r) for r, _ in hit]
            h = sizes.index(min(sizes))
        rh, done = hit[h]
        if done != k:
            rh = {j: x * prev // pivs[done] for j, x in rh.items()}
        p = rh[col]
        for i, (ri, done) in enumerate(hit):
            if i == h:
                continue
            if done != k:
                ri = {j: x * prev // pivs[done] for j, x in ri.items()}
            q = ri[col]
            new = {j: p * x for j, x in ri.items()}
            for j, y in rh.items():
                v = new.get(j, 0) - q * y
                if v:
                    new[j] = v
                else:
                    del new[j]
            if new:
                if prev != 1:
                    new = {j: x // prev for j, x in new.items()}
                waiting.setdefault(min(new), []).append((new, k + 1))
        rows.append(rh)
        pivots.append(col)
        pivs.append(p)
    return rows, pivots


def _back(rows: list[dict], pivots: list[int],
          lo: int) -> tuple[int, list[dict]]:
    """Fraction-free back substitution on the pivot rows of _echelon.

    Returns (d, red) with d the last pivot and red[k] = d * (row k of the
    rref) on the columns c >= lo, keyed by c - lo.  d * rref is an int
    matrix by Cramer's rule, so each division by a row's own pivot is
    exact.
    """
    r = len(pivots)
    if not r:
        return 1, []
    d = rows[r - 1][pivots[r - 1]]
    later: dict[int, int] = {}  # the pivot columns of the rows below k
    red: list[dict] = [_NO] * r
    for k in range(r - 1, -1, -1):
        ek = rows[k]
        acc = {c - lo: d * x for c, x in ek.items() if c >= lo}
        for c in ek.keys() & later.keys():
            q = ek[c]
            for t, y in red[later[c]].items():
                v = acc.get(t, 0) - q * y
                if v:
                    acc[t] = v
                else:
                    del acc[t]
        p = ek[pivots[k]]
        red[k] = acc if p == 1 else {t: x // p for t, x in acc.items()}
        later[pivots[k]] = k
    return d, red


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row echelon form of m, plus the strictly increasing pivot columns."""
    rows, pivots = _echelon(m.nz)
    d, red = _back(rows, pivots, 0)
    return (_new(tuple(red) + (_NO,) * (m.rows - len(red)), d, m.cols),
            tuple(pivots))


def pivot_columns(m: RatMatrix) -> tuple[int, ...]:
    """The pivot columns of rref(m), from the forward pass alone; none,
    without an elimination, when m is zero."""
    if not any(m.nz):
        return ()
    return tuple(_echelon(m.nz)[1])


def rank(m: RatMatrix) -> int:
    return len(pivot_columns(m))


class Echelon(NamedTuple):
    """The forward pass of a matrix with cols columns: its pivot rows and
    pivot columns, kept so that a rank read now and a kernel read later
    share one elimination."""
    cols: int
    rows: list[dict]
    pivots: list[int]


def echelon(m: RatMatrix) -> Echelon:
    return Echelon(m.cols, *_echelon(m.nz))


def kernel_basis(m: RatMatrix | Echelon) -> RatMatrix:
    """Matrix whose columns are a basis of ker m (column count = nullity);
    m may be a matrix or its kept forward pass.

    The basis vector for free column j has v[j] = 1 and v[pc] = -rref[k][j]
    on the pivot columns pc, so it is the same rational basis rref gives.
    """
    cols, rows, pivots = m if isinstance(m, Echelon) else echelon(m)
    if len(pivots) == cols:  # full column rank: no back substitution
        return RatMatrix.zeros(cols, 0)
    pivot_set = set(pivots)
    free = {j: t for t, j in enumerate(j for j in range(cols)
                                       if j not in pivot_set)}
    d, red = _back(rows, pivots, 0)
    grid: list[dict] = [_NO] * cols
    for j, t in free.items():
        grid[j] = {t: d}
    for k, pc in enumerate(pivots):  # red[k] is 0 on the other pivots
        grid[pc] = {free[c]: -x for c, x in red[k].items() if c != pc}
    return _new(tuple(grid), d, len(free))


def solve(m: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """Solve m @ x = b for each column of b.

    Returns the particular solution with all free variables zero, or None
    when some column of b is outside the column span.
    """
    if b.rows != m.rows:
        raise ValueError(f"solve: rows(b)={b.rows} != rows(m)={m.rows}")
    nc = m.cols
    if not any(b.nz):  # every variable zero, free or not
        return RatMatrix.zeros(nc, b.cols)
    if not any(m.nz):  # a nonzero b outside the span of 0
        return None
    aug = hstack([m, b])
    rows, pivots = _echelon(aug.nz)
    if pivots and pivots[-1] >= nc:
        return None
    d, red = _back(rows, pivots, nc)
    grid: list[dict] = [_NO] * nc
    for k, pc in enumerate(pivots):
        grid[pc] = red[k]
    return _new(tuple(grid), d, b.cols)


def span_coordinates(m: RatMatrix, k: int) -> tuple[RatMatrix, RatMatrix]:
    """(C, K) with K v == 0 iff v is in the column span of m, and then C v
    the last k entries of solve(m, v), for m whose last k columns are
    independent modulo the rest.  For [m | I] reduced to [R | E], C is the
    rows of E at those pivots (the last ones) and K the rows below rank."""
    nr, nc = m.rows, m.cols
    rows, pivots = _echelon(hstack([m, RatMatrix.identity(nr)]).nz)
    rk = sum(p < nc for p in pivots)
    if rk < k or pivots[rk - k:rk] != list(range(nc - k, nc)):
        raise ValueError("the last columns are not independent modulo the rest")
    d, red = _back(rows[rk - k:rk], pivots[rk - k:rk], nc)
    check = tuple({j - nc: x for j, x in r.items()} for r in rows[rk:])
    return _new(tuple(red), d, nr), _new(check, 1, nr)


def span_membership(v: RatMatrix, s: RatMatrix) -> bool:
    """True iff the column v lies in the column span of s."""
    return solve(s, v) is not None


def complement_pivots(m: RatMatrix) -> tuple[int, ...]:
    """Indices of standard basis vectors completing col span(m) to the full space."""
    pivots = pivot_columns(hstack([m, RatMatrix.identity(m.rows)]))
    return tuple(p - m.cols for p in pivots if p >= m.cols)
