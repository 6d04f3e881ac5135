"""Bounded cochain complexes of modules and their triangles.

Complexes are cohomologically graded: the differential d^i raises degree,
d^{i+1} d^i = 0. A module placed in degree -1 is "shifted by 1": shift(x, k)
has term x^{i+k} in degree i and differential scaled by (-1)^k, so
H^i(shift(x, k)) = H^{i+k}(x). shift(x, 0) returns x itself.

The cone of a chain map f: X -> Y has C^k = X^{k+1} (+) Y^k with X-part
first and d(x, y) = (-d_X x, f x + d_Y y).  It is a CxSum with parts
(shift(X, 1), Y), like a direct sum of complexes; its injection(1) of Y
and projection(0) to shift(X, 1) are chain maps.  The layout of a direct
sum lives in reps: a CxSum carries each term as a reps.DirectSum, and its
differential, injections and projections, like the comparisons built out
of a cone, are reps.block_maps.

A differential or chain-map component missing from its dict is zero.
Cx.d and CxMap.comp build that zero map on request; the checks here,
which compare per-vertex block products (d^2 = 0, d f = f d) and read
ranks (cohomology_dims), and the Hom systems in derived build no map or
module. A missing term is the algebra's one zero module (reps.zero_rep).
A shift is one object, kept in the unshifted complex's memo, so
shift(shift(x, a), b) is shift(x, a + b); a module's complex, module_cx,
is one object in the module's memo.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import PathAlgebraDesc, memo_field, memoised
from .linalg import RatMatrix, rank
from .reps import (
    DirectSum,
    Rep,
    RepMap,
    block_map,
    cokernel,
    composite_blocks,
    direct_sum,
    exact_certificate,
    identity_map,
    kernel,
    through_epi,
    through_mono,
    zero_map,
    zero_rep,
)
from .reps import compose as rcompose


class CxError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Cx:
    algebra: PathAlgebraDesc
    terms: dict[int, Rep]
    diffs: dict[int, RepMap]
    memo: dict = memo_field()

    def __post_init__(self):
        for i, t in self.terms.items():
            if t.algebra is not self.algebra:
                raise CxError(f"term at {i} lives over a different algebra")
        for i, d in self.diffs.items():
            if i not in self.terms or (i + 1) not in self.terms:
                raise CxError(f"differential at {i} misses an endpoint term")
            if d.source is not self.terms[i] or d.target is not self.terms[i + 1]:
                raise CxError(f"differential at {i} not anchored to the terms")
        for i, d in self.diffs.items():
            if not _agree(_product(self.diffs.get(i + 1), d), None):
                raise CxError(f"d^2 != 0 at degree {i}")

    def term(self, i: int) -> Rep:
        got = self.terms.get(i)
        return got if got is not None else zero_rep(self.algebra)

    def d(self, i: int) -> RepMap:
        got = self.diffs.get(i)
        if got is not None:
            return got
        return zero_map(self.term(i), self.term(i + 1))

    def degrees(self) -> list[int]:
        return sorted(i for i, t in self.terms.items() if t.total_dim > 0)

    def min_deg(self) -> int | None:
        degs = self.degrees()
        return degs[0] if degs else None

    def max_deg(self) -> int | None:
        degs = self.degrees()
        return degs[-1] if degs else None

    def is_zero_object(self) -> bool:
        return not self.degrees()

    @property
    def total_dim(self) -> int:
        return sum(t.total_dim for t in self.terms.values())

    def is_tagged(self) -> bool:
        return all(t.proj_gens is not None for t in self.terms.values())

    def dims_table(self) -> dict[int, tuple[int, ...]]:
        return {i: self.terms[i].dims for i in self.degrees()}


def module_cx(m: Rep) -> Cx:
    """m in degree 0; one complex per module, kept in its memo."""
    return memoised(m, "cx", lambda: Cx(m.algebra, {0: m}, {}))


def zero_cx(alg: PathAlgebraDesc) -> Cx:
    return Cx(alg, {}, {})


def shift(x: Cx, k: int) -> Cx:
    """x[k], kept in the memo of the unshifted complex it records."""
    base, j = x.memo.get("unshifted", (x, 0))
    k += j
    if k == 0:
        return base
    return memoised(base, ("shift", k), lambda: _shifted(base, k))


def _shifted(x: Cx, k: int) -> Cx:
    terms = {i - k: t for i, t in x.terms.items()}
    diffs = {i - k: -d if k % 2 else d for i, d in x.diffs.items()}
    out = Cx(x.algebra, terms, diffs)
    out.memo["unshifted"] = (x, k)
    return out


def brutal_below(x: Cx, b: int) -> Cx:
    """The subquotient keeping the terms in degrees strictly below b."""
    terms = {i: t for i, t in x.terms.items() if i < b}
    diffs = {i: d for i, d in x.diffs.items() if i + 1 < b}
    return Cx(x.algebra, terms, diffs)


@dataclass(frozen=True, eq=False)
class CxMap:
    source: Cx
    target: Cx
    components: dict[int, RepMap]

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise CxError("chain map across algebras")
        for i, c in self.components.items():
            if c.source is not self.source.term(i):
                raise CxError(f"component at {i} not anchored to source term")
            if c.target is not self.target.term(i):
                raise CxError(f"component at {i} not anchored to target term")
        degs = (set(self.source.terms) | set(self.target.terms)
                | set(self.components))
        for i in degs:
            lhs = _product(self.target.diffs.get(i), self.components.get(i))
            rhs = _product(self.components.get(i + 1),
                           self.source.diffs.get(i))
            if not _agree(lhs, rhs):
                raise CxError(f"not a chain map at degree {i}")

    def comp(self, i: int) -> RepMap:
        got = self.components.get(i)
        if got is not None:
            return got
        return zero_map(self.source.term(i), self.target.term(i))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components.values())

    def __add__(self, other: "CxMap") -> "CxMap":
        _parallel(self, other)
        degs = set(self.components) | set(other.components)
        return CxMap(self.source, self.target,
                     {i: self.comp(i) + other.comp(i) for i in degs})

    def __sub__(self, other: "CxMap") -> "CxMap":
        return self + (-other)

    def __neg__(self) -> "CxMap":
        return CxMap(self.source, self.target,
                     {i: -c for i, c in self.components.items()})

    def scale(self, a) -> "CxMap":
        return CxMap(self.source, self.target,
                     {i: c.scale(a) for i, c in self.components.items()})


def _product(g: RepMap | None, f: RepMap | None) -> list[RatMatrix] | None:
    """The per-vertex blocks of g after f; None if a factor is missing."""
    return None if g is None or f is None else composite_blocks(g, f)


def _agree(a: list[RatMatrix] | None, b: list[RatMatrix] | None) -> bool:
    """Whether two per-vertex block lists are equal, None being zero."""
    if a is None or b is None:
        return all(m.is_zero() for m in (a or b or ()))
    return a == b


def _parallel(f: CxMap, g: CxMap) -> None:
    if f.source is not g.source or f.target is not g.target:
        raise CxError("chain maps are not parallel")


def _identity_on(e: CxMap, degs) -> bool:
    """Whether e is an endomorphism whose component in each degree of degs
    is the memoised identity of its term (reps.identity_map)."""
    if e.source is not e.target:
        return False
    for i in degs:
        c = e.components.get(i)
        if c is None or c is not c.source.memo.get("identity"):
            return False
    return True


def compose(g: CxMap, f: CxMap) -> CxMap:
    """g after f; a factor that is the identity on every degree of the
    other returns the other."""
    if f.target is not g.source:
        raise CxError("chain map composition endpoint mismatch")
    if _identity_on(g, f.components):
        return f
    if _identity_on(f, g.components):
        return g
    comps = {i: rcompose(g.components[i], c)
             for i, c in f.components.items() if i in g.components}
    return CxMap(f.source, g.target, comps)


def identity_chain_map(x: Cx) -> CxMap:
    return CxMap(x, x, {i: identity_map(t) for i, t in x.terms.items()})


def shift_map(f: CxMap, k: int) -> CxMap:
    if k == 0:
        return f
    return CxMap(shift(f.source, k), shift(f.target, k),
                 {i - k: c for i, c in f.components.items()})


@dataclass(frozen=True, eq=False)
class CxSum:
    """A sum of complexes, each term a reps.DirectSum of the parts' terms.

    The differential has the parts' differentials on the diagonal; for
    cone(f), whose parts are (shift(f.source, 1), f.target), it also has
    f below the diagonal.  A differential is stored whenever any of its
    blocks is present, even when they are all zero.  injection(i) and
    projection(i) are built on first request.
    """

    parts: tuple[Cx, ...]
    cx: Cx
    sums: dict[int, DirectSum]
    f: CxMap | None = None
    memo: dict = memo_field()

    def injection(self, i: int) -> CxMap:
        return memoised(self, ("injection", i), lambda: CxMap(
            self.parts[i], self.cx,
            {k: s.injection(i) for k, s in self.sums.items()}))

    def projection(self, i: int) -> CxMap:
        return memoised(self, ("projection", i), lambda: CxMap(
            self.cx, self.parts[i],
            {k: s.projection(i) for k, s in self.sums.items()}))


def _sum(parts: tuple[Cx, ...], f: CxMap | None = None) -> CxSum:
    degs = sorted(set(k for p in parts for k in p.terms))
    sums = {k: direct_sum([p.term(k) for p in parts]) for k in degs}
    diffs: dict[int, RepMap] = {}
    for k in degs:
        if (k + 1) not in sums:
            continue
        grid = [[p.diffs.get(k) if i == j else None
                 for j in range(len(parts))] for i, p in enumerate(parts)]
        if f is not None:
            grid[1][0] = f.components.get(k + 1)
        if any(g is not None for row in grid for g in row):
            diffs[k] = block_map(sums[k], sums[k + 1], grid)
    cx = Cx(parts[0].algebra, {k: s.rep for k, s in sums.items()}, diffs)
    return CxSum(parts, cx, sums, f)


def cone(f: CxMap) -> CxSum:
    return _sum((shift(f.source, 1), f.target), f)


def cx_direct_sum(parts: list[Cx]) -> CxSum:
    if not parts:
        raise CxError("empty direct sum of complexes")
    return _sum(tuple(parts))


def heart_cohomology(x: Cx, i: int) -> Rep:
    """H^i of the complex, as a module."""
    _, incl = kernel(x.d(i))
    h, _ = cokernel(through_mono(incl, x.d(i - 1)))
    return h


def cohomology_dims(x: Cx) -> dict[int, tuple[int, ...]]:
    """dim H^i e_v for each nonzero H^i: dim X^i_v - rank d^i_v -
    rank d^{i-1}_v, as M -> M e_v is exact and d^2 = 0."""
    lo, hi = x.min_deg(), x.max_deg()
    if lo is None:
        return {}
    ranks = {i: [rank(b) for b in d.blocks] for i, d in x.diffs.items()}
    none = [0] * x.algebra.vertex_count
    out = {}
    for i in range(lo, hi + 1):
        h = tuple(n - a - b for n, a, b in zip(
            x.term(i).dims, ranks.get(i, none), ranks.get(i - 1, none)))
        if any(h):
            out[i] = h
    return out


def is_acyclic(x: Cx) -> bool:
    return not cohomology_dims(x)


@dataclass(frozen=True, eq=False)
class Triangle:
    """left --f--> mid --g--> right --> left[1].

    cone_of_f carries cone(f); the triangle is certified when right is
    that cone, or comparison is a quasi-isomorphism cone(f) -> right.
    """

    left: Cx
    mid: Cx
    right: Cx
    f: CxMap
    g: CxMap
    comparison: CxMap | None = None
    cone_of_f: CxSum | None = None

    def certified(self) -> bool:
        c = self.cone_of_f
        if self.comparison is None:
            return c is not None and c.f is self.f and c.cx is self.right
        return is_acyclic(cone(self.comparison).cx)


def truncate_std(x: Cx, level: int) -> Triangle:
    """The standard-aisle truncation triangle at the given cohomological cut.

    Left term keeps cohomology in degrees <= level, right term the rest.
    """
    lo = x.min_deg()
    if lo is None:
        lo = level
    lo = min(lo, level)
    k, incl = kernel(x.d(level))
    terms_a = {i: x.term(i) for i in range(lo, level)}
    terms_a[level] = k
    diffs_a = {i: d for i, d in x.diffs.items() if lo <= i < level - 1}
    if level - 1 >= lo:
        terms_a.setdefault(level - 1, x.term(level - 1))
        diffs_a[level - 1] = through_mono(incl, x.d(level - 1))
    a = Cx(x.algebra, terms_a, diffs_a)
    f_comps = {i: identity_map(x.term(i)) for i in range(lo, level)
               if x.term(i).total_dim}
    f_comps[level] = incl
    f = CxMap(a, x, f_comps)

    q, pr = cokernel(incl)
    hi = x.max_deg()
    if hi is None:
        hi = level
    hi = max(hi, level)
    terms_b = {level: q}
    terms_b.update({i: x.term(i) for i in range(level + 1, hi + 1)})
    diffs_b = {i: d for i, d in x.diffs.items() if level < i < hi}
    # induced differential out of the quotient
    dq = through_epi(pr, x.d(level))
    if not dq.is_zero():
        terms_b.setdefault(level + 1, x.term(level + 1))
        diffs_b[level] = dq
    b = Cx(x.algebra, terms_b, diffs_b)
    g_comps = {level: pr}
    for i in range(level + 1, hi + 1):
        if x.term(i).total_dim:
            g_comps[i] = identity_map(x.term(i))
    g = CxMap(x, b, g_comps)

    cf = cone(f)
    comparison = CxMap(cf.cx, b, {
        i: block_map(s, b.term(i), [[None, g.components[i]]])
        for i, s in cf.sums.items() if i in g.components})
    return Triangle(a, x, b, f, g, comparison=comparison, cone_of_f=cf)


def ses_to_triangle(f: RepMap, g: RepMap) -> Triangle:
    """Promote a short exact sequence of modules to a triangle in degree 0."""
    exact_certificate(f, g)
    lx = module_cx(f.source)
    mx = module_cx(f.target)
    nx = module_cx(g.target)
    fc = CxMap(lx, mx, {0: f})
    gc = CxMap(mx, nx, {0: g})
    cf = cone(fc)
    comparison = CxMap(cf.cx, nx,
                       {0: block_map(cf.sums[0], g.target, [[None, g]])})
    return Triangle(lx, mx, nx, fc, gc, comparison=comparison, cone_of_f=cf)


def triangle_to_ses(tri: Triangle) -> tuple[RepMap, RepMap] | None:
    """Extract the module short exact sequence when every vertex of the
    triangle is a module in degree 0; None otherwise."""
    for cx in (tri.left, tri.mid, tri.right):
        degs = cx.degrees()
        if degs not in ([], [0]):
            return None
    f0 = tri.f.comp(0)
    g0 = tri.g.comp(0)
    exact_certificate(f0, g0)
    return f0, g0
