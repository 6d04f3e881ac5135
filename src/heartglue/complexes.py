"""Bounded cochain complexes of modules and their triangles.

Complexes are cohomologically graded: the differential d^i raises degree,
d^{i+1} d^i = 0. A module placed in degree -1 is "shifted by 1": shift(x, k)
has term x^{i+k} in degree i and differential scaled by (-1)^k, so
H^i(shift(x, k)) = H^{i+k}(x). shift(x, 0) returns x itself.

The cone of a chain map f: X -> Y has C^k = X^{k+1} (+) Y^k with X-part
first and d(x, y) = (-d_X x, f x + d_Y y); the inclusion of Y and the
projection to shift(X, 1) are both chain maps and are returned with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import PathAlgebraDesc
from .linalg import RatMatrix, hstack, solve, vstack
from .reps import (
    DirectSum,
    Rep,
    RepError,
    RepMap,
    cokernel,
    direct_sum,
    exact_certificate,
    identity_map,
    kernel,
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

    def __post_init__(self):
        object.__setattr__(self, "_zero", zero_rep(self.algebra))
        for i, t in self.terms.items():
            if t.algebra is not self.algebra:
                raise CxError(f"term at {i} lives over a different algebra")
        for i, d in self.diffs.items():
            if i not in self.terms or (i + 1) not in self.terms:
                raise CxError(f"differential at {i} misses an endpoint term")
            if d.source is not self.terms[i] or d.target is not self.terms[i + 1]:
                raise CxError(f"differential at {i} not anchored to the terms")
        for i in self.diffs:
            if (i + 1) in self.diffs:
                if not rcompose(self.diffs[i + 1], self.diffs[i]).is_zero():
                    raise CxError(f"d^2 != 0 at degree {i}")

    def term(self, i: int) -> Rep:
        return self.terms.get(i, self._zero)

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


def module_cx(m: Rep, deg: int = 0) -> Cx:
    return Cx(m.algebra, {deg: m}, {})


def zero_cx(alg: PathAlgebraDesc) -> Cx:
    return Cx(alg, {}, {})


def shift(x: Cx, k: int) -> Cx:
    if k == 0:
        return x
    terms = {i - k: t for i, t in x.terms.items()}
    sign = Fraction(-1) if k % 2 else Fraction(1)
    diffs = {i - k: (d if sign == 1 else d.scale(sign))
             for i, d in x.diffs.items()}
    return Cx(x.algebra, terms, diffs)


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
            lhs = rcompose(self.target.d(i), self.comp(i))
            rhs = rcompose(self.comp(i + 1), self.source.d(i))
            if not (lhs - rhs).is_zero():
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


def _parallel(f: CxMap, g: CxMap) -> None:
    if f.source is not g.source or f.target is not g.target:
        raise CxError("chain maps are not parallel")


def compose(g: CxMap, f: CxMap) -> CxMap:
    if f.target is not g.source:
        raise CxError("chain map composition endpoint mismatch")
    comps = {i: rcompose(g.comp(i), c) for i, c in f.components.items()}
    return CxMap(f.source, g.target, comps)


def identity_chain_map(x: Cx) -> CxMap:
    return CxMap(x, x, {i: identity_map(t) for i, t in x.terms.items()})


def shift_map(f: CxMap, k: int) -> CxMap:
    if k == 0:
        return f
    return CxMap(shift(f.source, k), shift(f.target, k),
                 {i - k: c for i, c in f.components.items()})


@dataclass(frozen=True, eq=False)
class Cone:
    cx: Cx
    incl: CxMap
    proj: CxMap


def cone(f: CxMap) -> Cone:
    x, y = f.source, f.target
    alg = x.algebra
    degs = sorted(set(i - 1 for i in x.terms) | set(y.terms))
    sums: dict[int, DirectSum] = {}
    terms: dict[int, Rep] = {}
    for k in degs:
        ds = direct_sum([x.term(k + 1), y.term(k)])
        sums[k] = ds
        terms[k] = ds.rep
    diffs: dict[int, RepMap] = {}
    for k in degs:
        if (k + 1) not in terms:
            continue
        dx = x.d(k + 1)
        dy = y.d(k)
        fk = f.comp(k + 1)
        blocks = []
        for v in range(1, alg.vertex_count + 1):
            top = hstack([-dx.block(v), RatMatrix.zeros(
                dx.target.dim_at(v), dy.source.dim_at(v))])
            bot = hstack([fk.block(v), dy.block(v)])
            blocks.append(vstack([top, bot]))
        diffs[k] = RepMap(terms[k], terms[k + 1], tuple(blocks))
    c = Cx(alg, terms, diffs)
    incl = CxMap(y, c, {k: sums[k].injections[1] for k in degs})
    sx = shift(x, 1)
    proj_comps = {}
    for k in degs:
        p = sums[k].projections[0]
        # anchor the projection to the shifted complex's term object
        proj_comps[k] = RepMap(terms[k], sx.term(k), p.blocks)
    proj = CxMap(c, sx, proj_comps)
    return Cone(c, incl, proj)


@dataclass(frozen=True, eq=False)
class CxSum:
    cx: Cx
    injections: tuple[CxMap, ...]
    projections: tuple[CxMap, ...]


def cx_direct_sum(parts: list[Cx]) -> CxSum:
    if not parts:
        raise CxError("empty direct sum of complexes")
    alg = parts[0].algebra
    degs = sorted(set(i for p in parts for i in p.terms))
    sums = {k: direct_sum([p.term(k) for p in parts]) for k in degs}
    terms = {k: sums[k].rep for k in degs}
    diffs = {}
    for k in degs:
        if (k + 1) not in terms:
            continue
        total = None
        for i, p in enumerate(parts):
            piece = rcompose(sums[k + 1].injections[i],
                             rcompose(p.d(k), sums[k].projections[i]))
            total = piece if total is None else total + piece
        if total is not None and not total.is_zero():
            diffs[k] = total
    sum_cx = Cx(alg, terms, diffs)
    injs = []
    projs = []
    for i, p in enumerate(parts):
        injs.append(CxMap(p, sum_cx,
                          {k: sums[k].injections[i] for k in degs}))
        projs.append(CxMap(sum_cx, p,
                           {k: sums[k].projections[i] for k in degs}))
    return CxSum(sum_cx, tuple(injs), tuple(projs))


def _corestrict(x: Cx, i: int, k: Rep, incl: RepMap) -> RepMap:
    """d^{i-1} factored through the inclusion of ker d^i."""
    d = x.d(i - 1)
    blocks = []
    for v in range(1, x.algebra.vertex_count + 1):
        sol = solve(incl.block(v), d.block(v))
        if sol is None:
            raise CxError("differential does not land in the next kernel")
        blocks.append(sol)
    return RepMap(x.term(i - 1), k, tuple(blocks))


def heart_cohomology(x: Cx, i: int) -> Rep:
    """H^i of the complex, as a module."""
    k, incl = kernel(x.d(i))
    j = _corestrict(x, i, k, incl)
    h, _ = cokernel(j)
    return h


def cohomology_dims(x: Cx) -> dict[int, tuple[int, ...]]:
    lo, hi = x.min_deg(), x.max_deg()
    if lo is None:
        return {}
    out = {}
    for i in range(lo, hi + 1):
        h = heart_cohomology(x, i)
        if h.total_dim:
            out[i] = h.dims
    return out


def is_acyclic(x: Cx) -> bool:
    return not cohomology_dims(x)


@dataclass(frozen=True, eq=False)
class Triangle:
    """left --f--> mid --g--> right --> left[1].

    When present, comparison is a quasi-isomorphism cone(f) -> right
    certifying the triangle is distinguished; cone_of_f carries that cone.
    """

    left: Cx
    mid: Cx
    right: Cx
    f: CxMap
    g: CxMap
    comparison: CxMap | None = None
    cone_of_f: Cone | None = None

    def certified(self) -> bool:
        if self.comparison is None:
            return False
        return is_acyclic(cone(self.comparison).cx)


def truncate_std(x: Cx, level: int) -> Triangle:
    """The standard-aisle truncation triangle at the given cohomological cut.

    Left term keeps cohomology in degrees <= level, right term the rest.
    """
    alg = x.algebra
    lo = x.min_deg()
    if lo is None:
        lo = level
    lo = min(lo, level)
    k, incl = kernel(x.d(level))
    terms_a = {i: x.term(i) for i in range(lo, level)}
    terms_a[level] = k
    diffs_a = {i: d for i, d in x.diffs.items() if lo <= i < level - 1}
    if level - 1 >= lo:
        j = _corestrict(x, level, k, incl)
        terms_a.setdefault(level - 1, x.term(level - 1))
        diffs_a[level - 1] = j
    a = Cx(alg, terms_a, diffs_a)
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
    dl = x.d(level)
    blocks = []
    for v in range(1, alg.vertex_count + 1):
        sol = solve(pr.block(v).transpose(), dl.block(v).transpose())
        if sol is None:
            raise CxError("differential does not descend to the quotient")
        blocks.append(sol.transpose())
    dq = RepMap(q, x.term(level + 1), blocks)
    if not dq.is_zero():
        terms_b.setdefault(level + 1, x.term(level + 1))
        diffs_b[level] = dq
    b = Cx(alg, terms_b, diffs_b)
    g_comps = {level: pr}
    for i in range(level + 1, hi + 1):
        if x.term(i).total_dim:
            g_comps[i] = identity_map(x.term(i))
    g = CxMap(x, b, g_comps)

    cf = cone(f)
    comp_blocks = {}
    for i in sorted(cf.cx.terms):
        left_w = a.term(i + 1)
        gi = g.comp(i)
        blocks = []
        for v in range(1, alg.vertex_count + 1):
            blocks.append(hstack([
                RatMatrix.zeros(b.term(i).dim_at(v), left_w.dim_at(v)),
                gi.block(v)]))
        comp_blocks[i] = RepMap(cf.cx.term(i), b.term(i), tuple(blocks))
    comparison = CxMap(cf.cx, b, comp_blocks)
    return Triangle(a, x, b, f, g, comparison=comparison, cone_of_f=cf)


def ses_to_triangle(f: RepMap, g: RepMap) -> Triangle:
    """Promote a short exact sequence of modules to a triangle in degree 0."""
    exact_certificate(f, g)
    lx = module_cx(f.source)
    mx = module_cx(f.target)
    nx = module_cx(g.target)
    fc = CxMap(lx, mx, {0: RepMap(lx.term(0), mx.term(0), f.blocks)})
    gc = CxMap(mx, nx, {0: RepMap(mx.term(0), nx.term(0), g.blocks)})
    cf = cone(fc)
    comps = {}
    alg = f.source.algebra
    blocks0 = []
    for v in range(1, alg.vertex_count + 1):
        blocks0.append(hstack([
            RatMatrix.zeros(g.target.dim_at(v), 0), g.block(v)]))
    comps[0] = RepMap(cf.cx.term(0), nx.term(0), tuple(blocks0))
    comps[-1] = zero_map(cf.cx.term(-1), nx.term(-1))
    comparison = CxMap(cf.cx, nx, comps)
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
