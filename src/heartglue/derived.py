"""Projective resolutions and morphism spaces in the bounded derived category.

Every object is replaced by a quasi-isomorphic bounded-above complex of
tagged projective sums. A resolution is its augmentation map: resolve(x)
is the quasi-isomorphism eps: R -> as_cx(x), and R is eps.source. A
module is resolved inside its tagged terms: each syzygy is a kernel basis
in the term it lies in, read off the forward pass that certifies the map
into that term surjects, and projective_cover covers it there. Maps
out of R are free on the copy generators, so chain maps, homotopies, and
lifts all reduce to finite linear systems over the generator data, which
is one RatMatrix column in _GenLayout order: a block per copy generator,
degree by degree. The systems are block matrices of the differentials'
and the maps' vertex blocks. Hom(X, Y[n]) is H^n of the Hom complex
Hom(R_X, Y), a HomCx: its n-cochains are the generator data of maps
R_X -> Y[n], its differential delta^n is s -> d s - s d, and the
boundary map h -> d h + h d is -delta^{n-1}, so each delta is built
once, for the cycles of one degree and the boundaries of the next.
derived_hom reads dim H^n off two ranks; a DHomSpace fixes a canonical
coordinate system by row reduction. The n-cochains are zero outside the
support, the n where a copy generator of R_X meets a nonzero vertex
space of Y[n]. hom_scan, the one nonzero-Hom scan, walks the support
alone and yields each nonzero (n, dim Hom(X, Y[n])). Only
unshifted R and Y get a Hom complex: maps R[a] -> Y[b][n] are its
(n + b - a)-cochains, and only this module translates degrees (_at).

Classes compose on generator data. solve_lift, the one lift kernel,
lifts a column through a quasi-isomorphism, and a post-composition is a
block-diagonal product (_after): composition lifts through the shifted
resolution of the middle object, then applies the second class's blocks
read off its generator data; a roof X <- W -> Y[n] lifts through W -> X.
The class of an exact sequence of modules Y -> M_1 -> ... -> M_n -> X
is read off the augmentation lifted strictly along it (extension_class),
a degree and a vertex at a time: the lifts of every generator of R^k at
v solve one system f_v h = rhs, where rhs is the augmentation's columns
at k = 0 and below it the vertex-v block of the lift in degree k + 1
times the columns of d^k at those generators. A class carries its
coordinate column; its Fraction coordinates are read off only on
request. Chain maps are built only where a cone or a module map needs
one, with no component into a zero term.

Memo policy: each result is kept in the memo of the object it describes
and nowhere else. A module's memo holds its complex and its identity; a
complex's memo holds its "resolution", shifts and copy "generators", the
space Hom(x, y[n]) keyed by (as_cx(y), n), one per x as classes check
their space with `is`, Hom(r, y) keyed by the unshifted pair as
("hom", y), which shifts on both sides read, and the splitting of its
differential d^k keyed by ("splitting", k), which yoneda pushes
resolutions out along; a splitting's memo holds the blocks of the
pushouts along it that no class changes, keyed by (B, nxt); x's memo
holds the composite of c1 out of x and c2 keyed by ("compose", c2, c1);
a Hom space's memo holds the factors of its coordinates keyed by
"coordinates", built by its first class_of_vector. Keys compare by
identity (a class by its space and coordinate column), since classes,
lifts and class_of check endpoints with `is`: only the objects of the
first request hit. An entry dies with its object.
"""

from __future__ import annotations

from functools import cache, cached_property, partial
from itertools import accumulate
from typing import Sequence

from .algebra import memoised
from .complexes import (
    Cx,
    CxMap,
    brutal_below,
    cone,
    cx_block_map,
    identity_chain_map,
    module_cx,
    shift,
    shift_map,
    unshifted,
)
from .complexes import compose as ccompose
from .linalg import (Echelon, RatMatrix, block_diagonal, block_matrix,
                     echelon, hstack, kernel_basis, pivot_columns, solve,
                     span_coordinates)
from .reps import (
    Rep,
    RepMap,
    copy_rows,
    eval_columns,
    generator_block,
    generator_positions,
    map_from_generators,
    projective_cover,
    projective_sum,
    zero_map,
)


class LiftError(RuntimeError):
    pass


def as_cx(obj) -> Cx:
    """The object as a complex; modules are placed in degree 0, once."""
    if isinstance(obj, Cx):
        return obj
    if isinstance(obj, Rep):
        return module_cx(obj)
    raise TypeError(f"not a module or complex: {obj!r}")


def resolve(obj) -> CxMap:
    """The augmentation eps: R -> as_cx(obj) of a bounded-above complex R
    of tagged projective sums; R is eps.source. Kept in as_cx(obj).memo."""
    x = as_cx(obj)
    return memoised(x, "resolution", lambda: _resolve(x))


def _resolve(x: Cx) -> CxMap:
    if x.is_tagged():
        return identity_chain_map(x)
    degs = x.degrees()
    if not degs:
        return CxMap(Cx(x.algebra, {}, {}), x, {})
    b = degs[-1]
    if len(degs) == 1:
        m = x.terms[b]
        if x is not as_cx(m):
            eps = resolve(m)
            return CxMap(shift(eps.source, -b), x, {b: eps.comp(0)})
        # the module in degree 0: resolve it by projective covers
        cover, pi, syzygy = projective_cover(m)
        terms = {0: cover}
        diffs: dict[int, RepMap] = {}
        deg = 0
        while any(k.cols for k in syzygy):
            if deg < -(m.algebra.vertex_count + 2):
                raise LiftError("resolution exceeded the global bound")
            terms[deg - 1], diffs[deg - 1], syzygy = projective_cover(
                terms[deg], syzygy)
            deg -= 1
        return CxMap(Cx(m.algebra, terms, diffs), x, {0: pi})
    below = brutal_below(x, b)
    a = shift(below, -1)
    bprime = shift(as_cx(x.terms[b]), -b)
    w = CxMap(a, bprime, {b: x.diffs[b - 1]} if b - 1 in x.diffs else {})
    ra = resolve(a)
    rb = resolve(bprime)
    wt = lift_map(ra.source, ccompose(w, ra), rb, strict=True)
    # ra[1] lands in a[1], which is x below b; rb in degree b only
    return cx_block_map(cone(wt), x, [[shift_map(ra, 1), rb]])


def _split(copies: list[range], drop: set[int]) -> tuple[list[int], list[int]]:
    """The basis indices of the kept copies and of the dropped ones."""
    keep, gone = [], []
    for c, idx in enumerate(copies):
        (gone if c in drop else keep).extend(idx)
    return keep, gone


def minimal_model(x) -> tuple[Cx, CxMap]:
    """Reduced projective complex quasi-isomorphic to x, with the comparison.

    Gaussian elimination (Bar-Natan, Fast Khovanov homology computations,
    2007): for d: X + P -> Y + Q with an isomorphism phi: P -> Q inside d,
    the pair (P, Q) drops out, the differential becomes
    d11 - d12 phi^-1 d21, the one before it keeps its X rows and the one
    after it its Y columns, and (id, -phi^-1 d21) on X with the inclusion
    of Y is a quasi-isomorphism from the smaller complex.

    The quiver is ordered, so e_v A e_v = k: the part of d between copies
    of P_v is a scalar matrix S_v, and d is radical exactly when every S_v
    is zero.  One sweep over the degrees picks in each d^k, per vertex, a
    maximal invertible block of S_v and eliminates all of them at once;
    the chosen copies of different vertices map triangularly by the vertex
    order, so phi is invertible, and phi^-1 d21 is solved per vertex.  No
    unit survives or reappears: the same-vertex part of a composite is the
    product of the same-vertex parts, because a map P_w -> P_v -> P_w with
    v != w is radical, so the new S_v is S11 - S12 Phi^-1 S21 = 0 by the
    rank of Phi; the neighbouring differentials only lose rows or columns.

    Returns (m, q) with q: m -> x a quasi-isomorphism and m radical; only
    the inclusion is tracked.  A tagged input with nothing to cancel comes
    back as itself with its identity.
    """
    eps = resolve(x)
    r = eps.source
    alg = r.algebra
    gens = {k: t.proj_gens for k, t in r.terms.items()}
    diffs = {k: list(d.blocks) for k, d in r.diffs.items()}
    # incl[k][j - 1]: the kept basis at vertex j in the basis of r^k
    incl = {k: [RatMatrix.identity(n) for n in t.dims]
            for k, t in r.terms.items()}
    for k in sorted(diffs):
        src, tgt = gens[k], gens[k + 1]
        drop_s: set[int] = set()
        drop_t: set[int] = set()
        for v in set(src) & set(tgt):
            cs = [c for c, w in enumerate(src) if w == v]
            ct = [c for c, w in enumerate(tgt) if w == v]
            at_s, at_t = copy_rows(alg, src, v), copy_rows(alg, tgt, v)
            # each copy of P_v has its generator first at vertex v
            s = diffs[k][v - 1].take([at_t[c][0] for c in ct],
                                     [at_s[c][0] for c in cs])
            cols = pivot_columns(s)
            if cols:
                rows = pivot_columns(s.take(None, cols).transpose())
                drop_s.update(cs[i] for i in cols)
                drop_t.update(ct[i] for i in rows)
        if not drop_s:
            continue
        for j in range(1, alg.vertex_count + 1):
            sk, sd = _split(copy_rows(alg, src, j), drop_s)
            if not sd:
                continue
            tk, td = _split(copy_rows(alg, tgt, j), drop_t)
            d = diffs[k][j - 1]
            back = solve(d.take(td, sd), d.take(td, sk))  # phi^-1 d21
            if back is None:
                raise LiftError("cancelled block is not invertible")
            diffs[k][j - 1] = d.take(tk, sk) - d.take(tk, sd) @ back
            i = incl[k][j - 1]
            incl[k][j - 1] = i.take(None, sk) - i.take(None, sd) @ back
            incl[k + 1][j - 1] = incl[k + 1][j - 1].take(None, tk)
            if k - 1 in diffs:
                diffs[k - 1][j - 1] = diffs[k - 1][j - 1].take(sk, None)
            if k + 1 in diffs:
                diffs[k + 1][j - 1] = diffs[k + 1][j - 1].take(None, tk)
        gens[k] = tuple(v for c, v in enumerate(src) if c not in drop_s)
        gens[k + 1] = tuple(v for c, v in enumerate(tgt) if c not in drop_t)
    if all(len(g) == len(r.terms[k].proj_gens) for k, g in gens.items()):
        return r, eps
    terms = {}
    for k, g in gens.items():
        if g:
            t = r.terms[k]
            terms[k] = t if len(g) == len(t.proj_gens) else projective_sum(alg, g)
    reduced = Cx(alg, terms, {
        k: RepMap(terms[k], terms[k + 1], tuple(blocks))
        for k, blocks in diffs.items()
        if k in terms and k + 1 in terms
        and not all(b.is_zero() for b in blocks)})
    into = CxMap(reduced, r, {k: RepMap(t, r.terms[k], tuple(incl[k]))
                              for k, t in terms.items()})
    if r is eps.target:
        return reduced, into
    return reduced, ccompose(eps, into)


def _generators(r: Cx) -> tuple[list[tuple[int, ...]], dict[int, int]]:
    """(k, c, v, pos) per copy generator of the tagged complex r in degree
    order, and degree -> its first generator; kept in r.memo."""
    entries, first = [], {}
    for k in sorted(r.terms):
        if r.terms[k].proj_gens is None:
            raise LiftError("layout needs a tagged complex")
        first[k] = len(entries)
        entries += [(k, *g) for g in generator_positions(r.terms[k])]
    return entries, first


class _GenLayout:
    """Degree n of a HomCx Hom(r, y): generator data of maps r -> y[n], a
    block per copy generator of r^k, of the size of y^{k+n} at its vertex."""

    __slots__ = ("entries", "first", "sizes", "offsets", "total", "delta",
                 "echelon")

    def __init__(self, h: "HomCx", n: int):
        self.entries, self.first = h.entries, h.first
        self.sizes = [h.y.term(k + n).dim_at(v) for (k, _, v, _) in h.entries]
        self.offsets = list(accumulate(self.sizes, initial=0))
        self.total = self.offsets[-1]
        self.delta = self.echelon = None

    def blocks(self, vec: RatMatrix, gens: range) -> list[RatMatrix]:
        """The blocks of vec at the generators gens, as rows of vec."""
        off = self.offsets
        return [vec.take(range(off[i], off[i + 1]), None) for i in gens]


class HomCx:
    """The Hom complex Hom(r, y) of a tagged r and a y, neither a shift.

    support: the degrees n, increasing, with nonzero n-cochains, where a
    copy generator of r^k meets a nonzero vertex space of y^{k+n}.  A
    degree is built on request, for every shift of r and y (_at)."""

    __slots__ = ("r", "y", "entries", "first", "support", "_layouts")

    def __init__(self, r: Cx, y: Cx):
        self.r, self.y, self._layouts = r, y, None
        self.entries, self.first = memoised(r, "generators",
                                            lambda: _generators(r))
        spots = {(k, v) for (k, _, v, _) in self.entries}
        self.support = tuple(sorted({j - k for (k, v) in spots
                                     for j, m in y.terms.items()
                                     if m.dim_at(v)}))

    def layout(self, n: int) -> _GenLayout:
        self._layouts = self._layouts or {}  # none until a degree is built
        got = self._layouts.get(n)
        return got or self._layouts.setdefault(n, _GenLayout(self, n))

    def delta(self, n: int) -> RatMatrix:
        """delta^n, read in the layout of degree n + 1: its kernel is the
        chain maps r -> y[n]; -delta^{n-1} is h -> d h + h d."""
        if n not in self.support:
            return RatMatrix.zeros(self.layout(n + 1).total, 0)
        lay = self.layout(n)
        if lay.delta is None:
            lay.delta = self._system(n, lay)
        return lay.delta

    def echelon(self, n: int) -> Echelon:
        """delta^n's forward pass, for its rank and its kernel."""
        lay = self.layout(n)
        if lay.echelon is None:
            lay.echelon = echelon(self.delta(n))
        return lay.echelon

    def dim(self, n: int) -> int:
        """dim H^n: nullity of delta^n less rank of delta^{n-1}, exact as
        delta^n delta^{n-1} = 0 by d^2 = 0."""
        if n not in self.support:
            return 0
        ech = self.echelon(n)
        dim = ech.cols - len(ech.pivots)
        if dim and n - 1 in self.support:
            dim -= len(self.echelon(n - 1).pivots)
        return dim

    def _system(self, n: int, lay: _GenLayout) -> RatMatrix:
        """delta^n, block-bidiagonal by degree: d_y^{k+n} with the sign of
        y[n], less d_r^k of each generator (reps.eval_columns); a missing
        differential is zero and is never built."""
        grid: list[list] = [[None] * len(lay.entries) for _ in lay.entries]
        heights = []
        for i, (k, c, v, pos) in enumerate(lay.entries):
            nxt = self.y.term(k + n + 1)
            heights.append(nxt.dim_at(v))
            if (dy := self.y.diffs.get(k + n)) is not None:
                grid[i][i] = -dy.block(v) if n % 2 else dy.block(v)
            dr = self.r.diffs.get(k)
            if dr is None or not (up := self.r.terms[k + 1]).total_dim:
                continue
            if not (col := dr.block(v).col_matrix(pos)).is_zero():
                j = lay.first[k + 1]
                grid[i][j:j + len(up.proj_gens)] = [
                    -b for b in eval_columns(up, nxt, v, col)]
        return block_matrix(grid, heights, lay.sizes)


def hom(r: Cx, y: Cx) -> HomCx:
    """Hom(r0, y0) for a tagged r = r0[a] and y = y0[b], r0 and y0 no
    shifts, kept in r0.memo: every shift of either side reads it."""
    r0, y0 = unshifted(r)[0], unshifted(y)[0]
    return memoised(r0, ("hom", y0), lambda: HomCx(r0, y0))


def _at(r: Cx, t: Cx, n: int = 0) -> tuple[HomCx, int]:
    """hom(r, t) and its degree m = n + b - a that holds the maps
    r -> t[n], for r = r0[a] and t = y0[b]: r^k reads r0^{k+a}."""
    return hom(r, t), n + unshifted(t)[1] - unshifted(r)[1]


def hom_scan(x, y, top: int | None = None):
    """Yield (n, dim Hom(x, y[n])) for every nonzero Hom with n <= top, in
    increasing n: the one nonzero-Hom scan.  Only the support of the Hom
    complex (HomCx.support) is read, as a Hom at any other shift
    vanishes.  x is resolved once per scan, and not at all when either
    side is zero or every shift lies above top: R_x has no term above
    x's top degree."""
    x, y = as_cx(x), as_cx(y)
    dx, dy = x.degrees(), y.degrees()
    if not (dx and dy) or top is not None and dy[0] - dx[-1] > top:
        return
    h, c = _at(resolve(x).source, y)
    for m in h.support:
        if top is not None and m - c > top:
            return
        if d := h.dim(m):
            yield m - c, d


def _images(r: Cx, t: Cx, layout: _GenLayout, vec: RatMatrix,
            k: int) -> list[RatMatrix] | None:
    """The degree-k generator blocks of vec, the data of maps r -> t (one
    per column); None where r^k or t^k is zero."""
    term = r.terms.get(k)
    if term is None or not term.proj_gens or not t.term(k).total_dim:
        return None
    i = layout.first[k + unshifted(r)[1]]
    return layout.blocks(vec, range(i, i + len(term.proj_gens)))


def _vector_to_map(r: Cx, t: Cx, layout: _GenLayout,
                   vec: RatMatrix) -> CxMap:
    """The chain map r -> t carried by generator data in the layout; no
    component into a zero term of t is built."""
    comps = {}
    for k in sorted(r.terms):
        images = _images(r, t, layout, vec, k)
        if images is not None:
            comps[k] = map_from_generators(r.terms[k], t.term(k), images)
    return CxMap(r, t, comps)


def _map_to_vector(u: CxMap, layout: _GenLayout) -> RatMatrix:
    """The generator data of u, a map out of a tagged complex."""
    a = unshifted(u.source)[1]
    grid = [[None if (b := _block(u, k - a, v)) is None else b.col_matrix(pos)]
            for (k, _, v, pos) in layout.entries]
    return block_matrix(grid, layout.sizes, [1])


def _after(blocks, lay: _GenLayout, to: _GenLayout, a: int) -> RatMatrix:
    """Generator data of u in lay to that of f u in to, for u out of
    r0[a] and blocks(k, v) the vertex-v block of f in degree k (None for
    zero): block-diagonal."""
    diag = []
    for (k, _, v, _), h, w in zip(lay.entries, to.sizes, lay.sizes,
                                  strict=True):
        if (b := blocks(k - a, v)) is not None and b.shape != (h, w):
            raise ValueError("a block does not fit its slot")
        diag.append(RatMatrix.zeros(h, w) if b is None else b)
    return block_diagonal(diag)


def solve_lift(p: Cx, g: RatMatrix, r: CxMap, n: int = 0,
               strict: bool = False) -> RatMatrix:
    """Generator data of u: p -> source(r)[n] with r[n] u = g, strictly or
    up to homotopy, for g the data of a map p -> target(r)[n], p tagged;
    raises LiftError when no lift exists.  r[n] is read off r's blocks."""
    (hs, ns), (ht, nt) = _at(p, r.source, n), _at(p, r.target, n)
    ulay, zlay = hs.layout(ns), ht.layout(nt)
    # rows: u is a chain map, then r u - (d h + h d) = g; the sign of the
    # homotopy block does not change u
    chain = hs.delta(ns)
    bnd = RatMatrix.zeros(zlay.total, 0) if strict else ht.delta(nt - 1)
    heights = [chain.rows, zlay.total]
    after = _after(lambda k, v: _block(r, k + n, v), ulay, zlay,
                   unshifted(p)[1])
    system = block_matrix([[chain, None], [after, bnd]],
                          heights, [ulay.total, bnd.cols])
    sol = solve(system, block_matrix([[None], [g]], heights, [1]))
    if sol is None:
        raise LiftError("no lift through the quasi-isomorphism")
    return sol.take(range(ulay.total), None)


def lift_map(p: Cx, g: CxMap, r: CxMap, strict: bool = False) -> CxMap:
    """The chain map u: p -> source(r) that solve_lift finds for g."""
    if g.source is not p:
        raise LiftError("g must start at the tagged complex")
    if g.target is not r.target:
        raise LiftError("g and r must share their target")
    (ht, nt), (hs, ns) = _at(p, r.target), _at(p, r.source)
    vec = solve_lift(p, _map_to_vector(g, ht.layout(nt)), r, strict=strict)
    return _vector_to_map(p, r.source, hs.layout(ns), vec)


def _block(f: CxMap, k: int, v: int) -> RatMatrix | None:
    """The vertex-v block of f in degree k; None for a missing component."""
    comp = f.components.get(k)
    return None if comp is None else comp.block(v)


class DHomSpace:
    """Hom(x, y[n]) in the derived category, with a fixed coordinate basis.

    eps is the resolution of x, r its tagged complex and t = y[n]; classes
    are chain maps r -> t modulo null-homotopic ones: the kernel of
    delta^n modulo the columns of delta^{n-1} = -(d h + h d), both read
    from hom(r, y), whose kept forward pass of delta^n gives the kernel."""

    def __init__(self, x: Cx, y: Cx, n: int):
        self.x, self.y, self.n = x, y, n
        self.eps = resolve(x)
        self.r = self.eps.source
        self.t = shift(y, n)
        h, m = _at(self.r, y, n)
        self.layout = h.layout(m)
        cycles = kernel_basis(h.echelon(m))
        self.boundaries = h.delta(m - 1)
        nb = self.boundaries.cols
        pivots = pivot_columns(hstack([self.boundaries, cycles]))
        self.picked = cycles.take(None, [p - nb for p in pivots if p >= nb])
        self.dim = self.picked.cols
        self.memo: dict = {}

    def zero(self) -> "DHomClass":
        return DHomClass(self, RatMatrix.zeros(self.dim, 1))

    def basis(self) -> list["DHomClass"]:
        return [DHomClass(self, e)
                for e in RatMatrix.identity(self.dim).columns()]

    def class_of(self, u: CxMap) -> "DHomClass":
        if u.source is not self.r or u.target is not self.t:
            raise LiftError("chain map not anchored to this Hom space")
        return self.class_of_vector(_map_to_vector(u, self.layout))

    def class_of_vector(self, vec: RatMatrix) -> "DHomClass":
        """The class of generator data vec, a column in the layout: the picked
        part of solve([boundaries | picked], vec), by the factors in memo."""
        both = memoised(self, "coordinates", self._factors) @ vec
        if not both.take(range(self.dim, both.rows), None).is_zero():
            raise LiftError("vector is not a cycle in this Hom space")
        return DHomClass(self, both.take(range(self.dim), None))

    def _factors(self) -> RatMatrix:
        """span_coordinates of [boundaries | picked] stacked as [C; K]: one
        product gives a vector's coordinates, then its cycle check."""
        c, k = span_coordinates(hstack([self.boundaries, self.picked]),
                                self.dim)
        return block_matrix([[c], [k]], [c.rows, k.rows], [c.cols])

    def roof_class(self, q: CxMap, post: CxMap) -> "DHomClass":
        """The class of post q^-1 for a quasi-isomorphism q: w -> x and
        post: w -> t: the augmentation lifted through q, then post."""
        if (q.target is not self.x or post.target is not self.t
                or post.source is not q.source):
            raise LiftError("roof not anchored to this Hom space")
        h, m = _at(self.r, self.x)
        aug = _map_to_vector(self.eps, h.layout(m))
        return self._lifted_after(aug, q, 0, partial(_block, post))

    def extension_class(self, maps: tuple[RepMap, ...]) -> "DHomClass":
        """The class of the exact sequence y -> m_1 -> ... -> m_n -> x with
        maps maps[0] .. maps[n] (comparison theorem, Weibel Thm 2.2.6): the
        augmentation lifted strictly along it, read in degree -n, with one
        solve per degree and vertex for all the generators there.  The
        lift is a chain map into the sequence rolled up over x, so its
        class is that of the roof through it.  Builds no map."""
        n, r, a = self.n, self.r, unshifted(self.r)[1]
        if (len(maps) != n + 1 or maps[0].source is not self.t.term(-n)
                or maps[n].target is not self.x.term(0)):
            raise LiftError("sequence not anchored to this Hom space")
        if self.dim == 0 or -n not in r.terms:
            return self.zero()
        lay = self.layout
        prev: list[RatMatrix] = []  # the lift's generator data in degree k + 1
        for k in range(0, -n - 1, -1):
            f, ngens = maps[n + k], len(r.terms[k].proj_gens)
            i = lay.first[k + a]
            at: dict[int, list[tuple[int, int]]] = {}  # v: (copy, position)
            for (_, c, v, pos) in lay.entries[i:i + ngens]:
                at.setdefault(v, []).append((c, pos))
            cur: list = [None] * ngens
            for v, here in at.items():
                cols = [pos for _, pos in here]
                if k == 0:
                    rhs = self.eps.comp(0).block(v).take(None, cols)
                elif (dr := r.diffs.get(k)) is None:
                    rhs = RatMatrix.zeros(f.target.dim_at(v), len(cols))
                else:  # the lift in degree k + 1 at d_r of the generators
                    rhs = (generator_block(r.terms[k + 1], f.target, prev, v)
                           @ dr.block(v).take(None, cols))
                h = solve(f.block(v), rhs)
                if h is None:
                    raise LiftError("no lift along the sequence")
                for (c, _), col in zip(here, h.columns()):
                    cur[c] = col
            prev = cur
        grid = [[prev[c] if k == a - n else None]
                for (k, c, _, _) in lay.entries]
        return self.class_of_vector(block_matrix(grid, lay.sizes, [1]))

    def _lifted_after(self, g: RatMatrix, q: CxMap, n: int,
                      post) -> "DHomClass":
        """The class of post u for u the lift of generator data g by q[n],
        for post(k, v) the blocks of a map out of source(q)[n]."""
        u = solve_lift(self.r, g, q, n)
        h, m = _at(self.r, q.source, n)
        to = _after(post, h.layout(m), self.layout, unshifted(self.r)[1])
        return self.class_of_vector(to @ u)

    def representative(self, cls: "DHomClass") -> CxMap:
        vec = self.picked @ cls.column
        return _vector_to_map(self.r, self.t, self.layout, vec)

    def component(self, cls: "DHomClass", k: int) -> RepMap:
        """The degree-k component of the representative of cls, read from
        generator data alone (zero where it is absent)."""
        src, tgt = self.r.term(k), self.t.term(k)
        images = _images(self.r, self.t, self.layout,
                         self.picked @ cls.column, k)
        return (zero_map(src, tgt) if images is None
                else map_from_generators(src, tgt, images))


class DHomClass:
    """A class in a Hom space, held as its coordinate column (dim x 1).

    coords, the same entries as Fractions, is read off the column when a
    report or a caller asks; arithmetic, products and equality use the
    column, so a class built by the space never makes a Fraction.
    Equality and hashing are by space and value; a class is never
    changed once built."""

    def __init__(self, space: DHomSpace, coords: RatMatrix | Sequence):
        """coords: the coordinates, as a column or a sequence of rationals."""
        col = (coords if isinstance(coords, RatMatrix)
               else RatMatrix.column(coords))
        if col.shape != (space.dim, 1):
            raise LiftError("coordinates do not fit the Hom space")
        self.space, self.column = space, col

    def __repr__(self) -> str:
        return f"DHomClass({self.coords})"

    coords = cached_property(lambda self: self.column.col(0))
    # memo keys hash a class often: hash it once
    _hash = cached_property(lambda self: hash((self.space, self.column)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, DHomClass):
            return NotImplemented
        return self.space is other.space and self.column == other.column

    def is_zero(self) -> bool:
        return self.column.is_zero()

    def __add__(self, other: "DHomClass") -> "DHomClass":
        if other.space is not self.space:
            raise LiftError("classes live in different Hom spaces")
        return DHomClass(self.space, self.column + other.column)

    def __sub__(self, other: "DHomClass") -> "DHomClass":
        return self + other.scale(-1)

    def scale(self, a) -> "DHomClass":
        return DHomClass(self.space, self.column.scale(a))


def dhom_space(x, y, n: int) -> DHomSpace:
    cx, cy = as_cx(x), as_cx(y)
    return memoised(cx, (cy, n), lambda: DHomSpace(cx, cy, n))


def derived_hom(x, y, n: int) -> int:
    """dim Hom(x, y[n]) off two ranks (HomCx.dim); builds no Hom space."""
    h, m = _at(resolve(x).source, as_cx(y), n)
    return h.dim(m)


def identity_class(x) -> DHomClass:
    sp = dhom_space(x, x, 0)
    return sp.class_of(sp.eps)


def compose_classes(c2: DHomClass, c1: DHomClass) -> DHomClass:
    """The composite class in Hom(x, z[n+m]) of c1 in Hom(x, y[n]) and
    c2 in Hom(y, z[m]), kept in the memo of x."""
    sp1, sp2, n = c1.space, c2.space, c1.space.n
    if sp1.y is not sp2.x:
        raise LiftError("middle objects differ")

    def build() -> DHomClass:
        r, t, vec = sp2.r, sp2.t, sp2.picked @ c2.column

        @cache  # the blocks of c2's representative, shifted by n
        def post(k: int, v: int) -> RatMatrix | None:
            images = _images(r, t, sp2.layout, vec, k + n)
            return images and generator_block(r.terms[k + n], t.term(k + n),
                                              images, v)
        return dhom_space(sp1.x, sp2.y, n + sp2.n)._lifted_after(
            sp1.picked @ c1.column, sp2.eps, n, post)
    return memoised(sp1.x, ("compose", c2, c1), build)
