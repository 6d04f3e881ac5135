"""Projective resolutions and morphism spaces in the bounded derived category.

Every object is replaced by a quasi-isomorphic bounded-above complex of
tagged projective sums. Maps out of such a complex are free on the copy
generators, so chain maps, homotopies, and lifts all reduce to finite
linear systems over the generator data. Hom(X, Y[n]) is computed as chain
maps R_X -> shift(Y, n) modulo null-homotopic ones, with a canonical
coordinate system fixed by row reduction; composition lifts through the
resolution of the middle object.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import (
    Cx,
    CxMap,
    brutal_below,
    cone,
    identity_chain_map,
    module_cx,
    shift,
)
from .complexes import compose as ccompose
from .linalg import RatMatrix, hstack, kernel_basis, pivot_columns, solve
from .reps import (
    Rep,
    RepMap,
    eval_columns,
    generator_positions,
    identity_map,
    kernel,
    map_from_generators,
    projective_cover,
    summand_maps,
)
from .reps import compose as rcompose


class LiftError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class Resolution:
    cx: Cx
    eps: CxMap
    target: Cx


def as_cx(obj) -> Cx:
    """The object as a complex; modules are placed in degree 0, once."""
    if isinstance(obj, Cx):
        return obj
    if isinstance(obj, Rep):
        got = getattr(obj, "_as_cx", None)
        if got is None:
            got = module_cx(obj)
            object.__setattr__(obj, "_as_cx", got)
        return got
    raise TypeError(f"not a module or complex: {obj!r}")


def resolve_rep(m: Rep) -> Resolution:
    got = getattr(m, "_resolution", None)
    if got is not None:
        return got
    target = as_cx(m)
    if m.proj_gens is not None:
        res = Resolution(target, identity_chain_map(target), target)
    elif m.total_dim == 0:
        r = Cx(m.algebra, {}, {})
        res = Resolution(r, CxMap(r, target, {}), target)
    else:
        cover, pi = projective_cover(m)
        terms = {0: cover}
        diffs: dict[int, RepMap] = {}
        ker_rep, incl = kernel(pi)
        deg = 0
        while ker_rep.total_dim:
            if deg < -(m.algebra.vertex_count + 2):
                raise LiftError("resolution exceeded the global bound")
            q, piq = projective_cover(ker_rep)
            diffs[deg - 1] = rcompose(incl, piq)
            terms[deg - 1] = q
            ker_rep, incl = kernel(piq)
            deg -= 1
        cx = Cx(m.algebra, terms, diffs)
        eps = CxMap(cx, target, {0: pi})
        res = Resolution(cx, eps, target)
    object.__setattr__(m, "_resolution", res)
    return res


def resolve_cx(x: Cx) -> Resolution:
    got = getattr(x, "_resolution", None)
    if got is not None:
        return got
    if x.is_tagged():
        res = Resolution(x, identity_chain_map(x), x)
        object.__setattr__(x, "_resolution", res)
        return res
    degs = x.degrees()
    if not degs:
        r = Cx(x.algebra, {}, {})
        res = Resolution(r, CxMap(r, x, {}), x)
    elif len(degs) == 1:
        b = degs[0]
        m = x.terms[b]
        rm = resolve_rep(m)
        rcxs = shift(rm.cx, -b)
        eps = CxMap(rcxs, x, {b: rm.eps.comp(0)})
        res = Resolution(rcxs, eps, x)
    else:
        b = degs[-1]
        below = brutal_below(x, b)
        a = shift(below, -1)
        bprime = Cx(x.algebra, {b: x.terms[b]}, {})
        if (b - 1) in x.diffs:
            w = CxMap(a, bprime, {b: x.diffs[b - 1]})
        else:
            w = CxMap(a, bprime, {})
        ra = resolve_cx(a)
        rb = resolve_cx(bprime)
        from .complexes import compose as ccompose
        g = ccompose(w, ra.eps)
        wt, _ = solve_lift(ra.cx, g, rb.eps, strict=True)
        co = cone(wt)
        comps = {}
        for k in sorted(co.cx.terms):
            tx = x.term(k)
            blocks = []
            for v in range(1, x.algebra.vertex_count + 1):
                if k == b:
                    left = RatMatrix.zeros(tx.dim_at(v),
                                           ra.cx.term(k + 1).dim_at(v))
                    right = rb.eps.comp(b).block(v)
                else:
                    left = ra.eps.comp(k + 1).block(v)
                    right = RatMatrix.zeros(tx.dim_at(v),
                                            rb.cx.term(k).dim_at(v))
                blocks.append(hstack([left, right]))
            comps[k] = RepMap(co.cx.term(k), tx, tuple(blocks))
        eps = CxMap(co.cx, x, comps)
        res = Resolution(co.cx, eps, x)
    object.__setattr__(x, "_resolution", res)
    return res


def resolve(obj) -> Resolution:
    if isinstance(obj, Rep):
        return resolve_rep(obj)
    return resolve_cx(as_cx(obj))


def _iso_pivot(s: Rep, t: Rep, d: RepMap) -> tuple[int, int, Fraction] | None:
    """A component of d carrying a copy generator of s to a same-vertex copy
    generator of t with a nonzero scalar.  The quiver is ordered, so e_v A e_v
    is spanned by the trivial path and any such component is invertible."""
    tpos = generator_positions(t)
    for (c, v, pos) in generator_positions(s):
        col = d.block(v)
        for (c2, w, pos2) in tpos:
            if w == v and col[pos2, pos]:
                return c, c2, col[pos2, pos]
    return None


def minimal_model(x) -> tuple[Cx, CxMap]:
    """Reduced projective complex quasi-isomorphic to x, with the comparison.

    Cancels invertible differential components between projective summands:
    for d: X + P -> Y + Q with an isomorphism phi: P -> Q inside d, the pair
    (P, Q) drops out, the differential becomes d11 - d12 phi^-1 d21, and
    (id, -phi^-1 d21) followed by the old inclusions is a quasi-isomorphism
    from the smaller complex.  Iterating until no pivot is left makes every
    differential radical, so the terms reach the smallest dimensions in the
    quasi-isomorphism class.

    Returns (m, q) with q: m -> x a quasi-isomorphism.
    """
    res = resolve(x)
    terms = dict(res.cx.terms)
    diffs = dict(res.cx.diffs)
    incl = {k: identity_map(t) for k, t in terms.items()}
    changed = True
    while changed:
        changed = False
        for k in sorted(terms):
            if k not in diffs:
                continue
            hit = _iso_pivot(terms[k], terms[k + 1], diffs[k])
            if hit is None:
                continue
            c, c2, coef = hit
            s, t = terms[k], terms[k + 1]
            s2, s_in, s_out = summand_maps(
                s, [i for i in range(len(s.proj_gens)) if i != c])
            t2, t_in, t_out = summand_maps(
                t, [i for i in range(len(t.proj_gens)) if i != c2])
            pc, pc_in, _ = summand_maps(s, (c,))
            _, _, q_out = summand_maps(t, (c2,))
            d = diffs[k]
            d11 = rcompose(t_out, rcompose(d, s_in))
            d12 = rcompose(t_out, rcompose(d, pc_in))
            d21 = rcompose(q_out, rcompose(d, s_in))
            # phi^-1 d21, pulled back along the canonical match of the two
            # single-copy sums (phi is coef times that identification)
            back = RepMap(s2, pc,
                          tuple(b.scale(Fraction(1, 1) / coef)
                                for b in d21.blocks))
            diffs[k] = d11 - rcompose(d12, back)
            if (k - 1) in diffs:
                diffs[k - 1] = rcompose(s_out, diffs[k - 1])
            if (k + 1) in diffs:
                diffs[k + 1] = rcompose(diffs[k + 1], t_in)
            incl[k] = rcompose(incl[k], s_in - rcompose(pc_in, back))
            incl[k + 1] = rcompose(incl[k + 1], t_in)
            terms[k], terms[k + 1] = s2, t2
            changed = True
            break
    for k in [k for k, term in terms.items() if term.total_dim == 0]:
        del terms[k]
        del incl[k]
        diffs.pop(k, None)
        diffs.pop(k - 1, None)
    reduced = Cx(res.cx.algebra, terms, diffs)
    into_res = CxMap(reduced, res.cx, incl)
    return reduced, ccompose(res.eps, into_res)


class _GenLayout:
    """Column layout for the per-generator data of maps out of a tagged
    complex r, targeting term degree k + delta of the complex t."""

    def __init__(self, r: Cx, t: Cx, delta: int):
        self.entries: list[tuple[int, int, int, int]] = []
        self.offsets: dict[tuple[int, int], int] = {}
        self.degree_start: dict[int, int] = {}
        off = 0
        for k in sorted(r.terms):
            term = r.terms[k]
            if term.proj_gens is None:
                raise LiftError("layout needs a tagged complex")
            self.degree_start[k] = off
            for (c, v, pos) in generator_positions(term):
                size = t.term(k + delta).dim_at(v)
                self.entries.append((k, c, v, pos))
                self.offsets[(k, c)] = off
                off += size
        self.total = off

def _add_block(grid: list[list], r0: int, c0: int, m: RatMatrix,
               sign: int = 1) -> None:
    den = m.den
    for i, src in enumerate(m.num):
        row = grid[r0 + i]
        for j, x in enumerate(src):
            if x:
                x = x if sign > 0 else -x
                row[c0 + j] += x if den == 1 else Fraction(x, den)


def _chain_matrix(r: Cx, t: Cx, layout: _GenLayout) -> RatMatrix:
    """Rows of the linear system cutting out chain maps r -> t among all
    generator-data vectors."""
    rows: list[list] = []
    for (k, c, v, pos) in layout.entries:
        dt = t.d(k)
        nrows = dt.target.dim_at(v)
        dr = r.d(k)
        dcol = dr.block(v).col_matrix(pos)
        nxt = r.term(k + 1)
        has_next = nxt.total_dim > 0 and nxt.proj_gens is not None
        block_rows = [[0] * layout.total for _ in range(nrows)]
        _add_block(block_rows, 0, layout.offsets[(k, c)], dt.block(v))
        if has_next and not dcol.is_zero():
            ev = eval_columns(nxt, t.term(k + 1), v, dcol)
            _add_block(block_rows, 0, layout.degree_start[k + 1], ev, sign=-1)
        rows.extend(block_rows)
    return RatMatrix(rows, cols=layout.total)


def _boundary_matrix(r: Cx, t: Cx, layout: _GenLayout,
                     hlayout: _GenLayout) -> RatMatrix:
    """Matrix sending homotopy data s (maps r^k -> t^{k-1}) to the chain map
    d_t s + s d_r, in the chain-map layout."""
    grid = [[0] * hlayout.total for _ in range(layout.total)]
    for (k, c, v, pos) in layout.entries:
        r0 = layout.offsets[(k, c)]
        dt = t.d(k - 1)
        _add_block(grid, r0, hlayout.offsets[(k, c)], dt.block(v))
        dr = r.d(k)
        dcol = dr.block(v).col_matrix(pos)
        nxt = r.term(k + 1)
        if nxt.total_dim > 0 and nxt.proj_gens is not None and not dcol.is_zero():
            ev = eval_columns(nxt, t.term(k), v, dcol)
            _add_block(grid, r0, hlayout.degree_start[k + 1], ev)
    return RatMatrix(grid, cols=hlayout.total)


def _vector_to_map(r: Cx, t: Cx, layout: _GenLayout,
                   vec: list[Fraction]) -> CxMap:
    comps = {}
    for k in sorted(r.terms):
        term = r.terms[k]
        if not term.proj_gens:
            continue
        images = []
        for (c, v, pos) in generator_positions(term):
            off = layout.offsets[(k, c)]
            size = t.term(k).dim_at(v)
            images.append(RatMatrix.column(vec[off:off + size]))
        comps[k] = map_from_generators(term, t.term(k), images)
    return CxMap(r, t, comps)


def _map_to_vector(u: CxMap, layout: _GenLayout) -> list[Fraction]:
    vec = [Fraction(0)] * layout.total
    for (k, c, v, pos) in layout.entries:
        col = u.comp(k).block(v).col(pos)
        off = layout.offsets[(k, c)]
        for i, val in enumerate(col):
            vec[off + i] = val
    return vec


def reanchor(u: CxMap, src: Cx, tgt: Cx) -> CxMap:
    """Rebuild a chain map between complexes sharing the same term objects.

    Valid whenever src/tgt agree with u's endpoints degreewise up to zero
    padding; the blocks are reused unchanged."""
    comps = {}
    for k, c in u.components.items():
        comps[k] = RepMap(src.term(k), tgt.term(k), c.blocks)
    return CxMap(src, tgt, comps)


def solve_lift(p: Cx, g: CxMap, r: CxMap, strict: bool = False
               ) -> tuple[CxMap, dict[int, RepMap]]:
    """Find u: p -> source(r) with r u = g, strictly or up to a homotopy h
    (r u - g = d h + h d). p must be tagged; raises LiftError when no lift
    exists."""
    if g.source is not p:
        raise LiftError("g must start at the tagged complex")
    if g.target is not r.target:
        raise LiftError("g and r must share their target")
    w = r.source
    z = r.target
    ulay = _GenLayout(p, w, 0)
    hlay = _GenLayout(p, z, -1) if not strict else None
    ncols = ulay.total + (hlay.total if hlay else 0)
    rows: list[list] = []
    rhs: list = []
    # chain-map equations for u
    for (k, c, v, pos) in ulay.entries:
        dw = w.d(k)
        nrows = dw.target.dim_at(v)
        dcol = p.d(k).block(v).col_matrix(pos)
        nxt = p.term(k + 1)
        block = [[0] * ncols for _ in range(nrows)]
        _add_block(block, 0, ulay.offsets[(k, c)], dw.block(v))
        if nxt.total_dim > 0 and not dcol.is_zero():
            ev = eval_columns(nxt, w.term(k + 1), v, dcol)
            _add_block(block, 0, ulay.degree_start[k + 1], ev, sign=-1)
        rows.extend(block)
        rhs.extend([0] * nrows)
    # lifting equations r u = g (+ d h + h d)
    for (k, c, v, pos) in ulay.entries:
        nrows = z.term(k).dim_at(v)
        block = [[0] * ncols for _ in range(nrows)]
        _add_block(block, 0, ulay.offsets[(k, c)], r.comp(k).block(v))
        if hlay is not None:
            dz = z.d(k - 1)
            _add_block(block, 0, ulay.total + hlay.offsets[(k, c)],
                       dz.block(v), sign=-1)
            dcol = p.d(k).block(v).col_matrix(pos)
            nxt = p.term(k + 1)
            if nxt.total_dim > 0 and not dcol.is_zero():
                ev = eval_columns(nxt, z.term(k), v, dcol)
                _add_block(block, 0, ulay.total + hlay.degree_start[k + 1],
                           ev, sign=-1)
        rows.extend(block)
        gcol = g.comp(k).block(v).col(pos)
        rhs.extend(gcol)
    system = RatMatrix(rows, cols=ncols) if rows else RatMatrix.zeros(0, ncols)
    sol = solve(system, RatMatrix.column(rhs))
    if sol is None:
        raise LiftError("no lift through the quasi-isomorphism")
    vec = sol.col(0) if ncols else []
    u = _vector_to_map(p, w, ulay, list(vec[:ulay.total]))
    homotopy: dict[int, RepMap] = {}
    if hlay is not None:
        hvec = list(vec[ulay.total:])
        for k in sorted(p.terms):
            term = p.terms[k]
            if not term.proj_gens:
                continue
            images = []
            for (c, v, pos) in generator_positions(term):
                off = hlay.offsets[(k, c)]
                size = z.term(k - 1).dim_at(v)
                images.append(RatMatrix.column(hvec[off:off + size]))
            f = map_from_generators(term, z.term(k - 1), images)
            homotopy[k] = f
    return u, homotopy


class DHomSpace:
    """Hom(x, y[n]) in the derived category, with a fixed coordinate basis."""

    def __init__(self, x: Cx, y: Cx, n: int):
        self.x = x
        self.y = y
        self.n = n
        self.res = resolve_cx(x)
        self.t = shift(y, n)
        self.layout = _GenLayout(self.res.cx, self.t, 0)
        self.hlayout = _GenLayout(self.res.cx, self.t, -1)
        chain = _chain_matrix(self.res.cx, self.t, self.layout)
        self.cycles = kernel_basis(chain)
        self.boundaries = _boundary_matrix(self.res.cx, self.t, self.layout,
                                           self.hlayout)
        combined = hstack([self.boundaries, self.cycles])
        pivots = pivot_columns(combined)
        nb = self.boundaries.cols
        zsel = [p - nb for p in pivots if p >= nb]
        self.zsel_cols = zsel
        self.picked = RatMatrix.from_cols(
            [self.cycles.col(j) for j in zsel], rows=self.layout.total)
        self.dim = len(zsel)
        self._solver = hstack([self.boundaries, self.picked])

    def zero(self) -> "DHomClass":
        return DHomClass(self, (Fraction(0),) * self.dim)

    def basis(self) -> list["DHomClass"]:
        out = []
        for i in range(self.dim):
            coords = tuple(Fraction(1 if j == i else 0)
                           for j in range(self.dim))
            out.append(DHomClass(self, coords))
        return out

    def class_of(self, u: CxMap) -> "DHomClass":
        if u.source is not self.res.cx or u.target is not self.t:
            raise LiftError("chain map not anchored to this Hom space")
        vec = _map_to_vector(u, self.layout)
        return self.class_of_vector(vec)

    def class_of_vector(self, vec: list[Fraction]) -> "DHomClass":
        sol = solve(self._solver, RatMatrix.column(vec))
        if sol is None:
            raise LiftError("vector is not a cycle in this Hom space")
        tail = sol.col(0)[self.boundaries.cols:]
        return DHomClass(self, tuple(tail))

    def representative(self, cls: "DHomClass") -> CxMap:
        vec = [Fraction(0)] * self.layout.total
        for coeff, j in zip(cls.coords, range(self.dim)):
            if coeff:
                col = self.picked.col(j)
                for i, val in enumerate(col):
                    vec[i] += coeff * val
        return _vector_to_map(self.res.cx, self.t, self.layout, vec)


@dataclass(frozen=True)
class DHomClass:
    space: DHomSpace
    coords: tuple[Fraction, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __add__(self, other: "DHomClass") -> "DHomClass":
        if other.space is not self.space:
            raise LiftError("classes live in different Hom spaces")
        return DHomClass(self.space,
                         tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DHomClass") -> "DHomClass":
        return self + other.scale(Fraction(-1))

    def scale(self, a) -> "DHomClass":
        a = Fraction(a)
        return DHomClass(self.space, tuple(a * c for c in self.coords))


_spaces: dict[tuple[int, int, int], DHomSpace] = {}


def dhom_space(x, y, n: int) -> DHomSpace:
    cx, cy = as_cx(x), as_cx(y)
    key = (id(cx), id(cy), n)
    got = _spaces.get(key)
    if got is None:
        got = DHomSpace(cx, cy, n)
        _spaces[key] = got
    return got


def derived_hom(x, y, n: int) -> int:
    """dim Hom(x, y[n])."""
    return dhom_space(x, y, n).dim


def hom_table(x, y, lo: int, hi: int) -> dict[int, int]:
    return {n: derived_hom(x, y, n) for n in range(lo, hi + 1)}


def identity_class(x) -> DHomClass:
    sp = dhom_space(x, x, 0)
    eps = sp.res.eps
    if eps.target is not sp.t:
        eps = CxMap(sp.res.cx, sp.t, eps.components)
    return sp.class_of(eps)


def compose_classes(c2: DHomClass, c1: DHomClass) -> DHomClass:
    """The composite class in Hom(x, z[n+m]) of c1 in Hom(x, y[n]) and
    c2 in Hom(y, z[m])."""
    if c1.space.y is not c2.space.x:
        raise LiftError("middle objects differ")
    n, m = c1.space.n, c2.space.n
    target = dhom_space(c1.space.x, c2.space.y, n + m)
    u1 = c1.space.representative(c1)
    ry = resolve_cx(c1.space.y)
    shifted_res = shift(ry.cx, n)
    r_comps = {}
    for i, comp in ry.eps.components.items():
        r_comps[i - n] = RepMap(shifted_res.term(i - n),
                                c1.space.t.term(i - n), comp.blocks)
    r = CxMap(shifted_res, c1.space.t, r_comps)
    lifted, _ = solve_lift(c1.space.res.cx, u1, r)
    u2 = c2.space.representative(c2)
    nv = c1.space.x.algebra.vertex_count
    v_comps = {}
    for k, comp in lifted.components.items():
        step = u2.comp(k + n)
        blocks = tuple(step.block(v) @ comp.block(v)
                       for v in range(1, nv + 1))
        v_comps[k] = RepMap(target.res.cx.term(k), target.t.term(k), blocks)
    v = CxMap(target.res.cx, target.t, v_comps)
    return target.class_of(v)
