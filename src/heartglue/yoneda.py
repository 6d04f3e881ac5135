"""Extension-sequence calculus over the derived Hom spaces.

An n-step extension of a module A by a module B is an exact sequence

    0 -> B -> X_1 -> ... -> X_n -> A -> 0

stored together with its maps xi_0 .. xi_n.  `f_map` sends such a
sequence to its class in Hom(A, B[n]), read off one comparison lift:
the augmentation of A's resolution lifted along the sequence, degree
by degree (`DHomSpace.extension_class`).  The independent route,
`f_map_via_quasi_iso`, rolls the whole sequence into a single complex W
quasi-isomorphic to A and reads the roof A <- W -> B[n] with
`DHomSpace.roof_class`; the suite checks the two routes agree exactly.

`splice_from_class` inverts `f_map`: it pushes the resolution of A out
along the degree -n component of the class, read from generator data,
not a chain-map representative, and splices.  Two extensions are
equivalent iff their classes under `f_map` are equal (`DHomClass`
equality compares the space and the coordinate column).

Pushout, pullback, splice product and Baer sum act on explicit
sequences; the YExt constructor re-certifies exactness on every build,
as no cohomology (`complexes.cohomology_dims`) of the sequence read as
one complex.  A pushout along f is written down from a splitting of f (one
elimination per vertex, kept in the resolution's memo when f is one of
its differentials); a pullback is the kernel of a two-block map.

Each class costs block products and the checks.  Splicing it takes one
product of the degree -n rows of the space's basis with its coordinate
column, the module map with those generator images, and per arrow one
product and one join for the pushout's action; the pushout's two maps
reuse blocks kept with the splitting.  Reading it back takes one solve
and one product per (degree, vertex) that has generators, and one
product with the space's coordinate factors.  Every module, map and
YExt built is validated in full, and no Fraction is made unless a
caller reads `coords`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import memo_field, memoised
from .linalg import (RatMatrix, block_matrix, hstack, pivot_columns, rank,
                     solve, span_membership)
from .reps import (ID, Rep, RepError, RepMap, block_map, direct_sum,
                   identity_map, kernel, through_mono)
from .reps import compose as rcompose
from .complexes import Cx, CxError, CxMap, cohomology_dims
from .derived import DHomClass, as_cx, compose_classes, dhom_space


class YExtError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class YExt:
    """Exact sequence 0 -> left -> middle[0] -> ... -> middle[-1] -> right -> 0.

    maps[0] leaves `left`, maps[-1] lands in `right`, and maps[i] for
    0 < i < n runs middle[i-1] -> middle[i].  The constructor reads the
    sequence as one Cx, left in degree 0 to right in degree n + 1, which
    checks anchoring and d^2 = 0, and certifies it has no cohomology.
    """

    left: Rep
    right: Rep
    middle: tuple[Rep, ...]
    maps: tuple[RepMap, ...]

    def __post_init__(self):
        if not self.middle:
            raise YExtError("an extension needs at least one middle term")
        if len(self.maps) != len(self.middle) + 1:
            raise YExtError("need one more map than middle terms")
        chain = (self.left,) + self.middle + (self.right,)
        try:
            h = cohomology_dims(Cx(self.left.algebra, dict(enumerate(chain)),
                                   dict(enumerate(self.maps))))
        except CxError as err:
            raise YExtError(str(err)) from None
        if h:
            i = min(h)
            raise YExtError(f"not exact at term {i}: cohomology dims {h[i]}")

    @property
    def n(self) -> int:
        return len(self.middle)


def _route_sign(n: int) -> int:
    # The raw lift of the augmentation and the canonical class (the
    # composite of the one-step connecting classes) of an n-extension
    # differ by this classical factor; degree pattern + + - - + + - - ...
    return -1 if (n * (n - 1) // 2) % 2 else 1


def f_map(x: YExt) -> DHomClass:
    """Canonical class of an extension in Hom(right, left[n]), read off
    one comparison lift of the augmentation of right along the sequence
    (`DHomSpace.extension_class`); YExt has certified its exactness."""
    cls = dhom_space(x.right, x.left, x.n).extension_class(x.maps)
    return cls if _route_sign(x.n) == 1 else cls.scale(-1)


def f_map_via_quasi_iso(x: YExt) -> DHomClass:
    """Same class as `f_map`, computed as a roof through a complex.

    View 0 -> left -> middle -> right as a complex W with `left` in
    degree -n whose final map is a quasi-isomorphism onto `right`; lift
    the augmentation of `right` through it up to homotopy and project
    onto degree -n, then apply the sign of `_route_sign`.  Kept as an
    independent cross-check of `f_map`.
    """
    n = x.n
    terms = {-n + i: m for i, m in enumerate((x.left,) + x.middle)}
    diffs = {-n + i: x.maps[i] for i in range(n)}
    w = Cx(x.left.algebra, terms, diffs)
    sp = dhom_space(x.right, x.left, n)
    q = CxMap(w, as_cx(x.right), {0: x.maps[n]})
    cls = sp.roof_class(q, CxMap(w, sp.t, {-n: identity_map(x.left)}))
    return cls if _route_sign(n) == 1 else cls.scale(-1)


@dataclass(frozen=True, eq=False)
class _Splitting:
    """A splitting of f: L -> M, vertex by vertex and arrow by arrow.

    At vertex v, M_v = im f_v + span of the unit columns C_v; S_v: M_v ->
    L_v has f S f = f, and E_v: M_v -> k^{C_v} has E f = 0 and
    E I[:, C] = I.  proj[v] is S_v f_v.  For an arrow a: s -> t acting by
    L_a and M_a, act[a] = E_s M_a[:, C_t] is the action on the
    complement, and mix[a] = S_s M_a[:, C_t] is how far S fails to be
    natural there: (S_s M_a - L_a S_t)[:, C_t], as S I[:, C] = 0.  memo
    keeps the blocks of the pushouts along it that do not depend on the
    map pushed out along, keyed by (B, nxt)."""

    f: RepMap
    cols: tuple[tuple[int, ...], ...]
    proj: tuple[RatMatrix, ...]
    act: dict[str, RatMatrix]
    mix: dict[str, RatMatrix]
    memo: dict = memo_field()


def _splitting(f: RepMap) -> _Splitting:
    """One elimination of [f_v | I] per vertex gives the pivot columns J
    of f_v and the completing unit columns C; Q, the inverse of
    [f_v[:, J] | I[:, C]], gives S_v = I_L[:, J] Q[:|J|] and
    E_v = Q[|J|:]."""
    sects, ends, cols = [], [], []
    for fv in f.blocks:
        m, l = fv.shape
        unit = RatMatrix.identity(m)
        piv = pivot_columns(hstack([fv, unit]))
        js = [p for p in piv if p < l]
        cs = tuple(p - l for p in piv if p >= l)
        q = solve(hstack([fv.take(None, js), unit.take(None, cs)]), unit)
        sects.append(RatMatrix.identity(l).take(None, js)
                     @ q.take(range(len(js)), None))
        ends.append(q.take(range(len(js), m), None))
        cols.append(cs)
    act, mix = {}, {}
    for a in f.source.algebra.quiver.arrows:
        s, t = a.source - 1, a.target - 1
        ma = f.target.act_arrow(a.name).take(None, cols[t])
        act[a.name] = ends[s] @ ma
        mix[a.name] = sects[s] @ ma
    return _Splitting(f, tuple(cols),
                      tuple(s @ fv for s, fv in zip(sects, f.blocks)),
                      act, mix)


def _frame(split: _Splitting, b: Rep, nxt: RepMap):
    """The blocks of a pushout along split into b that no map fixes: per
    vertex [I; 0] of B -> X and [0, nxt_v[:, C_v]] of X -> N."""
    widths = [len(c) for c in split.cols]
    into = tuple(block_matrix([[RatMatrix.identity(d)], [None]], [d, w], [d])
                 for d, w in zip(b.dims, widths))
    onto = tuple(block_matrix([[None, nb.take(None, c)]], [nb.rows],
                              [d, len(c)])
                 for nb, c, d in zip(nxt.blocks, split.cols, b.dims))
    return widths, into, onto


def _pushout(g: RepMap, split: _Splitting,
             nxt: RepMap) -> tuple[Rep, RepMap, RepMap]:
    """The pushout X of g: L -> B and f: L -> M, with its map B -> X and
    the map X -> N induced by nxt: M -> N, where nxt f = 0; f is the
    split map, and g must vanish on ker f (checked as g S f = g).

    With the splitting (S, E, C) of f, X_v = B_v + k^{C_v} and the
    quotient B + M -> X is (b, m) -> (b + g S m, E m).  An arrow a acts
    on X by [[B_a, g_s N_a], [0, F_a]] with F = split.act and
    N = split.mix; B -> X is [I; 0] and X -> N is [0, nxt_v[:, C_v]].
    Those two maps' blocks depend on (B, nxt) alone and are kept in
    split.memo; an arrow's action is one join of four blocks, as joining
    a kept lower row to the upper one costs a second join."""
    f = split.f
    if g.source is not f.source or nxt.source is not f.target:
        raise RepError("pushout maps are not anchored to the split map")
    b = g.target
    for v, (gv, pv) in enumerate(zip(g.blocks, split.proj), 1):
        if gv @ pv != gv:
            raise RepError(f"map does not vanish on the kernel at vertex {v}")
    widths, into, onto = memoised(split, (b, nxt),
                                  lambda: _frame(split, b, nxt))
    act = {}
    for a in b.algebra.quiver.arrows:
        s, t = a.source, a.target
        act[a.name] = block_matrix(
            [[b.act_arrow(a.name), g.block(s) @ split.mix[a.name]],
             [None, split.act[a.name]]],
            [b.dim_at(s), widths[s - 1]], [b.dim_at(t), widths[t - 1]])
    x = Rep(b.algebra, tuple(map(sum, zip(b.dims, widths))), act)
    return x, RepMap(b, x, into), RepMap(x, nxt.target, onto)


def splice_from_class(c: DHomClass, a: Rep, b: Rep, n: int) -> YExt:
    """Exact sequence whose canonical class is c, for c in Hom(a, b[n]).

    Built from the projective resolution R of a: push R^{-n} out along
    the degree -n component of c, one module map read from generator
    data (`DHomSpace.component`), then continue with the resolution tail
    and the augmentation.  The splitting of d^{-n} is kept in R's memo.
    c is pre-twisted by (-1)^(n(n-1)/2) so that the round trip through
    `f_map` is the identity on coordinates.
    """
    sp = c.space
    if n < 1:
        raise YExtError("extensions have positive length")
    if sp.n != n:
        raise YExtError("class degree does not match n")
    if not isinstance(a, Rep) or not isinstance(b, Rep):
        raise YExtError("splicing needs module endpoints")
    if sp.x is not as_cx(a) or sp.y is not as_cx(b):
        raise YExtError("class endpoints do not match the given modules")
    r = sp.r
    tw = c if _route_sign(n) == 1 else c.scale(-1)
    u0 = sp.component(tw, -n)
    eps0 = sp.eps.comp(0)
    nxt = eps0 if n == 1 else r.d(-n + 1)
    split = memoised(r, ("splitting", -n), lambda: _splitting(r.d(-n)))
    x1, xi0, xi1 = _pushout(u0, split, nxt)
    if n == 1:
        return YExt(b, a, (x1,), (xi0, xi1))
    middle = (x1,) + tuple(r.term(k) for k in range(-n + 2, 1))
    maps = (xi0, xi1) + tuple(r.d(k) for k in range(-n + 2, 0)) + (eps0,)
    return YExt(b, a, middle, maps)


def pushout_action(g: RepMap, x: YExt) -> YExt:
    """Replace the left end along g: left -> C; the class pushes forward."""
    if g.source is not x.left:
        raise YExtError("pushout map must start at the left end")
    x1, xi0, xi1 = _pushout(g, _splitting(x.maps[0]), x.maps[1])
    return YExt(g.target, x.right, (x1,) + x.middle[1:],
                (xi0, xi1) + x.maps[2:])


def pullback_action(x: YExt, h: RepMap) -> YExt:
    """Replace the right end along h: D -> right; the class pulls back."""
    if h.target is not x.right:
        raise YExtError("pullback map must end at the right end")
    ds = direct_sum([x.middle[-1], h.source])
    k, incl = kernel(block_map(ds, x.right, [[x.maps[-1], -h]]))
    xi_last = rcompose(ds.projection(1), incl)
    zeta = block_map(x.maps[-2].source, ds, [[x.maps[-2]], [None]])
    xi_prev = through_mono(incl, zeta)
    return YExt(x.left, h.source, x.middle[:-1] + (k,),
                x.maps[:-2] + (xi_prev, xi_last))


def yoneda_product(x: YExt, y: YExt) -> YExt:
    """Concatenate y (an extension of x.left by y.left) onto x.

    The canonical class of the result is the shifted composition of the
    two canonical classes.
    """
    if y.right is not x.left:
        raise YExtError("splice point mismatch: y must end where x begins")
    junction = rcompose(x.maps[0], y.maps[-1])
    return YExt(y.left, x.right, y.middle + x.middle,
                y.maps[:-1] + (junction,) + x.maps[1:])


def baer_sum(x: YExt, y: YExt) -> YExt:
    """Sum of same-endpoint extensions; classes add."""
    if x.left is not y.left or x.right is not y.right or x.n != y.n:
        raise YExtError("Baer sum needs matching endpoints and equal length")
    sums = [direct_sum([p, q]) for p, q in
            zip((x.left,) + x.middle + (x.right,),
                (y.left,) + y.middle + (y.right,))]
    maps = tuple(block_map(sums[i], sums[i + 1], [[f, None], [None, g]])
                 for i, (f, g) in enumerate(zip(x.maps, y.maps)))
    doubled = YExt(sums[0].rep, sums[-1].rep,
                   tuple(s.rep for s in sums[1:-1]), maps)
    fold = block_map(sums[0], x.left, [[ID, ID]])
    halved = pushout_action(fold, doubled)
    diag = block_map(x.right, sums[-1], [[ID], [ID]])
    return pullback_action(halved, diag)


def _factor_columns(sp, gens) -> RatMatrix | None:
    """The coordinates of the composites A -> G[1] -> B[n] as columns;
    None when there are none."""
    if sp.n < 2:
        raise YExtError("factorization test needs degree at least 2")
    cols = []
    for gen in gens:
        hs = dhom_space(sp.x, gen, 1)
        gs = dhom_space(gen, sp.y, sp.n - 1)
        for h in hs.basis():
            for g in gs.basis():
                cols.append(compose_classes(g, h).column)
    return hstack(cols) if cols else None


def factors_through(c: DHomClass, gens) -> bool:
    """Does c in Hom(A, B[n]) lie in the span of composites A -> G[1] -> B[n]?

    G runs over the given generators; h runs over a basis of
    Hom(A, G[1]) and g over a basis of Hom(G[1], B[n]).  The span of
    the composites equals the set of classes factoring through finite
    direct sums of shifted generators, so membership is exact.
    """
    span = _factor_columns(c.space, gens)
    if span is None:
        return c.is_zero()
    return span_membership(c.column, span)


def factor_image_dim(x, y, n: int, gens) -> int:
    """Dimension of the subspace of Hom(x, y[n]) that factors through
    shifted generators; the gap against the full space counts classes
    the generators cannot reach."""
    span = _factor_columns(dhom_space(x, y, n), gens)
    return 0 if span is None else rank(span)
