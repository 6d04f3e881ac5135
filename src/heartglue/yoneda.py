"""Extension-sequence calculus over the derived Hom spaces.

An n-step extension of a module A by a module B is an exact sequence

    0 -> B -> X_1 -> ... -> X_n -> A -> 0

stored together with its maps xi_0 .. xi_n.  `f_map` sends such a
sequence to its connecting class in Hom(A, B[n]): the sequence is
chopped into short exact pieces at the images of its maps and the
one-step connecting classes are composed.  An independent route,
`f_map_via_quasi_iso`, rolls the whole sequence into a single complex
quasi-isomorphic to A and reads the class off a lift of A's
augmentation; the suite checks the two routes agree exactly.

`splice_from_class` inverts `f_map`: it pushes the projective
resolution of A out along a chain-map representative of the class and
splices the cokernel back into the resolution tail.  Two extensions
are considered equivalent iff their canonical coordinates under
`f_map` coincide, which is what `YClass` equality tests.

Pushout, pullback, splice product and Baer sum act on explicit
sequences; exactness is re-certified by the YExt constructor on every
build.  Pushouts and pullbacks are cokernels/kernels of two-block
maps, so their exactness certificates come from the module layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import RatMatrix, rank, solve, span_membership
from .reps import (Rep, RepMap, cokernel, direct_sum, identity_map, image,
                   kernel, zero_rep)
from .reps import compose as rcompose
from .complexes import Cx, CxMap, ses_to_triangle
from .complexes import compose as ccompose
from .derived import (DHomClass, as_cx, compose_classes, dhom_space,
                      reanchor, solve_lift)


class YExtError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class YExt:
    """Exact sequence 0 -> left -> middle[0] -> ... -> middle[-1] -> right -> 0.

    maps[0] leaves `left`, maps[-1] lands in `right`, and maps[i] for
    0 < i < n runs middle[i-1] -> middle[i].  Exactness at every spot is
    certified on construction: consecutive composites vanish and the
    per-vertex ranks of incoming and outgoing maps add up to the middle
    dimension; the first map must be injective and the last surjective.
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
        for i, f in enumerate(self.maps):
            if f.source is not chain[i] or f.target is not chain[i + 1]:
                raise YExtError(f"map {i} does not match the stored terms")
        for i in range(len(self.maps) - 1):
            if not rcompose(self.maps[i + 1], self.maps[i]).is_zero():
                raise YExtError(f"composite of maps {i},{i+1} is nonzero")
        nv = self.left.algebra.vertex_count
        for v in range(1, nv + 1):
            if rank(self.maps[0].block(v)) != self.left.dim_at(v):
                raise YExtError("leftmost map is not injective")
            if rank(self.maps[-1].block(v)) != self.right.dim_at(v):
                raise YExtError("rightmost map is not surjective")
            for i, m in enumerate(self.middle):
                got = (rank(self.maps[i].block(v))
                       + rank(self.maps[i + 1].block(v)))
                if got != m.dim_at(v):
                    raise YExtError(f"sequence is not exact at middle term {i}")

    @property
    def n(self) -> int:
        return len(self.middle)


@dataclass(frozen=True, eq=False)
class YClass:
    """An extension together with its canonical coordinates.

    Equality compares canonical coordinates in the same Hom space, so
    equivalent sequences with different middles compare equal.
    """

    witness: YExt
    canonical: DHomClass

    def __eq__(self, other) -> bool:
        if not isinstance(other, YClass):
            return NotImplemented
        return (self.canonical.space is other.canonical.space
                and self.canonical.coords == other.canonical.coords)

    def __hash__(self) -> int:
        return hash((id(self.canonical.space), self.canonical.coords))


def yclass(witness: YExt) -> YClass:
    return YClass(witness, f_map(witness))


def split_ext(a: Rep, b: Rep, n: int) -> YExt:
    """The split n-extension of a by b (zero class in Hom(a, b[n]))."""
    if n < 1:
        raise YExtError("extensions have positive length")
    if n == 1:
        ds = direct_sum([b, a])
        return YExt(b, a, (ds.rep,), (ds.injections[0], ds.projections[1]))
    z = zero_rep(a.algebra)
    middle = (b,) + (z,) * (n - 2) + (a,)
    maps = [identity_map(b)]
    chain = (b,) + middle + (a,)
    for i in range(1, n):
        maps.append(RepMap(chain[i], chain[i + 1],
                           tuple(RatMatrix.zeros(chain[i + 1].dim_at(v),
                                                 chain[i].dim_at(v))
                                 for v in range(1, a.algebra.vertex_count + 1))))
    maps.append(identity_map(a))
    return YExt(b, a, middle, tuple(maps))


def _through_quotient(pr: RepMap, psi: RepMap) -> RepMap:
    # unique map out of a cokernel: result after pr equals psi
    blocks = []
    for v in range(1, pr.source.algebra.vertex_count + 1):
        sol = solve(pr.block(v).transpose(), psi.block(v).transpose())
        if sol is None:
            raise YExtError("map does not descend to the quotient")
        blocks.append(sol.transpose())
    return RepMap(pr.target, psi.target, tuple(blocks))


def _into_subobject(incl: RepMap, zeta: RepMap) -> RepMap:
    # corestriction: incl after result equals zeta
    blocks = []
    for v in range(1, incl.source.algebra.vertex_count + 1):
        sol = solve(incl.block(v), zeta.block(v))
        if sol is None:
            raise YExtError("map does not land in the subobject")
        blocks.append(sol)
    return RepMap(zeta.source, incl.source, tuple(blocks))


def _route_sign(n: int) -> int:
    # The rolled-complex construction and the chopped-connecting
    # construction of the class of an n-extension differ by this
    # classical factor; degree pattern + + - - + + - - ...
    return -1 if (n * (n - 1) // 2) % 2 else 1


def _connecting(f: RepMap, g: RepMap) -> DHomClass:
    """Connecting class in Hom(Q, K[1]) of a short exact sequence K -> M -> Q.

    Resolve Q, lift the augmentation through the certified comparison
    map onto the mapping cone of K -> M, then project onto K[1].  The
    class is independent of the chosen lift because homotopy classes of
    maps out of the resolution biject along the comparison map.
    """
    tri = ses_to_triangle(f, g)
    sp = dhom_space(g.target, f.source, 1)
    eps = reanchor(sp.res.eps, sp.res.cx, tri.right)
    u, _ = solve_lift(sp.res.cx, eps, tri.comparison)
    delta = ccompose(tri.cone_of_f.proj, u)
    return sp.class_of(reanchor(delta, sp.res.cx, sp.t))


def f_map(x: YExt) -> DHomClass:
    """Canonical class of an extension in Hom(right, left[n])."""
    if x.n == 1:
        return _connecting(x.maps[0], x.maps[1])
    chops = [image(x.maps[i]) for i in range(1, x.n)]
    cls = None
    for i in range(x.n, 0, -1):
        inc = x.maps[0] if i == 1 else chops[i - 2][1]
        out = x.maps[x.n] if i == x.n else chops[i - 1][2]
        delta = _connecting(inc, out)
        cls = delta if cls is None else compose_classes(delta, cls)
    return cls


def f_map_via_quasi_iso(x: YExt) -> DHomClass:
    """Same class as `f_map`, computed without chopping the sequence.

    View 0 -> left -> middle -> right as a complex W with `left` in
    degree -n whose final map is a quasi-isomorphism onto `right`; lift
    the augmentation of `right` through it and project onto degree -n.
    The raw result differs from the chopped-connecting composite by
    (-1)^(n(n-1)/2), which is applied at the end so both functions
    produce the same coordinates.  Kept as an independent cross-check
    of `f_map`.
    """
    n = x.n
    terms = {-n: x.left}
    for i, m in enumerate(x.middle):
        terms[-n + 1 + i] = m
    diffs = {-n + i: x.maps[i] for i in range(n)}
    w = Cx(x.left.algebra, terms, diffs)
    sp = dhom_space(x.right, x.left, n)
    q = CxMap(w, as_cx(x.right), {0: x.maps[n]})
    pi = CxMap(w, sp.t, {-n: identity_map(x.left)})
    eps = reanchor(sp.res.eps, sp.res.cx, as_cx(x.right))
    u, _ = solve_lift(sp.res.cx, eps, q)
    cls = sp.class_of(ccompose(pi, u))
    return cls if _route_sign(n) == 1 else cls.scale(-1)


def splice_from_class(c: DHomClass, a: Rep, b: Rep, n: int) -> YExt:
    """Exact sequence whose canonical class is c, for c in Hom(a, b[n]).

    Built from the projective resolution R of a: push R^{-n} out along
    the degree -n component of a representative of c, then continue
    with the resolution tail and the augmentation.  The representative
    is pre-twisted by (-1)^(n(n-1)/2) so that the round trip through
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
    r = sp.res.cx
    tw = c if _route_sign(n) == 1 else c.scale(-1)
    u0 = sp.representative(tw).comp(-n)
    d0 = r.d(-n)
    ds = direct_sum([b, r.term(-n + 1)])
    phi = rcompose(ds.injections[0], u0) - rcompose(ds.injections[1], d0)
    x1, pr = cokernel(phi)
    xi0 = rcompose(pr, ds.injections[0])
    eps0 = sp.res.eps.comp(0)
    if n == 1:
        xi1 = _through_quotient(pr, rcompose(eps0, ds.projections[1]))
        return YExt(b, a, (x1,), (xi0, xi1))
    xi1 = _through_quotient(pr, rcompose(r.d(-n + 1), ds.projections[1]))
    middle = (x1,) + tuple(r.term(k) for k in range(-n + 2, 1))
    maps = (xi0, xi1) + tuple(r.d(k) for k in range(-n + 2, 0)) + (eps0,)
    return YExt(b, a, middle, maps)


def pushout_action(g: RepMap, x: YExt) -> YExt:
    """Replace the left end along g: left -> C; the class pushes forward."""
    if g.source is not x.left:
        raise YExtError("pushout map must start at the left end")
    ds = direct_sum([g.target, x.middle[0]])
    phi = rcompose(ds.injections[0], g) - rcompose(ds.injections[1], x.maps[0])
    x1, pr = cokernel(phi)
    xi0 = rcompose(pr, ds.injections[0])
    xi1 = _through_quotient(pr, rcompose(x.maps[1], ds.projections[1]))
    return YExt(g.target, x.right, (x1,) + x.middle[1:],
                (xi0, xi1) + x.maps[2:])


def pullback_action(x: YExt, h: RepMap) -> YExt:
    """Replace the right end along h: D -> right; the class pulls back."""
    if h.target is not x.right:
        raise YExtError("pullback map must end at the right end")
    ds = direct_sum([x.middle[-1], h.source])
    theta = (rcompose(x.maps[-1], ds.projections[0])
             - rcompose(h, ds.projections[1]))
    k, incl = kernel(theta)
    xi_last = rcompose(ds.projections[1], incl)
    zeta = rcompose(ds.injections[0], x.maps[-2])
    xi_prev = _into_subobject(incl, zeta)
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


def _paired_sum_map(src, tgt, f0: RepMap, f1: RepMap) -> RepMap:
    return (rcompose(tgt.injections[0], rcompose(f0, src.projections[0]))
            + rcompose(tgt.injections[1], rcompose(f1, src.projections[1])))


def baer_sum(x: YExt, y: YExt) -> YExt:
    """Sum of same-endpoint extensions; classes add."""
    if x.left is not y.left or x.right is not y.right or x.n != y.n:
        raise YExtError("Baer sum needs matching endpoints and equal length")
    sums = [direct_sum([x.left, y.left])]
    for xm, ym in zip(x.middle, y.middle):
        sums.append(direct_sum([xm, ym]))
    sums.append(direct_sum([x.right, y.right]))
    maps = tuple(_paired_sum_map(sums[i], sums[i + 1], x.maps[i], y.maps[i])
                 for i in range(len(x.maps)))
    doubled = YExt(sums[0].rep, sums[-1].rep,
                   tuple(s.rep for s in sums[1:-1]), maps)
    fold = sums[0].projections[0] + sums[0].projections[1]
    halved = pushout_action(fold, doubled)
    diag = sums[-1].injections[0] + sums[-1].injections[1]
    return pullback_action(halved, diag)


def _factor_columns(sp, gens) -> list[tuple]:
    if sp.n < 2:
        raise YExtError("factorization test needs degree at least 2")
    cols = []
    for gen in gens:
        hs = dhom_space(sp.x, gen, 1)
        gs = dhom_space(gen, sp.y, sp.n - 1)
        for h in hs.basis():
            for g in gs.basis():
                cols.append(compose_classes(g, h).coords)
    return cols


def factors_through(c: DHomClass, gens) -> bool:
    """Does c in Hom(A, B[n]) lie in the span of composites A -> G[1] -> B[n]?

    G runs over the given generators; h runs over a basis of
    Hom(A, G[1]) and g over a basis of Hom(G[1], B[n]).  The span of
    the composites equals the set of classes factoring through finite
    direct sums of shifted generators, so membership is exact.
    """
    sp = c.space
    cols = _factor_columns(sp, gens)
    if not cols:
        return c.is_zero()
    span = RatMatrix.from_cols([list(col) for col in cols], rows=sp.dim)
    return span_membership(RatMatrix.column(list(c.coords)), span)


def factor_image_dim(x, y, n: int, gens) -> int:
    """Dimension of the subspace of Hom(x, y[n]) that factors through
    shifted generators; the gap against the full space counts classes
    the generators cannot reach."""
    sp = dhom_space(x, y, n)
    cols = _factor_columns(sp, gens)
    if not cols:
        return 0
    return rank(RatMatrix.from_cols([list(col) for col in cols],
                                    rows=sp.dim))
