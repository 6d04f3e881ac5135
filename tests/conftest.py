"""Shared fixtures and helpers for the test suite."""

import random

import pytest
from hypothesis import strategies as st

from heartglue import jsonio
from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.complexes import (Cx, CxMap, Triangle, compose as ccompose,
                                 cone, cx_block_map, is_acyclic, module_cx)
from heartglue.derived import (_generators, compose_classes, derived_hom,
                               dhom_space)
from heartglue.linalg import (RatMatrix, block_matrix, complement_pivots,
                              hstack, pivot_columns, solve)
from heartglue.reps import (Rep, RepError, RepMap, _span, block_map, cokernel,
                            compose as rcompose, direct_sum, eval_columns,
                            generator_positions, identity_map, kernel,
                            map_from_generators, projective_sum, through_mono,
                            zero_map, zero_rep)
from heartglue.yoneda import YExt


@pytest.fixture(autouse=True)
def cold_jsonio(monkeypatch):
    """Each test starts with no loaded description, so no test reads the
    objects and memos another test left in jsonio's entry."""
    monkeypatch.setattr(jsonio, "_last", None)


@pytest.fixture(scope="session")
def a2():
    return build_algebra(make_quiver(2, [("a", 1, 2)]))


@pytest.fixture(scope="session")
def kron():
    return build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))


@pytest.fixture(scope="session")
def a3():
    return build_algebra(make_quiver(3, [("a", 1, 2), ("b", 2, 3)]))


@pytest.fixture(scope="session")
def a3rel():
    q = make_quiver(3, [("a", 1, 2), ("b", 2, 3)])
    return build_algebra(q, [Relation.of([(1, ("a", "b"))])])


@pytest.fixture(scope="session")
def a4rel():
    # linear A4 with both length-two paths killed; global dimension 3,
    # so degree-3 extension groups are nonzero
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    return build_algebra(q, [Relation.of([(1, ("a", "b"))]),
                             Relation.of([(1, ("b", "c"))])])


@pytest.fixture(scope="session")
def a5rad2():
    # linear A5 with every length-two path killed
    names = "abcd"
    q = make_quiver(5, [(x, i, i + 1) for i, x in enumerate(names, 1)])
    return build_algebra(q, [Relation.of([(1, (x, y))])
                             for x, y in zip(names, names[1:])])


@pytest.fixture(scope="session")
def commsquare():
    q = make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)])
    return build_algebra(q, [Relation.of([(1, ("a", "c")), (-1, ("b", "d"))])])


def auslander_vertices(n: int) -> dict[tuple[int, int], int]:
    """The vertices (i, j), 1 <= i <= j <= n, of the Auslander algebra of
    kA_n, numbered with i outer and j inner."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    return {ij: v for v, ij in enumerate(pairs, 1)}


def auslander(n: int, horizontal: str = "a", vertical: str = "b"):
    """The Auslander algebra of kA_n: arrows horizontal{i}_{j}: (i, j) ->
    (i, j+1) and vertical{i}_{j}: (i, j) -> (i+1, j), and at each (i, j)
    with j < n the mesh relation, a commutative square when i < j and a
    zero path when i = j."""
    v = auslander_vertices(n)
    arrows = [(f"{horizontal}{i}_{j}", x, v[(i, j + 1)])
              for (i, j), x in v.items() if j < n]
    arrows += [(f"{vertical}{i}_{j}", x, v[(i + 1, j)])
               for (i, j), x in v.items() if i < j]
    relations = []
    for i, j in v:
        if j == n:
            continue
        terms = [(1, (f"{horizontal}{i}_{j}", f"{vertical}{i}_{j + 1}"))]
        if i < j:
            terms.append((-1, (f"{vertical}{i}_{j}",
                               f"{horizontal}{i + 1}_{j}")))
        relations.append(Relation.of(terms))
    return build_algebra(make_quiver(len(v), arrows), relations)


@pytest.fixture()
def rng():
    return random.Random(90125)


def counting_calls(monkeypatch, owner, name) -> list:
    """Record the positional arguments of every call of owner.name."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def class_of_module_map(f: RepMap):
    """Degree-0 Hom class of a plain module map."""
    sp = dhom_space(f.source, f.target, 0)
    comps = {i: rcompose(f, c) if i == 0 else c
             for i, c in sp.eps.components.items()}
    lifted = CxMap(sp.r, sp.t,
                   {i: RepMap(sp.r.term(i), sp.t.term(i), m.blocks)
                    for i, m in comps.items()})
    return sp.class_of(lifted)


def filtration_step(v: Rep, k: int) -> tuple[Rep, RepMap]:
    """The subrepresentation F^k v supported on vertices <= k, with its
    inclusion."""
    return _span(v, [RatMatrix.identity(d) if i < k else RatMatrix.zeros(d, 0)
                     for i, d in enumerate(v.dims)])


def filtration_inclusion(v: Rep, k: int) -> RepMap:
    """The step inclusion F^{k-1} v -> F^k v."""
    return through_mono(filtration_step(v, k)[1], filtration_step(v, k - 1)[1])


def image(f: RepMap) -> tuple[Rep, RepMap, RepMap]:
    """(image, mono into target, epi from source) with mono @ epi = f."""
    img, mono = _span(f.target,
                      [b.take(None, pivot_columns(b)) for b in f.blocks])
    return img, mono, through_mono(mono, f)


def through_epi(pr: RepMap, f: RepMap) -> RepMap:
    """The map h with h after pr equal to f, for pr surjective."""
    blocks = []
    for a, b in zip(pr.blocks, f.blocks):
        x = solve(a.transpose(), b.transpose())
        if x is None:
            raise RepError("map does not factor through the epimorphism")
        blocks.append(x.transpose())
    return RepMap(pr.target, f.target, tuple(blocks))


def ses_to_triangle(f: RepMap, g: RepMap) -> tuple[Triangle, CxMap]:
    """A short exact sequence 0 -> L -f-> M -g-> N -> 0 as a triangle in
    degree 0: the Triangle of f, and the comparison cone(f) -> N that g
    induces, certified a quasi-isomorphism by the acyclicity of its cone."""
    YExt(f.source, g.target, (f.target,), (f, g))
    lx, mx, nx = module_cx(f.source), module_cx(f.target), module_cx(g.target)
    fc = CxMap(lx, mx, {0: f})
    cf = cone(fc)
    comparison = cx_block_map(cf, nx, [[None, CxMap(mx, nx, {0: g})]])
    assert is_acyclic(cone(comparison).cx)
    return Triangle(fc, cf), comparison


def triangle_to_ses(tri: Triangle, comparison: CxMap
                    ) -> tuple[RepMap, RepMap] | None:
    """The module short exact sequence of a triangle of modules in degree
    0 whose third vertex is the target of comparison: cone(f) -> N; None
    when a vertex has another degree."""
    if any(x.degrees() not in ([], [0])
           for x in (tri.f.source, tri.f.target, comparison.target)):
        return None
    f0 = tri.f.comp(0)
    g0 = ccompose(comparison, tri.cone_of_f.injection(1)).comp(0)
    YExt(f0.source, g0.target, (f0.target,), (f0, g0))
    return f0, g0


def split_ext(a: Rep, b: Rep, n: int) -> YExt:
    """The split n-extension of a by b: the zero class of Hom(a, b[n])."""
    if n == 1:
        ds = direct_sum([b, a])
        return YExt(b, a, (ds.rep,), (ds.injection(0), ds.projection(1)))
    middle = (b,) + (zero_rep(a.algebra),) * (n - 2) + (a,)
    chain = (b,) + middle + (a,)
    return YExt(b, a, middle,
                (identity_map(b),)
                + tuple(zero_map(chain[i], chain[i + 1]) for i in range(1, n))
                + (identity_map(a),))


def chopped_class(x):
    """The class of an extension by the chopped route, an oracle for
    `f_map`: cut the sequence into short exact pieces at the images of
    its maps, read each connecting class in Hom(Q, K[1]) off the roof
    Q <- cone(K -> M) -> K[1] of its certified triangle, and compose."""
    chops = [image(x.maps[i]) for i in range(1, x.n)]
    cls = None
    for i in range(x.n, 0, -1):
        inc = x.maps[0] if i == 1 else chops[i - 2][1]
        out = x.maps[x.n] if i == x.n else chops[i - 1][2]
        tri, comparison = ses_to_triangle(inc, out)
        delta = dhom_space(out.target, inc.source, 1).roof_class(
            comparison, tri.cone_of_f.projection(0))
        cls = delta if cls is None else compose_classes(delta, cls)
    return cls


def entrywise_projective_sum(alg, vertices):
    """The dims and arrow blocks of the projective sum on vertices, built
    entry by entry: every column of every copy read off its own
    algebra.reduce_path; an oracle for `reps.projective_sum`, which joins
    the per-vertex P_v."""
    n = alg.vertex_count
    basis = {j: [(c, p) for c, v in enumerate(vertices)
                 for p in alg.paths_between(j, v)]
             for j in range(1, n + 1)}
    dims = tuple(len(basis[j]) for j in range(1, n + 1))
    index = {j: {cp: k for k, cp in enumerate(basis[j])} for j in basis}
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        cols = []
        for (c, p) in basis[t]:
            # right action: prepend the arrow to the traversal word
            combo = alg.reduce_path(s, (a.name,) + p.arrows)
            col = [0] * dims[s - 1]
            for bidx, coef in combo.items():
                col[index[s][(c, alg.basis[bidx])]] = coef
            cols.append(col)
        maps[a.name] = RatMatrix(cols, cols=dims[s - 1]).transpose()
    return dims, maps


def syzygy_module_resolution(m):
    """The projective resolution of the module m built through syzygy
    modules: cover the module by unit columns completing its radical,
    take the kernel of the cover as a checked module with its inclusion,
    cover that kernel in its own coordinates, and compose the cover back
    into the previous term; an oracle for `derived.resolve`, which keeps
    each syzygy as a kernel basis inside its term.  Returns the terms and
    differentials by degree, and the augmentation onto m."""
    alg = m.algebra
    terms, diffs, aug, incl, deg = {}, {}, None, None, 0
    while m.total_dim:
        gens = []
        for v in range(1, alg.vertex_count + 1):
            radical = [m.act_arrow(a.name) for a in alg.quiver.arrows
                       if a.source == v]
            unit = RatMatrix.identity(m.dim_at(v))
            gens += [(v, unit.col_matrix(j)) for j in complement_pivots(
                hstack(radical or [RatMatrix.zeros(m.dim_at(v), 0)]))]
        q = projective_sum(alg, [v for v, _ in gens])
        pi = map_from_generators(q, m, [col for _, col in gens])
        terms[deg] = q
        if incl is None:
            aug = pi
        else:
            diffs[deg] = rcompose(incl, pi)
        m, incl = kernel(pi)
        deg -= 1
    return terms, diffs, aug


def homotopy_boundary_system(r: Cx, t: Cx) -> RatMatrix:
    """The boundary map h -> d_t h + h d_r of homotopies h: r^k -> t^{k-1},
    on generator data in degree order, read in the generator data of maps
    r^k -> t^k: the system Hom spaces solved for their boundaries before
    it was read as minus the Hom-complex differential into t[-1]; an
    oracle for that identity."""
    entries, first = _generators(r)
    grid: list[list] = [[None] * len(entries) for _ in entries]
    for i, (k, _, v, pos) in enumerate(entries):
        dt = t.diffs.get(k - 1)
        if dt is not None:
            grid[i][i] = dt.block(v)
        dr = r.diffs.get(k)
        if dr is not None:
            up = r.terms[k + 1]
            j = first[k + 1]
            grid[i][j:j + len(up.proj_gens)] = eval_columns(
                up, t.term(k), v, dr.block(v).col_matrix(pos))
    return block_matrix(grid, [t.term(k).dim_at(v) for k, _, v, _ in entries],
                        [t.term(k - 1).dim_at(v) for k, _, v, _ in entries])


def heart_cohomology(x: Cx, i: int) -> Rep:
    """H^i of the complex, as a module: the cokernel of d^{i-1} into the
    kernel of d^i; a reference for the dimensions read off ranks."""
    _, incl = kernel(x.d(i))
    h, _ = cokernel(through_mono(incl, x.d(i - 1)))
    return h


def cokernel_pushout(g: RepMap, f: RepMap, nxt: RepMap):
    """The pushout X of g: L -> B and f: L -> M as the cokernel of
    (g, -f): L -> B + M, an oracle for `yoneda._pushout`; returns X with
    its map B -> X and the map X -> N induced by nxt: M -> N."""
    ds = direct_sum([g.target, f.target])
    x, pr = cokernel(block_map(f.source, ds, [[g], [-f]]))
    return (x, rcompose(pr, ds.injection(0)),
            through_epi(pr, block_map(ds, nxt.target, [[None, nxt]])))


def random_sum(data, alg, min_size=0):
    """A random tagged sum of at most three indecomposable projectives."""
    vertices = st.integers(1, alg.vertex_count)
    return projective_sum(alg, data.draw(
        st.lists(vertices, min_size=min_size, max_size=3)))


def random_map(data, p, q):
    """A random module map between tagged projective sums."""
    entries = st.integers(-2, 2)
    return map_from_generators(p, q, [
        RatMatrix.column([data.draw(entries) for _ in range(q.dim_at(v))])
        for v in p.proj_gens])


def is_minimal(x: Cx) -> bool:
    """Whether x is tagged and no differential has a nonzero component
    between copy generators at the same vertex (every d is radical)."""
    if not x.is_tagged():
        return False
    for d in x.diffs.values():
        into = generator_positions(d.target)
        for _, v, pos in generator_positions(d.source):
            if any(w == v and d.block(v)[pos2, pos] for _, w, pos2 in into):
                return False
    return True


def _scan_range(e: Cx, x: Cx) -> range:
    """Every shift n where Hom(e, x[n]) can be nonzero.

    Projective resolutions over an admissible quotient of an acyclic
    quiver have length below the vertex count, so chain maps out of the
    resolution of e vanish once the degree supports no longer overlap.
    The brute-force window: a Hom scan must find nothing outside it.
    """
    de, dx = e.degrees(), x.degrees()
    if not (de and dx):
        return range(0)
    pad = e.algebra.vertex_count + 2
    return range(dx[0] - de[-1], dx[-1] - de[0] + pad + 1)


def in_coaisle(aisle, b: Cx) -> bool:
    """Whether Hom(G[l], B) = 0 for every aisle generator G and l >= 0."""
    return all(derived_hom(g, b, n) == 0
               for g in aisle.heart_gens()
               for n in _scan_range(g, b) if n <= 0)


def count_calls(monkeypatch, owner, name) -> list:
    """Patch owner.name to record the arguments of every call."""
    calls, real = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls
