"""Module layer: projectives, Hom spaces, kernels, filtrations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (count_calls, filtration_inclusion, filtration_step,
                      image)
from heartglue import reps
from heartglue.algebra import build_algebra, make_quiver, Relation
from heartglue.linalg import RatMatrix, rank
from heartglue.reps import (
    ID,
    Rep,
    RepMap,
    RepError,
    block_map,
    compose,
    cokernel,
    direct_sum,
    eval_columns,
    hom_space,
    identity_map,
    kernel,
    map_from_generators,
    projective,
    projective_cover,
    projective_sum,
    simple,
    tagged_basis,
    top_generators,
    zero_map,
    zero_rep,
)
from heartglue.yoneda import YExt, YExtError


@pytest.fixture(scope="module")
def a2():
    return build_algebra(make_quiver(2, [("a", 1, 2)]))


@pytest.fixture(scope="module")
def a3():
    return build_algebra(make_quiver(3, [("a", 1, 2), ("b", 2, 3)]))


@pytest.fixture(scope="module")
def a3rel():
    q = make_quiver(3, [("a", 1, 2), ("b", 2, 3)])
    return build_algebra(q, [Relation.of([(1, ("a", "b"))])])


@pytest.fixture(scope="module")
def kron():
    return build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))


@pytest.fixture(scope="module")
def commsquare():
    q = make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)])
    return build_algebra(q, [Relation.of([(1, ("a", "c")), (-1, ("b", "d"))])])


def test_projective_dims_a2(a2):
    p1 = projective(a2, 1)
    p2 = projective(a2, 2)
    assert p1.dims == (1, 0)
    assert p2.dims == (1, 1)
    # P_1 over this algebra is simple
    s1 = simple(a2, 1)
    assert p1.dims == s1.dims


def test_projective_dims_kronecker(kron):
    assert projective(kron, 1).dims == (1, 0)
    assert projective(kron, 2).dims == (2, 1)


def test_projective_dims_a3(a3, a3rel):
    assert projective(a3, 3).dims == (1, 1, 1)
    assert projective(a3rel, 3).dims == (0, 1, 1)


def test_projective_action_matches_right_multiplication(a3):
    # G_1 P_3 has basis the residue of ("a","b"); acting by a lands there
    p3 = projective(a3, 3)
    labels1 = tagged_basis(p3, 1)
    labels2 = tagged_basis(p3, 2)
    assert [p.arrows for _, p in labels1] == [("a", "b")]
    assert [p.arrows for _, p in labels2] == [("b",)]
    act_a = p3.act_arrow("a")
    assert act_a == RatMatrix([[Fraction(1)]], cols=1)


def test_hom_dimensions_match_vertex_spaces(a2, kron):
    # Hom(P_i, M) has dimension dim G_i M
    for alg in (a2, kron):
        p1 = projective(alg, 1)
        p2 = projective(alg, 2)
        assert len(hom_space(p1, p2)) == p2.dim_at(1)
        assert len(hom_space(p2, p1)) == p1.dim_at(2)
    assert len(hom_space(projective(kron, 1), projective(kron, 2))) == 2


def test_hom_endomorphisms_of_full_projective(a3, a3rel, kron):
    for alg in (a3, a3rel, kron):
        total = projective_sum(alg, tuple(range(1, alg.vertex_count + 1)))
        assert len(hom_space(total, total)) == alg.dim


def test_hom_space_members_are_maps(kron):
    p1 = projective(kron, 1)
    p2 = projective(kron, 2)
    for f in hom_space(p1, p2):
        assert isinstance(f, RepMap)
        assert not f.is_zero()


def test_kernel_of_projective_onto_simple(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    # quotient map kills the vertex-1 part
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    assert k.dims == (1, 0)
    assert compose(q, incl).is_zero()


def test_kernel_cokernel_image_consistency(kron):
    p1 = projective(kron, 1)
    p2 = projective(kron, 2)
    f = hom_space(p1, p2)[0]
    img, mono, epi = image(f)
    assert compose(mono, epi).blocks == f.blocks
    k, _ = kernel(f)
    c, _ = cokernel(f)
    for v in (1, 2):
        assert k.dim_at(v) + img.dim_at(v) == p1.dim_at(v)
        assert img.dim_at(v) + c.dim_at(v) == p2.dim_at(v)


def test_filtration_steps_are_simples(kron):
    p2 = projective(kron, 2)
    f1, incl = filtration_step(p2, 1)
    assert f1.dims == (2, 0)
    # graded piece at 2 is the simple part
    step = filtration_inclusion(p2, 2)
    quot, _ = cokernel(step)
    assert quot.dims == (0, 1)


def test_filtration_graded_pieces(a3):
    p3 = projective(a3, 3)
    for k in (1, 2, 3):
        step = filtration_inclusion(p3, k)
        quot, _ = cokernel(step)
        expect = tuple(p3.dims[i] if i + 1 == k else 0 for i in range(3))
        assert quot.dims == expect


def test_direct_sum_biproduct_identities(a3):
    p1, p2 = projective(a3, 1), projective(a3, 2)
    ds = direct_sum([p1, p2])
    assert ds.rep.dims == tuple(x + y for x, y in zip(p1.dims, p2.dims))
    assert ds.rep.proj_gens == (1, 2)
    pairs = [(ds.injection(i), ds.projection(i)) for i in range(2)]
    for inj, proj in pairs:
        assert compose(proj, inj).blocks == identity_map(inj.source).blocks
    assert compose(ds.projection(0), ds.injection(1)).is_zero()
    total = None
    for inj, proj in pairs:
        t = compose(inj, proj)
        total = t if total is None else total + t
    assert total.blocks == identity_map(ds.rep).blocks


def test_direct_sum_matches_projective_sum(a3):
    via_sum = projective_sum(a3, (1, 3))
    via_ds = direct_sum([projective(a3, 1), projective(a3, 3)]).rep
    assert via_sum.dims == via_ds.dims
    for a in a3.quiver.arrows:
        assert via_sum.act_arrow(a.name) == via_ds.act_arrow(a.name)


def test_direct_sum_of_one_nonzero_part_is_that_part(a3):
    z = zero_rep(a3)
    untagged = simple(a3, 2)
    for m in (projective(a3, 2), untagged):
        ds = direct_sum([z, m])
        assert ds.rep is m and ds.parts == (z, m)
        assert (compose(ds.projection(1), ds.injection(1)).blocks
                == identity_map(m).blocks)
    # an untagged zero part next to a tagged part makes an untagged sum
    bare_zero = Rep(a3, (0, 0, 0), {a.name: RatMatrix.zeros(0, 0)
                                    for a in a3.quiver.arrows})
    p = projective(a3, 2)
    ds = direct_sum([bare_zero, p])
    assert ds.rep is not p and ds.rep.proj_gens is None
    assert ds.rep.dims == p.dims


def test_map_from_generators_roundtrip(kron):
    p2 = projective(kron, 2)
    for f in hom_space(projective(kron, 1), p2):
        # generator of P_1 sits at vertex 1
        src = projective(kron, 1)
        img_col = f.block(1).col_matrix(0)
        g = map_from_generators(src, p2, [img_col])
        assert g.blocks == f.blocks


def test_eval_columns_predicts_map_values(a3):
    t = projective_sum(a3, (1, 2))
    n = projective(a3, 3)
    for f in hom_space(t, n):
        images = []
        for c, v in enumerate(t.proj_gens):
            labels = tagged_basis(t, v)
            idx = labels.index((c, a3.basis[a3.index_of(v, ())]))
            images.append(f.block(v).col_matrix(idx))
        for j in (1, 2, 3):
            for k in range(t.dim_at(j)):
                e = RatMatrix.column(
                    [Fraction(1) if i == k else Fraction(0)
                     for i in range(t.dim_at(j))])
                u = eval_columns(t, n, j, e)
                total = RatMatrix.zeros(n.dim_at(j), 1)
                for u_c, image in zip(u, images, strict=True):
                    total = total + u_c @ image
                assert total == f.block(j).col_matrix(k)


def test_exactness_certificate(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    s1 = simple(a2, 1)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    YExt(k, s2, (p2,), (incl, q))
    # and a failing pair: zero into P_2 then projection is not exact
    z = zero_map(s1, p2)
    with pytest.raises(YExtError,
                       match=r"not exact at term 0: cohomology dims \(1, 0\)"):
        YExt(s1, s2, (p2,), (z, q))


def _four_term(kron):
    """0 -> K -> P1 + P1 -> P2 -> Q -> 0 for the map (a, a) into P2."""
    p1, p2 = projective(kron, 1), projective(kron, 2)
    ds = direct_sum([p1, p1])
    g = block_map(ds, p2, [[hom_space(p1, p2)[0]] * 2])
    _, incl = kernel(g)
    _, proj = cokernel(g)
    return incl, g, proj


def test_exactness_certificate_on_four_terms(kron):
    incl, g, proj = _four_term(kron)
    k, mid, p2, q = incl.source, g.source, g.target, proj.target
    assert k.dims == (1, 0) and q.dims == (1, 1)
    YExt(k, q, (mid, p2), (incl, g, proj))
    # a zero middle map keeps every composite zero but leaves the
    # homology ker 0 / im incl at P1 + P1
    with pytest.raises(YExtError,
                       match=r"not exact at term 1: cohomology dims \(1, 0\)"):
        YExt(k, q, (mid, p2), (incl, zero_map(mid, p2), proj))
    with pytest.raises(YExtError, match=r"d\^2 != 0 at degree 1"):
        YExt(k, p2, (mid, p2), (incl, g, identity_map(p2)))


def test_projective_cover_of_simple(a3rel):
    for i in (1, 2, 3):
        s = simple(a3rel, i)
        cover, pi, _ = projective_cover(s)
        assert cover.proj_gens == (i,)
        assert all(rank(pi.block(v)) == s.dim_at(v) for v in (1, 2, 3))


def test_projective_cover_of_projective_is_identity_sized(kron):
    p2 = projective(kron, 2)
    cover, pi, _ = projective_cover(p2)
    assert cover.dims == p2.dims
    assert cover.proj_gens == (2,)


def test_top_generators_count(commsquare):
    p4 = projective(commsquare, 4)
    tops = top_generators(p4)
    assert [(v, tuple(col.col(0))) for v, col in tops] == [(4, (Fraction(1),))]


def test_relation_violation_rejected(a3rel):
    # the A_3 action with nonzero composite violates the vanishing relation
    maps = {"a": RatMatrix([[Fraction(1)]], cols=1),
            "b": RatMatrix([[Fraction(1)]], cols=1)}
    with pytest.raises(RepError):
        Rep(a3rel, (1, 1, 1), maps)


def test_shape_mismatch_rejected(a2):
    with pytest.raises(RepError):
        Rep(a2, (1, 1), {"a": RatMatrix.zeros(2, 1)})


def test_tagged_module_must_be_its_projective_sum(kron):
    # the dims of P2 over the Kronecker quiver, but not its action: maps
    # out of it built from generator images would not be natural
    zeros = {"a": RatMatrix.zeros(2, 1), "b": RatMatrix.zeros(2, 1)}
    with pytest.raises(RepError, match="not the projective sum"):
        Rep(kron, (2, 1), zeros, proj_gens=(2,))
    with pytest.raises(RepError, match="not the projective sum"):
        Rep(kron, (0, 1), {"a": RatMatrix.zeros(0, 1),
                           "b": RatMatrix.zeros(0, 1)}, proj_gens=(2,))
    with pytest.raises(RepError, match="out of range"):
        Rep(kron, (0, 0), {"a": RatMatrix.zeros(0, 0),
                           "b": RatMatrix.zeros(0, 0)}, proj_gens=(3,))
    p = projective(kron, 2)
    again = Rep(kron, p.dims, p.arrow_maps, proj_gens=(2,))
    assert again.arrow_maps == p.arrow_maps


def test_each_projective_is_a_new_module(commsquare):
    # the algebra keeps the dims and blocks of each P_v, not a module:
    # every call builds a new Rep with its own arrow dict
    for v in range(1, commsquare.vertex_count + 1):
        p, q = projective(commsquare, v), projective(commsquare, v)
        assert p is not q and p.arrow_maps is not q.arrow_maps
        assert p.arrow_maps == q.arrow_maps
        dims, maps = commsquare.memo[("projective", v)]
        assert dims == p.dims and maps == p.arrow_maps
        assert maps is not p.arrow_maps
    p, q = (reps.projective_sum(commsquare, (1, 2, 1)) for _ in range(2))
    assert p is not q and p.arrow_maps is not q.arrow_maps
    assert p.arrow_maps == q.arrow_maps


def test_naturality_violation_rejected(a2):
    p2 = projective(a2, 2)
    bad = (RatMatrix([[Fraction(1)]], cols=1), RatMatrix([[Fraction(0)]], cols=1))
    with pytest.raises(RepError):
        RepMap(p2, p2, bad)


def _one_arrow_module(a3):
    """dims (1, 1, 0): arrow a acts by 1, arrow b has no entries."""
    return Rep(a3, (1, 1, 0), {"a": RatMatrix([[1]]),
                               "b": RatMatrix.zeros(1, 0)})


def test_naturality_checked_on_the_one_nonempty_equation(a3):
    # arrow b: 2 -> 3 has an empty equation (target dim 1 x source dim 0)
    m = _one_arrow_module(a3)
    bad = (RatMatrix([[1]]), RatMatrix([[2]]), RatMatrix.zeros(0, 0))
    with pytest.raises(RepError, match="naturality fails at arrow a"):
        RepMap(m, m, bad)


def test_empty_equation_runs_no_product(a3, monkeypatch):
    m = _one_arrow_module(a3)
    s1, s3 = simple(a3, 1), simple(a3, 3)
    products = count_calls(monkeypatch, RatMatrix, "__matmul__")
    # every equation of S1 -> S3 is empty: S3 is 0 at 1 and 2, S1 at 2, 3
    RepMap(s1, s3, (RatMatrix.zeros(0, 1), RatMatrix.zeros(0, 0),
                    RatMatrix.zeros(1, 0)))
    assert products == []
    RepMap(m, m, (RatMatrix.identity(1),) * 2 + (RatMatrix.zeros(0, 0),))
    assert len(products) == 2  # the two sides of arrow a alone


def test_block_map_builds_no_grid_where_a_sum_is_zero(a3, monkeypatch):
    s1, s2 = simple(a3, 1), simple(a3, 2)
    src = direct_sum([s1, s2])          # dims (1, 1, 0)
    tgt = direct_sum([s1, s1])          # dims (2, 0, 0)
    joins = count_calls(monkeypatch, reps, "block_matrix")
    f = block_map(src, tgt, [[ID, None], [ID, None]])
    assert [(sum(h), sum(w)) for _, h, w in joins] == [(2, 1)]  # vertex 1
    assert [b.shape for b in f.blocks] == [(2, 1), (0, 1), (0, 0)]
    assert f.block(1) == RatMatrix([[1], [1]])


@st.composite
def random_rep(draw, alg):
    dims = tuple(draw(st.integers(min_value=0, max_value=2))
                 for _ in range(alg.vertex_count))
    entries = st.integers(min_value=-2, max_value=2)
    # build arrow maps freely, then retry via rejection if a relation breaks
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dims[a.source - 1], dims[a.target - 1]
        rows = [[Fraction(draw(entries)) for _ in range(c)] for _ in range(r)]
        maps[a.name] = RatMatrix(rows, cols=c)
    try:
        return Rep(alg, dims, maps)
    except RepError:
        from hypothesis import assume
        assume(False)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_hom_from_projective_is_vertex_space(data):
    alg = build_algebra(make_quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 3)]))
    m = data.draw(random_rep(alg))
    for i in (1, 2, 3):
        assert len(hom_space(projective(alg, i), m)) == m.dim_at(i)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kernel_image_rank_bookkeeping(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    m = data.draw(random_rep(alg))
    n = data.draw(random_rep(alg))
    homs = hom_space(m, n)
    if not homs:
        return
    f = homs[0]
    k, incl = kernel(f)
    img, mono, epi = image(f)
    c, proj = cokernel(f)
    assert compose(f, incl).is_zero()
    assert compose(proj, f).is_zero()
    assert compose(mono, epi).blocks == f.blocks
    for v in (1, 2):
        assert k.dim_at(v) + img.dim_at(v) == m.dim_at(v)
        assert img.dim_at(v) + c.dim_at(v) == n.dim_at(v)


_SQ = build_algebra(
    make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)]),
    [Relation.of([(1, ("a", "c")), (-1, ("b", "d"))])])
# zero-dimensional parts: the shared zero module and a simple's zero pieces
_POOL = ([zero_rep(_SQ)] + [simple(_SQ, i) for i in range(1, 5)]
         + [projective(_SQ, i) for i in range(1, 5)])
_HOMS = {(i, j): hom_space(a, b) for i, a in enumerate(_POOL)
         for j, b in enumerate(_POOL)}


def _ref_injection(parts, total, i) -> RepMap:
    """Part i into the sum, from the block offsets alone."""
    blocks = []
    for v in range(4):
        before = sum(p.dims[v] for p in parts[:i])
        blocks.append(RatMatrix(
            [[int(r == before + c) for c in range(parts[i].dims[v])]
             for r in range(total.dims[v])], cols=parts[i].dims[v]))
    return RepMap(parts[i], total, tuple(blocks))


def _ref_projection(parts, total, i) -> RepMap:
    inj = _ref_injection(parts, total, i)
    return RepMap(total, parts[i], tuple(b.transpose() for b in inj.blocks))


@st.composite
def _block_grids(draw):
    """Part lists for a source and a target sum and a grid between them
    of random maps, None entries and (where the parts agree) ID."""
    idx = st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3)
    src, tgt = draw(idx), draw(idx)
    grid = []
    for t in tgt:
        row = []
        for s in src:
            kind = draw(st.sampled_from(
                ["none", "map", "id"] if s == t else ["none", "map"]))
            if kind == "id":
                row.append(ID)
            elif kind == "none":
                row.append(None)
            else:
                g = zero_map(_POOL[s], _POOL[t])
                for h in _HOMS[(s, t)]:
                    g = g + h.scale(draw(st.integers(-2, 2)))
                row.append(g)
        grid.append(row)
    return [_POOL[s] for s in src], [_POOL[t] for t in tgt], grid


@settings(max_examples=60, deadline=None)
@given(_block_grids(), st.booleans(), st.booleans())
def test_block_map_is_the_sum_of_its_components(case, plain_src, plain_tgt):
    sparts, tparts, grid = case
    src = direct_sum(sparts)
    tgt = direct_sum(tparts)
    # a one-part sum may also be passed as the plain module
    s_arg = sparts[0] if plain_src and len(sparts) == 1 else src
    t_arg = tparts[0] if plain_tgt and len(tparts) == 1 else tgt
    s_rep = sparts[0] if s_arg is sparts[0] else src.rep
    t_rep = tparts[0] if t_arg is tparts[0] else tgt.rep
    want = zero_map(s_rep, t_rep)
    for i, row in enumerate(grid):
        for j, g in enumerate(row):
            if g is None:
                continue
            if g is ID:
                g = identity_map(sparts[j])
            inj = _ref_injection(tparts, t_rep, i)
            proj = _ref_projection(sparts, s_rep, j)
            want = want + compose(inj, compose(g, proj))
    got = block_map(s_arg, t_arg, grid)
    assert got.source is s_rep and got.target is t_rep
    assert got.blocks == want.blocks
    for i in range(len(sparts)):
        assert (src.injection(i).blocks
                == _ref_injection(sparts, src.rep, i).blocks)
        assert src.projection(i) is src.projection(i)


def test_block_map_between_one_part_sums_is_its_entry(a3):
    z = zero_rep(a3)
    p2, p3 = projective(a3, 2), projective(a3, 3)
    g = hom_space(p2, p3)[0]
    src, tgt = direct_sum([z, p2]), direct_sum([p3, z])
    assert src.rep is p2 and tgt.rep is p3
    assert block_map(src, tgt, [[None, g], [None, None]]) is g
    assert block_map(p2, p3, [[g]]) is g
    assert block_map(src, p3, [[None, g]]) is g
    # a one-part sum's injection and projection are the part's identity
    assert src.injection(1) is identity_map(p2)
    assert tgt.projection(0) is identity_map(p3)


def test_misanchored_single_entry_still_raises(a3):
    z = zero_rep(a3)
    p2, p3 = projective(a3, 2), projective(a3, 3)
    g = hom_space(p2, p3)[0]
    src, tgt = direct_sum([z, p2]), direct_sum([p3, z])
    with pytest.raises(RepError, match="anchored"):
        block_map(src, tgt, [[g, None], [None, None]])
    with pytest.raises(RepError, match="anchored"):
        block_map(src, tgt, [[None, None], [None, g]])
    # an equal module is not the part
    twin = projective(a3, 2)
    with pytest.raises(RepError, match="anchored"):
        block_map(twin, p3, [[g]])


def test_empty_products_are_not_multiplied(a3, monkeypatch):
    s1, s2, s3 = simple(a3, 1), simple(a3, 2), simple(a3, 3)
    f = zero_map(s1, s2)
    g = zero_map(s2, s3)
    m = _one_arrow_module(a3)
    idm = identity_map(m)
    products = count_calls(monkeypatch, RatMatrix, "__matmul__")
    blocks = reps.composite_blocks(g, f)
    assert products == []
    assert blocks == [RatMatrix.zeros(0, 1), RatMatrix.zeros(0, 0),
                      RatMatrix.zeros(1, 0)]
    # the products with entries are still multiplied: vertices 1 and 2
    assert reps.composite_blocks(idm, idm) == list(idm.blocks)
    assert len(products) == 2


def test_identity_factors_compose_away(a3):
    p2, p3 = projective(a3, 2), projective(a3, 3)
    g = hom_space(p2, p3)[0]
    assert compose(identity_map(p3), g) is g
    assert compose(g, identity_map(p2)) is g
    # a map with the identity's blocks is not the identity object
    twin = RepMap(p3, p3, identity_map(p3).blocks)
    got = compose(twin, g)
    assert got is not g and got.blocks == g.blocks
    twin = RepMap(p2, p2, identity_map(p2).blocks)
    got = compose(g, twin)
    assert got is not g and got.blocks == g.blocks


@st.composite
def _one_part_sums(draw):
    """A part of _POOL placed among zero modules, as the list of parts and
    the index of the part."""
    part = draw(st.integers(1, len(_POOL) - 1))
    zeros = draw(st.integers(0, 2))
    at = draw(st.integers(0, zeros))
    parts = [_POOL[0]] * zeros
    parts.insert(at, _POOL[part])
    return part, parts, at


@settings(max_examples=60, deadline=None)
@given(_one_part_sums(), _one_part_sums(), st.data())
def test_shortcuts_match_the_general_path(src_case, tgt_case, data):
    s, sparts, i = src_case
    t, tparts, j = tgt_case
    m, n = _POOL[s], _POOL[t]
    src, tgt = direct_sum(sparts), direct_sum(tparts)
    assert src.rep is m and tgt.rep is n
    # injection and projection: the identity, with the offset blocks
    assert src.injection(i).blocks == _ref_injection(sparts, m, i).blocks
    assert src.projection(i).blocks == _ref_projection(sparts, m, i).blocks
    g = zero_map(m, n)
    for h in _HOMS[(s, t)]:
        g = g + h.scale(data.draw(st.integers(-2, 2)))
    # a one-entry grid: the entry, equal to inclusion after g after
    # projection through the offset maps
    grid = [[g if (r, c) == (j, i) else None for c in range(len(sparts))]
            for r in range(len(tparts))]
    got = block_map(src, tgt, grid)
    assert got is g
    want = compose(_ref_injection(tparts, n, j),
                   compose(g, _ref_projection(sparts, m, i)))
    assert got.blocks == want.blocks
    # identity factors: the other map, equal to the per-vertex products
    for ident, other, left in ((identity_map(n), g, True),
                               (identity_map(m), g, False)):
        got = compose(ident, other) if left else compose(other, ident)
        assert got is g
        pairs = (zip(ident.blocks, other.blocks) if left
                 else zip(other.blocks, ident.blocks))
        assert list(got.blocks) == [a @ b for a, b in pairs]
