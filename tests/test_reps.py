"""Module layer: projectives, Hom spaces, kernels, filtrations."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heartglue.algebra import build_algebra, make_quiver, Relation
from heartglue.linalg import RatMatrix, rank
from heartglue.reps import (
    Rep,
    RepMap,
    RepError,
    compose,
    cokernel,
    direct_sum,
    eval_columns,
    exact_certificate,
    filtration_inclusion,
    filtration_step,
    hom_space,
    identity_map,
    image,
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
    assert compose(mono, epi).same_blocks(f)
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
    for inj, proj in zip(ds.injections, ds.projections):
        assert compose(proj, inj).same_blocks(identity_map(inj.source))
    assert compose(ds.projections[0], ds.injections[1]).is_zero()
    total = None
    for inj, proj in zip(ds.injections, ds.projections):
        t = compose(inj, proj)
        total = t if total is None else total + t
    assert total.same_blocks(identity_map(ds.rep))


def test_direct_sum_matches_projective_sum(a3):
    via_sum = projective_sum(a3, (1, 3))
    via_ds = direct_sum([projective(a3, 1), projective(a3, 3)]).rep
    assert via_sum.dims == via_ds.dims
    for a in a3.quiver.arrows:
        assert via_sum.act_arrow(a.name) == via_ds.act_arrow(a.name)


def test_map_from_generators_roundtrip(kron):
    p2 = projective(kron, 2)
    for f in hom_space(projective(kron, 1), p2):
        # generator of P_1 sits at vertex 1
        src = projective(kron, 1)
        img_col = f.block(1).col_matrix(0)
        g = map_from_generators(src, p2, [img_col])
        assert g.same_blocks(f)


def test_eval_columns_predicts_map_values(a3):
    t = projective_sum(a3, (1, 2))
    n = projective(a3, 3)
    for f in hom_space(t, n):
        data = []
        for c, v in enumerate(t.proj_gens):
            labels = tagged_basis(t, v)
            idx = labels.index((c, a3.basis[a3.index_of(v, ())]))
            data.extend(f.block(v).col(idx))
        stacked = RatMatrix.column(data)
        for j in (1, 2, 3):
            for k in range(t.dim_at(j)):
                e = RatMatrix.column(
                    [Fraction(1) if i == k else Fraction(0)
                     for i in range(t.dim_at(j))])
                u = eval_columns(t, n, j, e)
                assert (u @ stacked) == f.block(j).col_matrix(k)


def test_exactness_certificate(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    s1 = simple(a2, 1)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    exact_certificate(incl, q)
    # and a failing pair: zero into P_2 then projection is not exact
    z = zero_map(s1, p2)
    with pytest.raises(RepError):
        exact_certificate(z, q)


def test_projective_cover_of_simple(a3rel):
    for i in (1, 2, 3):
        s = simple(a3rel, i)
        cover, pi = projective_cover(s)
        assert cover.proj_gens == (i,)
        assert all(rank(pi.block(v)) == s.dim_at(v) for v in (1, 2, 3))


def test_projective_cover_of_projective_is_identity_sized(kron):
    p2 = projective(kron, 2)
    cover, pi = projective_cover(p2)
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


def test_naturality_violation_rejected(a2):
    p2 = projective(a2, 2)
    bad = (RatMatrix([[Fraction(1)]], cols=1), RatMatrix([[Fraction(0)]], cols=1))
    with pytest.raises(RepError):
        RepMap(p2, p2, bad)


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
    assert compose(mono, epi).same_blocks(f)
    for v in (1, 2):
        assert k.dim_at(v) + img.dim_at(v) == m.dim_at(v)
        assert img.dim_at(v) + c.dim_at(v) == n.dim_at(v)
