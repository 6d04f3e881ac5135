"""Resolutions and derived Hom: dimensions, composition, dual-route oracles."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.linalg import RatMatrix
from heartglue.reps import (
    Rep,
    RepError,
    RepMap,
    compose as rcompose,
    hom_space,
    identity_map,
    projective,
    projective_sum,
    simple,
    summand_maps,
    zero_map,
)
from heartglue.complexes import (
    Cx,
    CxMap,
    cone,
    cohomology_dims,
    cx_direct_sum,
    heart_cohomology,
    is_acyclic,
    module_cx,
    shift,
)
from heartglue.derived import (
    DHomClass,
    as_cx,
    compose_classes,
    derived_hom,
    dhom_space,
    identity_class,
    minimal_model,
    resolve,
    resolve_cx,
    resolve_rep,
    solve_lift,
)


@pytest.fixture(scope="module")
def a2():
    return build_algebra(make_quiver(2, [("a", 1, 2)]))


@pytest.fixture(scope="module")
def kron():
    return build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))


@pytest.fixture(scope="module")
def a3rel():
    q = make_quiver(3, [("a", 1, 2), ("b", 2, 3)])
    return build_algebra(q, [Relation.of([(1, ("a", "b"))])])


def class_of_module_map(f: RepMap) -> DHomClass:
    """The degree-0 derived class of a plain module map."""
    sp = dhom_space(f.source, f.target, 0)
    eps0 = sp.res.eps.comp(0)
    comp = rcompose(f, eps0)
    u = CxMap(sp.res.cx, sp.t, {0: RepMap(sp.res.cx.term(0),
                                          sp.t.term(0), comp.blocks)})
    return sp.class_of(u)


def test_resolution_of_projective_is_itself(kron):
    p2 = projective(kron, 2)
    res = resolve_rep(p2)
    assert res.cx.term(0) is p2
    assert res.cx.degrees() == [0]


def test_resolution_of_simple_top(kron):
    s2 = simple(kron, 2)
    res = resolve_rep(s2)
    # 0 -> P1^2 -> P2 -> S2
    assert res.cx.degrees() == [-1, 0]
    assert res.cx.term(0).proj_gens == (2,)
    assert res.cx.term(-1).proj_gens == (1, 1)
    assert is_acyclic(cone(res.eps).cx)


def test_resolution_length_respects_nakayama_bound(a3rel):
    s3 = simple(a3rel, 3)
    res = resolve_rep(s3)
    assert res.cx.degrees() == [-2, -1, 0]
    assert [res.cx.term(i).proj_gens for i in (-2, -1, 0)] == [(1,), (2,), (3,)]
    assert is_acyclic(cone(res.eps).cx)


def test_hom_dimensions_a2(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    s1, s2 = simple(a2, 1), simple(a2, 2)
    assert derived_hom(p1, p2, 0) == 1
    assert derived_hom(p2, p1, 0) == 0
    assert derived_hom(s2, s1, 1) == 1
    assert derived_hom(s1, s2, 1) == 0
    assert derived_hom(s2, s1, 0) == 0
    for n in (-2, -1, 2, 3):
        assert derived_hom(s2, s1, n) == 0


def test_hom_dimensions_kronecker(kron):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    s2 = simple(kron, 2)
    assert derived_hom(p1, p2, 0) == 2
    assert derived_hom(p2, p2, 0) == 1
    assert derived_hom(s2, p1, 1) == 2
    assert [derived_hom(p1, p2, n) for n in range(-2, 3)] == [0, 0, 2, 0, 0]


def test_hom_ext_square_a3rel(a3rel):
    s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
    assert derived_hom(s3, s2, 1) == 1
    assert derived_hom(s2, s1, 1) == 1
    assert derived_hom(s3, s1, 2) == 1
    assert derived_hom(s3, s1, 1) == 0
    # gldim bound: nothing beyond shift 2
    assert derived_hom(s3, s1, 3) == 0


def test_negative_shifts_vanish_for_modules(kron):
    p2 = projective(kron, 2)
    s2 = simple(kron, 2)
    for n in (-3, -2, -1):
        assert derived_hom(s2, p2, n) == 0
        assert derived_hom(s2, s2, n) == 0


def test_identity_class_is_nonzero_and_neutral(kron):
    p2 = projective(kron, 2)
    i = identity_class(p2)
    assert not i.is_zero()
    for c in dhom_space(p2, p2, 0).basis():
        assert compose_classes(i, c).coords == c.coords
        assert compose_classes(c, i).coords == c.coords


def test_compose_matches_module_composition(kron):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    fs = hom_space(p1, p2)
    ends = hom_space(p2, p2)
    for f in fs:
        for g in ends:
            lhs = compose_classes(class_of_module_map(g), class_of_module_map(f))
            rhs = class_of_module_map(rcompose(g, f))
            assert lhs.coords == rhs.coords


def test_yoneda_square_product_nonzero(a3rel):
    s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
    e32 = dhom_space(s3, s2, 1).basis()[0]
    e21 = dhom_space(s2, s1, 1).basis()[0]
    prod = compose_classes(e21, e32)
    assert prod.space is dhom_space(s3, s1, 2)
    assert not prod.is_zero()


def test_composition_is_bilinear(a3rel):
    s2, s3 = simple(a3rel, 2), simple(a3rel, 3)
    s1 = simple(a3rel, 1)
    e32 = dhom_space(s3, s2, 1).basis()[0]
    e21 = dhom_space(s2, s1, 1).basis()[0]
    two = e21.scale(2)
    assert compose_classes(two, e32).coords == tuple(
        2 * c for c in compose_classes(e21, e32).coords)
    zero = dhom_space(s2, s1, 1).zero()
    assert compose_classes(zero, e32).is_zero()


def test_composition_associative_across_shifts(a3rel):
    s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
    e32 = dhom_space(s3, s2, 1).basis()[0]
    e21 = dhom_space(s2, s1, 1).basis()[0]
    idc = identity_class(s1)
    left = compose_classes(idc, compose_classes(e21, e32))
    right = compose_classes(compose_classes(idc, e21), e32)
    assert left.coords == right.coords


def test_hom_from_projective_reads_cohomology(kron):
    # Hom(P_i, X[n]) = dim of vertex i in H^n(X), since Hom(P_i, -) is exact
    p1, p2 = projective(kron, 1), projective(kron, 2)
    f = hom_space(p1, p2)[0]
    x = Cx(kron, {-1: p1, 0: p2}, {-1: RepMap(p1, p2, f.blocks)})
    for n in (-2, -1, 0, 1, 2):
        h = heart_cohomology(x, n)
        for i, p in ((1, p1), (2, p2)):
            assert derived_hom(p, x, n) == h.dim_at(i)


def test_resolution_of_two_term_complex(kron):
    s2 = simple(kron, 2)
    p1 = projective(kron, 1)
    # a complex of non-projectives: S2 in degrees -1 and 0, zero differential
    x = Cx(kron, {-1: s2, 0: s2}, {})
    res = resolve_cx(x)
    assert res.cx.is_tagged()
    assert is_acyclic(cone(res.eps).cx)
    for n in (-1, 0, 1, 2):
        assert derived_hom(p1, x, n) == heart_cohomology(x, n).dim_at(1)


def test_shift_invariance_of_hom(a3rel):
    s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
    x, y = as_cx(s3), as_cx(s1)
    for k in (-1, 1, 2):
        assert derived_hom(shift(x, k), shift(y, k), 2) == derived_hom(x, y, 2)
        # Hom(x[k], y[m]) = Hom(x, y[m-k])
        assert derived_hom(shift(x, k), y, 2 + k) == derived_hom(x, y, 2)


def test_solve_lift_through_resolution(kron):
    s2 = simple(kron, 2)
    res = resolve_rep(s2)
    target = as_cx(s2)
    # lift the augmentation through itself: u with eps u = eps
    u, h = solve_lift(res.cx, res.eps, res.eps)
    assert u.comp(0).block(2).rows == 1


def test_solve_lift_up_to_homotopy(kron):
    # g: P2 -> (P2 --id--> P2) is null-homotopic but has no strict lift
    # through the zero map out of 0; the lift is u = 0 with a homotopy
    # satisfying r u - g = d h + h d
    p2 = projective(kron, 2)
    p = as_cx(p2)
    z = Cx(kron, {-1: p2, 0: p2}, {-1: identity_map(p2)})
    g = CxMap(p, z, {0: identity_map(p2)})
    r = CxMap(Cx(kron, {}, {}), z, {})
    from heartglue.derived import LiftError
    with pytest.raises(LiftError):
        solve_lift(p, g, r, strict=True)
    u, h = solve_lift(p, g, r)
    for k in (-1, 0, 1):
        hk = h.get(k, zero_map(p.term(k), z.term(k - 1)))
        hk1 = h.get(k + 1, zero_map(p.term(k + 1), z.term(k)))
        moved = rcompose(r.comp(k), u.comp(k)) - g.comp(k)
        assert (moved - rcompose(z.d(k - 1), hk)
                - rcompose(hk1, p.d(k))).is_zero()
    assert not h[0].is_zero()


def test_solve_lift_reports_failure(kron):
    from heartglue.derived import LiftError
    p1 = projective(kron, 1)
    p2 = projective(kron, 2)
    # the identity of P2 cannot factor through P1: Hom(P2, P1) = 0
    r = CxMap(as_cx(p1), as_cx(p2), {0: hom_space(p1, p2)[0]})
    idp2 = CxMap(as_cx(p2), as_cx(p2),
                 {0: RepMap(as_cx(p2).term(0), as_cx(p2).term(0),
                            tuple(RatMatrix.identity(d) for d in p2.dims))})
    with pytest.raises(LiftError):
        solve_lift(as_cx(p2), idp2, r)


def test_zero_object_has_no_homs(kron):
    from heartglue.reps import zero_rep
    z = zero_rep(kron)
    p2 = projective(kron, 2)
    for n in (-1, 0, 1):
        assert derived_hom(z, p2, n) == 0
        assert derived_hom(p2, z, n) == 0


@st.composite
def random_module(draw, alg):
    dims = tuple(draw(st.integers(min_value=0, max_value=2))
                 for _ in range(alg.vertex_count))
    entries = st.integers(min_value=-2, max_value=2)
    maps = {}
    for a in alg.quiver.arrows:
        r, c = dims[a.source - 1], dims[a.target - 1]
        rows = [[Fraction(draw(entries)) for _ in range(c)] for _ in range(r)]
        maps[a.name] = RatMatrix(rows, cols=c)
    try:
        return Rep(alg, dims, maps)
    except RepError:
        assume(False)


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_resolution_is_quasi_iso_on_random_modules(data):
    alg = build_algebra(make_quiver(3, [("a", 1, 2), ("b", 2, 3)]),
                        [Relation.of([(1, ("a", "b"))])])
    m = data.draw(random_module(alg))
    res = resolve_rep(m)
    assert res.cx.is_tagged()
    assert is_acyclic(cone(res.eps).cx)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_resolution_is_quasi_iso_on_random_two_term_complexes(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    m = data.draw(random_module(alg))
    n = data.draw(random_module(alg))
    homs = hom_space(m, n)
    assume(homs)
    f = homs[0]
    x = Cx(alg, {-1: m, 0: n}, {-1: f})
    res = resolve_cx(x)
    assert res.cx.is_tagged()
    assert is_acyclic(cone(res.eps).cx)
    p1 = projective(alg, 1)
    for i in (-2, -1, 0, 1):
        assert derived_hom(p1, x, i) == heart_cohomology(x, i).dim_at(1)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_hom_from_projectives_on_random_modules(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    m = data.draw(random_module(alg))
    for i in (1, 2):
        assert derived_hom(projective(alg, i), m, 0) == m.dim_at(i)
        assert derived_hom(projective(alg, i), m, 1) == 0


def test_summand_maps_split_off_kept_copies(kron):
    big = projective_sum(kron, (1, 2, 1))
    sub, inj, proj = summand_maps(big, (0, 2))
    assert sub.proj_gens == (1, 1)
    assert rcompose(proj, inj).same_blocks(identity_map(sub))
    mid, mid_in, _ = summand_maps(big, (1,))
    assert mid.dims == projective(kron, 2).dims
    for v in (1, 2):
        assert inj.block(v).cols + mid_in.block(v).cols == big.dim_at(v)


def test_summand_maps_reject_untagged_modules_and_bad_copies(kron):
    with pytest.raises(RepError, match="tagged"):
        summand_maps(simple(kron, 1), (0,))
    with pytest.raises(RepError, match="out of range"):
        summand_maps(projective_sum(kron, (1,)), (1,))


def test_minimal_model_keeps_a_cover_resolution(kron):
    # covers are minimal already, so nothing cancels
    s = simple(kron, 2)
    small, q = minimal_model(s)
    assert small.dims_table() == resolve(s).cx.dims_table()
    assert is_acyclic(cone(q).cx)
    assert cohomology_dims(small) == {0: (0, 1)}


def test_minimal_model_kills_an_identity_cone(kron):
    one = projective(kron, 1)
    other = projective(kron, 1)
    f = RepMap(one, other, tuple(RatMatrix.identity(d) for d in one.dims))
    x = Cx(kron, {-1: one, 0: other}, {-1: f})
    small, q = minimal_model(x)
    assert small.total_dim == 0
    assert is_acyclic(cone(q).cx)


def test_minimal_model_strips_a_padded_summand(kron):
    base = resolve(simple(kron, 2)).cx
    one = projective(kron, 1)
    other = projective(kron, 1)
    f = RepMap(one, other, tuple(RatMatrix.identity(d) for d in one.dims))
    pad = Cx(kron, {-1: one, 0: other}, {-1: f})
    x = cx_direct_sum([base, pad]).cx
    small, q = minimal_model(x)
    assert small.dims_table() == base.dims_table()
    assert cohomology_dims(small) == {0: (0, 1)}
    assert is_acyclic(cone(q).cx)


def test_minimal_model_of_a_shifted_simple_is_its_shifted_resolution(a3rel):
    x = shift(as_cx(simple(a3rel, 3)), 2)
    small, q = minimal_model(x)
    assert small.dims_table() == {-4: (1, 0, 0), -3: (1, 1, 0), -2: (0, 1, 1)}
    assert cohomology_dims(small) == {-2: (0, 0, 1)}
    assert is_acyclic(cone(q).cx)


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_minimal_model_on_random_two_term_complexes(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    m = data.draw(random_module(alg))
    n = data.draw(random_module(alg))
    homs = hom_space(m, n)
    assume(homs)
    x = Cx(alg, {-1: m, 0: n}, {-1: homs[0]})
    small, q = minimal_model(x)
    assert is_acyclic(cone(q).cx)
    assert cohomology_dims(small) == cohomology_dims(x)
    assert small.total_dim <= resolve(x).cx.total_dim
    # reduced output has no cancellable component left
    again, _ = minimal_model(small)
    assert again.dims_table() == small.dims_table()
