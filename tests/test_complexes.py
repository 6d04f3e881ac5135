"""Chain complexes: shifts, cones, cohomology, truncation triangles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from heartglue.algebra import build_algebra, make_quiver, Relation
from heartglue.linalg import RatMatrix
from heartglue.reps import (
    RepMap,
    compose as rcompose,
    hom_space,
    identity_map,
    kernel,
    cokernel,
    projective,
    simple,
    zero_map,
)
from heartglue.complexes import (
    Cx,
    CxError,
    CxMap,
    brutal_below,
    cohomology_dims,
    compose,
    cone,
    cx_direct_sum,
    heart_cohomology,
    identity_chain_map,
    is_acyclic,
    module_cx,
    ses_to_triangle,
    shift,
    shift_map,
    triangle_to_ses,
    truncate_std,
)


@pytest.fixture(scope="module")
def a2():
    return build_algebra(make_quiver(2, [("a", 1, 2)]))


@pytest.fixture(scope="module")
def kron():
    return build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))


def two_term(alg, f, lo=-1):
    """Complex with f.source in degree lo, f.target in degree lo+1."""
    return Cx(alg, {lo: f.source, lo + 1: f.target}, {lo: f})


def test_module_cx_cohomology(a2):
    p2 = projective(a2, 2)
    x = module_cx(p2)
    assert cohomology_dims(x) == {0: (1, 1)}
    assert x.degrees() == [0]


def test_shift_zero_is_identity(a2):
    x = module_cx(projective(a2, 2))
    assert shift(x, 0) is x


def test_shift_moves_cohomology(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    # the map is injective, so only H^0 = coker survives
    assert cohomology_dims(x) == {0: (0, 1)}
    assert cohomology_dims(shift(x, 1)) == {-1: (0, 1)}
    assert cohomology_dims(shift(x, -2)) == {2: (0, 1)}


def test_shift_roundtrip_preserves_terms(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    y = shift(shift(x, 1), -1)
    assert set(y.terms) == set(x.terms)
    for i in x.terms:
        assert y.terms[i] is x.terms[i]
    for i in x.diffs:
        assert y.diffs[i].same_blocks(x.diffs[i])


def test_shift_sign_convention(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    s = shift(x, 1)
    assert s.diffs[-2].same_blocks(f.scale(-1))
    assert shift(x, 2).diffs[-3].same_blocks(f)


def test_d_squared_rejected(a2):
    p2 = projective(a2, 2)
    i = identity_map(p2)
    with pytest.raises(CxError):
        Cx(a2, {0: p2, 1: p2, 2: p2}, {0: i, 1: i})


def test_chain_condition_rejected(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    # identity at 0 with zero at -1 breaks the commuting square over f
    with pytest.raises(CxError):
        CxMap(x, x, {0: identity_map(p2)})
    # the full identity passes
    _ = CxMap(x, x, {0: identity_map(p2), -1: identity_map(p1)})


def test_cone_of_module_map_measures_kernel_and_cokernel(kron):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    f = hom_space(p1, p2)[0]
    fc = CxMap(module_cx(p1), module_cx(p2),
               {0: f})
    c = cone(fc)
    k, _ = kernel(f)
    q, _ = cokernel(f)
    # H^{-1}(cone) = ker f, H^0(cone) = coker f
    assert heart_cohomology(c.cx, -1).dims == k.dims
    assert heart_cohomology(c.cx, 0).dims == q.dims


def test_cone_of_identity_is_acyclic(kron):
    x = module_cx(projective(kron, 2))
    c = cone(identity_chain_map(x))
    assert is_acyclic(c.cx)


def test_cone_triangle_maps_compose_to_zero(kron):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    f = hom_space(p1, p2)[0]
    fc = CxMap(module_cx(p1), module_cx(p2), {0: f})
    c = cone(fc)
    # incl after f is only null-homotopic, but proj after incl is zero on the nose
    assert compose(c.proj, c.incl).is_zero()


def test_cx_direct_sum_biproduct(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    y = module_cx(p2)
    ds = cx_direct_sum([x, y])
    assert ds.cx.term(-1).dims == x.term(-1).dims
    assert ds.cx.term(0).dims == tuple(
        a + b for a, b in zip(x.term(0).dims, y.term(0).dims))
    for inj, proj in zip(ds.injections, ds.projections):
        comp = compose(proj, inj)
        for i in inj.source.terms:
            assert comp.comp(i).same_blocks(identity_map(inj.source.term(i)))
    assert compose(ds.projections[1], ds.injections[0]).is_zero()
    # cohomology is additive
    dims_sum = cohomology_dims(ds.cx)
    assert dims_sum == {0: (0 + 1, 1 + 1)}


def test_brutal_truncation(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    below = brutal_below(x, 0)
    assert below.degrees() == [-1]
    assert below.term(-1) is x.term(-1)
    assert not below.diffs


def test_exact_three_term_complex_is_acyclic(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    x = Cx(a2, {-2: k, -1: p2, 0: s2},
           {-2: incl, -1: q})
    assert is_acyclic(x)
    assert not is_acyclic(brutal_below(x, 0))


def test_truncate_std_splits_cohomology(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)  # H^0 = S_2 only
    tri = truncate_std(x, -1)
    assert cohomology_dims(tri.left) == {}
    assert cohomology_dims(tri.right) == {0: (0, 1)}
    assert tri.certified()
    tri2 = truncate_std(x, 0)
    assert cohomology_dims(tri2.left) == {0: (0, 1)}
    assert cohomology_dims(tri2.right) == {}
    assert tri2.certified()


def test_truncate_std_middle_cut(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    # non-exact two-step complex: P2 -> S2 in degrees 0, 1, H^0 = S1, H^1 = 0
    x = Cx(a2, {0: p2, 1: s2}, {0: q})
    assert cohomology_dims(x) == {0: (1, 0)}
    tri = truncate_std(x, 0)
    assert cohomology_dims(tri.left) == {0: (1, 0)}
    assert cohomology_dims(tri.right) == {}
    assert tri.certified()


def test_ses_to_triangle_and_back(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    tri = ses_to_triangle(incl, q)
    assert tri.certified()
    back = triangle_to_ses(tri)
    assert back is not None
    f0, g0 = back
    assert f0.same_blocks(incl)
    assert g0.same_blocks(q)


def test_triangle_to_ses_refuses_shifted(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    tri = ses_to_triangle(incl, q)
    shifted = type(tri)(shift(tri.left, 1), shift(tri.mid, 1),
                        shift(tri.right, 1), shift_map(tri.f, 1),
                        shift_map(tri.g, 1))
    assert triangle_to_ses(shifted) is None


def test_shift_map_stays_chain_map(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    idm = identity_chain_map(x)
    s = shift_map(idm, 3)
    assert s.source.terms == shift(x, 3).terms
    for i, c in s.components.items():
        assert c.same_blocks(identity_map(s.source.term(i)))


def test_zero_chain_map_composes(a2):
    x = module_cx(projective(a2, 2))
    y = module_cx(simple(a2, 2))
    z = CxMap(x, y, {})
    assert z.is_zero()
    assert compose(z, identity_chain_map(x)).is_zero()


@st.composite
def random_module_map(draw, alg):
    from heartglue.reps import Rep, RepError
    from hypothesis import assume
    dims = [tuple(draw(st.integers(min_value=0, max_value=2))
                  for _ in range(alg.vertex_count)) for _ in range(2)]
    entries = st.integers(min_value=-2, max_value=2)
    reps = []
    for d in dims:
        maps = {}
        for a in alg.quiver.arrows:
            r, c = d[a.source - 1], d[a.target - 1]
            rows = [[Fraction(draw(entries)) for _ in range(c)]
                    for _ in range(r)]
            maps[a.name] = RatMatrix(rows, cols=c)
        try:
            reps.append(Rep(alg, d, maps))
        except RepError:
            assume(False)
    homs = hom_space(reps[0], reps[1])
    assume(homs)
    coeffs = [draw(st.integers(min_value=-1, max_value=1)) for _ in homs]
    total = zero_map(reps[0], reps[1])
    for c, h in zip(coeffs, homs):
        total = total + h.scale(Fraction(c))
    return total


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_euler_characteristic_matches_cohomology(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    f = data.draw(random_module_map(alg))
    x = Cx(alg, {-1: f.source, 0: f.target}, {-1: f})
    for v in (1, 2):
        chi_terms = -f.source.dim_at(v) + f.target.dim_at(v)
        chi_h = sum((-1) ** i * heart_cohomology(x, i).dim_at(v)
                    for i in (-1, 0))
        assert chi_terms == chi_h


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_cone_cohomology_long_exactness_for_module_maps(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    f = data.draw(random_module_map(alg))
    fc = CxMap(module_cx(f.source), module_cx(f.target), {0: f})
    c = cone(fc)
    k, _ = kernel(f)
    q, _ = cokernel(f)
    assert heart_cohomology(c.cx, -1).dims == k.dims
    assert heart_cohomology(c.cx, 0).dims == q.dims


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_truncation_triangle_certified_on_random_input(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    f = data.draw(random_module_map(alg))
    x = Cx(alg, {-1: f.source, 0: f.target}, {-1: f})
    for level in (-2, -1, 0, 1):
        tri = truncate_std(x, level)
        assert tri.certified()
        got = cohomology_dims(tri.left)
        want = {i: d for i, d in cohomology_dims(x).items() if i <= level}
        assert got == want
        got_r = cohomology_dims(tri.right)
        want_r = {i: d for i, d in cohomology_dims(x).items() if i > level}
        assert got_r == want_r
