"""Chain complexes: shifts, cones, cohomology, truncation triangles."""

import gc
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (heart_cohomology, random_map, random_sum,
                      ses_to_triangle, triangle_to_ses)
from heartglue.algebra import build_algebra, make_quiver
from heartglue.derived import DHomClass, as_cx, dhom_space
from heartglue.linalg import RatMatrix
from heartglue.reps import (
    Rep,
    RepMap,
    block_map,
    direct_sum,
    hom_space,
    identity_map,
    kernel,
    cokernel,
    projective,
    simple,
    zero_map,
    zero_rep,
)
from heartglue.reps import compose as rcompose
from heartglue.complexes import (
    Cx,
    CxError,
    CxMap,
    brutal_below,
    cohomology_dims,
    compose,
    cone,
    cx_direct_sum,
    identity_chain_map,
    is_acyclic,
    module_cx,
    Triangle,
    shift,
    shift_map,
    zero_cx,
)
from heartglue.glue import StandardAisle
from heartglue.yoneda import YExt


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
        assert y.diffs[i].blocks == x.diffs[i].blocks


def test_shift_sign_convention(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    s = shift(x, 1)
    assert s.diffs[-2].blocks == f.scale(-1).blocks
    assert shift(x, 2).diffs[-3].blocks == f.blocks


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
    # only d_target f is present at -1: f itself, which is nonzero
    with pytest.raises(CxError):
        CxMap(Cx(a2, {-1: p1}, {}), x, {-1: identity_map(p1)})
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
    assert compose(c.projection(0), c.injection(1)).is_zero()


def test_cx_direct_sum_biproduct(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    y = module_cx(p2)
    ds = cx_direct_sum([x, y])
    assert ds.cx.term(-1).dims == x.term(-1).dims
    assert ds.cx.term(0).dims == tuple(
        a + b for a, b in zip(x.term(0).dims, y.term(0).dims))
    for i in range(2):
        inj = ds.injection(i)
        comp = compose(ds.projection(i), inj)
        for k in inj.source.terms:
            assert (comp.comp(k).blocks
                    == identity_map(inj.source.term(k)).blocks)
    assert ds.injection(0) is ds.injection(0)
    assert compose(ds.projection(1), ds.injection(0)).is_zero()
    # cohomology is additive
    dims_sum = cohomology_dims(ds.cx)
    assert dims_sum == {0: (0 + 1, 1 + 1)}


def test_a_sum_with_one_nonzero_part_is_that_part(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    assert cx_direct_sum([x]).cx is x
    # a map out of the zero complex: its cone is its target, with the
    # target's own injection back
    y = module_cx(p2)
    c = cone(CxMap(zero_cx(a2), y, {}))
    assert c.cx is y
    assert c.injection(1).comp(0) is identity_map(p2)
    # the sum builds its own zero term, so a part that stores one is not it
    padded = Cx(a2, {-2: zero_rep(a2), 0: p2}, {})
    assert cx_direct_sum([padded]).cx is not padded


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
    tri = StandardAisle(a2, -1).truncate(x)[2]
    assert cohomology_dims(tri.f.source) == {}
    assert cohomology_dims(tri.cone_of_f.cx) == {0: (0, 1)}
    assert tri.certified()
    tri2 = StandardAisle(a2, 0).truncate(x)[2]
    assert cohomology_dims(tri2.f.source) == {0: (0, 1)}
    assert cohomology_dims(tri2.cone_of_f.cx) == {}
    assert tri2.certified()


def test_truncate_std_middle_cut(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    # non-exact two-step complex: P2 -> S2 in degrees 0, 1, H^0 = S1, H^1 = 0
    x = Cx(a2, {0: p2, 1: s2}, {0: q})
    assert cohomology_dims(x) == {0: (1, 0)}
    tri = StandardAisle(a2, 0).truncate(x)[2]
    assert cohomology_dims(tri.f.source) == {0: (1, 0)}
    assert cohomology_dims(tri.cone_of_f.cx) == {}
    assert tri.certified()


def test_ses_to_triangle_and_back(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    tri, comparison = ses_to_triangle(incl, q)
    assert tri.certified()
    back = triangle_to_ses(tri, comparison)
    assert back is not None
    f0, g0 = back
    assert f0.blocks == incl.blocks
    assert g0.blocks == q.blocks


def test_triangle_to_ses_refuses_shifted(a2):
    p2 = projective(a2, 2)
    s2 = simple(a2, 2)
    q = RepMap(p2, s2, (RatMatrix.zeros(0, 1), RatMatrix.identity(1)))
    k, incl = kernel(q)
    tri, comparison = ses_to_triangle(incl, q)
    f1 = shift_map(tri.f, 1)
    assert triangle_to_ses(Triangle(f1, cone(f1)),
                           shift_map(comparison, 1)) is None


def test_shift_map_stays_chain_map(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    idm = identity_chain_map(x)
    s = shift_map(idm, 3)
    assert s.source.terms == shift(x, 3).terms
    for i, c in s.components.items():
        assert c.blocks == identity_map(s.source.term(i)).blocks


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
        tri = StandardAisle(alg, level).truncate(x)[2]
        assert tri.certified()
        got = cohomology_dims(tri.f.source)
        want = {i: d for i, d in cohomology_dims(x).items() if i <= level}
        assert got == want
        got_r = cohomology_dims(tri.cone_of_f.cx)
        want_r = {i: d for i, d in cohomology_dims(x).items() if i > level}
        assert got_r == want_r


def test_complexes_share_one_zero_module(a2, monkeypatch):
    p1 = projective(a2, 1)
    built = []
    post_init = Rep.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Rep, "__post_init__", counting)
    x = Cx(a2, {0: p1}, {})
    y = shift(x, 3)
    z = Cx(a2, {}, {})
    assert built == []
    assert x.term(99) is y.term(99) is z.term(99) is zero_rep(a2)
    assert zero_rep(a2).total_dim == 0 and zero_rep(a2).proj_gens == ()


def test_shifts_and_module_complexes_are_one_object_each(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = two_term(a2, f)
    assert shift(shift(x, 2), -1) is shift(x, 1)
    assert shift(shift(x, 3), -3) is x
    assert shift(shift(x, -1), 1) is x
    assert module_cx(p2) is as_cx(p2)
    q = RepMap(p2, simple(a2, 2), (RatMatrix.zeros(0, 1),
                                   RatMatrix.identity(1)))
    k, incl = kernel(q)
    tri, comparison = ses_to_triangle(incl, q)
    assert comparison.target is as_cx(q.target)
    assert tri.f.source is as_cx(k)
    assert tri.cone_of_f.parts[0] is shift(as_cx(k), 1)


def _cohomology_modules(x):
    """The dimensions of each nonzero H^i, each H^i built as a module."""
    degs = x.degrees()
    if not degs:
        return {}
    hs = {i: heart_cohomology(x, i) for i in range(degs[0], degs[-1] + 1)}
    return {i: h.dims for i, h in hs.items() if h.total_dim}


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cohomology_dims_match_the_cohomology_modules(kron, a3rel,
                                                      commsquare, data):
    alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
    p, q = random_sum(data, alg), random_sum(data, alg)
    a = random_map(data, p, q)
    two = Cx(alg, {-1: p, 0: q}, {-1: a})
    # P -> Q + Q' -> R with (a, c a) and (-b c, b): the composite vanishes
    q2, r = random_sum(data, alg), random_sum(data, alg)
    c, b = random_map(data, q, q2), random_map(data, q2, r)
    mid = direct_sum([q, q2])
    three = Cx(alg, {-1: p, 0: mid.rep, 1: r}, {
        -1: block_map(p, mid, [[a], [rcompose(c, a)]]),
        0: block_map(mid, r, [[-rcompose(b, c), b]])})
    xs = [two, three]
    sp = dhom_space(two, three, data.draw(st.integers(-1, 1)))
    if sp.dim:
        coords = tuple(Fraction(data.draw(st.integers(-2, 2)))
                       for _ in range(sp.dim))
        xs.append(cone(sp.representative(DHomClass(sp, coords))).cx)
    for x in xs:
        want = _cohomology_modules(x)
        assert cohomology_dims(x) == want
        assert is_acyclic(x) == (not want)


def test_checks_build_no_module_maps(kron, monkeypatch):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    ds = direct_sum([p1, p1])
    g = block_map(ds, p2, [[hom_space(p1, p2)[0]] * 2])
    k, incl = kernel(g)
    q, proj = cokernel(g)
    ids = {i: identity_map(t) for i, t in enumerate((k, ds.rep, p2, q))}
    built = []
    validate = RepMap.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(RepMap, "__post_init__", counting)
    x = Cx(kron, {0: k, 1: ds.rep, 2: p2, 3: q}, {0: incl, 1: g, 2: proj})
    CxMap(x, x, ids)
    assert cohomology_dims(x) == {}
    assert cohomology_dims(brutal_below(x, 3)) == {2: q.dims}
    assert built == []
    YExt(k, q, (ds.rep, p2), (incl, g, proj))
    assert built == []


def test_triangle_on_its_cone_is_certified_without_a_comparison(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = CxMap(module_cx(p1), module_cx(p2), {0: hom_space(p1, p2)[0]})
    c = cone(f)
    assert Triangle(f, c).certified()
    # a cone of another map certifies nothing
    assert not Triangle(f, cone(f.scale(2))).certified()


def test_identity_chain_maps_compose_away(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = CxMap(module_cx(p1), module_cx(p2), {0: hom_space(p1, p2)[0]})
    c = cone(f)
    h = c.injection(1)
    assert compose(identity_chain_map(c.cx), h) is h
    assert compose(identity_chain_map(f.target), f) is f
    assert compose(f, identity_chain_map(f.source)) is f
    # an endomorphism with the identity's blocks is not the identity
    twin = CxMap(c.cx, c.cx, {i: RepMap(t, t, identity_map(t).blocks)
                              for i, t in c.cx.terms.items()})
    got = compose(twin, h)
    assert got is not h
    assert got.components.keys() == h.components.keys()
    assert all(got.components[i].blocks == m.blocks
               for i, m in h.components.items())


def test_identity_on_some_degrees_only_composes_in_full(a2):
    # zero differentials: the identity at degree 0 alone is a chain map
    p1, p2 = projective(a2, 1), projective(a2, 2)
    s = cx_direct_sum([module_cx(p1), shift(module_cx(p2), -1)])
    x = s.cx
    assert x.term(0) is p1 and x.term(1) is p2
    g = CxMap(x, x, {0: identity_map(p1)})
    f0 = CxMap(module_cx(p1), x, {0: identity_map(p1)})
    f1 = CxMap(shift(module_cx(p2), -1), x, {1: identity_map(p2)})
    assert compose(g, f0) is f0   # the identity on every degree f0 uses
    got = compose(g, f1)          # not on degree 1, which f1 uses
    assert got is not f1 and got.components == {}


def test_shifts_negate_a_shared_differential_once(a2):
    p1, p2 = projective(a2, 1), projective(a2, 2)
    d = hom_space(p1, p2)[0]
    x = two_term(a2, d)
    neg = shift(x, 1).diffs[-2]
    assert shift(x, 3).diffs[-4] is neg and shift(x, -1).diffs[0] is neg
    assert neg is -d and neg.blocks == d.scale(-1).blocks
    assert shift(x, 2).diffs[-3] is d


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_identity_shortcut_matches_the_products(data):
    alg = build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))
    f = data.draw(random_module_map(alg))
    fc = CxMap(module_cx(f.source), module_cx(f.target), {0: f})
    c = cone(fc)
    for h in (fc, c.injection(1), c.projection(0)):
        for ident, left in ((identity_chain_map(h.target), True),
                            (identity_chain_map(h.source), False)):
            got = compose(ident, h) if left else compose(h, ident)
            # the shortcut is taken exactly when the identity covers
            # every degree h uses, and agrees with the products
            assert (got is h) == (ident.components.keys()
                                  >= h.components.keys())
            want = {}
            for i, m in h.components.items():
                e = ident.components.get(i)
                if e is not None:
                    pairs = zip(e.blocks, m.blocks) if left else zip(
                        m.blocks, e.blocks)
                    want[i] = [a @ b for a, b in pairs]
            assert {i: list(m.blocks)
                    for i, m in got.components.items()} == want


def _fresh_degrees(x):
    return sorted(i for i, t in x.terms.items() if t.total_dim)


def test_shifts_truncations_and_cones_sort_their_own_degrees(a2):
    # each is a new complex and keeps its own degrees, whatever its
    # inputs already keep; a zero term is no degree
    p1, p2 = projective(a2, 1), projective(a2, 2)
    f = hom_space(p1, p2)[0]
    x = Cx(a2, {-2: zero_rep(a2), -1: p1, 0: p2}, {-1: f})
    assert x.degrees() == [-1, 0] and x.degrees() is x.memo["degrees"]
    assert (x.min_deg(), x.max_deg()) == (-1, 0)
    for k in (1, -2, 3):
        y = shift(x, k)
        assert y.degrees() == [-1 - k, -k] == _fresh_degrees(y)
        assert shift(y, -k) is x
    assert brutal_below(x, 0).degrees() == [-1]
    empty = brutal_below(x, -1)
    assert empty.degrees() == [] and empty.is_zero_object()
    assert (empty.min_deg(), empty.max_deg()) == (None, None)
    fc = CxMap(module_cx(p1), module_cx(p2), {0: f})
    assert cone(fc).cx.degrees() == [-1, 0]
    c = cone(identity_chain_map(shift(x, 1))).cx
    assert c.degrees() == [-3, -2, -1] == _fresh_degrees(c)


def _bench_workloads():
    path = (Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_no_kept_degrees_go_stale(tmp_path):
    # after every CLI job of the three bench workloads, each complex still
    # alive (the collector off keeps the cyclic ones) that keeps its
    # degrees keeps a fresh sort of its nonzero terms
    wl = _bench_workloads()
    inputs = wl.Inputs(tmp_path)
    checked = 0
    for workload in wl.WORKLOADS:
        for job in wl.cli_jobs(workload):
            gc.collect()
            gc.disable()
            try:
                wl.CliOp(inputs, *job).run()
                kept = [o for o in gc.get_objects()
                        if isinstance(o, Cx) and "degrees" in o.memo]
            finally:
                gc.enable()
            assert [x for x in kept
                    if x.memo["degrees"] != _fresh_degrees(x)] == []
            checked += len(kept)
    assert checked
