"""Resolutions and derived Hom: dimensions, composition, dual-route oracles."""

import gc
import json
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (_scan_range, counting_calls, heart_cohomology,
                      homotopy_boundary_system, is_minimal, random_map,
                      random_sum, ses_to_triangle, syzygy_module_resolution)
from heartglue import (algebra, bondal, complexes, derived, glue, linalg,
                       reps, yoneda)
from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.jsonio import algebra_from_dict, load_algebra
from heartglue.linalg import RatMatrix, hstack, solve
from heartglue.reps import (
    Rep,
    RepError,
    RepMap,
    compose as rcompose,
    hom_space,
    identity_map,
    kernel,
    map_from_generators,
    projective,
    projective_cover,
    projective_sum,
    simple,
    tagged_basis,
)
from heartglue.cli import CORPUS_NAMES, JobSpec, corpus_path, run
from heartglue.complexes import (
    Cx,
    CxMap,
    compose as ccompose,
    cone,
    cohomology_dims,
    cx_direct_sum,
    is_acyclic,
    shift,
    shift_map,
    unshifted,
    zero_cx,
)
from heartglue.derived import (
    DHomClass,
    DHomSpace,
    LiftError,
    as_cx,
    compose_classes,
    derived_hom,
    dhom_space,
    hom_scan,
    identity_class,
    lift_map,
    minimal_model,
    resolve,
)

BUNDLED = CORPUS_NAMES + ("branching",)


def dims_table(x: Cx) -> dict[int, tuple[int, ...]]:
    """The vertex dimensions of each nonzero term of x."""
    return {i: x.terms[i].dims for i in x.degrees()}


# linear A5 with every length-two path zero, and the Kronecker quiver with
# five arrows, as algebra descriptions
SCALED = {
    "A5-rad2": {"vertices": 5,
                "arrows": [{"name": f"a{i}", "source": i, "target": i + 1}
                           for i in range(1, 5)],
                "relations": [[{"coef": "1", "path": [f"a{i}", f"a{i + 1}"]}]
                              for i in range(1, 4)]},
    "K5": {"vertices": 2, "relations": [],
           "arrows": [{"name": f"x{i}", "source": 1, "target": 2}
                      for i in range(1, 6)]},
}


def _algebra_path(name, tmp_path) -> str:
    """The file of a bundled algebra, or one of SCALED written to tmp_path."""
    if name not in SCALED:
        return str(corpus_path(name))
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SCALED[name]), encoding="utf-8")
    return str(path)


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
    eps0 = sp.eps.comp(0)
    comp = rcompose(f, eps0)
    u = CxMap(sp.r, sp.t, {0: RepMap(sp.r.term(0),
                                     sp.t.term(0), comp.blocks)})
    return sp.class_of(u)


def test_resolution_of_projective_is_itself(kron):
    p2 = projective(kron, 2)
    eps = resolve(p2)
    assert eps.source.term(0) is p2
    assert eps.source.degrees() == [0]


def test_resolution_of_simple_top(kron):
    s2 = simple(kron, 2)
    eps = resolve(s2)
    # 0 -> P1^2 -> P2 -> S2
    assert eps.source.degrees() == [-1, 0]
    assert eps.source.term(0).proj_gens == (2,)
    assert eps.source.term(-1).proj_gens == (1, 1)
    assert is_acyclic(cone(eps).cx)


def test_resolution_length_respects_nakayama_bound(a3rel):
    s3 = simple(a3rel, 3)
    eps = resolve(s3)
    assert eps.source.degrees() == [-2, -1, 0]
    assert [eps.source.term(i).proj_gens
            for i in (-2, -1, 0)] == [(1,), (2,), (3,)]
    assert is_acyclic(cone(eps).cx)


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


def test_hom_system_builds_no_module_maps(a2, monkeypatch):
    # missing differentials are read as zero, never built as zero maps
    p1, p2 = projective(a2, 1), projective(a2, 2)
    resolve(as_cx(p1))
    built = []
    validate = RepMap.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(RepMap, "__post_init__", counting)
    assert derived_hom(p1, p2, 5) == 0
    assert len(built) == 0


def test_generator_data_parses_no_matrix_entries(a3rel, monkeypatch):
    # the Hom, lift and class systems are assembled from matrix blocks, so
    # none of them goes through the entry-parsing public constructor
    x, y = as_cx(simple(a3rel, 3)), as_cx(simple(a3rel, 1))
    eps = resolve(x)
    first = DHomSpace(x, y, 2)
    u = first.representative(first.basis()[0])
    p, q = projective(a3rel, 2), projective(a3rel, 3)
    images = [RatMatrix.column([1])]
    built = []
    parse = RatMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        parse(self, *args, **kwargs)

    monkeypatch.setattr(RatMatrix, "__init__", counting)
    sp = DHomSpace(x, y, 2)
    assert sp.class_of(u).coords == first.basis()[0].coords
    lift_map(eps.source, eps, eps)
    map_from_generators(p, q, images)
    assert built == []


def test_zero_hom_space_is_not_built(a2, monkeypatch):
    # no generator of the resolution of P1 meets P2[5], so the space is
    # answered as zero without being built
    p1, p2 = projective(a2, 1), projective(a2, 2)
    built = []
    init = DHomSpace.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(DHomSpace, "__init__", counting)
    assert derived_hom(p1, p2, 5) == 0
    assert built == []


def _two_term(alg):
    """P_i -> P_j along the first nonzero map between distinct
    projectives, in degrees -1 and 0."""
    n = alg.vertex_count
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            maps = hom_space(projective(alg, i), projective(alg, j))
            if i != j and maps:
                f = maps[0]
                return Cx(alg, {-1: f.source, 0: f.target}, {-1: f})
    raise AssertionError("no map between distinct projectives")


@pytest.mark.parametrize("name", BUNDLED + tuple(SCALED))
def test_unknown_free_spaces_are_zero(name, tmp_path):
    alg = load_algebra(_algebra_path(name, tmp_path))
    n = alg.vertex_count
    objs = [as_cx(simple(alg, i)) for i in range(1, n + 1)]
    objs += [as_cx(projective(alg, i)) for i in range(1, n + 1)]
    objs.append(_two_term(alg))
    for x in objs:
        r = resolve(x).source
        for y in objs:
            for k in _scan_range(x, y):
                full = DHomSpace(x, y, k)
                assert derived_hom(x, y, k) == full.dim
                h, m = derived._at(r, y, k)
                assert (m in h.support) == (full.layout.total > 0)


def _check_hom_complex(x, y):
    """delta^n delta^{n-1} = 0 on the Hom complex Hom(r, y), r the
    resolution of x, and its boundary system is minus the oracle's
    d h + h d, at every shift of the scan range, which holds the support;
    returns the shifts where delta^{n-1} has a nonzero entry.  For
    r = r0[s] the complex read is that of r0, and its differential is
    (-1)^s times the one of r, since d_r is (-1)^s d_r0."""
    r = resolve(x).source
    h, a = derived._at(r, y)
    sign = -1 if unshifted(r)[1] % 2 else 1
    assert {m - a for m in h.support} <= set(_scan_range(x, y))
    nonzero = 0
    for n in _scan_range(x, y):
        delta, before = h.delta(n + a), h.delta(n + a - 1)
        assert (delta @ before).is_zero()
        assert before == homotopy_boundary_system(r, shift(y, n)).scale(-sign)
        nonzero += not before.is_zero()
    return nonzero


@pytest.mark.parametrize("name", BUNDLED + tuple(SCALED))
def test_hom_complex_differential_squares_to_zero(name, tmp_path):
    alg = load_algebra(_algebra_path(name, tmp_path))
    objs = _objects(alg)
    assert sum(_check_hom_complex(x, y) for x in objs for y in objs)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hom_complex_identity_on_random_objects(kron, a3rel, commsquare,
                                                data):
    alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
    m, n = data.draw(random_module(alg)), data.draw(random_module(alg))
    homs = hom_space(m, n)
    f = data.draw(st.sampled_from(homs)) if homs else None
    x = Cx(alg, {-1: m, 0: n}, {-1: f} if f is not None else {})
    y = data.draw(st.sampled_from(_objects(alg) + [x]))
    _check_hom_complex(x, y)
    _check_hom_complex(y, x)


@pytest.mark.parametrize("name", ["kronecker", "A5-rad2"])
def test_ext_table_builds_each_differential_once(name, tmp_path,
                                                 monkeypatch):
    # a dimension-only job reads ranks: no Hom space, and one delta^n per
    # Hom complex and degree however many scans read it
    n = SCALED[name]["vertices"] if name in SCALED else 2
    objs = tmp_path / "objs.json"
    objs.write_text(json.dumps({"objects": [
        {"type": kind, "vertex": i}
        for kind in ("simple", "projective") for i in range(1, n + 1)]}),
        encoding="utf-8")
    spaces = counting_calls(monkeypatch, DHomSpace, "__init__")
    systems = counting_calls(monkeypatch, derived.HomCx, "_system")
    code, _ = run(JobSpec(command="ext-table",
                          algebra_path=_algebra_path(name, tmp_path),
                          object_paths=(str(objs),), output="json"))
    assert code == 0
    assert spaces == []
    pairs = [(id(h), deg) for h, deg, _ in systems]  # calls keeps them alive
    assert pairs and len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("name", BUNDLED + tuple(SCALED))
def test_hom_scans_walk_the_support(name, tmp_path):
    # the scan over the support yields what the scan over every shift of
    # the range finds nonzero, with and without a top
    alg = load_algebra(_algebra_path(name, tmp_path))
    objs = _objects(alg)
    if name == "A5-rad2":
        # a shifted two-part sum over a non-hereditary algebra: S_1 has a
        # resolution of length 4, so the window is wide on both sides
        two = cx_direct_sum([as_cx(simple(alg, 1)),
                             shift(as_cx(projective(alg, 3)), 1)]).cx
        objs += [shift(two, 2), shift(two, -1)]
    for x in objs:
        for y in objs:
            full = [(n, d) for n in _scan_range(x, y)
                    if (d := derived_hom(x, y, n))]
            assert list(hom_scan(x, y)) == full
            for top in (-2, 0, 1):
                assert list(hom_scan(x, y, top)) == [
                    (n, d) for n, d in full if n <= top]


def test_a_scan_above_top_resolves_nothing(kron, monkeypatch):
    # Hom(x, y[n]) vanishes for n > top when y's least degree less x's
    # top degree exceeds top: the scan returns before it resolves x
    x = as_cx(simple(kron, 1))
    y = shift(x, -2)
    calls = counting_calls(monkeypatch, derived, "_resolve")
    assert list(hom_scan(x, y, -1)) == []
    assert calls == []
    assert list(hom_scan(x, y)) == [(2, 1)]
    assert calls


def test_a_scan_against_zero_yields_nothing(kron, monkeypatch):
    zero, p2 = zero_cx(kron), projective(kron, 2)
    calls = counting_calls(monkeypatch, derived, "_resolve")
    for x, y in ((zero, p2), (p2, zero), (zero, zero)):
        for top in (None, -1, 0, 5):
            assert list(hom_scan(x, y, top)) == []
    assert calls == []


def test_a_shift_reads_the_hom_complex_of_its_base(kron):
    # Hom(r[a], y[b][n]) is Hom(r, y[n + b - a]), and the resolution of
    # a shifted module is the shift of its resolution
    x, y = as_cx(simple(kron, 2)), _two_term(kron)
    r = resolve(x).source
    h = derived.hom(r, y)
    for a in (-3, -1, 1, 2):
        assert derived.hom(r, shift(y, a)) is h
        for n in range(-3, 4):
            assert derived_hom(x, shift(y, a), n) == derived_hom(x, y, n + a)
    assert derived.hom(r, shift(shift(y, 2), -2)) is h
    for a in range(-2, 3):
        assert resolve(shift(x, a)).source is shift(r, a)
        for b in range(-2, 3):
            assert derived.hom(shift(r, a), shift(y, b)) is h


def _support(x, y) -> list[int]:
    """The shifts n where Hom(x, y[n]) has nonzero cochains."""
    h, c = derived._at(resolve(x).source, as_cx(y))
    return [m - c for m in h.support]


@pytest.mark.parametrize("name", BUNDLED)
def test_hom_of_shifts_is_the_hom_at_the_moved_degree(name):
    # Hom(x[a], y[b][n]) = Hom(x, y[n + b - a]), and the support moves
    # with the degree, on every simple and projective
    alg = load_algebra(str(corpus_path(name)))
    n = alg.vertex_count
    objs = [as_cx(simple(alg, i)) for i in range(1, n + 1)]
    objs += [as_cx(projective(alg, i)) for i in range(1, n + 1)]
    for x in objs:
        for y in objs:
            scan = _scan_range(x, y)
            degs = range(scan.start - 1, scan.stop + 1)
            dims = [derived_hom(x, y, m) for m in degs]
            support = _support(x, y)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    sx, sy = shift(x, a), shift(y, b)
                    assert _support(sx, sy) == [m - b + a for m in support]
                    assert [derived_hom(sx, sy, m - b + a)
                            for m in degs] == dims


@pytest.mark.parametrize("name", ["kronecker", "A5-rad2"])
def test_a_scan_of_a_shift_builds_no_differential(name, tmp_path,
                                                  monkeypatch):
    # a scan of x against y, then scans of x[a] against y[b]: the later
    # scans read the differentials and forward passes the first built
    objs = _objects(load_algebra(_algebra_path(name, tmp_path)))
    systems = counting_calls(monkeypatch, derived.HomCx, "_system")
    runs = counting_calls(monkeypatch, linalg, "_echelon")
    first = [(x, y, list(hom_scan(x, y))) for x in objs for y in objs]
    built = len(systems), len(runs)
    assert built[0]
    for x, y, homs in first:
        for a, b in ((1, 0), (-2, 1), (3, -1)):
            assert list(hom_scan(shift(x, a), shift(y, b))) == [
                (n - b + a, d) for n, d in homs]
    assert (len(systems), len(runs)) == built
    pairs = [(id(h), deg) for h, deg, _ in systems]  # calls keeps them alive
    assert len(set(pairs)) == len(pairs)


def test_a_shifted_source_picks_the_basis_of_its_base(kron, a3rel):
    # Hom(x[a], y[n + a]) is Hom(x, y[n]): its own space (classes are
    # anchored by identity) on the same layout, with the same picked
    # basis, and its classes compose to the same coordinates
    for alg in (kron, a3rel):
        objs = _objects(alg)
        for x in objs:
            for y in objs:
                for n, _ in hom_scan(x, y):
                    sp = dhom_space(x, y, n)
                    for a in (-1, 2):
                        sa = dhom_space(shift(x, a), y, n + a)
                        assert sa is not sp and sa.layout is sp.layout
                        assert sa.picked == sp.picked
                        for z in objs:
                            for m, _ in hom_scan(y, z):
                                basis = dhom_space(y, z, m).basis()
                                c2 = sum(basis[1:], basis[0])
                                for c1, c1a in zip(sp.basis(), sa.basis()):
                                    assert (compose_classes(c2, c1a).coords
                                            == compose_classes(c2, c1).coords)


def test_the_remark_space_reads_the_space_of_its_base():
    # remark-counterexamples reads Hom(P1[2], P2[2]) on the Kronecker
    # quiver, which is Hom(P1, P2)
    alg = load_algebra(str(corpus_path("kronecker")))
    p1, p2 = as_cx(projective(alg, 1)), as_cx(projective(alg, 2))
    sp, base = dhom_space(shift(p1, 2), p2, 2), dhom_space(p1, p2, 0)
    assert sp.dim == base.dim == 2
    assert sp.layout is base.layout and sp.picked == base.picked


def test_extension_class_on_a_shifted_resolution(a3rel):
    # x = c[1] with c = P_2 in degree 1 is tagged, so x is its own
    # resolution, a shift: the class of the identity sequence reads the
    # generators of degree 0 of x, those of degree 1 of c
    p = projective(a3rel, 2)
    c = Cx(a3rel, {1: p}, {})
    x, y = shift(c, 1), as_cx(p)
    assert resolve(x).source is x
    cls = dhom_space(x, y, 0).extension_class((identity_map(p),))
    assert cls.coords == dhom_space(y, y, 0).extension_class(
        (identity_map(p),)).coords != (0,)


RETIRED = {"layout", "system", "echelon", "support"}


def test_no_memo_holds_a_retired_hom_complex_kind(monkeypatch):
    # the Hom complex lives in one ("hom", y) entry: no memo written by a
    # job, nor any memo alive after it, has a key of the four kinds it
    # replaced
    keys = []
    for mod in (algebra, reps, complexes, derived, glue, yoneda, bondal):
        if hasattr(mod, "memoised"):
            def recording(obj, key, build, real=mod.memoised):
                keys.append(key)
                return real(obj, key, build)
            monkeypatch.setattr(mod, "memoised", recording)
    gc.collect()
    gc.disable()
    try:
        for command in ("ext-table", "check-exceptional", "glue-hearts",
                        "yoneda-oracle", "bondal-check"):
            run(JobSpec(command=command,
                        algebra_path=str(corpus_path("a3rel")),
                        output="json"))
        alive = [o.__dict__["memo"] for o in gc.get_objects()
                 if isinstance(getattr(o, "__dict__", None), dict)
                 and isinstance(o.__dict__.get("memo"), dict)]
    finally:
        gc.enable()
    keys += [k for memo in alive for k in memo]
    heads = {k[0] if isinstance(k, tuple) else k for k in keys}
    assert "hom" in heads and not heads & RETIRED


def test_a_space_built_after_its_dimension_builds_no_system(kron,
                                                            monkeypatch):
    # Ext^1(S2, P2) on the Kronecker quiver: delta^1 and delta^0 both have
    # columns and delta^0 is nonzero, so both ranks are read first
    x, y = as_cx(simple(kron, 2)), as_cx(projective(kron, 2))
    r = resolve(x).source
    assert {0, 1} <= set(derived.hom(r, y).support)
    assert derived_hom(x, y, 1) == 3
    systems = counting_calls(monkeypatch, derived.HomCx, "_system")
    runs = counting_calls(monkeypatch, linalg, "_echelon")
    sp = dhom_space(x, y, 1)
    assert sp.dim == 3 and derived_hom(x, y, 1) == 3
    assert systems == []
    # delta^1's forward pass is the kept one: the only elimination picks
    # the cycles independent modulo the boundaries
    assert not sp.boundaries.is_zero() and len(runs) == 1


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_class_of_a_representative_returns_its_coordinates(kron, a3rel,
                                                           commsquare, data):
    objs = _objects(data.draw(st.sampled_from([kron, a3rel, commsquare])))
    x, y = data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs))
    sp = _nonzero_space(data, x, y)
    c = tuple(Fraction(data.draw(st.integers(-3, 3)),
                       data.draw(st.integers(1, 3))) for _ in range(sp.dim))
    assert sp.class_of(sp.representative(DHomClass(sp, c))).coords == c


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_factored_coordinates_match_solve(kron, a3rel, commsquare, data):
    # a random cycle: picked columns plus boundaries, both with random
    # coefficients; the factored coordinates are solve's picked part
    objs = _objects(data.draw(st.sampled_from([kron, a3rel, commsquare])))
    x, y = data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs))
    sp = _nonzero_space(data, x, y)
    nb = sp.boundaries.cols
    coef = RatMatrix.column([Fraction(data.draw(st.integers(-3, 3)),
                                      data.draw(st.integers(1, 3)))
                             for _ in range(nb + sp.dim)])
    both = hstack([sp.boundaries, sp.picked])
    vec = both @ coef
    want = solve(both, vec).col(0)[nb:]
    assert sp.class_of_vector(vec).coords == want
    assert sp.class_of_vector(vec).coords == want  # from the kept factors


def _non_cycle(sp: DHomSpace) -> RatMatrix | None:
    """A unit column of the layout outside the cycles, if there is one."""
    h, m = derived._at(sp.r, sp.y, sp.n)
    cycles = linalg.kernel_basis(h.echelon(m))
    eye = RatMatrix.identity(sp.layout.total)
    for i in range(sp.layout.total):
        if solve(cycles, eye.col_matrix(i)) is None:
            return eye.col_matrix(i)
    return None


@pytest.mark.parametrize("name", BUNDLED)
def test_a_non_cycle_still_raises(name):
    alg = load_algebra(str(corpus_path(name)))
    checked = 0
    for x in _objects(alg):
        for y in _objects(alg):
            for n in _scan_range(x, y):
                sp = dhom_space(x, y, n)
                bad = _non_cycle(sp)
                if bad is None:
                    continue
                # before and after the factorization is built
                with pytest.raises(LiftError, match="not a cycle"):
                    sp.class_of_vector(bad)
                assert sp.class_of_vector(sp.picked @ RatMatrix.column(
                    [1] * sp.dim)).coords == (1,) * sp.dim
                with pytest.raises(LiftError, match="not a cycle"):
                    sp.class_of_vector(bad + sp.picked @ RatMatrix.column(
                        [1] * sp.dim))
                checked += 1
    assert checked


def test_second_class_of_vector_eliminates_nothing(a3rel, monkeypatch):
    sp = dhom_space(simple(a3rel, 3), simple(a3rel, 1), 2)
    assert sp.dim == 1
    runs = []
    echelon = linalg._echelon

    def counting(*args):
        runs.append(args)
        return echelon(*args)

    monkeypatch.setattr(linalg, "_echelon", counting)
    vec = sp.picked.scale(3)
    assert sp.class_of_vector(vec).coords == (3,)
    assert len(runs) == 1
    runs.clear()
    assert sp.class_of_vector(vec + vec).coords == (6,)
    assert sp.class_of(sp.representative(sp.basis()[0])).coords == (1,)
    assert runs == []


def _objects(alg):
    """Simples and projectives as complexes, and a two-term complex of
    projectives at three shifts."""
    n = alg.vertex_count
    two = _two_term(alg)
    objs = [as_cx(simple(alg, i)) for i in range(1, n + 1)]
    objs += [as_cx(projective(alg, i)) for i in range(1, n + 1)]
    return objs + [two, shift(two, 1), shift(two, -1)]


def _nonzero_space(data, x, y) -> DHomSpace:
    """Hom(x, y[n]) at a drawn shift n where it is nonzero."""
    shifts = [k for k in _scan_range(x, y) if derived_hom(x, y, k)]
    assume(shifts)
    return dhom_space(x, y, data.draw(st.sampled_from(shifts)))


def _random_class(data, sp: DHomSpace) -> DHomClass:
    return DHomClass(sp, tuple(
        Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
        for _ in range(sp.dim)))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_compose_classes_matches_the_map_level_route(kron, a3rel,
                                                     commsquare, data):
    objs = _objects(data.draw(st.sampled_from([kron, a3rel, commsquare])))
    x, y, z = (data.draw(st.sampled_from(objs)) for _ in range(3))
    sp1, sp2 = _nonzero_space(data, x, y), _nonzero_space(data, y, z)
    c1, c2 = _random_class(data, sp1), _random_class(data, sp2)
    # representatives as chain maps, the lift as a chain map, the
    # composite as a chain map, and its class read back
    n = sp1.n
    lifted = lift_map(sp1.r, sp1.representative(c1), shift_map(sp2.eps, n))
    post = shift_map(sp2.representative(c2), n)
    target = dhom_space(x, z, n + sp2.n)
    assert compose_classes(c2, c1) == target.class_of(ccompose(post, lifted))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roof_class_matches_the_map_level_route(kron, a3rel, commsquare,
                                                data):
    alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
    n = alg.vertex_count
    mods = [projective(alg, i) for i in range(1, n + 1)]
    mods += [simple(alg, i) for i in range(1, n + 1)]
    q = data.draw(st.one_of(st.sampled_from(mods), random_module(alg)))
    # K -> P -> Q along the projective cover does not split unless Q is
    # projective; scaling the inclusion scales the class
    _, pi, _ = projective_cover(q)
    k, incl = kernel(pi)
    incl = incl.scale(data.draw(st.sampled_from([1, -1, 2, Fraction(1, 3)])))
    tri, comparison = ses_to_triangle(incl, pi)
    sp = dhom_space(q, k, 1)
    post = tri.cone_of_f.projection(0)
    lifted = lift_map(sp.r, sp.eps, comparison)
    assert (sp.roof_class(comparison, post)
            == sp.class_of(ccompose(post, lifted)))


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


def test_compose_classes_builds_at_most_one_module_map(a3rel, monkeypatch):
    s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
    e32 = dhom_space(s3, s2, 1).basis()[0]
    e21 = dhom_space(s2, s1, 1).basis()[0]
    # a first call builds the spaces and the shifted resolution of S2, and
    # keeps the composite in the memo of S3
    first = compose_classes(e21, e32)
    built, lifts = [], []
    validate = RepMap.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(RepMap, "__post_init__", counting)
    monkeypatch.setattr(derived, "solve_lift", lambda *a: lifts.append(a))
    # equal classes of the same spaces hit: a class compares by the
    # identity of its space and by its coordinates
    again = DHomClass(e21.space, e21.coords), DHomClass(e32.space, e32.coords)
    assert compose_classes(e21, e32) is first
    assert compose_classes(*again) is first
    assert built == [] and lifts == []


def test_compose_classes_builds_no_representative(a3rel, monkeypatch):
    # Ext^1(S2, S1) after Ext^1(S3, S2): the shift by 1 only relabels
    # degrees, so no shifted augmentation or representative is built
    s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
    e32 = dhom_space(s3, s2, 1).basis()[0]
    e21 = dhom_space(s2, s1, 1).basis()[0]
    target = dhom_space(s3, s1, 2)
    reps, chain_maps, module_maps = [], [], []
    validate_cx, validate_rep = CxMap.__post_init__, RepMap.__post_init__

    def counting_cx(self):
        chain_maps.append(self)
        validate_cx(self)

    def counting_rep(self):
        module_maps.append(self)
        validate_rep(self)

    monkeypatch.setattr(DHomSpace, "representative",
                        lambda *a: reps.append(a))
    monkeypatch.setattr(CxMap, "__post_init__", counting_cx)
    first = compose_classes(e21, e32)
    assert first.space is target and not first.is_zero()
    assert reps == [] and chain_maps == []
    # a second build on the same spaces, with new coordinates, builds
    # no module map either
    monkeypatch.setattr(RepMap, "__post_init__", counting_rep)
    assert compose_classes(e21.scale(2), e32) == first.scale(2)
    assert reps == [] and chain_maps == [] and module_maps == []


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_composites_of_copies_stay_in_the_copies_spaces(kron, a3rel,
                                                        commsquare, data):
    alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
    objs, copies = _objects(alg), _objects(alg)
    i, j, k = (data.draw(st.integers(0, len(objs) - 1)) for _ in range(3))
    sp1 = _nonzero_space(data, objs[i], objs[j])
    sp2 = _nonzero_space(data, objs[j], objs[k])
    c1, c2 = _random_class(data, sp1), _random_class(data, sp2)
    first = compose_classes(c2, c1)
    d1 = DHomClass(dhom_space(copies[i], copies[j], sp1.n), c1.coords)
    d2 = DHomClass(dhom_space(copies[j], copies[k], sp2.n), c2.coords)
    again = compose_classes(d2, d1)
    assert again.coords == first.coords
    assert first.space is dhom_space(objs[i], objs[k], sp1.n + sp2.n)
    assert again.space is dhom_space(copies[i], copies[k], sp1.n + sp2.n)
    assert again.space is not first.space


def test_representative_builds_no_component_into_a_zero_term(a3rel):
    # Hom(S3, S2[1]): S2[1] has its one term in degree -1
    sp = dhom_space(simple(a3rel, 3), simple(a3rel, 2), 1)
    u = sp.representative(sp.basis()[0])
    assert list(u.components) == [-1]


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
    eps = resolve(x)
    assert eps.source.is_tagged()
    assert is_acyclic(cone(eps).cx)
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
    eps = resolve(s2)
    target = as_cx(s2)
    # lift the augmentation through itself: u with eps u = eps
    u = lift_map(eps.source, eps, eps)
    assert u.comp(0).block(2).rows == 1


def test_solve_lift_up_to_homotopy(kron):
    # g: P2 -> (P2 --id--> P2) is null-homotopic but has no strict lift
    # through the zero map out of 0; up to homotopy the lift is u = 0
    p2 = projective(kron, 2)
    p = as_cx(p2)
    z = Cx(kron, {-1: p2, 0: p2}, {-1: identity_map(p2)})
    g = CxMap(p, z, {0: identity_map(p2)})
    r = CxMap(Cx(kron, {}, {}), z, {})
    from heartglue.derived import LiftError
    with pytest.raises(LiftError):
        lift_map(p, g, r, strict=True)
    assert lift_map(p, g, r).is_zero()


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
        lift_map(as_cx(p2), idp2, r)


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
    eps = resolve(m)
    assert eps.source.is_tagged()
    assert is_acyclic(cone(eps).cx)


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
    eps = resolve(x)
    assert eps.source.is_tagged()
    assert is_acyclic(cone(eps).cx)
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


def test_minimal_model_keeps_a_cover_resolution(kron):
    # covers are minimal already, so nothing cancels
    s = simple(kron, 2)
    small, q = minimal_model(s)
    assert dims_table(small) == dims_table(resolve(s).source)
    assert is_acyclic(cone(q).cx)
    assert cohomology_dims(small) == {0: (0, 1)}


def assert_syzygy_module_resolution(m):
    """resolve(m) is the resolution the syzygy modules build: the same
    generators in every degree, differential blocks and augmentation."""
    eps = resolve(m)
    terms, diffs, aug = syzygy_module_resolution(m)
    r = eps.source
    assert {k: t.proj_gens for k, t in r.terms.items()} == {
        k: t.proj_gens for k, t in terms.items()}
    assert {k: d.blocks for k, d in r.diffs.items()} == {
        k: d.blocks for k, d in diffs.items()}
    assert {k: f.blocks for k, f in eps.components.items()} == (
        {0: aug.blocks} if aug else {})


@pytest.mark.parametrize("name", BUNDLED + tuple(SCALED))
def test_resolution_is_the_syzygy_module_resolution(name):
    alg = (algebra_from_dict(SCALED[name]) if name in SCALED
           else load_algebra(str(corpus_path(name))))
    for v in range(1, alg.vertex_count + 1):
        assert_syzygy_module_resolution(simple(alg, v))
        assert_syzygy_module_resolution(projective(alg, v))


@pytest.mark.parametrize("alg", [
    build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)])),
    build_algebra(make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4),
                                  ("d", 3, 4)]),
                  [Relation.of([(1, ("a", "c")), (-1, ("b", "d"))])])],
    ids=["kronecker", "commsquare"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_resolution_and_minimal_model_on_random_modules(alg, data):
    # covers are minimal, so the minimal model cancels nothing
    m = data.draw(random_module(alg))
    assert_syzygy_module_resolution(m)
    assert minimal_model(m)[0] is resolve(m).source


@pytest.mark.parametrize("where", ["module", "syzygy"])
def test_resolve_certifies_each_cover_surjects(kron, monkeypatch, where):
    # a cover one generator short fails the rank read off its kernel's
    # forward pass, on the module's own cover and on a syzygy's
    real = reps.top_generators

    def short(m, span=None):
        gens = real(m, span)
        return gens[:-1] if (span is None) == (where == "module") else gens
    monkeypatch.setattr(reps, "top_generators", short)
    with pytest.raises(RepError, match="failed to surject"):
        resolve(simple(kron, 2))


def test_minimal_model_kills_an_identity_cone(kron):
    one = projective(kron, 1)
    other = projective(kron, 1)
    f = RepMap(one, other, tuple(RatMatrix.identity(d) for d in one.dims))
    x = Cx(kron, {-1: one, 0: other}, {-1: f})
    small, q = minimal_model(x)
    assert small.total_dim == 0
    assert is_acyclic(cone(q).cx)


def test_minimal_model_strips_a_padded_summand(kron):
    base = resolve(simple(kron, 2)).source
    one = projective(kron, 1)
    other = projective(kron, 1)
    f = RepMap(one, other, tuple(RatMatrix.identity(d) for d in one.dims))
    pad = Cx(kron, {-1: one, 0: other}, {-1: f})
    x = cx_direct_sum([base, pad]).cx
    small, q = minimal_model(x)
    assert dims_table(small) == dims_table(base)
    assert cohomology_dims(small) == {0: (0, 1)}
    assert is_acyclic(cone(q).cx)


def test_minimal_model_of_a_shifted_simple_is_its_shifted_resolution(a3rel):
    x = shift(as_cx(simple(a3rel, 3)), 2)
    small, q = minimal_model(x)
    assert dims_table(small) == {-4: (1, 0, 0), -3: (1, 1, 0), -2: (0, 1, 1)}
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
    assert small.total_dim <= resolve(x).source.total_dim
    # reduced output has no cancellable component left
    again, _ = minimal_model(small)
    assert dims_table(again) == dims_table(small)


def _random_automorphism(data, t):
    """A random automorphism of the tagged sum t and its inverse: each
    copy generator goes to itself plus anything in the earlier copies."""
    entries = st.integers(-2, 2)
    images = []
    for c, v in enumerate(t.proj_gens):
        images.append(RatMatrix.column([
            data.draw(entries) if c2 < c else int(c2 == c and p.is_trivial())
            for c2, p in tagged_basis(t, v)]))
    g = map_from_generators(t, t, images)
    inv = RepMap(t, t, tuple(solve(b, RatMatrix.identity(b.rows))
                             for b in g.blocks))
    return g, inv


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_minimal_model_on_random_tagged_complexes(kron, a3rel, commsquare,
                                                  data):
    alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
    pieces = []
    for _ in range(data.draw(st.integers(1, 3))):
        k = data.draw(st.integers(-1, 1))
        if data.draw(st.booleans()):
            # a cone of an identity: contractible, all units
            p = random_sum(data, alg, min_size=1)
            q = projective_sum(alg, p.proj_gens)
            d = RepMap(p, q, identity_map(p).blocks)
        else:
            p, q = random_sum(data, alg), random_sum(data, alg)
            d = random_map(data, p, q)
        pieces.append(Cx(alg, {k: p, k + 1: q}, {k: d}))
    s = cx_direct_sum(pieces).cx
    # mix the pieces by an automorphism of every term
    autos = {k: _random_automorphism(data, t) for k, t in s.terms.items()}
    x = Cx(alg, s.terms, {
        k: rcompose(autos[k + 1][0], rcompose(d, autos[k][1]))
        for k, d in s.diffs.items()})
    small, q = minimal_model(x)
    assert q.source is small and q.target is x
    assert is_acyclic(cone(q).cx)
    assert is_minimal(small)
    assert small.total_dim <= x.total_dim
    again, _ = minimal_model(small)
    assert dims_table(again) == dims_table(small)


def test_memo_entries_are_freed_with_their_complex(kron):
    # Hom(S2[1], S1[2]) = Ext^1(S2, S1) is 2-dimensional
    x = shift(as_cx(simple(kron, 2)), 1)
    sp = dhom_space(x, simple(kron, 1), 2)
    assert sp.dim == 2
    dead_x, dead_sp = weakref.ref(x), weakref.ref(sp)
    del x, sp
    gc.collect()
    assert dead_x() is None
    assert dead_sp() is None


def test_shifts_in_the_shift_memo_are_freed_with_their_base(kron):
    base = as_cx(simple(kron, 2))
    x = shift(shift(base, 3), -2)
    assert x is shift(base, 1)
    y = shift(as_cx(simple(kron, 1)), -2)
    sp = dhom_space(x, y, 4)
    assert sp.dim == 2 and sp.t is shift(as_cx(y), 4)
    dead = [weakref.ref(o) for o in (base, x, y, sp)]
    del base, x, y, sp
    gc.collect()
    assert [r() for r in dead] == [None] * 4


def test_equal_complexes_built_apart_get_their_own_spaces(kron):
    # one complex shifted twice is one object, so the equal complexes
    # are built from modules built apart
    s1, s2 = simple(kron, 1), simple(kron, 2)
    x1 = shift(as_cx(simple(kron, 2)), 1)
    x2 = shift(as_cx(simple(kron, 2)), 1)
    sp1, sp2 = dhom_space(x1, s1, 2), dhom_space(x2, s1, 2)
    assert sp1 is not sp2
    assert sp1.x is x1 and sp2.x is x2
    assert sp1.dim == sp2.dim == 2
    # the target side is keyed by identity as well
    y1 = shift(as_cx(simple(kron, 1)), -1)
    y2 = shift(as_cx(simple(kron, 1)), -1)
    assert dhom_space(s2, y1, 1) is not dhom_space(s2, y2, 1)
    # a representative of one space is foreign to the other
    with pytest.raises(LiftError, match="not anchored"):
        sp2.class_of(sp1.representative(sp1.basis()[0]))


def test_hom_space_is_reused_while_its_objects_live(kron):
    s1, s2 = simple(kron, 1), simple(kron, 2)
    x = shift(as_cx(s2), 1)
    assert dhom_space(x, s1, 2) is dhom_space(x, s1, 2)
    # a module and its degree-0 complex are one object to the memo
    assert dhom_space(s2, s1, 1) is dhom_space(as_cx(s2), as_cx(s1), 1)
    assert resolve(s2) is resolve(as_cx(s2))
