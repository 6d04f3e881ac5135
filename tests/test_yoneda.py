"""Extension calculus: round trips, product and sum laws, factorization."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import fraction_oracle as ref
from conftest import (chopped_class, class_of_module_map, cokernel_pushout,
                      random_map, random_sum, split_ext)
from heartglue import derived
from heartglue.algebra import build_algebra, make_quiver
from heartglue.cli import corpus_path
from heartglue.complexes import Cx, CxMap, shift
from heartglue.derived import (DHomClass, LiftError, as_cx, compose_classes,
                               dhom_space)
from heartglue.jsonio import load_algebra
from heartglue.linalg import RatMatrix
from heartglue import yoneda
from heartglue.reps import (
    RepError,
    RepMap,
    cokernel,
    identity_map,
    kernel,
    projective,
    projective_cover,
    simple,
    zero_map,
)
from heartglue.yoneda import (
    YExt,
    YExtError,
    _pushout,
    _route_sign,
    _splitting,
    baer_sum,
    f_map,
    f_map_via_quasi_iso,
    factor_image_dim,
    factors_through,
    pullback_action,
    pushout_action,
    splice_from_class,
    yoneda_product,
)


@lru_cache(maxsize=None)
def _corpus(name):
    return load_algebra(str(corpus_path(name)))


def spaces_objects(alg, simples_only=False):
    out = [simple(alg, i) for i in range(1, alg.vertex_count + 1)]
    if not simples_only:
        out += [projective(alg, i) for i in range(1, alg.vertex_count + 1)]
    return out


class TestYExtValidation:
    def test_projective_cover_sequence(self, a2):
        s2 = simple(a2, 2)
        p2, pi, _ = projective_cover(s2)
        k, incl = kernel(pi)
        ext = YExt(k, s2, (p2,), (incl, pi))
        assert ext.n == 1
        cls = f_map(ext)
        assert cls.space.dim == 1 and not cls.is_zero()
        assert f_map_via_quasi_iso(ext).coords == cls.coords

    def test_rejects_inexact_sequence(self, a2):
        s2 = simple(a2, 2)
        p2, pi, _ = projective_cover(s2)
        k, incl = kernel(pi)
        with pytest.raises(YExtError):
            YExt(k, s2, (p2,), (incl, zero_map(p2, s2)))
        with pytest.raises(YExtError):
            YExt(k, s2, (p2,), (zero_map(k, p2), pi))

    def test_rejects_wrong_arity_and_endpoints(self, a2):
        s2 = simple(a2, 2)
        p2, pi, _ = projective_cover(s2)
        k, incl = kernel(pi)
        with pytest.raises(YExtError):
            YExt(k, s2, (), (incl,))
        with pytest.raises(YExtError):
            YExt(s2, s2, (p2,), (incl, pi))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_accepts_exactly_the_exact_sequences(self, kron, a3rel,
                                                  commsquare, data):
        # 0 -> K -> P -> Q -> C -> 0 around a random map g is exact; with
        # another middle map YExt agrees with the rank rule in Fractions
        alg = data.draw(st.sampled_from([kron, a3rel, commsquare]))
        p, q = random_sum(data, alg, 1), random_sum(data, alg, 1)
        g = random_map(data, p, q)
        k, incl = kernel(g)
        c, proj = cokernel(g)
        YExt(k, c, (p, q), (incl, g, proj))
        kind = data.draw(st.sampled_from(["zero", "multiple", "random"]))
        h = (zero_map(p, q) if kind == "zero"
             else g.scale(data.draw(st.integers(1, 3))) if kind == "multiple"
             else random_map(data, p, q))
        maps = (incl, h, proj)
        try:
            YExt(k, c, (p, q), maps)
        except YExtError:
            assert not _exact_by_ranks(maps)
        else:
            assert _exact_by_ranks(maps)


def _exact_by_ranks(maps) -> bool:
    """Whether 0 -> maps[0].source -> ... -> maps[-1].target -> 0 is exact,
    in Fraction arithmetic: consecutive maps compose to zero, and at every
    vertex the ranks into and out of each term add up to its dimension."""
    terms = (maps[0].source,) + tuple(f.target for f in maps)
    for v in range(1, terms[0].algebra.vertex_count + 1):
        blocks = [ref.RatMatrix([b.row(i) for i in range(b.rows)], cols=b.cols)
                  for b in (f.block(v) for f in maps)]
        if any(not (g @ f).is_zero() for f, g in zip(blocks, blocks[1:])):
            return False
        ranks = [0] + [ref.rank(b) for b in blocks] + [0]
        if any(ranks[i] + ranks[i + 1] != t.dim_at(v)
               for i, t in enumerate(terms)):
            return False
    return True


class TestRoundTrip:
    def test_split_extensions_have_zero_class(self, a2, a3rel):
        for alg, pairs in ((a2, [(2, 1, 1)]), (a3rel, [(3, 1, 2), (3, 1, 3)])):
            for ai, bi, n in pairs:
                a, b = simple(alg, ai), simple(alg, bi)
                ext = split_ext(a, b, n)
                assert f_map(ext).is_zero()
                assert f_map_via_quasi_iso(ext).is_zero()

    @pytest.mark.parametrize("fixture,simples_only,degrees", [
        ("a2", False, (1, 2)),
        ("kron", False, (1, 2)),
        ("a3rel", True, (1, 2, 3)),
    ])
    def test_roundtrip_on_basis_classes(self, request, fixture, simples_only,
                                        degrees):
        alg = request.getfixturevalue(fixture)
        objs = spaces_objects(alg, simples_only)
        for a in objs:
            for b in objs:
                for n in degrees:
                    sp = dhom_space(a, b, n)
                    for c in sp.basis():
                        x = splice_from_class(c, a, b, n)
                        assert f_map(x).coords == c.coords
                        assert f_map_via_quasi_iso(x).coords == c.coords

    def test_roundtrip_degree_three(self, a4rel):
        s1, s4 = simple(a4rel, 1), simple(a4rel, 4)
        sp = dhom_space(s4, s1, 3)
        assert sp.dim == 1
        c = sp.basis()[0]
        x = splice_from_class(c, s4, s1, 3)
        assert x.n == 3
        assert f_map(x).coords == c.coords
        assert f_map_via_quasi_iso(x).coords == c.coords

    def test_splice_of_class_recovers_its_witness_class(self, a3rel):
        s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
        c = dhom_space(s3, s1, 2).basis()[0]
        x = splice_from_class(c, s3, s1, 2)
        again = splice_from_class(f_map(x), s3, s1, 2)
        assert f_map(x) == f_map(again)

    @given(p=st.integers(-4, 4), q=st.integers(-4, 4))
    @settings(max_examples=20, deadline=None)
    def test_random_coordinates_roundtrip_kronecker(self, kron, p, q):
        # Hom(S2, S1[1]) over the Kronecker quiver is two-dimensional
        s1, s2 = simple(kron, 1), simple(kron, 2)
        sp = dhom_space(s2, s1, 1)
        assert sp.dim == 2
        from heartglue.derived import DHomClass
        c = DHomClass(sp, (Fraction(p), Fraction(q)))
        x = splice_from_class(c, s2, s1, 1)
        assert f_map(x).coords == c.coords
        assert f_map_via_quasi_iso(x).coords == c.coords


class TestProduct:
    def test_product_is_composition_with_relation(self, a3rel):
        s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
        c21 = dhom_space(s2, s1, 1).basis()[0]
        c32 = dhom_space(s3, s2, 1).basis()[0]
        x = splice_from_class(c21, s2, s1, 1)
        y = splice_from_class(c32, s3, s2, 1)
        prod = yoneda_product(y, x)
        want = compose_classes(c21, c32)
        assert not want.is_zero()
        assert f_map(prod).coords == want.coords
        assert f_map_via_quasi_iso(prod).coords == want.coords

    def test_same_product_without_relation_is_zero(self, a3):
        s1, s2, s3 = (simple(a3, i) for i in (1, 2, 3))
        c21 = dhom_space(s2, s1, 1).basis()[0]
        c32 = dhom_space(s3, s2, 1).basis()[0]
        x = splice_from_class(c21, s2, s1, 1)
        y = splice_from_class(c32, s3, s2, 1)
        prod = yoneda_product(y, x)
        assert dhom_space(s3, s1, 2).dim == 0
        assert f_map(prod).is_zero()

    def test_product_with_split_factor_is_zero(self, a3rel):
        s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
        c32 = dhom_space(s3, s2, 1).basis()[0]
        y = splice_from_class(c32, s3, s2, 1)
        prod = yoneda_product(y, split_ext(s2, s1, 1))
        assert f_map(prod).is_zero()

    def test_triple_products_associate(self, a4rel):
        s = {i: simple(a4rel, i) for i in (1, 2, 3, 4)}
        exts = {}
        for hi, lo in ((2, 1), (3, 2), (4, 3)):
            c = dhom_space(s[hi], s[lo], 1).basis()[0]
            exts[(hi, lo)] = splice_from_class(c, s[hi], s[lo], 1)
        left_first = yoneda_product(yoneda_product(exts[(4, 3)], exts[(3, 2)]),
                                    exts[(2, 1)])
        right_first = yoneda_product(exts[(4, 3)],
                                     yoneda_product(exts[(3, 2)], exts[(2, 1)]))
        got = f_map(left_first)
        assert got.coords == f_map(right_first).coords
        chain = compose_classes(
            f_map(exts[(2, 1)]),
            compose_classes(f_map(exts[(3, 2)]), f_map(exts[(4, 3)])))
        assert got.coords == chain.coords
        assert not got.is_zero()

    def test_splice_point_mismatch_raises(self, a3rel):
        s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
        x = split_ext(s2, s1, 1)
        with pytest.raises(YExtError):
            yoneda_product(x, x)


class TestFunctoriality:
    def test_pushout_identity_and_scalar(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        same = pushout_action(identity_map(s1), x)
        assert f_map(same).coords == c.coords
        tripled = pushout_action(identity_map(s1).scale(3), x)
        assert f_map(tripled).coords == c.scale(3).coords

    def test_pushout_zero_on_split_stays_split(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        ext = split_ext(s2, s1, 1)
        pushed = pushout_action(zero_map(s1, s1), ext)
        assert f_map(pushed).is_zero()

    def test_pushout_naturality_general_map(self, a3rel):
        # push the generator of Hom(S2, S1[1]) forward along S1 -> P2
        s1, s2 = simple(a3rel, 1), simple(a3rel, 2)
        p2 = projective(a3rel, 2)
        g = RepMap(s1, p2, (RatMatrix.identity(1), RatMatrix.zeros(1, 0),
                            RatMatrix.zeros(0, 0)))
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        pushed = pushout_action(g, x)
        want = compose_classes(class_of_module_map(g), c)
        assert f_map(pushed).coords == want.coords

    def test_pullback_identity_and_scalar(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        same = pullback_action(x, identity_map(s2))
        assert f_map(same).coords == c.coords
        scaled = pullback_action(x, identity_map(s2).scale(-2))
        assert f_map(scaled).coords == c.scale(-2).coords

    def test_pullback_naturality_along_cover(self, a3rel):
        # pulling back along a projective cover kills every class
        s2, s3 = simple(a3rel, 2), simple(a3rel, 3)
        c = dhom_space(s3, s2, 1).basis()[0]
        x = splice_from_class(c, s3, s2, 1)
        p3, pi, _ = projective_cover(s3)
        pulled = pullback_action(x, pi)
        want = compose_classes(c, class_of_module_map(pi))
        assert want.is_zero()
        assert f_map(pulled).coords == want.coords

    def test_endpoint_mismatch_raises(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        x = split_ext(s2, s1, 1)
        with pytest.raises(YExtError):
            pushout_action(identity_map(s2), x)
        with pytest.raises(YExtError):
            pullback_action(x, identity_map(s1))


class TestBaerSum:
    def test_sum_with_self_doubles(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        assert f_map(baer_sum(x, x)).coords == c.scale(2).coords

    def test_split_is_neutral(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        assert f_map(baer_sum(x, split_ext(s2, s1, 1))).coords == c.coords

    def test_scalar_inverse_gives_split(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        x = splice_from_class(c, s2, s1, 1)
        neg = pullback_action(x, identity_map(s2).scale(-1))
        assert f_map(baer_sum(x, neg)).is_zero()

    def test_degree_two_additivity(self, a3rel):
        s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
        c = dhom_space(s3, s1, 2).basis()[0]
        x = splice_from_class(c, s3, s1, 2)
        y = splice_from_class(c.scale(2), s3, s1, 2)
        assert f_map(baer_sum(x, y)).coords == c.scale(3).coords

    @given(p=st.integers(-3, 3), q=st.integers(-3, 3),
           r=st.integers(-3, 3), s=st.integers(-3, 3))
    @settings(max_examples=15, deadline=None)
    def test_additivity_on_two_dim_space(self, kron, p, q, r, s):
        s1, s2 = simple(kron, 1), simple(kron, 2)
        sp = dhom_space(s2, s1, 1)
        from heartglue.derived import DHomClass
        cx1 = DHomClass(sp, (Fraction(p), Fraction(q)))
        cx2 = DHomClass(sp, (Fraction(r), Fraction(s)))
        x = splice_from_class(cx1, s2, s1, 1)
        y = splice_from_class(cx2, s2, s1, 1)
        assert f_map(baer_sum(x, y)).coords == (cx1 + cx2).coords

    def test_mismatch_raises(self, a2, a3rel):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        x = split_ext(s2, s1, 1)
        with pytest.raises(YExtError):
            baer_sum(x, split_ext(s1, s2, 1))


class TestYClass:
    def test_equality_ignores_witness_shape(self, a3rel):
        s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
        c = dhom_space(s3, s1, 2).basis()[0]
        x = splice_from_class(c, s3, s1, 2)
        y = pushout_action(identity_map(s1), x)
        assert f_map(x) == f_map(y)
        assert hash(f_map(x)) == hash(f_map(y))
        z = splice_from_class(c.scale(2), s3, s1, 2)
        assert f_map(x) != f_map(z)


class TestFactorsThrough:
    def test_zero_class_always_factors(self, a3rel):
        s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
        sp = dhom_space(s3, s1, 2)
        assert factors_through(sp.zero(), [simple(a3rel, 2)])

    def test_square_class_factors_through_middle_simple(self, a3rel):
        s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
        c = dhom_space(s3, s1, 2).basis()[0]
        assert factors_through(c, [s2])

    def test_kronecker_heart_gap(self, kron):
        # no class of Hom(P1[2], P2[2]) factors through the heart
        # generated by P1[2] and P2
        p1 = projective(kron, 1)
        p2 = projective(kron, 2)
        top = shift(as_cx(p1), 2)
        sp = dhom_space(top, p2, 2)
        assert sp.dim == 2
        gens = [top, p2]
        for c in sp.basis():
            assert not factors_through(c, gens)
        assert factors_through(sp.zero(), gens)

    def test_low_degree_rejected(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        with pytest.raises(YExtError):
            factors_through(c, [s1])

    def test_factor_image_dim_measures_the_gap(self, kron):
        p1 = projective(kron, 1)
        p2 = projective(kron, 2)
        top = shift(as_cx(p1), 2)
        gens = [top, p2]
        assert dhom_space(top, p2, 2).dim == 2
        assert factor_image_dim(top, p2, 2, gens) == 0

    def test_factor_image_dim_full_when_middle_present(self, a3rel):
        s1, s2, s3 = (simple(a3rel, i) for i in (1, 2, 3))
        assert dhom_space(s3, s1, 2).dim == 1
        assert factor_image_dim(s3, s1, 2, [s2]) == 1


class TestSpliceErrors:
    def test_wrong_degree_and_endpoints(self, a2):
        s1, s2 = simple(a2, 1), simple(a2, 2)
        c = dhom_space(s2, s1, 1).basis()[0]
        with pytest.raises(YExtError):
            splice_from_class(c, s2, s1, 2)
        with pytest.raises(YExtError):
            splice_from_class(c, s1, s2, 1)
        zero_deg = dhom_space(s2, s2, 0).basis()[0]
        with pytest.raises(YExtError):
            splice_from_class(zero_deg, s2, s2, 0)


class TestExtensionClass:
    """f_map reads the class off one comparison lift of the augmentation."""

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_lift_chopped_and_roof_routes_agree(self, a3rel, a4rel,
                                                commsquare, kron, data):
        alg = data.draw(st.sampled_from([a3rel, a4rel, commsquare, kron]))
        n = data.draw(st.integers(1, 3))
        objs = spaces_objects(alg)
        pairs = [(a, b) for a in objs for b in objs
                 if dhom_space(a, b, n).dim] or [(objs[-1], objs[0])]
        a, b = data.draw(st.sampled_from(pairs))
        sp = dhom_space(a, b, n)
        coords = st.lists(st.integers(-2, 2).map(Fraction),
                          min_size=sp.dim, max_size=sp.dim).map(tuple)
        c1 = DHomClass(sp, data.draw(coords))
        c2 = DHomClass(sp, data.draw(coords))
        x, y = splice_from_class(c1, a, b, n), splice_from_class(c2, a, b, n)
        for ext, want in ((x, c1), (baer_sum(x, y), c1 + c2)):
            got = f_map(ext)
            assert got == want
            assert chopped_class(ext).coords == got.coords
            assert f_map_via_quasi_iso(ext).coords == got.coords

    @pytest.mark.parametrize("fixture, hi, lo, n", [
        ("a3rel", 2, 1, 1), ("a3rel", 3, 1, 2), ("a4rel", 4, 1, 3)])
    def test_second_call_builds_no_map_or_complex(self, request, monkeypatch,
                                                  fixture, hi, lo, n):
        alg = request.getfixturevalue(fixture)
        a, b = simple(alg, hi), simple(alg, lo)
        x = splice_from_class(dhom_space(a, b, n).basis()[0], a, b, n)
        # a first call builds the space and the resolution of a
        first = f_map(x)
        built = []
        for kind in (RepMap, Cx):
            def counting(self, validate=kind.__post_init__):
                built.append(type(self).__name__)
                validate(self)
            monkeypatch.setattr(kind, "__post_init__", counting)
        assert f_map(x) == first
        assert built == []

    def test_f_map_does_not_certify_again(self, a3rel, monkeypatch):
        # the YExt constructor certified these immutable maps already
        a, b = simple(a3rel, 3), simple(a3rel, 1)
        x = splice_from_class(dhom_space(a, b, 2).basis()[0], a, b, 2)
        calls = []
        monkeypatch.setattr(yoneda, "cohomology_dims",
                            lambda x: calls.append(x) or {})
        assert not f_map(x).is_zero()
        assert calls == []

    def test_rejects_a_sequence_the_augmentation_does_not_lift_along(self, a2):
        # YExt rejects both sequences, so only a direct call gets here
        s1, s2 = simple(a2, 1), simple(a2, 2)
        sp = dhom_space(s2, s1, 1)
        x = splice_from_class(sp.basis()[0], s2, s1, 1)
        (mid,), (xi0, xi1) = x.middle, x.maps
        with pytest.raises(LiftError):  # the last map is not onto
            sp.extension_class((xi0, zero_map(mid, s2)))
        with pytest.raises(LiftError):  # not exact at the middle term
            sp.extension_class((zero_map(s1, mid), xi1))
        with pytest.raises(LiftError):  # endpoints of another space
            dhom_space(s1, s2, 1).extension_class(x.maps)


class TestSplitPushout:
    """The pushout along a splitting of the differential against the
    cokernel pushout it replaced."""

    CORPUS = ("a2", "a3", "a3rel", "branching", "commsquare", "kronecker")

    @staticmethod
    def _cokernel_splice(c, x):
        """The splice of c with its pushout taken by the cokernel oracle,
        on the resolution tail of x = splice_from_class(c, ...)."""
        sp, n = c.space, c.space.n
        tw = c if _route_sign(n) == 1 else c.scale(-1)
        u0 = sp.representative(tw).comp(-n)
        nxt = sp.eps.comp(0) if n == 1 else sp.r.d(-n + 1)
        x1, xi0, xi1 = cokernel_pushout(u0, sp.r.d(-n), nxt)
        return YExt(x.left, x.right, (x1,) + x.middle[1:],
                    (xi0, xi1) + x.maps[2:])

    @pytest.mark.parametrize("name", CORPUS + ("A5-rad2",))
    def test_agrees_with_the_cokernel_pushout(self, request, rng, name):
        alg = (request.getfixturevalue("a5rad2") if name == "A5-rad2"
               else load_algebra(str(corpus_path(name))))
        objs = spaces_objects(alg)
        spliced = 0
        for a in objs:
            for b in objs:
                for n in (1, 2, 3):
                    sp = dhom_space(a, b, n)
                    if not sp.dim:
                        continue
                    # never zero and never a basis vector
                    coords = [rng.randint(-3, 3) for _ in range(sp.dim)]
                    coords[0] = rng.choice((-3, -2, 2, 3))
                    c = DHomClass(sp, tuple(map(Fraction, coords)))
                    x = splice_from_class(c, a, b, n)
                    assert f_map(x) == c
                    oracle = self._cokernel_splice(c, x)
                    assert oracle.middle[0].dims == x.middle[0].dims
                    assert f_map(oracle).coords == c.coords
                    spliced += 1
        assert spliced

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_pushes_out_along_the_representative_component(self, a5rad2,
                                                            data):
        # the degree -n map is read from generator data as one module
        # map, with the blocks of the representative's component, zero
        # where that component is absent; no chain map is built
        name = data.draw(st.sampled_from(self.CORPUS + ("A5-rad2",)))
        alg = a5rad2 if name == "A5-rad2" else _corpus(name)
        objs = spaces_objects(alg)
        a, b = data.draw(st.sampled_from(objs)), data.draw(st.sampled_from(objs))
        n = data.draw(st.integers(1, 3))
        sp = dhom_space(a, b, n)
        c = DHomClass(sp, tuple(Fraction(data.draw(st.integers(-3, 3)))
                                for _ in range(sp.dim)))
        tw = c if _route_sign(n) == 1 else c.scale(-1)
        want = sp.representative(tw).comp(-n)
        along, chain_maps = [], []
        pushout, validate = yoneda._pushout, CxMap.__post_init__

        def spy(g, split, nxt):
            along.append(g)
            return pushout(g, split, nxt)

        def counting(self):
            chain_maps.append(self)
            validate(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(yoneda, "_pushout", spy)
            mp.setattr(CxMap, "__post_init__", counting)
            x = splice_from_class(c, a, b, n)
        assert chain_maps == []
        [g] = along
        assert (g.source, g.target) == (want.source, want.target)
        assert g.blocks == want.blocks
        assert g.is_zero() == c.is_zero()
        assert f_map(x) == c

    def test_rejects_a_map_that_is_not_a_cocycle(self, a3rel):
        # S3 has projective dimension 2, so d^{-1} of its resolution has
        # a kernel, the image of d^{-2}, on which the identity is nonzero
        s1, s3 = simple(a3rel, 1), simple(a3rel, 3)
        sp = dhom_space(s3, s1, 1)
        r, eps0 = sp.r, sp.eps.comp(0)
        split = _splitting(r.d(-1))
        with pytest.raises(RepError, match="vanish on the kernel"):
            _pushout(identity_map(r.term(-1)), split, eps0)
        # a cocycle out of R^{-1} pushes out
        c = dhom_space(s3, simple(a3rel, 2), 1).basis()[0]
        u0 = c.space.representative(c).comp(-1)
        x1, _, _ = _pushout(u0, split, eps0)
        assert x1.total_dim == 2


class TestRoundTripCost:
    """The round trip costs block products: one lift solve per (degree,
    vertex), and classes that carry their coordinate column."""

    @staticmethod
    def _kronecker(m):
        return build_algebra(make_quiver(
            2, [(f"x{i}", 1, 2) for i in range(1, m + 1)]))

    @staticmethod
    def _solves_of_f_map(monkeypatch, x):
        calls = []

        def counting(m, b, solve=derived.solve):
            calls.append(b.cols)
            return solve(m, b)
        monkeypatch.setattr(derived, "solve", counting)
        cls = f_map(x)
        monkeypatch.undo()
        return cls, calls

    @pytest.mark.parametrize("case", ["A5-rad2 degree 2", "K4 degree 1"])
    def test_f_map_solves_once_per_degree_and_vertex(self, request,
                                                     monkeypatch, case):
        if case.startswith("K4"):
            alg, n = self._kronecker(4), 1
        else:
            alg, n = request.getfixturevalue("a5rad2"), 2
        objs = spaces_objects(alg)
        a, b = next((a, b) for a in objs for b in objs
                    if dhom_space(a, b, n).dim)
        sp = dhom_space(a, b, n)
        c = sp.basis()[-1]
        x = splice_from_class(c, a, b, n)
        spots = [(k, v) for k in range(0, -n - 1, -1)
                 for v in set(sp.r.term(k).proj_gens or ())]
        gens = sum(len(sp.r.term(k).proj_gens or ())
                   for k in range(0, -n - 1, -1))
        cls, calls = self._solves_of_f_map(monkeypatch, x)
        assert cls == c
        assert 0 < len(calls) <= len(spots)
        if case.startswith("K4"):  # four generators of P_1^4 at one vertex
            assert len(spots) < gens and max(calls) == 4

    def test_basis_of_a_large_space_parses_no_coordinates(self,
                                                          monkeypatch):
        alg = self._kronecker(12)
        objs = spaces_objects(alg)
        sp = max((dhom_space(a, b, n) for a in objs for b in objs
                  for n in (1, 2, 3)), key=lambda s: s.dim)
        assert sp.dim == 143
        calls = []
        column = RatMatrix.column
        monkeypatch.setattr(RatMatrix, "column", staticmethod(
            lambda entries: calls.append(entries) or column(entries)))
        basis = sp.basis()
        assert calls == []
        assert all("coords" not in vars(c) for c in basis)
        assert basis[5].coords == tuple(Fraction(int(i == 5))
                                        for i in range(sp.dim))
        assert basis[5] == DHomClass(sp, basis[5].coords)
        assert hash(basis[5]) == hash(DHomClass(sp, basis[5].coords))

    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_random_coordinates_roundtrip_through_both_routes(
            self, a5rad2, commsquare, data):
        spliced = 0
        for alg in (a5rad2, commsquare):
            objs = spaces_objects(alg)
            for a in objs:
                for b in objs:
                    for n in (1, 2, 3):
                        sp = dhom_space(a, b, n)
                        if not sp.dim:
                            continue
                        coords = tuple(Fraction(data.draw(st.integers(-3, 3)))
                                       for _ in range(sp.dim))
                        c = DHomClass(sp, coords)
                        x = splice_from_class(c, a, b, n)
                        assert f_map(x).coords == coords
                        assert f_map_via_quasi_iso(x).coords == coords
                        spliced += 1
        assert spliced
