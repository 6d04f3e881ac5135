"""Endomorphism algebras of strong sequences and their quiver presentations."""

from fractions import Fraction

import pytest

from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.bondal import (
    BondalError,
    EndAlgebra,
    bondal_check,
    end_algebra,
    faithful_full_check,
    hom_table_match,
    map_functor,
    module_functor,
    presentation_multiplicative,
    projective_compare,
    quiver_presentation,
    verify_end_algebra,
)
from heartglue.complexes import cx_direct_sum, shift
from heartglue.derived import DHomSpace, as_cx, compose_classes, dhom_space
from heartglue.glue import check_sequence
from heartglue.linalg import RatMatrix, rank
from heartglue.reps import Rep, compose, projective, simple


def projective_sequence(alg):
    return check_sequence(
        [projective(alg, i) for i in range(1, alg.vertex_count + 1)],
        strong=True)


def regular_kron_module(kron):
    return Rep(kron, (1, 1), {"a": RatMatrix(((Fraction(1),),)),
                              "b": RatMatrix(((Fraction(0),),))})


@pytest.fixture(scope="module")
def kron_pres(kron):
    es = projective_sequence(kron)
    end = end_algebra(es)
    return es, end, quiver_presentation(end)


@pytest.fixture(scope="module")
def a3rel_pres(a3rel):
    es = projective_sequence(a3rel)
    end = end_algebra(es)
    return es, end, quiver_presentation(end)


@pytest.fixture(scope="module")
def commsquare_pres(commsquare):
    es = projective_sequence(commsquare)
    end = end_algebra(es)
    return es, end, quiver_presentation(end)


class TestEndAlgebra:
    def test_dimension_counts_all_maps(self, kron_pres, a3rel_pres):
        _, end_k, _ = kron_pres
        _, end_r, _ = a3rel_pres
        assert (end_k.dim, end_k.positions) == (4, 2)
        assert (end_r.dim, end_r.positions) == (5, 3)

    def test_elements_group_by_position(self, kron_pres):
        _, end, _ = kron_pres
        assert len(end.pair(1, 2)) == 2
        assert end.pair(2, 1) == ()
        u1, u2 = end.unit_index(1), end.unit_index(2)
        assert u1 != u2
        assert (end.elements[u1].i, end.elements[u1].j) == (1, 1)

    def test_unit_and_associativity_exhaustive(self, kron_pres, a3rel_pres):
        _, end_k, _ = kron_pres
        _, end_r, _ = a3rel_pres
        assert verify_end_algebra(end_k) == (16, 64)
        assert verify_end_algebra(end_r) == (25, 125)

    @staticmethod
    def _perturbed(monkeypatch, at):
        """EndAlgebra.product with the one product at = (a, b) off by the
        first basis class of its Hom space."""
        product = EndAlgebra.product

        def perturbed(self, a, b):
            got = product(self, a, b)
            if (a, b) == at:
                got = got + got.space.basis()[0]
            return got
        monkeypatch.setattr(EndAlgebra, "product", perturbed)

    @pytest.mark.parametrize("pres", ["kron_pres", "a3rel_pres"])
    def test_composable_walk_catches_a_bad_product(self, request, pres):
        _, end, _ = request.getfixturevalue(pres)
        caught = 0
        for a, ea in enumerate(end.elements):
            for b, eb in enumerate(end.elements):
                if eb.j != ea.i:
                    continue
                if end.product(a, b).space.dim == 0:
                    continue  # the grading leaves no other value
                with pytest.MonkeyPatch.context() as mp:
                    self._perturbed(mp, (a, b))
                    with pytest.raises(BondalError):
                        verify_end_algebra(end)
                caught += 1
        assert caught > end.positions
        assert verify_end_algebra(end) == (end.dim ** 2, end.dim ** 3)

    def test_associativity_catches_a_bad_radical_product(self, monkeypatch):
        # x: 1 -> 2 and y: 2 -> 3 compose to 0 by the relation, inside the
        # span of z: 1 -> 3.  Setting that product to z's class is
        # consistent with every other basis product (it is the path
        # algebra without the relation), so only composing the classes
        # themselves catches it; the unit check never computes it.
        q = make_quiver(3, [("x", 1, 2), ("y", 2, 3), ("z", 1, 3)])
        alg = build_algebra(q, [Relation.of([(1, ("x", "y"))])])
        end = end_algebra(projective_sequence(alg))
        [x], [z], [y] = end.pair(1, 2), end.pair(1, 3), end.pair(2, 3)
        assert end.product(y, x).is_zero()
        assert end.product(y, x).space.basis() == [end.elements[z].cls]
        self._perturbed(monkeypatch, (y, x))
        with pytest.raises(BondalError, match=r"associativity fails on "
                                              r"basis triple \(4, 1, 0\)"):
            verify_end_algebra(end)

    def test_unit_check_catches_a_bad_unit_product(self, kron_pres,
                                                   monkeypatch):
        _, end, _ = kron_pres
        u1 = end.unit_index(1)
        self._perturbed(monkeypatch, (u1, u1))
        with pytest.raises(BondalError, match="not fixed by the unit"):
            verify_end_algebra(end)

    def test_products_follow_path_concatenation(self, kron_pres):
        _, end, _ = kron_pres
        a_idx, b_idx = end.pair(1, 2)
        u1, u2 = end.unit_index(1), end.unit_index(2)
        a = end.elements[a_idx].cls
        assert end.product(a_idx, u1) == a
        assert end.product(u2, a_idx) == a
        assert end.product(a_idx, u2) is None
        assert end.product(b_idx, a_idx) is None
        assert end.product(u1, u1) == end.elements[u1].cls

    def test_multiply_extends_products_linearly(self, kron_pres):
        _, end, _ = kron_pres
        a_idx, _ = end.pair(1, 2)
        u1 = end.unit_index(1)
        a, u = end.elements[a_idx].cls, end.elements[u1].cls
        got = compose_classes(a.scale(2), u.scale(5))
        assert got == a.scale(10)
        assert got == end.product(a_idx, u1).scale(10)

    def test_rejects_sequences_with_shifted_maps(self, a2):
        es = check_sequence([simple(a2, 2), simple(a2, 1)])
        assert not es.strong
        with pytest.raises(BondalError, match="strong"):
            end_algebra(es)


class TestPresentation:
    def test_kronecker_recovers_two_parallel_arrows(self, kron_pres):
        _, end, pres = kron_pres
        arrows = [(a.name, a.source, a.target)
                  for a in pres.algebra.quiver.arrows]
        assert arrows == [("x1", 1, 2), ("x2", 1, 2)]
        assert pres.algebra.relations == ()
        assert pres.algebra.dim == end.dim == 4

    def test_line_quiver_keeps_its_composite(self, a3):
        es = projective_sequence(a3)
        pres = quiver_presentation(end_algebra(es))
        arrows = [(a.name, a.source, a.target)
                  for a in pres.algebra.quiver.arrows]
        assert arrows == [("x1", 1, 2), ("x2", 2, 3)]
        assert pres.algebra.relations == ()
        assert pres.algebra.dim == 6
        assert len(pres.algebra.paths_between(1, 3)) == 1

    def test_vanishing_composite_forces_monomial_relation(self, a3rel_pres):
        _, end, pres = a3rel_pres
        arrows = [(a.name, a.source, a.target)
                  for a in pres.algebra.quiver.arrows]
        assert arrows == [("x1", 1, 2), ("x2", 2, 3)]
        assert len(pres.algebra.relations) == 1
        assert pres.algebra.relations[0].terms == (
            (Fraction(1), ("x1", "x2")),)
        assert pres.algebra.paths_between(1, 3) == ()
        assert pres.algebra.dim == end.dim == 5

    def test_commuting_square_forces_binomial_relation(self, commsquare_pres):
        _, end, pres = commsquare_pres
        arrows = [(a.name, a.source, a.target)
                  for a in pres.algebra.quiver.arrows]
        assert arrows == [("x1", 1, 2), ("x2", 1, 3),
                          ("x3", 2, 4), ("x4", 3, 4)]
        assert len(pres.algebra.relations) == 1
        assert pres.algebra.relations[0].terms == (
            (Fraction(-1), ("x1", "x3")), (Fraction(1), ("x2", "x4")))
        assert pres.algebra.dim == end.dim == 9

    def test_single_object_presents_the_ground_field(self, a2):
        es = check_sequence([projective(a2, 2)], strong=True)
        pres = quiver_presentation(end_algebra(es))
        assert pres.algebra.dim == 1
        assert pres.algebra.quiver.arrows == ()
        assert pres.algebra.relations == ()

    def test_presentation_ignores_a_common_shift(self, kron):
        es = check_sequence([shift(as_cx(projective(kron, 1)), 2),
                             shift(as_cx(projective(kron, 2)), 2)],
                            strong=True)
        end = end_algebra(es)
        pres = quiver_presentation(end)
        assert end.dim == 4
        assert len(pres.algebra.quiver.arrows) == 2
        assert pres.algebra.relations == ()

    def test_arrows_name_degree_zero_classes(self, commsquare_pres):
        _, end, pres = commsquare_pres
        spans = {name: (end.elements[k].i, end.elements[k].j)
                 for name, k in pres.arrow_element.items()}
        assert spans == {"x1": (1, 2), "x2": (1, 3),
                         "x3": (2, 4), "x4": (3, 4)}

    def test_eval_path_sends_trivial_path_to_identity(self, kron_pres):
        _, end, pres = kron_pres
        u1 = end.unit_index(1)
        assert pres.eval_path(1, ()).coords == end.elements[u1].cls.coords

    def test_eval_path_kills_the_relation_word(self, a3rel_pres):
        _, _, pres = a3rel_pres
        assert pres.eval_path(1, ("x1", "x2")).coords == ()

    def test_evaluation_is_multiplicative(self, kron_pres, a3rel_pres,
                                          commsquare_pres):
        assert presentation_multiplicative(kron_pres[2]) == 6
        assert presentation_multiplicative(a3rel_pres[2]) == 8
        assert presentation_multiplicative(commsquare_pres[2]) == 16


class TestHomModules:
    def test_hom_module_of_each_object_is_its_projective(self, kron_pres):
        _, _, pres = kron_pres
        f1 = projective_compare(pres, 1)
        f2 = projective_compare(pres, 2)
        assert f1.target.dims == (1, 0)
        assert f2.target.dims == (2, 1)
        for f in (f1, f2):
            assert f.source.dims == f.target.dims
            for b in f.blocks:
                assert b.rows == b.cols == rank(b)

    def test_staircase_hom_modules(self, a3rel_pres):
        _, _, pres = a3rel_pres
        dims = [projective_compare(pres, i).target.dims for i in (1, 2, 3)]
        assert dims == [(1, 0, 0), (1, 1, 0), (0, 1, 1)]

    def test_hom_modules_of_simples(self, kron_pres, kron):
        _, _, pres = kron_pres
        assert module_functor(pres, simple(kron, 1)).dims == (1, 0)
        assert module_functor(pres, simple(kron, 2)).dims == (0, 1)

    def test_arrow_actions_on_a_hom_module(self, kron_pres, kron):
        _, _, pres = kron_pres
        phi = module_functor(pres, projective(kron, 2))
        assert phi.dims == (2, 1)
        cols = {a: phi.arrow_maps[a].col(0) for a in ("x1", "x2")}
        assert sorted(cols.values()) == [(Fraction(0), Fraction(1)),
                                         (Fraction(1), Fraction(0))]

    def test_sum_of_objects_gives_sum_of_projectives(self, kron_pres, kron):
        _, _, pres = kron_pres
        both = cx_direct_sum([as_cx(projective(kron, 1)),
                              as_cx(projective(kron, 2))]).cx
        assert module_functor(pres, both).dims == (3, 1)

    def test_rejects_objects_with_shifted_maps(self, kron_pres, kron):
        _, _, pres = kron_pres
        with pytest.raises(BondalError, match="shift -1"):
            module_functor(pres, shift(as_cx(simple(kron, 2)), 1))

    def test_induced_maps_respect_composition(self, kron_pres, kron):
        _, _, pres = kron_pres
        p1, p2 = projective(kron, 1), projective(kron, 2)
        reg = regular_kron_module(kron)
        f = dhom_space(p1, p2, 0).basis()[0]
        g = dhom_space(p2, reg, 0).basis()[0]
        whole = map_functor(pres, compose_classes(g, f))
        steps = compose(map_functor(pres, g), map_functor(pres, f))
        assert whole.blocks == steps.blocks

    def test_hom_module_is_kept_with_its_presentation(self, kron_pres, kron):
        # the presentation's memo holds it, so it goes with the presentation
        # and a later job on the same objects keeps no stale hom module
        _, _, pres = kron_pres
        reg = regular_kron_module(kron)
        kept = module_functor(pres, reg)
        assert module_functor(pres, reg) is kept
        assert module_functor(pres, as_cx(reg)) is kept
        assert pres.memo[("hom module", as_cx(reg))] is kept
        assert not any(isinstance(k, tuple) and k[0] == "hom module"
                       for k in as_cx(reg).memo)


class TestFullCheck:
    def test_hom_tables_match_at_every_shift(self, kron_pres):
        _, _, pres = kron_pres
        report = hom_table_match(pres)
        assert bool(report)
        assert report.mismatches == ()
        assert report.pairs == 4

    def test_generator_pairs_are_faithful(self, kron_pres):
        _, _, pres = kron_pres
        report = faithful_full_check(pres)
        assert bool(report)
        assert report.mismatches == ()
        assert report.pairs == 4

    def test_module_samples_are_faithful(self, kron_pres, kron):
        _, _, pres = kron_pres
        reg = regular_kron_module(kron)
        s1, s2 = simple(kron, 1), simple(kron, 2)
        p2 = projective(kron, 2)
        report = faithful_full_check(
            pres, [(reg, s2), (s1, reg), (p2, reg),
                   (reg, reg), (s1, s2), (s2, s1)])
        assert bool(report)
        assert report.pairs == 6

    def test_full_report_on_kronecker(self, kron_pres):
        es, _, _ = kron_pres
        r = bondal_check(es)
        assert bool(r)
        assert (r.end_dim, r.algebra_dim) == (4, 4)
        alg = r.presentation.algebra
        assert (len(alg.quiver.arrows), len(alg.relations)) == (2, 0)
        assert (r.products_checked, r.triples_checked) == (16, 64)
        assert r.eval_pairs_checked == 6
        assert (r.faithful.pairs, r.table.pairs) == (4, 4)
        assert len(r.comparisons) == 2

    def test_second_check_composes_nothing(self, a3rel, monkeypatch):
        es = projective_sequence(a3rel)
        first = bondal_check(es)
        lifts = []
        monkeypatch.setattr(DHomSpace, "_lifted_after",
                            lambda *args: lifts.append(args))
        second = bondal_check(es)
        assert lifts == []
        assert (second.products_checked, second.triples_checked,
                second.eval_pairs_checked) == (
            first.products_checked, first.triples_checked,
            first.eval_pairs_checked) == (25, 125, 8)

    def test_full_report_on_commuting_square(self, commsquare_pres):
        es, _, _ = commsquare_pres
        r = bondal_check(es)
        assert bool(r)
        assert (r.end_dim, r.algebra_dim) == (9, 9)
        alg = r.presentation.algebra
        assert (len(alg.quiver.arrows), len(alg.relations)) == (4, 1)
        assert (r.products_checked, r.triples_checked) == (81, 729)
        assert r.eval_pairs_checked == 16
        assert (r.faithful.ok, r.table.ok) == (True, True)
        assert r.comparisons[3].target.dims == (1, 1, 1, 1)
