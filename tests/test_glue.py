"""Exceptional sequences, aisle gluing, truncation triangles, heart dimensions."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import count_calls, in_coaisle, is_minimal
from heartglue import derived, linalg
from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.complexes import (
    Cx,
    CxMap,
    Triangle,
    cohomology_dims,
    cone,
    cx_direct_sum,
    identity_chain_map,
    is_acyclic,
    shift,
    zero_cx,
)
from heartglue.derived import as_cx, derived_hom
from heartglue.glue import (
    AddGeneratedAisle,
    AisleSpec,
    CompatReport,
    ExcError,
    GlueError,
    HeartDesc,
    StandardAisle,
    _assemble,
    _violations,
    check_dim_formula,
    check_exceptional,
    check_sequence,
    compatible,
    glue,
    glue_sequence,
    heart_dim,
    rdim,
    sod_project,
)
from heartglue.linalg import RatMatrix
from heartglue.reps import Rep, RepMap, hom_space, projective, simple


@pytest.fixture(scope="module")
def discrete2():
    return build_algebra(make_quiver(2, []))


@pytest.fixture(scope="module")
def kron_glued(kron):
    es = check_sequence([projective(kron, 1), projective(kron, 2)],
                        strong=True)
    aisle, heart = glue_sequence(es)
    return es, aisle, heart


@pytest.fixture(scope="module")
def a3rel_glued(a3rel):
    es = check_sequence([projective(a3rel, i) for i in (1, 2, 3)],
                        strong=True)
    aisle, heart = glue_sequence(es)
    return es, aisle, heart


def regular_kron_module(kron):
    # a acts invertibly, b by zero: scalar endomorphisms but a
    # one-dimensional self-extension
    return Rep(kron, (1, 1), {"a": RatMatrix([[Fraction(1)]], cols=1),
                              "b": RatMatrix([[Fraction(0)]], cols=1)})


def truncate_checked(aisle, x):
    """aisle.truncate(x), checking that A is minimal and B lies in the
    co-aisle; B is cone(f) itself, which certifies the triangle for any
    A -> X."""
    a, b, tri = aisle.truncate(x)
    assert is_minimal(a)
    assert in_coaisle(aisle, b)
    return a, b, tri


def chi(x):
    out = [0] * x.algebra.vertex_count
    for i, dims in cohomology_dims(x).items():
        sign = -1 if i % 2 else 1
        for v, d in enumerate(dims):
            out[v] += sign * d
    return tuple(out)


class TestExceptionalObjects:
    def test_projectives_are_exceptional(self, a2, kron, a3rel):
        for alg in (a2, kron, a3rel):
            for i in range(1, alg.vertex_count + 1):
                p = projective(alg, i)
                assert check_exceptional(p) is as_cx(p)

    def test_shifts_stay_exceptional(self, a2):
        x = shift(as_cx(projective(a2, 1)), 3)
        assert check_exceptional(x) is x

    def test_decomposable_object_rejected(self, kron):
        s1 = as_cx(simple(kron, 1))
        with pytest.raises(ExcError) as err:
            check_exceptional(cx_direct_sum([s1, s1]).cx)
        assert err.value.shift == 0
        assert err.value.dim == 4

    def test_first_violation_in_increasing_shift(self, a2):
        # Hom(P1, P2) = k puts a Hom at shift -1 in X = P1 + P2[1], before
        # the two-dimensional Hom(X, X)
        p1, p2 = as_cx(projective(a2, 1)), as_cx(projective(a2, 2))
        x = cx_direct_sum([p1, shift(p2, 1)]).cx
        with pytest.raises(ExcError, match=r"E\[-1\]\) has dimension 1"):
            check_exceptional(x)

    def test_acyclic_complex_rejected(self, a2):
        # nonzero terms, but zero in the derived category: Hom(E, E) = 0
        p = as_cx(projective(a2, 2))
        c = cone(identity_chain_map(p)).cx
        with pytest.raises(ExcError, match="dimension 0, expected 1") as err:
            check_exceptional(c)
        assert (err.value.shift, err.value.dim) == (0, 0)

    def test_self_extension_rejected(self, kron):
        with pytest.raises(ExcError) as err:
            check_exceptional(regular_kron_module(kron))
        assert err.value.shift == 1
        assert err.value.dim == 1

    def test_zero_object_rejected(self, kron):
        with pytest.raises(ExcError):
            check_exceptional(zero_cx(kron))


class TestExceptionalSequences:
    def test_projectives_in_order_are_strong(self, kron):
        ps = [projective(kron, 1), projective(kron, 2)]
        es = check_sequence(ps, strong=True)
        assert len(es) == 2
        assert es.strong
        assert es.hom_table == {(1, 1, 0): 1, (1, 2, 0): 2, (2, 2, 0): 1}
        assert es.hom_table.get((2, 1, 0), 0) == 0
        assert all(es.object(i) is as_cx(p) for i, p in enumerate(ps, 1))

    def test_projectives_with_relation(self, a3rel):
        es = check_sequence([projective(a3rel, i) for i in (1, 2, 3)],
                            strong=True)
        assert es.hom_table == {(1, 1, 0): 1, (2, 2, 0): 1, (3, 3, 0): 1,
                                (1, 2, 0): 1, (2, 3, 0): 1}
        # the composite of the two arrows dies, so no maps P1 -> P3
        assert es.hom_table.get((1, 3, 0), 0) == 0

    def test_backward_map_rejected(self, kron):
        with pytest.raises(ExcError) as err:
            check_sequence([projective(kron, 2), projective(kron, 1)])
        assert err.value.position == (2, 1)
        assert err.value.shift == 0
        assert err.value.dim == 2

    def test_simple_pair_is_exceptional_not_strong(self, a2):
        es = check_sequence([simple(a2, 2), simple(a2, 1)])
        assert not es.strong
        assert es.hom_table.get((1, 2, 1), 0) == 1
        assert es.hom_table.get((1, 2, 0), 0) == 0
        with pytest.raises(ExcError) as err:
            check_sequence([simple(a2, 2), simple(a2, 1)], strong=True)
        assert err.value.position == (1, 2)
        assert err.value.shift == 1

    def test_simple_pair_reversed_is_not_exceptional(self, a2):
        with pytest.raises(ExcError) as err:
            check_sequence([simple(a2, 1), simple(a2, 2)])
        assert err.value.position == (2, 1)
        assert err.value.shift == 1
        assert err.value.dim == 1

    def test_bad_member_is_localized(self, kron):
        good = projective(kron, 2)
        with pytest.raises(ExcError) as err:
            check_sequence([good, regular_kron_module(kron)])
        assert err.value.position == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(GlueError):
            check_sequence([])


class TestSodProjection:
    def test_sequence_members_project_to_themselves(self, a3rel):
        es = check_sequence([projective(a3rel, i) for i in (1, 2, 3)])
        for k in (1, 2, 3):
            x = es.object(k)
            for j in (1, 2, 3):
                comp = sod_project(x, es, j)
                if j == k:
                    assert cohomology_dims(comp) == cohomology_dims(x)
                else:
                    assert is_acyclic(comp)

    def test_simple_splits_into_projective_staircase(self, a3rel):
        es = check_sequence([projective(a3rel, i) for i in (1, 2, 3)])
        s3 = as_cx(simple(a3rel, 3))
        comps = [sod_project(s3, es, k) for k in (1, 2, 3)]
        assert [cohomology_dims(c) for c in comps] == [
            {-2: (1, 0, 0)}, {-1: (1, 1, 0)}, {0: (0, 1, 1)}]

    def test_components_reassemble_euler_characteristics(self, a3rel):
        es = check_sequence([projective(a3rel, i) for i in (1, 2, 3)])
        xs = [as_cx(simple(a3rel, i)) for i in (1, 2, 3)]
        xs.append(cx_direct_sum([xs[1], shift(xs[2], 1)]).cx)
        for x in xs:
            total = [0] * 3
            for k in (1, 2, 3):
                for v, c in enumerate(chi(sod_project(x, es, k))):
                    total[v] += c
            assert tuple(total) == chi(x)

    def test_a2_simple_decomposes_over_projectives(self, a2):
        es = check_sequence([projective(a2, 1), projective(a2, 2)])
        x = as_cx(simple(a2, 2))
        assert cohomology_dims(sod_project(x, es, 2)) == {0: (1, 1)}
        assert cohomology_dims(sod_project(x, es, 1)) == {-1: (1, 0)}

    def test_component_index_bounds(self, a2):
        es = check_sequence([projective(a2, 1), projective(a2, 2)])
        x = as_cx(simple(a2, 2))
        for k in (0, 3):
            with pytest.raises(GlueError):
                sod_project(x, es, k)


class TestCompatibility:
    def test_strong_pair_is_compatible(self, kron):
        rep = compatible(AddGeneratedAisle((projective(kron, 1),)),
                         AddGeneratedAisle((projective(kron, 2),)))
        assert rep.ok and bool(rep)
        assert rep.violations == ()

    def test_backward_failure_reported(self, a2):
        rep = compatible(AddGeneratedAisle((simple(a2, 1),)),
                         AddGeneratedAisle((simple(a2, 2),)))
        assert not rep.ok
        assert rep.violations == (("backward", 1, 1, 1, 1),)

    def test_negative_shift_failure_reported(self, a2):
        low = AddGeneratedAisle((shift(as_cx(projective(a2, 1)), -1),))
        rep = compatible(low, AddGeneratedAisle((projective(a2, 2),)))
        assert not rep.ok
        assert ("negative", 1, 1, -1, 1) in rep.violations

    def test_orthogonal_pieces_compatible_both_ways(self, discrete2):
        one = AddGeneratedAisle((simple(discrete2, 1),))
        two = AddGeneratedAisle((simple(discrete2, 2),))
        assert compatible(one, two).ok
        assert compatible(two, one).ok

    def test_glue_rejects_incompatible_pieces(self, a2):
        with pytest.raises(GlueError, match="not compatible"):
            glue(AddGeneratedAisle((simple(a2, 1),)),
                 AddGeneratedAisle((simple(a2, 2),)))

    def test_aisle_generators_must_be_orthogonal(self, kron):
        with pytest.raises(GlueError, match="orthogonal"):
            AddGeneratedAisle((projective(kron, 1), projective(kron, 2)))

    def test_aisle_generators_must_be_exceptional(self, kron):
        with pytest.raises(ExcError):
            AddGeneratedAisle((regular_kron_module(kron),))


class TestGluedHearts:
    def test_kronecker_heart_generators(self, kron, kron_glued):
        es, aisle, heart = kron_glued
        assert heart.generators[0] is es.object(2)
        assert cohomology_dims(heart.generators[1]) == {-1: (1, 0)}
        assert heart.provenance == "heart of glue(add(1), add(1))"

    def test_three_term_iterated_heart(self, a3rel_glued):
        es, aisle, heart = a3rel_glued
        assert [cohomology_dims(g) for g in heart.generators] == [
            {0: (0, 1, 1)}, {-1: (1, 1, 0)}, {-2: (1, 0, 0)}]
        assert len(aisle.heart_gens()) == 3
        assert aisle.describe() == "glue(glue(add(1), add(1)), add(1))"

    def test_nonstrong_pair_still_glues(self, a2):
        es = check_sequence([simple(a2, 2), simple(a2, 1)])
        _, heart = glue_sequence(es)
        assert [cohomology_dims(g) for g in heart.generators] == [
            {0: (1, 0)}, {-1: (0, 1)}]

    def test_shifted_projective_pair_glues(self, kron):
        p1 = as_cx(projective(kron, 1))
        p2 = as_cx(projective(kron, 2))
        up = AddGeneratedAisle((shift(p1, 1),))
        right = AddGeneratedAisle((p2,))
        assert compatible(up, right).ok
        _, heart = glue(up, right)
        assert [cohomology_dims(g) for g in heart.generators] == [
            {0: (2, 1)}, {-2: (1, 0)}]
        # the reversed ordering is not even semiorthogonal
        rep = compatible(right, AddGeneratedAisle((shift(p1, 2),)))
        assert ("backward", 1, 1, 2, 2) in rep.violations

    def test_heart_axiom_validated(self, kron):
        p1 = as_cx(projective(kron, 1))
        p2 = as_cx(projective(kron, 2))
        with pytest.raises(GlueError, match="not a heart"):
            HeartDesc((p1, shift(p2, 1)), provenance="manual")


def nfold_compatible(aisles) -> CompatReport:
    """Check that an ordered family of aisles glues in one go; an oracle
    for glue_sequence, which glues one pairwise step at a time.

    For pieces i < k nothing may map backward from piece k to piece i,
    and forward maps must miss the deep negative shifts: the condition
    is Hom(G_i, G_k[n]) = 0 whenever n <= i - k, one shift deeper per
    intermediate piece.  Violations name the pieces (i, k).  For two
    pieces this is compatible.
    """
    aisles = list(aisles)
    if not aisles:
        raise GlueError("nothing to check")
    viol = []
    for i in range(1, len(aisles) + 1):
        for k in range(i + 1, len(aisles) + 1):
            viol += [(kind, i, k, n, d) for kind, _, _, n, d in _violations(
                aisles[i - 1].heart_gens(), aisles[k - 1].heart_gens(),
                i - k)]
    return CompatReport(not viol, tuple(viol))


class TestNfoldCompatibility:
    def _pieces(self, gens):
        return [AddGeneratedAisle((as_cx(g),)) for g in gens]

    def _iterated_ok(self, pieces):
        acc = pieces[0]
        try:
            for nxt in pieces[1:]:
                acc, _ = glue(acc, nxt)
        except GlueError:
            return False
        return True

    def test_direct_check_matches_iterated_gluing(self, a2, kron, a3rel):
        p = projective
        s = simple
        families = [
            ([p(a3rel, 1), p(a3rel, 2), p(a3rel, 3)], True),
            ([p(kron, 1), p(kron, 2)], True),
            ([p(kron, 2), p(kron, 1)], False),
            ([s(a2, 2), s(a2, 1)], True),
            ([s(a2, 1), s(a2, 2)], False),
            ([shift(as_cx(p(a2, 1)), -1), p(a2, 2)], False),
            ([shift(as_cx(p(kron, 1)), 1), p(kron, 2)], True),
            ([s(a2, 2), s(a2, 1), shift(as_cx(s(a2, 1)), 2)], False),
        ]
        for gens, expected in families:
            pieces = self._pieces(gens)
            direct = nfold_compatible(pieces)
            iterated = self._iterated_ok(pieces)
            assert direct.ok == iterated == expected
            if len(pieces) == 2:
                # the pairwise check is the two-piece case of the direct one
                pair = compatible(*pieces)
                assert pair.ok == direct.ok
                assert ([(v[0], v[3], v[4]) for v in pair.violations]
                        == [(v[0], v[3], v[4]) for v in direct.violations])

    def test_distant_pieces_tolerate_deeper_shifts(self, a2):
        # Hom(S2, S1[1]) shows up at shift -1 relative to piece 3; with a
        # full intermediate piece that is allowed, so the only complaints
        # involve the adjacent pair (2, 3).
        s1, s2 = simple(a2, 1), simple(a2, 2)
        far = shift(as_cx(s1), 2)
        pieces = [AddGeneratedAisle((as_cx(s2),)),
                  AddGeneratedAisle((as_cx(s1),)),
                  AddGeneratedAisle((far,))]
        rep = nfold_compatible(pieces)
        assert not rep.ok
        assert rep.violations == (("backward", 2, 3, 2, 1),
                                  ("negative", 2, 3, -2, 1))
        assert not [v for v in rep.violations if (v[1], v[2]) == (1, 3)]
        # head and tail on their own fail the pairwise test instead
        direct = compatible(pieces[0], AddGeneratedAisle((far,)))
        assert direct.violations == (("negative", 1, 1, -1, 1),)

    def test_empty_family_rejected(self):
        with pytest.raises(GlueError):
            nfold_compatible([])


class TestMembership:
    def test_generators_and_their_shifts(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        p1 = as_cx(projective(kron, 1))
        p2 = as_cx(projective(kron, 2))
        assert aisle.member(p2)
        assert aisle.member(shift(p2, 1))
        assert not aisle.member(shift(p2, -1))
        assert aisle.member(shift(p1, 1))
        assert not aisle.member(p1)

    def test_zero_object_is_member(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        assert aisle.member(zero_cx(kron))

    def test_extension_closure(self, kron, kron_glued):
        # S2 and the regular module are extensions of shifted P1 by P2
        _, aisle, _ = kron_glued
        assert aisle.member(as_cx(simple(kron, 2)))
        assert aisle.member(as_cx(regular_kron_module(kron)))

    def test_membership_shifts_up(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        xs = [as_cx(projective(kron, 2)),
              as_cx(simple(kron, 2)),
              shift(as_cx(projective(kron, 1)), 1)]
        for x in xs:
            assert aisle.member(x)
            assert aisle.member(shift(x, 1))

    def test_three_term_membership_needs_deeper_shifts(self, a3rel,
                                                       a3rel_glued):
        _, aisle, _ = a3rel_glued
        s2 = as_cx(simple(a3rel, 2))
        assert not aisle.member(s2)
        assert aisle.member(shift(s2, 1))


class TestTruncation:
    def test_member_truncates_to_itself(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        x = as_cx(simple(kron, 2))
        a, b, tri = truncate_checked(aisle, x)
        assert tri.certified()
        assert is_acyclic(b)
        assert cohomology_dims(a) == cohomology_dims(x)

    def test_coaisle_object_truncates_to_zero_part(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        x = shift(as_cx(projective(kron, 2)), -1)
        a, b, tri = truncate_checked(aisle, x)
        assert tri.certified()
        assert is_acyclic(a)
        assert cohomology_dims(b) == cohomology_dims(x)

    def test_mixed_sum_splits(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        p1 = as_cx(projective(kron, 1))
        p2 = as_cx(projective(kron, 2))
        x = cx_direct_sum([p2, p1]).cx
        a, b, tri = truncate_checked(aisle, x)
        assert tri.certified()
        assert cohomology_dims(a) == {0: (2, 1)}
        assert cohomology_dims(b) == {0: (1, 0)}
        for n in (-1, 0):
            assert derived_hom(a, b, n) == 0

    def test_invariants_on_assorted_objects(self, kron, kron_glued):
        _, aisle, _ = kron_glued
        s2 = as_cx(simple(kron, 2))
        p1 = as_cx(projective(kron, 1))
        pool = [shift(s2, 1),
                cx_direct_sum([s2, shift(p1, -1)]).cx,
                as_cx(regular_kron_module(kron)),
                shift(p1, -2)]
        for x in pool:
            a, b, tri = truncate_checked(aisle, x)
            assert tri.certified()
            assert aisle.member(a)
            assert derived_hom(a, b, 0) == 0
            got = tuple(u + v for u, v in zip(chi(a), chi(b)))
            assert got == chi(x)
            again, rest, _ = truncate_checked(aisle, a)
            assert is_acyclic(rest)
            assert cohomology_dims(again) == cohomology_dims(a)

    def test_three_term_truncation(self, a3rel, a3rel_glued):
        _, aisle, _ = a3rel_glued
        s2 = as_cx(simple(a3rel, 2))
        a, b, tri = truncate_checked(aisle, s2)
        assert tri.certified()
        assert is_acyclic(a)
        assert cohomology_dims(b) == {0: (0, 1, 0)}
        x = cx_direct_sum([shift(s2, 1), as_cx(projective(a3rel, 3))]).cx
        a, b, tri = truncate_checked(aisle, x)
        assert tri.certified()
        assert cohomology_dims(a) == cohomology_dims(x)
        assert is_acyclic(b)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_truncations_certify_and_reassemble(self, data, kron,
                                                       kron_glued):
        _, aisle, _ = kron_glued
        dims = tuple(data.draw(st.integers(min_value=0, max_value=2))
                     for _ in range(2))
        entries = st.integers(min_value=-2, max_value=2)
        maps = {}
        for arrow in kron.quiver.arrows:
            r = dims[arrow.source - 1]
            c = dims[arrow.target - 1]
            rows = [[Fraction(data.draw(entries)) for _ in range(c)]
                    for _ in range(r)]
            maps[arrow.name] = RatMatrix(rows, cols=c)
        x = shift(as_cx(Rep(kron, dims, maps)),
                  data.draw(st.integers(min_value=-1, max_value=1)))
        a, b, tri = truncate_checked(aisle, x)
        assert tri.certified()
        got = tuple(u + v for u, v in zip(chi(a), chi(b)))
        assert got == chi(x)


class TestStandardAisle:
    def test_membership_follows_cohomology(self, kron):
        sa = StandardAisle(kron)
        s2 = as_cx(simple(kron, 2))
        assert sa.member(s2)
        assert sa.member(shift(s2, 2))
        assert not sa.member(shift(s2, -1))
        assert sa.describe() == "standard(cut=0)"

    def test_cut_parameter_moves_the_aisle(self, kron):
        sa = StandardAisle(kron, cut=-1)
        s2 = as_cx(simple(kron, 2))
        assert not sa.member(s2)
        assert sa.member(shift(s2, 1))
        assert sa.describe() == "standard(cut=-1)"
        assert [cohomology_dims(g) for g in sa.heart_gens()] == [
            {-1: (1, 0)}, {-1: (0, 1)}]

    def test_truncation_matches_cohomology_split(self, kron):
        sa = StandardAisle(kron)
        x = cx_direct_sum([as_cx(simple(kron, 2)),
                           shift(as_cx(projective(kron, 1)), -1)]).cx
        a, b, tri = sa.truncate(x)
        assert tri.certified()
        assert cohomology_dims(a) == {0: (0, 1)}
        assert cohomology_dims(b) == {1: (1, 0)}

    def test_multi_generator_point_aisle(self, discrete2):
        multi = AddGeneratedAisle((simple(discrete2, 1),
                                   simple(discrete2, 2)))
        x = cx_direct_sum([as_cx(simple(discrete2, 1)),
                           shift(as_cx(simple(discrete2, 2)), -1)]).cx
        assert not multi.member(x)
        a, b, tri = multi.truncate(x)
        assert tri.certified()
        assert cohomology_dims(a) == {0: (1, 0)}
        assert cohomology_dims(b) == {1: (0, 1)}


def test_every_aisle_truncates_through_its_cut():
    """AisleSpec.truncate alone builds a truncation triangle, B = cone(f)
    of the f that _cut returns.  An aisle may bind that same function
    under its own name, which perfbench's tracer needs to span it."""
    found, todo = [], [AisleSpec]
    while todo:
        subs = todo.pop().__subclasses__()
        found += subs
        todo += subs
    ours = [c for c in found if c.__module__.startswith("heartglue.")]
    assert {c.__name__ for c in ours} >= {
        "StandardAisle", "AddGeneratedAisle", "GluedAisle"}
    for cls in ours:
        assert vars(cls).get("truncate", AisleSpec.truncate) is (
            AisleSpec.truncate), f"{cls.__name__} defines its own truncate"


class TestDimensionFormula:
    def test_strong_pair_gives_dimension_one(self, kron, kron_glued):
        es, _, heart = kron_glued
        h1 = HeartDesc((es.object(1),), provenance="left")
        h2 = HeartDesc((es.object(2),), provenance="right")
        rep = check_dim_formula(h1, h2, heart)
        assert rep.ok and bool(rep)
        assert (rep.lhs, rep.rhs) == (1, 1)
        assert (rep.dim_left, rep.dim_right, rep.rel) == (0, 0, 0)
        assert rep.witness == (2, 1, 1)

    def test_orthogonal_pieces_give_dimension_zero(self, discrete2):
        one = AddGeneratedAisle((simple(discrete2, 1),))
        two = AddGeneratedAisle((simple(discrete2, 2),))
        _, heart = glue(one, two)
        h1 = HeartDesc(one.heart_gens(), provenance="left")
        h2 = HeartDesc(two.heart_gens(), provenance="right")
        rep = check_dim_formula(h1, h2, heart)
        assert rep.ok
        assert (rep.lhs, rep.dim_left, rep.dim_right, rep.rel) == (0, 0, 0, -1)

    def test_iterated_three_term_formula(self, a3rel):
        p = [AddGeneratedAisle((projective(a3rel, i),)) for i in (1, 2, 3)]
        acc, h12 = glue(p[0], p[1])
        _, h123 = glue(acc, p[2])
        h3 = HeartDesc(p[2].heart_gens(), provenance="right")
        rep = check_dim_formula(h12, h3, h123)
        assert rep.ok
        assert (rep.lhs, rep.dim_left, rep.dim_right, rep.rel) == (1, 1, 0, 0)

    def test_nonstrong_pair_exceeds_dimension_one(self, a2):
        es = check_sequence([simple(a2, 2), simple(a2, 1)])
        _, heart = glue_sequence(es)
        h1 = HeartDesc((es.object(1),), provenance="left")
        h2 = HeartDesc((es.object(2),), provenance="right")
        rep = check_dim_formula(h1, h2, heart)
        assert rep.ok
        assert (rep.lhs, rep.dim_left, rep.dim_right, rep.rel) == (2, 0, 0, 1)

    def test_heart_dim_and_rdim_basics(self, kron, discrete2):
        point = HeartDesc((as_cx(simple(kron, 2)),), provenance="pt")
        assert heart_dim(point) == 0
        left = HeartDesc((as_cx(projective(kron, 1)),), provenance="l")
        right = HeartDesc((as_cx(projective(kron, 2)),), provenance="r")
        assert rdim(left, right) == 0
        s1 = HeartDesc((as_cx(simple(discrete2, 1)),), provenance="s1")
        s2 = HeartDesc((as_cx(simple(discrete2, 2)),), provenance="s2")
        assert rdim(s1, s2) == -1
        assert heart_dim(HeartDesc((), provenance="none")) is None

    def test_zero_hearts_rejected(self, kron, kron_glued):
        _, _, heart = kron_glued
        empty = HeartDesc((), provenance="none")
        with pytest.raises(GlueError, match="zero"):
            check_dim_formula(empty, empty, heart)
        h = HeartDesc((as_cx(simple(kron, 2)),), provenance="pt")
        with pytest.raises(GlueError, match="zero"):
            check_dim_formula(h, h, empty)


# Products, block joins and module maps of one glued truncation,
# (P1 + S4[1])[1] on A4 with both length-two paths zero, with 10% headroom
# over the counts measured once nested truncations built no triangle of
# their own and identities and one-part sums composed away (674, 230 and
# 204; 1,920, 331 and 312 before; 3,492 and 821 products and joins before
# empty vertex pieces became free).  Work on empty blocks or maps built
# twice coming back fails here.
TRUNCATE_MATMUL_BOUND = 741
TRUNCATE_COMMON_BOUND = 253
TRUNCATE_REPMAP_BOUND = 224


def test_glued_truncation_does_no_empty_block_work(monkeypatch):
    # a fresh algebra, so that no cache of another test is warm
    q = make_quiver(4, [("a", 1, 2), ("b", 2, 3), ("c", 3, 4)])
    alg = build_algebra(q, [Relation.of([(1, ("a", "b"))]),
                            Relation.of([(1, ("b", "c"))])])
    es = check_sequence([projective(alg, i) for i in range(1, 5)],
                        strong=True)
    aisle, _ = glue_sequence(es)
    x = shift(cx_direct_sum([as_cx(projective(alg, 1)),
                             shift(as_cx(simple(alg, 4)), 1)]).cx, 1)
    products = count_calls(monkeypatch, RatMatrix, "__matmul__")
    joins = count_calls(monkeypatch, linalg, "_common")
    maps = count_calls(monkeypatch, RepMap, "__post_init__")
    triangles = []
    real_init = Triangle.__init__

    def counted_init(self, *args, **kwargs):
        triangles.append(self)
        real_init(self, *args, **kwargs)
    monkeypatch.setattr(Triangle, "__init__", counted_init)
    _, _, tri = aisle.truncate(x)
    monkeypatch.undo()
    assert tri.certified()
    assert len(products) <= TRUNCATE_MATMUL_BOUND
    assert len(joins) <= TRUNCATE_COMMON_BOUND
    assert len(maps) <= TRUNCATE_REPMAP_BOUND
    # the nested levels cut without a triangle: one per public truncate
    assert triangles == [tri]


def test_one_part_assembles_to_its_own_evaluation(kron):
    m1, m2 = projective(kron, 1), projective(kron, 2)
    p1, p2 = as_cx(m1), as_cx(m2)
    f = CxMap(p1, p2, {0: hom_space(m1, m2)[0]})
    v, ev = _assemble(p2, [(p1, f, 0)])
    assert v is p1 and ev is f


def _fresh_a4():
    return build_algebra(make_quiver(4, [("a", 1, 2), ("b", 2, 3),
                                         ("c", 3, 4)]))


def _fresh_commsquare():
    q = make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)])
    return build_algebra(q, [Relation.of([(1, ("a", "c")),
                                          (-1, ("b", "d"))])])


@pytest.mark.parametrize("make", [_fresh_a4, _fresh_commsquare])
@pytest.mark.parametrize("j", [-1, 0, 1])
def test_glued_truncation_builds_each_hom_complex_once(monkeypatch, make, j):
    # a Hom complex per r and y, where a second y around the same terms
    # and differentials (a sum rebuilt around its one nonzero part) would
    # build the same deltas and echelons twice
    alg = make()
    n = alg.vertex_count
    es = check_sequence([projective(alg, i) for i in range(1, n + 1)],
                        strong=True)
    aisle, _ = glue_sequence(es)
    x = shift(cx_direct_sum([as_cx(projective(alg, 1)),
                             shift(as_cx(simple(alg, n)), 1)]).cx, j)
    built = count_calls(monkeypatch, derived.HomCx, "__init__")
    a, _, tri = aisle.truncate(x)
    assert tri.certified() and aisle.member(a)
    monkeypatch.undo()
    pairs = [(id(r), tuple((k, id(t)) for k, t in sorted(y.terms.items())),
              tuple((k, id(d)) for k, d in sorted(y.diffs.items())))
             for _, r, y in built]
    assert built and len(set(pairs)) == len(pairs)


@pytest.mark.parametrize("j", [-1, 0, 1])
def test_glued_truncation_builds_no_second_complex_around_a_term(
        monkeypatch, j):
    # a resolution's one-term piece and a brutal truncation to one term
    # are shifts of that module's own complex, so they share its memos
    built = []  # (builder, complex); all kept alive, so no id is reused
    post = Cx.__post_init__

    def spy(self, _by):
        built.append((sys._getframe(2).f_code.co_name, self))
        post(self, _by)
    monkeypatch.setattr(Cx, "__post_init__", spy)
    cuts = count_calls(monkeypatch, derived, "brutal_below")
    alg = _fresh_a4()
    es = check_sequence([projective(alg, i) for i in range(1, 5)],
                        strong=True)
    aisle, _ = glue_sequence(es)
    x = shift(cx_direct_sum([as_cx(projective(alg, 1)),
                             shift(as_cx(simple(alg, 4)), 1)]).cx, j)
    a, _, tri = aisle.truncate(x)
    monkeypatch.undo()
    assert tri.certified() and aisle.member(a)
    seen, repeats = set(), []
    for who, y in built:
        data = (tuple((k, id(t)) for k, t in sorted(y.terms.items())),
                tuple((k, id(d)) for k, d in sorted(y.diffs.items())))
        if data in seen and who in ("_resolve", "brutal_below"):
            repeats.append(who)
        seen.add(data)
    assert cuts and "_resolve" in {who for who, _ in built}
    assert repeats == []
