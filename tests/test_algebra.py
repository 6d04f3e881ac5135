"""Path algebra construction: bases, multiplication, normal forms, validation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import auslander
from heartglue.algebra import (
    AlgebraError,
    BasisPath,
    Relation,
    build_algebra,
    make_quiver,
)
from heartglue.linalg import RatMatrix, rank, span_membership


def a2():
    return build_algebra(make_quiver(2, [("a", 1, 2)]))


def a3():
    return build_algebra(make_quiver(3, [("a", 1, 2), ("b", 2, 3)]))


def a3rel():
    return build_algebra(
        make_quiver(3, [("a", 1, 2), ("b", 2, 3)]),
        [Relation.of([(1, ["a", "b"])])],
    )


def kronecker():
    return build_algebra(make_quiver(2, [("a", 1, 2), ("b", 1, 2)]))


def commsquare():
    return build_algebra(
        make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)]),
        [Relation.of([(1, ["a", "c"]), (-1, ["b", "d"])])],
    )


def commsquare_two_relations():
    # ac - bd and ac - 2bd: both lead with bd, and together they
    # kill the diagonal
    return build_algebra(
        make_quiver(4, [("a", 1, 2), ("b", 1, 3), ("c", 2, 4), ("d", 3, 4)]),
        [Relation.of([(1, ["a", "c"]), (-1, ["b", "d"])]),
         Relation.of([(1, ["a", "c"]), (-2, ["b", "d"])])],
    )


def auslander3():
    # horizontal arrows a..., vertical b...: the mesh relations are not a
    # Groebner basis of their ideal for the (length, names) order
    return auslander(3, "a", "b")


ALL = [a2, a3, a3rel, kronecker, commsquare, commsquare_two_relations,
       auslander3]


def test_a2_basis():
    alg = a2()
    assert alg.dim == 3
    assert {(p.source, p.arrows) for p in alg.basis} == {(1, ()), (2, ()), (1, ("a",))}


def test_kronecker_basis():
    assert kronecker().dim == 4


def test_a3rel_basis_drops_composite():
    alg = a3rel()
    assert alg.dim == 5
    assert all(p.arrows != ("a", "b") for p in alg.basis)


def test_a3_keeps_composite():
    alg = a3()
    assert alg.dim == 6
    assert any(p.arrows == ("a", "b") for p in alg.basis)


def test_commsquare_identifies_diagonal():
    alg = commsquare()
    # e1..e4, a, b, c, d, and one diagonal residue
    assert alg.dim == 9
    red_ac = alg.reduce_path(1, ("a", "c"))
    red_bd = alg.reduce_path(1, ("b", "d"))
    assert red_ac == red_bd


def test_two_commutativity_relations_kill_the_diagonal():
    alg = commsquare_two_relations()
    assert alg.dim == 8
    assert alg.reduce_path(1, ("a", "c")) == {}
    assert alg.reduce_path(1, ("b", "d")) == {}


def test_idempotent_laws():
    alg = a2()
    e1, e2 = alg.idempotent(1), alg.idempotent(2)
    assert alg.mult_basis(e1, e1) == {e1: Fraction(1)}
    assert alg.mult_basis(e1, e2) == {}
    a = alg.index_of(1, ("a",))
    # e2 * a = a (a ends at 2), a * e2 = 0 (a starts at 1)
    assert alg.mult_basis(e2, a) == {a: Fraction(1)}
    assert alg.mult_basis(a, e2) == {}
    assert alg.mult_basis(a, e1) == {a: Fraction(1)}


def test_product_concatenates_in_traversal_order():
    alg = a3()
    a = alg.index_of(1, ("a",))
    b = alg.index_of(2, ("b",))
    ba = alg.index_of(1, ("a", "b"))
    # b*a traverses a first
    assert alg.mult_basis(b, a) == {ba: Fraction(1)}
    assert alg.mult_basis(a, b) == {}


def _times(alg, u, v):
    """The product of two elements given over the basis, extended
    bilinearly from mult_basis, zero coefficients dropped."""
    out: dict[int, Fraction] = {}
    for i, ci in u.items():
        for j, cj in v.items():
            for k, ck in alg.mult_basis(i, j).items():
                out[k] = out.get(k, Fraction(0)) + ci * cj * ck
    return {k: c for k, c in out.items() if c != 0}


def test_associativity_exhaustive():
    for make in ALL:
        alg = make()
        n = alg.dim
        for i in range(n):
            for j in range(n):
                ij = alg.mult_basis(i, j)
                for k in range(n):
                    left = _times(alg, ij, {k: Fraction(1)})
                    right = _times(alg, {i: Fraction(1)}, alg.mult_basis(j, k))
                    assert left == right


def test_peirce_decomposition():
    for make in ALL:
        alg = make()
        n = alg.quiver.vertex_count
        seen = []
        total = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                part = alg.paths_between(i, j)
                total += len(part)
                seen.extend(part)
        assert total == alg.dim
        assert sorted(seen, key=id) is not None
        assert set(seen) == set(alg.basis)


def test_paths_between_examples():
    k = kronecker()
    assert len(k.paths_between(1, 2)) == 2
    assert k.paths_between(2, 2) == (BasisPath(2, 2, ()),)
    assert a2().paths_between(2, 1) == ()


def test_identity_element():
    for make in ALL:
        alg = make()
        one = {alg.idempotent(i): Fraction(1) for i in range(1, alg.vertex_count + 1)}
        for i in range(alg.dim):
            x = {i: Fraction(1)}
            assert _times(alg, one, x) == x
            assert _times(alg, x, one) == x


def ideal_span(alg) -> tuple[list[BasisPath], dict, RatMatrix]:
    """Every path of the free algebra, the index of each, and the matrix
    whose columns are every u*r*v, r a relation of alg and u, v paths, in
    dense Fractions: the two-sided ideal spanned the long way."""
    free = build_algebra(alg.quiver)  # no relations: all paths
    paths = {(p.source, p.arrows): i for i, p in enumerate(free.basis)}
    nfree = len(paths)
    ideal_vectors = []
    for rel in alg.relations:
        src = free.quiver.arrow(rel.terms[0][1][0]).source
        tgt = free.quiver.arrow(rel.terms[0][1][-1]).target
        for (usrc, u) in paths:
            for (vsrc, v) in paths:
                # u * r * v: traverse v, then r, then u
                uarr = u
                varr = v
                if not varr and vsrc != src:
                    continue
                if varr and free.quiver.arrow(varr[-1]).target != src:
                    continue
                if not uarr and usrc != tgt:
                    continue
                if uarr and free.quiver.arrow(uarr[0]).source != tgt:
                    continue
                vec = [Fraction(0)] * nfree
                for c, p in rel.terms:
                    word = varr + p + uarr
                    vec[paths[(vsrc if varr else src, word)]] += c
                ideal_vectors.append(vec)
    return free.basis, paths, RatMatrix(ideal_vectors, cols=nfree).transpose()


def assert_matches_oracle(alg):
    """dim A is #paths minus the rank of the ideal, and every path p
    reduces to parallel basis words with p - reduce_path(p) in the ideal."""
    free, paths, ideal = ideal_span(alg)
    assert alg.dim == len(paths) - rank(ideal)
    for i, p in enumerate(free):
        vec = [Fraction(0)] * len(paths)
        vec[i] += 1
        for k, c in alg.reduce_path(p.source, p.arrows).items():
            b = alg.basis[k]
            assert (b.source, b.target) == (p.source, p.target)
            vec[paths[(b.source, b.arrows)]] -= c
        assert span_membership(RatMatrix.column(vec), ideal)


def test_dimension_against_linear_algebra_oracle():
    """dim A must equal #paths minus the dimension of the two-sided ideal,
    and each normal form must differ from its path by an ideal element.

    Independent route: enumerate all paths of the free algebra, span the
    ideal by all u*r*v with r a relation and u, v paths, and compare ranks
    and memberships.  This split checks that the normal forms are right
    and their words a genuine basis.
    """
    for make in ALL:
        assert_matches_oracle(make())


@st.composite
def random_relation_sets(draw):
    """A strictly ordered quiver on at most 5 vertices and 7 arrows, and
    1-3 relations, each a random integer combination of the parallel
    paths of length >= 2 between two vertices."""
    n = draw(st.integers(2, 5))
    ends = draw(st.lists(st.tuples(st.integers(1, n - 1), st.integers(1, n)),
                         min_size=1, max_size=7))
    arrows = [(f"x{k}", s, max(t, s + 1)) for k, (s, t) in enumerate(ends)]
    quiver = make_quiver(n, arrows)
    classes: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for p in build_algebra(quiver).basis:
        if p.length >= 2:
            classes.setdefault((p.source, p.target), []).append(p.arrows)
    assume(classes)
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        words = classes[draw(st.sampled_from(sorted(classes)))]
        coefs = draw(st.lists(st.integers(-3, 3), min_size=len(words),
                              max_size=len(words)))
        relations.append(Relation.of(zip(coefs, words)))
    return quiver, relations


@settings(max_examples=100, deadline=None)
@given(random_relation_sets())
def test_any_relation_set_builds_and_matches_oracle(drawn):
    """Every admissible relation set loads, whatever its leading words;
    only a relation that is zero is refused.  Renaming the arrows in
    reverse order changes the leading words but not the dimension of any
    part."""
    quiver, relations = drawn
    try:
        alg = build_algebra(quiver, relations)
    except AlgebraError as e:
        assert str(e) == "relation with all coefficients zero"
        return
    assert_matches_oracle(alg)
    names = [a.name for a in quiver.arrows]
    rename = dict(zip(names, reversed(names)))
    renamed = build_algebra(
        make_quiver(quiver.vertex_count,
                    [(rename[a.name], a.source, a.target)
                     for a in quiver.arrows]),
        [Relation.of((c, [rename[x] for x in w]) for c, w in r.terms)
         for r in relations])
    assert renamed.dim == alg.dim
    n = quiver.vertex_count
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert (len(renamed.paths_between(i, j))
                    == len(alg.paths_between(i, j)))


def test_rejects_cycle():
    with pytest.raises(AlgebraError):
        build_algebra(make_quiver(2, [("a", 1, 2), ("b", 2, 1)]))
    with pytest.raises(AlgebraError):
        build_algebra(make_quiver(1, [("a", 1, 1)]))


def test_rejects_short_relation():
    q = make_quiver(2, [("a", 1, 2)])
    with pytest.raises(AlgebraError):
        build_algebra(q, [Relation.of([(1, ["a"])])])


def test_rejects_non_parallel_relation():
    q = make_quiver(3, [("a", 1, 2), ("b", 2, 3), ("c", 1, 2)])
    with pytest.raises(AlgebraError):
        build_algebra(q, [Relation.of([(1, ["a", "b"]), (1, ["c"])])])


def test_rejects_duplicate_arrow_names():
    with pytest.raises(AlgebraError):
        make_quiver(2, [("a", 1, 2), ("a", 1, 2)])
