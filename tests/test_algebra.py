"""Path algebra construction: bases, multiplication, rewriting, validation."""

from fractions import Fraction

import pytest

from heartglue.algebra import (
    AlgebraError,
    BasisPath,
    Relation,
    build_algebra,
    make_quiver,
)
from heartglue.linalg import RatMatrix, rank


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


ALL = [a2, a3, a3rel, kronecker, commsquare]


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


def test_associativity_exhaustive():
    for make in ALL:
        alg = make()
        n = alg.dim
        for i in range(n):
            for j in range(n):
                ij = alg.mult_basis(i, j)
                for k in range(n):
                    left = alg.multiply(ij, {k: Fraction(1)})
                    right = alg.multiply({i: Fraction(1)}, alg.mult_basis(j, k))
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
            assert alg.multiply(one, x) == x
            assert alg.multiply(x, one) == x


def test_dimension_against_linear_algebra_oracle():
    """dim A must equal #paths minus the dimension of the two-sided ideal.

    Independent route: enumerate all paths of the free algebra, span the
    ideal by all u*r*v with r a relation and u, v paths, and compare ranks.
    This split checks that rewriting found a genuine basis.
    """
    for make in ALL:
        alg = make()

        free = build_algebra(alg.quiver)  # no relations: all paths
        paths = {(p.source, p.arrows): i for i, p in enumerate(free.basis)}
        nfree = len(paths)
        if not alg.relations:
            assert alg.dim == nfree
            continue
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
        ideal = RatMatrix.from_cols(ideal_vectors, rows=nfree)
        assert alg.dim == nfree - rank(ideal)


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
