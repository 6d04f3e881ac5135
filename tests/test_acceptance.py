"""Acceptance suite: nine headline checks, one verdict line each.

Every test prints "criterion N: PASS/FAIL - summary" (visible with -s).
All equalities are exact; randomized parts use fixed seeds.
"""

import json
import random
from fractions import Fraction

import pytest

from heartglue.algebra import build_algebra, make_quiver
from heartglue.bondal import (end_algebra, faithful_full_check,
                              projective_compare, quiver_presentation)
from heartglue.cli import JobSpec, corpus_path, load_corpus, run
from heartglue.complexes import (cohomology_dims, cone, cx_direct_sum,
                                 is_acyclic, ses_to_triangle, shift,
                                 shift_map, triangle_to_ses)
from heartglue.derived import (DHomClass, as_cx, compose_classes, derived_hom,
                               dhom_space, minimal_model)
from heartglue.glue import (AddGeneratedAisle, HeartDesc, check_dim_formula,
                            check_sequence, glue, glue_sequence)
from heartglue.jsonio import load_algebra
from heartglue.linalg import RatMatrix, rank
from heartglue.reps import (Rep, RepError, cokernel, exact_certificate,
                            filtration_inclusion, filtration_step, hom_space,
                            kernel, projective, simple, zero_map)
from heartglue.yoneda import (baer_sum, f_map, f_map_via_quasi_iso,
                              factor_image_dim, factors_through,
                              splice_from_class, yoneda_product)


class _Verdict:
    """Prints one pass/fail line for the enclosing criterion."""

    def __init__(self, n: int, detail: str):
        self.n, self.detail = n, detail

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        tag = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n}: {tag} - {self.detail}")
        return False


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def _chi(x):
    out = [0] * x.algebra.vertex_count
    for i, dims in cohomology_dims(x).items():
        sign = -1 if i % 2 else 1
        for v, d in enumerate(dims):
            out[v] += sign * d
    return tuple(out)


def _random_rep(rng, alg):
    while True:
        d = tuple(rng.randint(0, 2) for _ in range(alg.vertex_count))
        maps = {}
        for a in alg.quiver.arrows:
            r, c = d[a.source - 1], d[a.target - 1]
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(c)]
                    for _ in range(r)]
            maps[a.name] = RatMatrix(rows, cols=c)
        try:
            return Rep(alg, d, maps)
        except RepError:
            continue


def _random_module_map(rng, alg):
    while True:
        src, tgt = _random_rep(rng, alg), _random_rep(rng, alg)
        homs = hom_space(src, tgt)
        if not homs:
            continue
        total = zero_map(src, tgt)
        for h in homs:
            total = total + h.scale(Fraction(rng.randint(-1, 1)))
        return total


def _random_class(rng, sp):
    return DHomClass(sp, tuple(Fraction(rng.randint(-3, 3))
                               for _ in range(sp.dim)))


def test_criterion_1_kronecker_pair(corpus):
    with _Verdict(1, "Kronecker pair: ext table, strongness, "
                     "endomorphism algebra"):
        kron = corpus["kronecker"]
        code, rendered = run(JobSpec(
            command="ext-table",
            algebra_path=str(corpus_path("kronecker")),
            window=6, output="json"))
        assert code == 0
        rep = json.loads(rendered)
        assert rep["window"] == 6
        cross = [e for e in rep["entries"]
                 if e["source"] == 1 and e["target"] == 2]
        assert cross == [{"dim": 2, "shift": 0, "source": 1, "target": 2}]
        p1, p2 = projective(kron, 1), projective(kron, 2)
        for n in range(-6, 7):
            assert derived_hom(as_cx(p1), as_cx(p2), n) \
                == (2 if n == 0 else 0)
        es = check_sequence([p1, p2], strong=True)
        assert es.strong
        end = end_algebra(es)
        assert end.dim == 4
        pres = quiver_presentation(end)
        q = pres.algebra.quiver
        assert q.vertex_count == 2
        assert sorted((a.source, a.target) for a in q.arrows) \
            == [(1, 2), (1, 2)]
        assert not pres.algebra.relations
        assert pres.algebra.dim == 4


def test_criterion_2_dimension_formula(corpus):
    with _Verdict(2, "heart dimension formula on three gluing "
                     "configurations"):
        kron = corpus["kronecker"]
        es = check_sequence([projective(kron, 1), projective(kron, 2)],
                            strong=True)
        _, heart = glue_sequence(es)
        h1 = HeartDesc((es.object(1),), provenance="left", window=6)
        h2 = HeartDesc((es.object(2),), provenance="right", window=6)
        rep = check_dim_formula(h1, h2, heart)
        print(f"  kronecker pair: lhs={rep.lhs} rhs=max(left={rep.dim_left},"
              f" right={rep.dim_right}, rel+1={rep.rel + 1})={rep.rhs}")
        assert rep.ok
        assert (rep.lhs, rep.rhs, rep.dim_left, rep.dim_right, rep.rel) \
            == (1, 1, 0, 0, 0)

        ortho = build_algebra(make_quiver(2, []))
        one = AddGeneratedAisle((simple(ortho, 1),))
        two = AddGeneratedAisle((simple(ortho, 2),))
        _, heart = glue(one, two)
        h1 = HeartDesc(one.heart_gens(), provenance="left", window=5)
        h2 = HeartDesc(two.heart_gens(), provenance="right", window=5)
        rep = check_dim_formula(h1, h2, heart)
        print(f"  orthogonal pair: lhs={rep.lhs} rhs=max(left="
              f"{rep.dim_left}, right={rep.dim_right}, "
              f"rel+1={rep.rel + 1})={rep.rhs}")
        assert rep.ok
        assert (rep.lhs, rep.rhs, rep.dim_left, rep.dim_right, rep.rel) \
            == (0, 0, 0, 0, -1)

        a3rel = corpus["a3rel"]
        pieces = [AddGeneratedAisle((projective(a3rel, i),))
                  for i in (1, 2, 3)]
        acc, h12 = glue(pieces[0], pieces[1])
        _, h123 = glue(acc, pieces[2])
        h3 = HeartDesc(pieces[2].heart_gens(), provenance="right", window=8)
        rep = check_dim_formula(h12, h3, h123)
        print(f"  iterated three-term: lhs={rep.lhs} rhs=max(left="
              f"{rep.dim_left}, right={rep.dim_right}, "
              f"rel+1={rep.rel + 1})={rep.rhs}")
        assert rep.ok
        assert (rep.lhs, rep.rhs, rep.dim_left, rep.dim_right, rep.rel) \
            == (1, 1, 1, 0, 0)


def test_criterion_3_glued_aisles_are_t_structures(corpus):
    with _Verdict(3, "glued aisle t-structure laws on 50+ objects"):
        rng = random.Random(70577)
        checked = 0
        for name in sorted(corpus):
            alg = corpus[name]
            ps = [projective(alg, i)
                  for i in range(1, alg.vertex_count + 1)]
            es = check_sequence(ps, strong=True)
            aisle, _ = glue_sequence(es)
            pool = []
            for i in range(1, alg.vertex_count + 1):
                pool.append(as_cx(simple(alg, i)))
                pool.append(as_cx(projective(alg, i)))
            parts = []
            for _ in range(10):
                x = cx_direct_sum(
                    [rng.choice(pool),
                     shift(rng.choice(pool), rng.randint(-2, 2))]).cx
                x = shift(x, rng.randint(-1, 1))
                a, b, tri = aisle.truncate(x)
                assert tri.certified()
                assert aisle.member(a)
                assert aisle.member(shift(a, 1))
                assert derived_hom(a, b, 0) == 0
                chi_sum = tuple(u + v for u, v in zip(_chi(a), _chi(b)))
                assert chi_sum == _chi(x)
                # idempotence, re-truncating a small model of a: truncation
                # only sees the quasi-isomorphism class
                small, q = minimal_model(a)
                assert is_acyclic(cone(q).cx)
                again, rest, _ = aisle.truncate(small)
                assert is_acyclic(rest)
                assert cohomology_dims(again) == cohomology_dims(a)
                parts.append((a, b))
                checked += 1
            for _ in range(5):
                a, _ = rng.choice(parts)
                _, b = rng.choice(parts)
                assert derived_hom(a, b, 0) == 0
        assert checked >= 50


def test_criterion_4_yoneda_oracle(corpus):
    with _Verdict(4, "extension calculus agrees with derived "
                     "composition"):
        rng = random.Random(61501)
        spaces = []
        for name in sorted(corpus):
            alg = corpus[name]
            objs = [simple(alg, i)
                    for i in range(1, alg.vertex_count + 1)]
            objs += [projective(alg, i)
                     for i in range(1, alg.vertex_count + 1)]
            for a in objs:
                for b in objs:
                    for n in (1, 2, 3):
                        sp = dhom_space(a, b, n)
                        if sp.dim == 0:
                            continue
                        spaces.append((a, b, n, sp))
                        for c in sp.basis():
                            ext = splice_from_class(c, a, b, n)
                            assert f_map(ext).coords == c.coords
                            assert f_map_via_quasi_iso(ext).coords \
                                == c.coords
                        c = _random_class(rng, sp)
                        assert f_map(splice_from_class(c, a, b, n)).coords \
                            == c.coords
        assert spaces

        baer = 0
        while baer < 100:
            a, b, n, sp = spaces[baer % len(spaces)]
            u, v = _random_class(rng, sp), _random_class(rng, sp)
            x = splice_from_class(u, a, b, n)
            y = splice_from_class(v, a, b, n)
            assert f_map(baer_sum(x, y)).coords == (u + v).coords
            baer += 1

        combos = [(inner, outer)
                  for inner in spaces for outer in spaces
                  if outer[1] is inner[0] and inner[2] + outer[2] <= 3]
        assert combos
        triples = 0
        while triples < 100:
            (a1, b1, n1, sp1), (a2, _, n2, sp2) = \
                combos[triples % len(combos)]
            ci, co = _random_class(rng, sp1), _random_class(rng, sp2)
            x = splice_from_class(ci, a1, b1, n1)
            y = splice_from_class(co, a2, a1, n2)
            prod = yoneda_product(y, x)
            assert f_map(prod).coords == compose_classes(ci, co).coords
            triples += 1


def test_criterion_5_shifted_pair_factorization_gap(corpus):
    with _Verdict(5, "Kronecker shifted-pair heart misses degree-2 "
                     "classes"):
        kron = corpus["kronecker"]
        rng = random.Random(20571)
        p1, p2 = projective(kron, 1), projective(kron, 2)
        left = AddGeneratedAisle((shift(as_cx(p1), 1),), window=6)
        right = AddGeneratedAisle((as_cx(p2),), window=6)
        _, heart = glue(left, right, window=6)
        gens = heart.generators
        assert [cohomology_dims(g) for g in gens] \
            == [{0: (2, 1)}, {-2: (1, 0)}]
        sp = dhom_space(shift(as_cx(p1), 2), as_cx(p2), 2)
        assert sp.dim == 2
        for c in sp.basis():
            assert factors_through(c, gens) is False
        for _ in range(5):
            c = _random_class(rng, sp)
            assert factors_through(c, gens) is (c.is_zero())
        assert factors_through(sp.zero(), gens) is True
        # factoring classes form a subspace; its dimension being 0 covers
        # every nonzero class at once, against the full dimension 2
        assert factor_image_dim(sp.x, sp.y, 2, gens) == 0


def test_criterion_6_three_term_branch_class_escapes():
    with _Verdict(6, "three-term glued heart misses the branch arrow "
                     "class"):
        alg = load_algebra(str(corpus_path("branching")))
        ps = [projective(alg, i) for i in (1, 2, 3)]
        es = check_sequence(ps, strong=True)
        _, heart = glue_sequence(es)
        assert [cohomology_dims(g) for g in heart.generators] \
            == [{0: (1, 0, 1)}, {-1: (1, 1, 0)}, {-2: (1, 0, 0)}]
        sp = dhom_space(shift(as_cx(ps[0]), 2), as_cx(ps[2]), 2)
        assert sp.dim == 1
        c = sp.basis()[0]
        assert factors_through(c, heart.generators) is False
        assert factors_through(sp.zero(), heart.generators) is True
        assert factor_image_dim(sp.x, sp.y, 2, heart.generators) == 0


def test_criterion_7_projective_structure(corpus):
    with _Verdict(7, "filtration quotients, top sequences, path "
                     "counting"):
        for name in sorted(corpus):
            alg = corpus[name]
            nv = alg.vertex_count
            for i in range(1, nv + 1):
                p = projective(alg, i)
                for k in range(1, nv + 1):
                    quot, _ = cokernel(filtration_inclusion(p, k))
                    expect = tuple(p.dims[v] if v + 1 == k else 0
                                   for v in range(nv))
                    assert quot.dims == expect, (name, i, k)
                _, step = filtration_step(p, i - 1)
                top, proj = cokernel(step)
                exact_certificate(step, proj)
                assert top.dims == simple(alg, i).dims, (name, i)
            for i in range(1, nv + 1):
                for j in range(1, nv + 1):
                    d = len(hom_space(projective(alg, i),
                                      projective(alg, j)))
                    assert d == len(alg.paths_between(i, j)), (name, i, j)
                    if i > j:
                        assert d == 0, (name, i, j)


def test_criterion_8_ses_triangle_round_trip(corpus):
    with _Verdict(8, "module sequences and degree-0 triangles "
                     "correspond"):
        rng = random.Random(44100)
        done = 0
        tri = None
        for name in sorted(corpus):
            alg = corpus[name]
            for _ in range(10):
                f = _random_module_map(rng, alg)
                _, incl = kernel(f)
                _, proj = cokernel(incl)
                tri = ses_to_triangle(incl, proj)
                assert tri.certified()
                back = triangle_to_ses(tri)
                assert back is not None
                f0, g0 = back
                assert f0.same_blocks(incl)
                assert g0.same_blocks(proj)
                done += 1
        assert done >= 50
        shifted = type(tri)(shift(tri.left, 1), shift(tri.mid, 1),
                            shift(tri.right, 1), shift_map(tri.f, 1),
                            shift_map(tri.g, 1))
        assert triangle_to_ses(shifted) is None


def test_criterion_9_bondal_correspondence(corpus):
    with _Verdict(9, "hom functor sends the sequence to the "
                     "projectives, faithfully"):
        rng = random.Random(31416)
        for name in sorted(corpus):
            alg = corpus[name]
            ps = [projective(alg, i)
                  for i in range(1, alg.vertex_count + 1)]
            es = check_sequence(ps, strong=True)
            pres = quiver_presentation(end_algebra(es))
            for i in range(1, alg.vertex_count + 1):
                cmp = projective_compare(pres, i)
                assert cmp.target.dims \
                    == projective(pres.algebra, i).dims, (name, i)
                for v in range(1, alg.vertex_count + 1):
                    blk = cmp.block(v)
                    assert blk.shape[0] == blk.shape[1]
                    assert rank(blk) == blk.shape[0]
            rep = faithful_full_check(pres)
            assert rep.ok and not rep.mismatches, name

        kron = corpus["kronecker"]
        es = check_sequence([projective(kron, 1), projective(kron, 2)],
                            strong=True)
        pres = quiver_presentation(end_algebra(es))
        mods = [_random_rep(rng, kron) for _ in range(10)]
        pairs = [(rng.choice(mods), rng.choice(mods)) for _ in range(20)]
        rep = faithful_full_check(pres, pairs=pairs)
        assert rep.ok and rep.pairs == 20
