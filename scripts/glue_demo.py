"""Glue the standard heart of a three-vertex algebra and truncate through it.

Walks the full pipeline once: check the projectives form a strong sequence,
glue their one-object aisles, read off the tilted heart, split a test object
by the glued truncation, and evaluate the homological dimension bound.
"""

from heartglue.cli import load_corpus
from heartglue.complexes import cohomology_dims, cx_direct_sum, shift
from heartglue.derived import as_cx, minimal_model
from heartglue.glue import check_dim_formula, check_sequence, glue_sequence
from heartglue.reps import projective, simple


def main():
    alg = load_corpus()["a3rel"]
    ps = [projective(alg, i) for i in range(1, 4)]
    es = check_sequence(ps, strong=True)
    aisle, heart = glue_sequence(es)
    print("heart generators (degree: dims):")
    for g in heart.generators:
        print(" ", cohomology_dims(g))

    x = shift(cx_direct_sum([as_cx(simple(alg, 2)),
                             shift(as_cx(ps[0]), 2)]).cx, -1)
    a, b, tri = aisle.truncate(x)
    print("object split:", cohomology_dims(x))
    print("  lower part:", cohomology_dims(a), "in aisle:", aisle.member(a))
    print("  upper part:", cohomology_dims(b))
    print("  triangle certified:", tri.certified())
    small, _ = minimal_model(a)
    print("  lower part has a representative of total dim",
          small.total_dim, "down from", a.total_dim)

    # as the dim-formula command does: the formula compares the hearts of
    # the last gluing step's two pieces with the glued heart
    rep = check_dim_formula(aisle.left.heart(), aisle.right.heart(), heart)
    print("dimension bound: lhs =", rep.lhs, " rhs =", rep.rhs,
          f"(left {rep.dim_left}, right {rep.dim_right}, rel {rep.rel})")


if __name__ == "__main__":
    main()
