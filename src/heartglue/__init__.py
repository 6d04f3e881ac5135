"""Exact homological computations over finite-dimensional quiver path algebras.

Layers, bottom up:

- linalg: exact rational matrices (rref, kernels, solving).
- algebra: quivers with admissible relations and their finite path basis.
- reps: right modules as quiver representations, Hom spaces, (co)kernels,
  simples, projectives.
- complexes: bounded complexes, shifts, cones, truncation, triangles.
- derived: projective resolutions and derived Hom spaces with composition.
- yoneda: n-extensions, Baer sum, Yoneda product, the comparison map into
  derived Hom, and the heart-relative factorization test.
- glue: exceptional sequences, aisle descriptions, compatibility, glued
  t-structures and the heart dimension formula.
- bondal: endomorphism algebras of strong exceptional sequences, quiver
  presentations, and the module-valued functor.
- jsonio: JSON descriptions of algebras, modules and object lists.
- cli: the ``heartglue`` command line front end over JSON descriptions.
"""

__version__ = "0.1.0"
