"""Quivers with admissible relations and a concrete finite path basis.

Conventions used throughout the package:

- Vertices are 1..n and carry that total order.
- A path is the tuple of arrow names in traversal order, so the path
  "a then b" is ("a", "b").
- The algebra product x*y composes y first, then x; on composable paths
  x*y = y.arrows + x.arrows. Hence the path ("a", "b") equals b*a.
- Relations are linear combinations of parallel composable paths of length
  at least 2, and they span a two-sided ideal. Paths are ordered by
  (length, names); the leading words are the largest paths of the ideal's
  elements, and the normal words, the paths that are not leading words,
  are the basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import RatMatrix, as_fraction, rref


class AlgebraError(ValueError):
    """Raised when a quiver or relation set fails validation."""


def memo_field():
    """A per-object memo: a dict outside the object's value and repr."""
    return field(default_factory=dict, init=False, repr=False, compare=False)


def memoised(obj, key, build):
    """obj.memo[key], built by build() on the first request."""
    got = obj.memo.get(key)
    if got is None:
        got = obj.memo[key] = build()
    return got


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass(frozen=True)
class Quiver:
    vertex_count: int
    arrows: tuple[Arrow, ...]

    def __post_init__(self):
        if self.vertex_count < 1:
            raise AlgebraError("quiver needs at least one vertex")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate arrow names")
        for a in self.arrows:
            if not (1 <= a.source <= self.vertex_count and 1 <= a.target <= self.vertex_count):
                raise AlgebraError(f"arrow {a.name} has endpoints outside 1..{self.vertex_count}")

    def arrow(self, name: str) -> Arrow:
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def is_strictly_ordered(self) -> bool:
        return all(a.source < a.target for a in self.arrows)


def make_quiver(vertex_count: int, arrows: Iterable[tuple[str, int, int]]) -> Quiver:
    return Quiver(vertex_count, tuple(Arrow(n, s, t) for n, s, t in arrows))


@dataclass(frozen=True)
class Relation:
    """Sum of coefficient-weighted parallel paths, each of length >= 2."""

    terms: tuple[tuple[Fraction, tuple[str, ...]], ...]

    def __post_init__(self):
        if not self.terms:
            raise AlgebraError("empty relation")

    @staticmethod
    def of(terms: Iterable[tuple[object, Sequence[str]]]) -> "Relation":
        return Relation(tuple((as_fraction(c), tuple(p)) for c, p in terms))


@dataclass(frozen=True)
class BasisPath:
    source: int
    target: int
    arrows: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.arrows)

    def is_trivial(self) -> bool:
        return not self.arrows


def _path_endpoints(q: Quiver, path: Sequence[str]) -> tuple[int, int]:
    """Source and target of a nonempty composable arrow-name sequence."""
    try:
        arrows = [q.arrow(n) for n in path]
    except KeyError as e:
        raise AlgebraError(
            f"path {tuple(path)} names unknown arrow {e.args[0]!r}") from None
    for a, b in zip(arrows, arrows[1:]):
        if a.target != b.source:
            raise AlgebraError(
                f"path {tuple(path)} is not composable at {a.name}->{b.name}")
    return arrows[0].source, arrows[-1].target


@dataclass(frozen=True, eq=False)
class PathAlgebraDesc:
    """Finite-dimensional path algebra with a fixed residue-path basis.

    memo holds, from construction by build_algebra, the basis index of
    each path ("index"), the basis paths between two vertices ("between")
    and the normal form of each leading word of the ideal, a {normal
    word: coefficient} dict keyed by (source, word) ("normal_forms");
    reps keeps the algebra's "zero_rep" and the dims and arrow blocks of
    each P_v, keyed by ("projective", v), there too.
    """

    quiver: Quiver
    relations: tuple[Relation, ...]
    basis: tuple[BasisPath, ...]
    memo: dict = memo_field()

    def __post_init__(self):
        between: dict[tuple[int, int], list[BasisPath]] = {}
        for p in self.basis:
            between.setdefault((p.source, p.target), []).append(p)
        self.memo.update(
            index={(p.source, p.arrows): i for i, p in enumerate(self.basis)},
            between={ij: tuple(ps) for ij, ps in between.items()})

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def vertex_count(self) -> int:
        return self.quiver.vertex_count

    def index_of(self, source: int, arrows: tuple[str, ...]) -> int:
        return self.memo["index"][(source, arrows)]

    def idempotent(self, i: int) -> int:
        """Basis index of the length-0 path e_i."""
        if not 1 <= i <= self.vertex_count:
            raise AlgebraError(f"vertex {i} out of range")
        return self.index_of(i, ())

    def paths_between(self, i: int, j: int) -> tuple[BasisPath, ...]:
        """Basis residues with source i and target j (the space p_j A p_i)."""
        if not (1 <= i <= self.vertex_count and 1 <= j <= self.vertex_count):
            raise AlgebraError("vertex out of range")
        return self.memo["between"].get((i, j), ())

    def reduce_path(self, source: int, arrows: tuple[str, ...]) -> dict[int, Fraction]:
        """Residue of a composable path as coefficients over the basis:
        the path itself if it is a normal word, else its normal form."""
        if not arrows:
            return {self.idempotent(source): Fraction(1)}
        i = self.memo["index"].get((source, arrows))
        if i is not None:
            return {i: Fraction(1)}
        return {self.index_of(source, w): c for w, c
                in self.memo["normal_forms"][(source, arrows)].items()}

    def mult_basis(self, i: int, j: int) -> dict[int, Fraction]:
        """Product basis[i] * basis[j] (traverse j first) over the basis."""
        x, y = self.basis[i], self.basis[j]
        if y.target != x.source:
            return {}
        return self.reduce_path(y.source, y.arrows + x.arrows)


def _all_paths(q: Quiver) -> list[BasisPath]:
    out = [BasisPath(i, i, ()) for i in range(1, q.vertex_count + 1)]
    by_source: dict[int, list[Arrow]] = {}
    for a in q.arrows:
        by_source.setdefault(a.source, []).append(a)
    frontier = [BasisPath(a.source, a.target, (a.name,)) for a in q.arrows]
    while frontier:
        out.extend(frontier)
        nxt = []
        for p in frontier:
            for a in by_source.get(p.target, ()):
                nxt.append(BasisPath(p.source, a.target, p.arrows + (a.name,)))
        frontier = nxt
    out.sort(key=lambda p: (p.length, p.source, p.arrows))
    return out


def _normal_forms(quiver: Quiver, relations: Sequence[Relation],
                  paths: Sequence[BasisPath]) -> dict:
    """The normal form of each leading word of the ideal I the relations
    span, keyed by (source, word), as a {word: coefficient} dict over the
    normal words.

    Words are read in traversal order, so w a is w followed by the arrow
    a.  The quiver is strictly ordered, so I is finite, and its part
    I(i, j) on the paths i -> j is spanned by the relations from i to j,
    by I(i, k) a for each arrow a: k -> j, and by b I(k, j) for each arrow
    b: i -> k.  Proof: I(i, j) is spanned by the elements u r v with r a
    relation and u, v paths.  If v is nontrivial, peel off its last arrow
    a, and u r v lies in I(i, k) a; otherwise, if u is nontrivial, peel
    off its first arrow b, and u r v lies in b I(k, j); otherwise the
    element is r.  Every such k lies strictly between i and j, so the
    parts are computed in increasing j - i, each from the reduced rows of
    smaller parts.  The rref of a part, with its paths as columns in
    decreasing (length, names) order, pivots on its leading words, and a
    leading word's normal form is minus the rest of its row.  This is the
    reduced Groebner basis of I for that order (Bergman 1978; Green 1999).
    """
    arrows = {a.name: a for a in quiver.arrows}
    words: dict[tuple[int, int], list[tuple[str, ...]]] = {}
    for p in paths:
        if p.arrows:
            words.setdefault((p.source, p.target), []).append(p.arrows)
    # each class's relations, then, once its part is computed, its rows
    rows: dict[tuple[int, int], list[dict]] = {}
    for rel in relations:
        merged: dict[tuple[str, ...], Fraction] = {}
        for c, w in rel.terms:
            merged[w] = merged.get(w, Fraction(0)) + c
        merged = {w: c for w, c in merged.items() if c != 0}
        if not merged:
            raise AlgebraError("relation with all coefficients zero")
        w = next(iter(merged))
        rows.setdefault((arrows[w[0]].source, arrows[w[-1]].target),
                        []).append(merged)
    into: dict[int, list[Arrow]] = {}
    out_of: dict[int, list[Arrow]] = {}
    for a in quiver.arrows:
        into.setdefault(a.target, []).append(a)
        out_of.setdefault(a.source, []).append(a)
    forms = {}
    for i, j in sorted(words, key=lambda ij: ij[1] - ij[0]):
        gens = list(rows.get((i, j), ()))
        for a in into.get(j, ()):
            gens += [{w + (a.name,): c for w, c in r.items()}
                     for r in rows.get((i, a.source), ())]
        for a in out_of.get(i, ()):
            gens += [{(a.name,) + w: c for w, c in r.items()}
                     for r in rows.get((a.target, j), ())]
        if not gens:
            continue
        cols = sorted(words[(i, j)], key=lambda w: (len(w), w), reverse=True)
        pos = {w: t for t, w in enumerate(cols)}
        red, pivots = rref(RatMatrix.from_sparse(
            [{pos[w]: c for w, c in g.items()} for g in gens], len(cols)))
        part = rows[(i, j)] = []
        for k, lead in enumerate(pivots):
            row = {cols[t]: x for t, x in red.row_entries(k).items()}
            part.append(row)
            forms[(i, cols[lead])] = {w: -x for w, x in row.items()
                                      if w != cols[lead]}
    return forms


def build_algebra(quiver: Quiver, relations: Sequence[Relation] = ()) -> PathAlgebraDesc:
    """Validate the input and assemble the finite basis of KQ modulo relations.

    Rejects quivers that are not strictly ordered (which also enforces
    acyclicity) and relation sets that are not admissible.  Any generating
    set of the ideal is accepted: the basis is the normal words of the
    ideal, whatever relations span it.
    """
    if not quiver.is_strictly_ordered():
        bad = [a.name for a in quiver.arrows if a.source >= a.target]
        raise AlgebraError(
            f"quiver is not strictly ordered; offending arrows: {bad} "
            "(every arrow must satisfy source < target)")
    rels = tuple(relations)
    for rel in rels:
        endpoints = None
        for c, p in rel.terms:
            if len(p) < 2:
                raise AlgebraError(f"relation term {p} has length < 2")
            ep = _path_endpoints(quiver, p)
            if endpoints is None:
                endpoints = ep
            elif ep != endpoints:
                raise AlgebraError(
                    f"relation mixes non-parallel paths ({endpoints} vs {ep})")
    paths = _all_paths(quiver)
    forms = _normal_forms(quiver, rels, paths)
    basis = tuple(p for p in paths if (p.source, p.arrows) not in forms)
    alg = PathAlgebraDesc(quiver, rels, basis)
    alg.memo["normal_forms"] = forms
    for rel in rels:
        combo: dict[int, Fraction] = {}
        src = _path_endpoints(quiver, rel.terms[0][1])[0]
        for c, p in rel.terms:
            for k, ck in alg.reduce_path(src, p).items():
                combo[k] = combo.get(k, Fraction(0)) + c * ck
        if any(c != 0 for c in combo.values()):
            raise AlgebraError(f"relation {rel} does not vanish after reduction")
    return alg
