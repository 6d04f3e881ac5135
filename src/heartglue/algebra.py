"""Quivers with admissible relations and a concrete finite path basis.

Conventions used throughout the package:

- Vertices are 1..n and carry that total order.
- A path is the tuple of arrow names in traversal order, so the path
  "a then b" is ("a", "b").
- The algebra product x*y composes y first, then x; on composable paths
  x*y = y.arrows + x.arrows. Hence the path ("a", "b") equals b*a.
- Relations are linear combinations of parallel composable paths of length
  at least 2, oriented into rewrite rules by largest (length, names) term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .linalg import as_fraction


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


def _deglex_key(path: tuple[str, ...]) -> tuple:
    return (len(path), path)


class _Rewriter:
    """Path rewriting system for an admissible relation set."""

    def __init__(self, quiver: Quiver, relations: Sequence[Relation]):
        self.rules: dict[tuple[str, ...], dict[tuple[str, ...], Fraction]] = {}
        for rel in relations:
            merged: dict[tuple[str, ...], Fraction] = {}
            for c, p in rel.terms:
                merged[p] = merged.get(p, Fraction(0)) + c
            merged = {p: c for p, c in merged.items() if c != 0}
            if not merged:
                raise AlgebraError("relation with all coefficients zero")
            lead = max(merged, key=_deglex_key)
            lc = merged[lead]
            rhs = {p: -c / lc for p, c in merged.items() if p != lead}
            if lead in self.rules and self.rules[lead] != rhs:
                raise AlgebraError(f"conflicting rules for leading path {lead}")
            self.rules[lead] = rhs

    def _first_redex(self, word: tuple[str, ...]) -> tuple[int, tuple[str, ...]] | None:
        for start in range(len(word)):
            for lead in self.rules:
                k = len(lead)
                if word[start:start + k] == lead:
                    return start, lead
        return None

    def _step(self, prefix: tuple[str, ...], lead: tuple[str, ...],
              suffix: tuple[str, ...]) -> dict[tuple[str, ...], Fraction]:
        """prefix + lead + suffix rewritten once, at its lead.  The words
        of a rule are distinct, so the rewritten words are too."""
        return {prefix + r + suffix: c for r, c in self.rules[lead].items()}

    def reduce_word(self, word: tuple[str, ...]) -> dict[tuple[str, ...], Fraction]:
        return self.reduce_combo({word: Fraction(1)})

    def reduce_combo(self, combo: dict[tuple[str, ...], Fraction]) -> dict[tuple[str, ...], Fraction]:
        work = {p: c for p, c in combo.items() if c != 0}
        while True:
            hit = None
            for p in sorted(work, key=_deglex_key, reverse=True):
                found = self._first_redex(p)
                if found is not None:
                    hit = (p, found)
                    break
            if hit is None:
                return work
            p, (start, lead) = hit
            coef = work.pop(p)
            step = self._step(p[:start], lead, p[start + len(lead):])
            for newp, rc in step.items():
                work[newp] = work.get(newp, Fraction(0)) + coef * rc
                if work[newp] == 0:
                    del work[newp]

    def confluent(self) -> tuple[bool, str]:
        """Exhaustively inspect critical pairs (overlaps and containments)."""
        leads = list(self.rules)
        for l1 in leads:
            for l2 in leads:
                # suffix of l1 meets prefix of l2: superposition l1[:-k] l1[-k:] l2[k:]
                for k in range(1, min(len(l1), len(l2))):
                    if l1[-k:] == l2[:k]:
                        via1 = self._step((), l1, l2[k:])
                        via2 = self._step(l1[:-k], l2, ())
                        if self.reduce_combo(via1) != self.reduce_combo(via2):
                            return False, f"overlap of {l1} and {l2} does not resolve"
                # l1 properly contained in l2
                if l1 != l2:
                    for start in range(len(l2) - len(l1) + 1):
                        if l2[start:start + len(l1)] == l1:
                            via1 = self._step(l2[:start], l1,
                                              l2[start + len(l1):])
                            via2 = self._step((), l2, ())
                            if self.reduce_combo(via1) != self.reduce_combo(via2):
                                return False, f"containment of {l1} in {l2} does not resolve"
        return True, ""


@dataclass(frozen=True, eq=False)
class PathAlgebraDesc:
    """Finite-dimensional path algebra with a fixed residue-path basis.

    memo holds, from construction, the basis index of each path
    ("index"), the basis paths between two vertices ("between") and the
    relation rewriter ("rewriter"); reps keeps the algebra's "zero_rep"
    and the dims and arrow blocks of each P_v, keyed by ("projective",
    v), there too.
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
            between={ij: tuple(ps) for ij, ps in between.items()},
            rewriter=_Rewriter(self.quiver, self.relations))

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
        """Residue of a composable path as coefficients over the basis."""
        if not arrows:
            return {self.idempotent(source): Fraction(1)}
        combo = self.memo["rewriter"].reduce_word(arrows)
        out: dict[int, Fraction] = {}
        for p, c in combo.items():
            out[self.index_of(source, p)] = c
        return out

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


def build_algebra(quiver: Quiver, relations: Sequence[Relation] = ()) -> PathAlgebraDesc:
    """Validate the input and assemble the finite basis of KQ modulo relations.

    Rejects quivers that are not strictly ordered (which also enforces
    acyclicity) and relation sets that are not admissible or whose rewriting
    system fails the critical-pair check.
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
    rewriter = _Rewriter(quiver, rels)
    ok, why = rewriter.confluent()
    if not ok:
        raise AlgebraError(f"relation rewriting is not confluent: {why}")
    basis = tuple(p for p in _all_paths(quiver)
                  if p.is_trivial() or rewriter._first_redex(p.arrows) is None)
    alg = PathAlgebraDesc(quiver, rels, basis)
    for rel in rels:
        combo: dict[int, Fraction] = {}
        src = _path_endpoints(quiver, rel.terms[0][1])[0]
        for c, p in rel.terms:
            for k, ck in alg.reduce_path(src, p).items():
                combo[k] = combo.get(k, Fraction(0)) + c * ck
        if any(c != 0 for c in combo.values()):
            raise AlgebraError(f"relation {rel} does not vanish after rewriting")
    return alg
