"""From a strong exceptional sequence to its endomorphism path algebra.

The endomorphism algebra of the sum of a strong exceptional sequence is
basic and directed: each object contributes scalars, and every other map
points from an earlier position to a later one.  Such an algebra is
presented by a quiver with one vertex per position, arrows a chosen
complement of the length-two-and-longer products, and relations the
kernel of path evaluation.  Evaluating paths back to maps identifies the
vertex-i projective with the hom module of the i-th object, and the
functions below produce that identification as explicit invertible maps
rather than a dimension count.

bondal keeps no cache and no product table of its own: the product,
each path evaluation and each induced map is a composite kept by
derived.compose_classes, a class enters a matrix as its coordinate
column, and each hom module is kept in the memo of its presentation,
keyed by the object, so it goes when the presentation does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (PathAlgebraDesc, Relation, build_algebra, make_quiver,
                      memo_field, memoised)
from .complexes import Cx
from .derived import (
    DHomClass,
    as_cx,
    compose_classes,
    dhom_space,
    hom_scan,
    identity_class,
)
from .glue import ExcSequence
from .linalg import RatMatrix, complement_pivots, hstack, kernel_basis, rank
from .reps import Rep, RepMap, hom_space, projective


class BondalError(ValueError):
    """Raised when a sequence or its endomorphism data is unusable."""


@dataclass(frozen=True, eq=False)
class EndElement:
    """Basis element of the endomorphism algebra, a degree-zero class
    from position i to position j (1-based)."""

    i: int
    j: int
    cls: DHomClass


@dataclass(frozen=True, eq=False)
class EndAlgebra:
    """Endomorphism algebra of the sum of a strong sequence.

    The basis is grouped by (source, target) position: one identity per
    diagonal and the canonical degree-zero classes off the diagonal.
    Products follow the path-algebra convention x*y = "y first, then x".
    pairs holds the basis indices of each (source, target) pair.  No
    product is cached here: compose_classes keeps each composite.
    """

    objects: tuple[Cx, ...]
    elements: tuple[EndElement, ...]
    pairs: dict[tuple[int, int], tuple[int, ...]]

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def positions(self) -> int:
        return len(self.objects)

    def pair(self, i: int, j: int) -> tuple[int, ...]:
        return self.pairs.get((i, j), ())

    def unit_index(self, i: int) -> int:
        return self.pair(i, i)[0]

    def product(self, a: int, b: int) -> DHomClass | None:
        """Element a times element b (b composes first); None when b
        does not end where a starts."""
        ea, eb = self.elements[a], self.elements[b]
        if eb.j != ea.i:
            return None
        return compose_classes(ea.cls, eb.cls)


def end_algebra(es: ExcSequence) -> EndAlgebra:
    """Basis and products of End of the sum of a strong sequence."""
    if not es.strong:
        raise BondalError(
            "the correspondence needs a strong sequence; this one has "
            "maps at nonzero shifts")
    objs = es.objects
    elements = []
    for i in range(1, len(objs) + 1):
        elements.append(EndElement(i, i, identity_class(objs[i - 1])))
        for j in range(i + 1, len(objs) + 1):
            sp = dhom_space(objs[i - 1], objs[j - 1], 0)
            elements += [EndElement(i, j, cls) for cls in sp.basis()]
    pairs: dict[tuple[int, int], tuple[int, ...]] = {}
    for k, e in enumerate(elements):
        pairs[e.i, e.j] = pairs.get((e.i, e.j), ()) + (k,)
    return EndAlgebra(objs, tuple(elements), pairs)


def verify_end_algebra(end: EndAlgebra) -> tuple[int, int]:
    """Exhaustive unit and associativity check over the basis.

    Returns the number of (pairs, triples) it covers, dim^2 and dim^3,
    and raises BondalError on any failure.  A product of basis elements
    that do not meet is zero by the grading, so only the units at the ends
    of each element and the composable triples (b from E_j to E_k, a out
    of E_k, c into E_j) are computed, each side as a composite class.
    """
    els = end.elements
    for a, e in enumerate(els):
        if not (end.product(end.unit_index(e.j), a) == e.cls
                == end.product(a, end.unit_index(e.i))):
            raise BondalError(f"element {a} is not fixed by the unit")
    for b, eb in enumerate(els):
        into = [c for c, ec in enumerate(els) if ec.j == eb.i]
        for a in (a for a, ea in enumerate(els) if ea.i == eb.j):
            ab = end.product(a, b)
            for c in into:
                if (compose_classes(ab, els[c].cls)
                        != compose_classes(els[a].cls, end.product(b, c))):
                    raise BondalError(
                        f"associativity fails on basis triple {(a, b, c)}")
    return end.dim ** 2, end.dim ** 3


@dataclass(frozen=True, eq=False)
class Presentation:
    """A path algebra presenting an endomorphism algebra.

    arrow_element assigns each quiver arrow the index of the basis
    element it evaluates to; paths evaluate by composing those classes
    in traversal order.
    """

    end: EndAlgebra
    algebra: PathAlgebraDesc
    arrow_element: dict[str, int]
    memo: dict = memo_field()

    def arrow_class(self, name: str) -> DHomClass:
        return self.end.elements[self.arrow_element[name]].cls

    def eval_path(self, source: int, arrows: tuple[str, ...]) -> DHomClass:
        if not arrows:
            return self.end.elements[self.end.unit_index(source)].cls
        cls = self.arrow_class(arrows[0])
        for name in arrows[1:]:
            cls = compose_classes(self.arrow_class(name), cls)
        return cls

    def eval_combo(self, source: int, target: int,
                   combo: dict) -> DHomClass:
        """The class of a {basis index: coefficient} combination of paths."""
        sp = dhom_space(self.end.objects[source - 1],
                        self.end.objects[target - 1], 0)
        out = sp.zero()
        for bidx, c in combo.items():
            p = self.algebra.basis[bidx]
            out = out + self.eval_path(p.source, p.arrows).scale(c)
        return out


def _columns(classes, rows: int) -> RatMatrix:
    """The coordinate columns of classes side by side."""
    cols = [c.column for c in classes]
    return hstack(cols) if cols else RatMatrix.zeros(rows, 0)


def quiver_presentation(end: EndAlgebra) -> Presentation:
    """Quiver, arrows, and relations presenting the endomorphism algebra.

    Arrows x1, x2, ... pick, pair by pair in position order, the
    canonical classes completing the span of two-step composites.
    Relations are the kernel of path evaluation, one set per parallel
    class of paths of length at least 2; build_algebra reduces by the
    ideal they span.
    """
    m = end.positions
    arrows = []
    arrow_element: dict[str, int] = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            idxs = end.pair(i, j)
            if not idxs:
                continue
            spanned = _columns((end.product(g, f) for k in range(i + 1, j)
                                for f in end.pair(i, k)
                                for g in end.pair(k, j)), len(idxs))
            for r in complement_pivots(spanned):
                name = f"x{len(arrows) + 1}"
                arrows.append((name, i, j))
                arrow_element[name] = idxs[r]
    quiver = make_quiver(m, arrows)
    free = build_algebra(quiver)
    draft = Presentation(end, free, arrow_element)
    relations = []
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            words = [p for p in free.basis
                     if p.source == i and p.target == j and p.length >= 2]
            if not words:
                continue
            words.sort(key=lambda p: (p.length, p.arrows))
            d = dhom_space(end.objects[i - 1], end.objects[j - 1], 0).dim
            evals = _columns((draft.eval_path(i, p.arrows) for p in words),
                             d)
            null = kernel_basis(evals)
            for c in range(null.cols):
                terms = [(null[t, c], words[t].arrows)
                         for t in range(null.rows) if null[t, c] != 0]
                relations.append(Relation.of(terms))
    algebra = build_algebra(quiver, relations)
    if algebra.dim != end.dim:
        raise BondalError(
            f"presentation has dimension {algebra.dim}, endomorphism "
            f"algebra has {end.dim}")
    return Presentation(end, algebra, arrow_element)


def presentation_multiplicative(pres: Presentation) -> int:
    """Check path evaluation is an algebra map on every basis pair.

    Returns the number of composable pairs inspected; raises on failure.
    """
    alg = pres.algebra
    checked = 0
    for a, pa in enumerate(alg.basis):
        for b, pb in enumerate(alg.basis):
            if pb.target != pa.source:
                continue
            combo = alg.mult_basis(a, b)
            via_algebra = pres.eval_combo(pb.source, pa.target, combo)
            via_maps = compose_classes(pres.eval_path(pa.source, pa.arrows),
                                       pres.eval_path(pb.source, pb.arrows))
            if via_algebra != via_maps:
                raise BondalError(
                    f"evaluation is not multiplicative on {pa} * {pb}")
            checked += 1
    return checked


def module_functor(pres: Presentation, x) -> Rep:
    """Hom module of x over the presented algebra, kept in pres.memo.

    The vertex-v component is Hom(E_v, x) in canonical coordinates, and
    an arrow acts by precomposition with its class.  Objects with maps
    from a sequence object at a nonzero shift are out of scope and
    rejected, since the module below would forget those maps.
    """
    cx = as_cx(x)
    return memoised(pres, ("hom module", cx), lambda: _hom_module(pres, cx))


def _hom_module(pres: Presentation, cx: Cx) -> Rep:
    end = pres.end
    for i, e in enumerate(end.objects, 1):
        for n, d in hom_scan(e, cx):
            if n:
                raise BondalError(
                    f"object {i} has maps of dimension {d} into the "
                    f"argument at shift {n}; the hom module only sees "
                    "shift 0")
    spaces = [dhom_space(e, cx, 0) for e in end.objects]
    dims = tuple(sp.dim for sp in spaces)
    maps = {}
    for a in pres.algebra.quiver.arrows:
        f = pres.arrow_class(a.name)
        maps[a.name] = _columns((compose_classes(g, f)
                                 for g in spaces[a.target - 1].basis()),
                                dims[a.source - 1])
    return Rep(pres.algebra, dims, maps)


def map_functor(pres: Presentation, cls: DHomClass) -> RepMap:
    """Hom-module map induced by a degree-zero class, by postcomposition.

    Its endpoints are the hom modules that module_functor keeps, so
    induced maps compose with each other; no map is cached here.
    """
    end = pres.end
    x, y = cls.space.x, cls.space.y
    if cls.space.n != 0:
        raise BondalError("only degree-zero classes induce module maps")
    phix, phiy = module_functor(pres, x), module_functor(pres, y)
    blocks = []
    for v, e in enumerate(end.objects, 1):
        blocks.append(_columns((compose_classes(cls, g)
                                for g in dhom_space(e, x, 0).basis()),
                               phiy.dim_at(v)))
    return RepMap(phix, phiy, tuple(blocks))


def projective_compare(pres: Presentation, i: int) -> RepMap:
    """Invertible map from the vertex-i projective to the hom module of
    the i-th object, sending a residue path to its evaluation."""
    alg = pres.algebra
    target = module_functor(pres, pres.end.objects[i - 1])
    source = projective(alg, i)
    if source.dims != target.dims:
        raise BondalError(
            f"hom module of object {i} has dimensions {target.dims}, "
            f"the projective has {source.dims}")
    blocks = []
    for v in range(1, alg.vertex_count + 1):
        blocks.append(_columns((pres.eval_path(v, p.arrows)
                                for p in alg.paths_between(v, i)),
                               target.dim_at(v)))
    f = RepMap(source, target, tuple(blocks))
    for v in range(1, alg.vertex_count + 1):
        b = f.block(v)
        if rank(b) != b.rows:
            raise BondalError(
                f"comparison for object {i} is singular at vertex {v}")
    return f


@dataclass(frozen=True)
class FaithfulReport:
    """Outcome of comparing sampled hom spaces with their images.

    Mismatches are (pair index, hom dimension, module hom dimension,
    rank of the induced map); a pair passes when all three agree."""

    ok: bool
    pairs: int
    mismatches: tuple[tuple[int, int, int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def _flat(f: RepMap) -> RatMatrix:
    """The entries of f's blocks, row by row, as one column."""
    return hstack([b.reshape(1, b.rows * b.cols)
                   for b in f.blocks]).transpose()


def faithful_full_check(pres: Presentation, pairs=None) -> FaithfulReport:
    """Check the hom-module construction is bijective on sampled homs.

    Each sample (x, y) passes when dim Hom(x, y) equals the module hom
    dimension of the images and the induced map sends a basis to an
    independent family.  Defaults to all ordered pairs of sequence
    objects.
    """
    end = pres.end
    if pairs is None:
        pairs = [(a, b) for a in end.objects for b in end.objects]
    mism = []
    count = 0
    for x, y in pairs:
        count += 1
        phix, phiy = module_functor(pres, x), module_functor(pres, y)
        sp = dhom_space(x, y, 0)
        module_dim = len(hom_space(phix, phiy))
        sent = [_flat(map_functor(pres, cls)) for cls in sp.basis()]
        induced = rank(hstack(sent)) if sent else 0
        if not (sp.dim == module_dim == induced):
            mism.append((count, sp.dim, module_dim, induced))
    return FaithfulReport(not mism, count, tuple(mism))


@dataclass(frozen=True)
class TableReport:
    """Shiftwise hom dimensions of the sequence objects against the
    projectives of the presented algebra.  Mismatches are
    (i, j, shift, dim over the objects, dim over the projectives)."""

    ok: bool
    pairs: int
    mismatches: tuple[tuple[int, int, int, int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def hom_table_match(pres: Presentation) -> TableReport:
    """Compare Hom(E_i, E_j[n]) with Hom(P_i, P_j[n]) at every shift."""
    end = pres.end
    projs = [as_cx(projective(pres.algebra, i))
             for i in range(1, end.positions + 1)]
    mism = []
    pairs = 0
    for i, ei in enumerate(end.objects, 1):
        for j, ej in enumerate(end.objects, 1):
            pairs += 1
            de = dict(hom_scan(ei, ej))
            dp = dict(hom_scan(projs[i - 1], projs[j - 1]))
            mism += [(i, j, n, de.get(n, 0), dp.get(n, 0))
                     for n in sorted(de.keys() | dp.keys())
                     if de.get(n, 0) != dp.get(n, 0)]
    return TableReport(not mism, pairs, tuple(mism))


@dataclass(frozen=True, eq=False)
class BondalReport:
    """Everything the correspondence promises, as checked facts."""

    ok: bool
    end_dim: int
    algebra_dim: int
    products_checked: int
    triples_checked: int
    eval_pairs_checked: int
    faithful: FaithfulReport
    table: TableReport
    presentation: Presentation
    comparisons: tuple[RepMap, ...]

    def __bool__(self) -> bool:
        return self.ok


def bondal_check(es: ExcSequence) -> BondalReport:
    """Run the whole correspondence for one strong sequence.

    Builds the endomorphism algebra, verifies its ring axioms, presents
    it by quiver and relations, certifies path evaluation is an algebra
    isomorphism, matches each object's hom module with the corresponding
    projective, and compares hom dimensions between the objects and the
    projectives at every shift.
    """
    end = end_algebra(es)
    pairs, triples = verify_end_algebra(end)
    pres = quiver_presentation(end)
    eval_pairs = presentation_multiplicative(pres)
    comparisons = tuple(projective_compare(pres, i)
                        for i in range(1, end.positions + 1))
    faithful = faithful_full_check(pres)
    table = hom_table_match(pres)
    return BondalReport(faithful.ok and table.ok, end.dim, pres.algebra.dim,
                        pairs, triples, eval_pairs,
                        faithful, table, pres, comparisons)
