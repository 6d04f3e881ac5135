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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import PathAlgebraDesc, Relation, build_algebra, make_quiver
from .complexes import Cx
from .derived import (
    DHomClass,
    as_cx,
    compose_classes,
    derived_hom,
    dhom_space,
    identity_class,
)
from .glue import ExcSequence, _homs, _scan_range
from .linalg import RatMatrix, complement_pivots, kernel_basis, rank
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
    """

    objects: tuple[Cx, ...]
    elements: tuple[EndElement, ...]
    window: int

    def __post_init__(self):
        pairs: dict[tuple[int, int], list[int]] = {}
        for k, e in enumerate(self.elements):
            pairs.setdefault((e.i, e.j), []).append(k)
        object.__setattr__(self, "_pairs",
                           {p: tuple(v) for p, v in pairs.items()})
        object.__setattr__(self, "_products", {})

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def positions(self) -> int:
        return len(self.objects)

    def pair(self, i: int, j: int) -> tuple[int, ...]:
        return self._pairs.get((i, j), ())

    def unit_index(self, i: int) -> int:
        return self.pair(i, i)[0]

    def coords_over(self, i: int, j: int, cls: DHomClass) -> dict[int, Fraction]:
        """Coefficients of a class from E_i to E_j over the basis."""
        idxs = self.pair(i, j)
        if i == j:
            lam = self.elements[idxs[0]].cls.coords[0]
            c = cls.coords[0] / lam
            return {idxs[0]: c} if c else {}
        return {k: c for k, c in zip(idxs, cls.coords) if c != 0}

    def product(self, a: int, b: int) -> dict[int, Fraction]:
        """Coefficients of element a times element b (b composes first)."""
        got = self._products.get((a, b))
        if got is not None:
            return dict(got)
        ea, eb = self.elements[a], self.elements[b]
        if eb.j != ea.i:
            out: dict[int, Fraction] = {}
        else:
            z = compose_classes(ea.cls, eb.cls)
            out = self.coords_over(eb.i, ea.j, z)
        self._products[(a, b)] = out
        return dict(out)

    def multiply(self, u: dict[int, Fraction],
                 v: dict[int, Fraction]) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for a, ca in u.items():
            for b, cb in v.items():
                for k, ck in self.product(a, b).items():
                    out[k] = out.get(k, Fraction(0)) + ca * cb * ck
        return {k: c for k, c in out.items() if c != 0}


def end_algebra(es: ExcSequence, window: int | None = None) -> EndAlgebra:
    """Basis and products of End of the sum of a strong sequence."""
    if not es.strong:
        raise BondalError(
            "the correspondence needs a strong sequence; this one has "
            "maps at nonzero shifts")
    objs = tuple(es.object(i) for i in range(1, len(es) + 1))
    w = window if window is not None else es.window
    elements = []
    for i in range(1, len(objs) + 1):
        elements.append(EndElement(i, i, identity_class(objs[i - 1])))
        for j in range(i + 1, len(objs) + 1):
            sp = dhom_space(objs[i - 1], objs[j - 1], 0)
            for cls in sp.basis():
                elements.append(EndElement(i, j, cls))
    return EndAlgebra(objs, tuple(elements), w)


def verify_end_algebra(end: EndAlgebra) -> tuple[int, int]:
    """Exhaustive unit and associativity check over the basis.

    Returns the number of (pairs, triples) inspected; raises BondalError
    on any failure.
    """
    units = [end.unit_index(i) for i in range(1, end.positions + 1)]
    one = {u: Fraction(1) for u in units}
    pairs = 0
    for a in range(end.dim):
        if (end.multiply(one, {a: Fraction(1)}) != {a: Fraction(1)}
                or end.multiply({a: Fraction(1)}, one) != {a: Fraction(1)}):
            raise BondalError(f"element {a} is not fixed by the unit")
        for b in range(end.dim):
            end.product(a, b)
            pairs += 1
    triples = 0
    for a in range(end.dim):
        ua = {a: Fraction(1)}
        for b in range(end.dim):
            ab = end.product(a, b)
            ub = {b: Fraction(1)}
            for c in range(end.dim):
                lhs = end.multiply(ab, {c: Fraction(1)})
                rhs = end.multiply(ua, end.product(b, c))
                if lhs != rhs:
                    raise BondalError(
                        f"associativity fails on basis triple {(a, b, c)}")
                triples += 1
    return pairs, triples


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
                   combo: dict[int, Fraction]) -> DHomClass:
        sp = dhom_space(self.end.objects[source - 1],
                        self.end.objects[target - 1], 0)
        out = DHomClass(sp, (Fraction(0),) * sp.dim)
        for bidx, c in combo.items():
            p = self.algebra.basis[bidx]
            out = out + self.eval_path(p.source, p.arrows).scale(c)
        return out


def _composites(end: EndAlgebra, i: int, j: int) -> list[tuple[Fraction, ...]]:
    cols = []
    for k in range(i + 1, j):
        for f in end.pair(i, k):
            for g in end.pair(k, j):
                z = compose_classes(end.elements[g].cls, end.elements[f].cls)
                cols.append(z.coords)
    return cols


def quiver_presentation(end: EndAlgebra) -> Presentation:
    """Quiver, arrows, and relations presenting the endomorphism algebra.

    Arrows x1, x2, ... pick, pair by pair in position order, the
    canonical classes completing the span of two-step composites.
    Relations are the kernel of path evaluation, written so each one
    rewrites its longest path into shorter ones.
    """
    m = end.positions
    arrows = []
    arrow_element: dict[str, int] = {}
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            idxs = end.pair(i, j)
            if not idxs:
                continue
            spanned = RatMatrix.from_cols(_composites(end, i, j),
                                          rows=len(idxs))
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
            evals = RatMatrix.from_cols(
                [draft.eval_path(i, p.arrows).coords for p in words], rows=d)
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
            if via_algebra.coords != via_maps.coords:
                raise BondalError(
                    f"evaluation is not multiplicative on {pa} * {pb}")
            checked += 1
    return checked


def module_functor(pres: Presentation, x, window: int | None = None) -> Rep:
    """Hom module of x over the presented algebra.

    The vertex-v component is Hom(E_v, x) in canonical coordinates, and
    an arrow acts by precomposition with its class.  Objects with maps
    from a sequence object at a nonzero shift are out of scope and
    rejected, since the module below would forget those maps.
    """
    cx = as_cx(x)
    end = pres.end
    w = window if window is not None else end.window
    for i, e in enumerate(end.objects, 1):
        for n, d in _homs(e, cx, w):
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
        cols = [compose_classes(g, f).coords
                for g in spaces[a.target - 1].basis()]
        maps[a.name] = RatMatrix.from_cols(cols, rows=dims[a.source - 1])
    return Rep(pres.algebra, dims, maps)


def map_functor(pres: Presentation, cls: DHomClass,
                phi_source: Rep | None = None,
                phi_target: Rep | None = None) -> RepMap:
    """Hom-module map induced by a degree-zero class, by postcomposition.

    Pass the already-built hom modules to keep several induced maps
    composable with each other.
    """
    end = pres.end
    x, y = cls.space.x, cls.space.y
    if cls.space.n != 0:
        raise BondalError("only degree-zero classes induce module maps")
    phix = phi_source if phi_source is not None else module_functor(pres, x)
    phiy = phi_target if phi_target is not None else module_functor(pres, y)
    blocks = []
    for v, e in enumerate(end.objects, 1):
        cols = [compose_classes(cls, g).coords
                for g in dhom_space(e, x, 0).basis()]
        blocks.append(RatMatrix.from_cols(cols, rows=phiy.dim_at(v)))
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
        cols = [pres.eval_path(v, p.arrows).coords
                for p in alg.paths_between(v, i)]
        blocks.append(RatMatrix.from_cols(cols, rows=target.dim_at(v)))
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
    window: int
    pairs: int
    mismatches: tuple[tuple[int, int, int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def _flat(f: RepMap) -> list[Fraction]:
    return [c for b in f.blocks for i in range(b.rows) for c in b.row(i)]


def faithful_full_check(pres: Presentation, pairs=None,
                        window: int | None = None) -> FaithfulReport:
    """Check the hom-module construction is bijective on sampled homs.

    Each sample (x, y) passes when dim Hom(x, y) equals the module hom
    dimension of the images and the induced map sends a basis to an
    independent family.  Defaults to all ordered pairs of sequence
    objects.
    """
    end = pres.end
    w = window if window is not None else end.window
    if pairs is None:
        pairs = [(a, b) for a in end.objects for b in end.objects]
    images: dict[int, Rep] = {}

    def image(obj) -> Rep:
        key = id(as_cx(obj))
        if key not in images:
            images[key] = module_functor(pres, obj, w)
        return images[key]

    mism = []
    count = 0
    for x, y in pairs:
        count += 1
        phix, phiy = image(x), image(y)
        sp = dhom_space(x, y, 0)
        module_dim = len(hom_space(phix, phiy))
        sent = [_flat(map_functor(pres, cls, phix, phiy))
                for cls in sp.basis()]
        entries = sum(phiy.dim_at(v) * phix.dim_at(v)
                      for v in range(1, end.positions + 1))
        induced = rank(RatMatrix.from_cols(sent, rows=entries))
        if not (sp.dim == module_dim == induced):
            mism.append((count, sp.dim, module_dim, induced))
    return FaithfulReport(not mism, w, count, tuple(mism))


@dataclass(frozen=True)
class TableReport:
    """Shiftwise hom dimensions of the sequence objects against the
    projectives of the presented algebra.  Mismatches are
    (i, j, shift, dim over the objects, dim over the projectives)."""

    ok: bool
    window: int
    pairs: int
    mismatches: tuple[tuple[int, int, int, int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def hom_table_match(pres: Presentation,
                    window: int | None = None) -> TableReport:
    """Compare Hom(E_i, E_j[n]) with Hom(P_i, P_j[n]) at every shift."""
    end = pres.end
    w = window if window is not None else end.window
    projs = [as_cx(projective(pres.algebra, i))
             for i in range(1, end.positions + 1)]
    mism = []
    pairs = 0
    for i, ei in enumerate(end.objects, 1):
        for j, ej in enumerate(end.objects, 1):
            pairs += 1
            shifts = set(_scan_range(ei, ej, w))
            shifts.update(_scan_range(projs[i - 1], projs[j - 1], w))
            for n in sorted(shifts):
                de = derived_hom(ei, ej, n)
                dp = derived_hom(projs[i - 1], projs[j - 1], n)
                if de != dp:
                    mism.append((i, j, n, de, dp))
    return TableReport(not mism, w, pairs, tuple(mism))


@dataclass(frozen=True, eq=False)
class BondalReport:
    """Everything the correspondence promises, as checked facts."""

    ok: bool
    end_dim: int
    algebra_dim: int
    arrow_count: int
    relation_count: int
    products_checked: int
    triples_checked: int
    eval_pairs_checked: int
    faithful: FaithfulReport
    table: TableReport
    presentation: Presentation
    comparisons: tuple[RepMap, ...]

    def __bool__(self) -> bool:
        return self.ok


def bondal_check(es: ExcSequence, window: int | None = None) -> BondalReport:
    """Run the whole correspondence for one strong sequence.

    Builds the endomorphism algebra, verifies its ring axioms, presents
    it by quiver and relations, certifies path evaluation is an algebra
    isomorphism, matches each object's hom module with the corresponding
    projective, and compares hom dimensions between the objects and the
    projectives at every shift.
    """
    end = end_algebra(es, window)
    pairs, triples = verify_end_algebra(end)
    pres = quiver_presentation(end)
    eval_pairs = presentation_multiplicative(pres)
    comparisons = tuple(projective_compare(pres, i)
                        for i in range(1, end.positions + 1))
    faithful = faithful_full_check(pres, window=window)
    table = hom_table_match(pres, window)
    return BondalReport(faithful.ok and table.ok, end.dim, pres.algebra.dim,
                        len(pres.algebra.quiver.arrows),
                        len(pres.algebra.relations),
                        pairs, triples, eval_pairs,
                        faithful, table, pres, comparisons)
