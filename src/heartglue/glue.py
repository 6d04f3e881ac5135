"""Gluing t-structures across a semiorthogonal decomposition.

An exceptional object spans a piece of the derived category that splits
off; a full exceptional sequence chains such pieces into a filtration of
the whole category.  This module verifies exceptionality, projects objects
onto the pieces, and glues a t-structure given on each piece into one on
the total category: membership tests for the glued aisle, truncation
triangles with computed certificates, and the homological dimension
bookkeeping for the glued heart.  Compatibility, n-fold compatibility and
the dimension formula share one Hom scan.

Glued truncation works on minimal projective models
(derived.minimal_model): the object, the left remainder and the rotated
aisle part are each reduced, so the complexes stay near their minimal size
at every level of the nesting.  It returns A minimal, f: A -> X, and
B = cone(f) itself, so the triangle needs no comparison map.

Aisles are described intensionally.  ``StandardAisle`` cuts cohomology at
a fixed degree, ``AddGeneratedAisle`` takes nonnegative shifts of finitely
many orthogonal exceptional generators, and ``GluedAisle`` combines an
aisle on the left piece with one on the right.  Positions into a sequence
are 1-based, matching the vertex convention.
"""

from dataclasses import dataclass

from .reps import ID, block_map, simple
from .complexes import (Cx, CxMap, CxSum, Triangle, cohomology_dims,
                        compose as ccompose, cone, cx_direct_sum, is_acyclic,
                        shift, shift_map, truncate_std, zero_cx)
from .derived import as_cx, derived_hom, dhom_space, lift_map, minimal_model


class GlueError(ValueError):
    pass


class ExcError(GlueError):
    """An exceptionality check failed; carries the first violation found.

    position is None for a single-object check, the 1-based index when a
    sequence member fails on its own, and an (i, j) pair for a cross term.
    shift and dim locate the offending Hom group.
    """

    def __init__(self, msg: str, *, position=None, shift=None, dim=None):
        super().__init__(msg)
        self.position = position
        self.shift = shift
        self.dim = dim


def _scan_range(e: Cx, x: Cx) -> range:
    """Every shift n where Hom(e, x[n]) can be nonzero.

    Projective resolutions over an admissible quotient of an acyclic
    quiver have length below the vertex count, so chain maps out of the
    resolution of e vanish once the degree supports no longer overlap.
    Every check scans this range and no other shift, so a Hom it does
    not report vanishes at every shift.
    """
    if e.is_zero_object() or x.is_zero_object():
        return range(0)
    pad = e.algebra.vertex_count + 2
    lo = x.min_deg() - e.max_deg()
    hi = x.max_deg() - e.min_deg() + pad
    return range(lo, hi + 1)


def _homs(a: Cx, b: Cx, top: int | None = None):
    """Yield (n, dim Hom(a, b[n])) for every nonzero Hom in the scan range,
    in increasing n; with top set, no shift above top is computed."""
    for n in _scan_range(a, b):
        if top is not None and n > top:
            return
        d = derived_hom(a, b, n)
        if d:
            yield n, d


def check_exceptional(obj) -> Cx:
    """Verify scalar endomorphisms and vanishing self-extensions, and
    return the object as a complex.

    Raises ExcError carrying the first violating (shift, dim) pair.
    """
    cx = as_cx(obj)
    if cx.is_zero_object():
        raise ExcError("the zero object is not exceptional", shift=0, dim=0)
    for n in _scan_range(cx, cx):
        d = derived_hom(cx, cx, n)
        want = 1 if n == 0 else 0
        if d != want:
            raise ExcError(
                f"Hom(E, E[{n}]) has dimension {d}, expected {want}",
                shift=n, dim=d)
    return cx


@dataclass(frozen=True, eq=False)
class ExcSequence:
    """A verified exceptional sequence with its full Hom table.

    hom_table maps (i, j, n) to dim Hom(E_i, E_j[n]); missing keys mean
    zero.  strong records whether every nonzero cross term sits at shift
    0, regardless of what the check was asked to enforce.
    """

    objects: tuple[Cx, ...]
    strong: bool
    hom_table: dict[tuple[int, int, int], int]

    def __len__(self) -> int:
        return len(self.objects)

    def object(self, i: int) -> Cx:
        return self.objects[i - 1]

    def hom_dim(self, i: int, j: int, n: int) -> int:
        return self.hom_table.get((i, j, n), 0)


def check_sequence(objs, strong: bool = False) -> ExcSequence:
    """Verify an exceptional sequence, optionally requiring strongness.

    Raises ExcError localizing the first violation: a non-exceptional
    member, a backward Hom from a later object to an earlier one, or a
    nonzero shifted Hom when strong is requested.
    """
    items = [as_cx(o) for o in objs]
    if not items:
        raise GlueError("a sequence needs at least one object")
    verified = []
    for i, o in enumerate(items, 1):
        try:
            verified.append(check_exceptional(o))
        except ExcError as err:
            raise ExcError(f"position {i}: {err}", position=i,
                           shift=err.shift, dim=err.dim) from None
    table: dict[tuple[int, int, int], int] = {}
    is_strong = True
    for i, a in enumerate(verified, 1):
        for j, b in enumerate(verified, 1):
            if i == j:
                table[(i, j, 0)] = 1
                continue
            for n, d in _homs(a, b):
                table[(i, j, n)] = d
                if i > j:
                    raise ExcError(
                        f"Hom(E_{i}, E_{j}[{n}]) has dimension {d}; later "
                        "objects must not map to earlier ones",
                        position=(i, j), shift=n, dim=d)
                if n != 0:
                    is_strong = False
                    if strong:
                        raise ExcError(
                            f"Hom(E_{i}, E_{j}[{n}]) has dimension {d}; a "
                            "strong sequence allows shift 0 only",
                            position=(i, j), shift=n, dim=d)
    return ExcSequence(tuple(verified), is_strong, table)


def _hom_parts(e: Cx, x: Cx) -> list[tuple[Cx, CxMap, int]]:
    """One shifted copy of the resolution of e per basis class of
    Hom(e, x[n]), each with its evaluation map into x."""
    parts = []
    for n, _ in _homs(e, x):
        sp = dhom_space(e, x, n)
        for cls in sp.basis():
            u = shift_map(sp.representative(cls), -n)
            parts.append((u.source, u, n))
    return parts


def _assemble(x: Cx, parts) -> tuple[Cx, CxMap]:
    """Direct sum of the part complexes with the summed evaluation map."""
    if not parts:
        v = zero_cx(x.algebra)
        return v, CxMap(v, x, {})
    s = cx_direct_sum([p for p, _, _ in parts])
    comps = {}
    for k, ds in s.sums.items():
        row = [f.components.get(k) for _, f, _ in parts]
        if any(g is not None for g in row):
            comps[k] = block_map(ds, x.term(k), [row])
    return s.cx, CxMap(s.cx, x, comps)


class AisleSpec:
    """Intensional description of the nonpositive part of a t-structure.

    member tests containment in the aisle; truncate returns (A, B, tri)
    with A in the aisle, B in the complementary co-aisle shifted down,
    and tri the triangle A -> X -> B, certified distinguished.

    A subclass either overrides truncate or implements _cut(x), which
    returns the aisle part A with its map f: A -> X and builds no cone;
    truncate then builds the one triangle, with B = cone(f).  Nested
    truncations call _cut, so only the outermost level builds a cone of
    f and a Triangle.
    """

    algebra = None

    def member(self, x: Cx) -> bool:
        raise NotImplementedError

    def _cut(self, x: Cx) -> tuple[Cx, CxMap]:
        raise NotImplementedError

    def truncate(self, x: Cx) -> tuple[Cx, Cx, Triangle]:
        a, f = self._cut(x)
        c = cone(f)
        return a, c.cx, Triangle(a, x, c.cx, f, c.injection(1), cone_of_f=c)

    def heart_gens(self) -> tuple[Cx, ...]:
        raise NotImplementedError

    def aisle_gens(self) -> tuple[Cx, ...]:
        raise NotImplementedError

    def sod_gens(self) -> tuple[Cx, ...]:
        raise GlueError(f"{type(self).__name__} does not sit inside a "
                        "semiorthogonal decomposition")

    def describe(self) -> str:
        raise NotImplementedError

    def heart(self) -> "HeartDesc":
        """The heart generated by heart_gens, validated on construction."""
        return HeartDesc(self.heart_gens(),
                         provenance=f"heart of {self.describe()}")


class StandardAisle(AisleSpec):
    """Complexes whose cohomology vanishes strictly above the cut."""

    def __init__(self, algebra, cut: int = 0):
        self.algebra = algebra
        self.cut = cut
        self._hearts = tuple(
            shift(as_cx(simple(algebra, i)), -cut)
            for i in range(1, algebra.vertex_count + 1))

    def member(self, x: Cx) -> bool:
        return all(i <= self.cut for i in cohomology_dims(x))

    def truncate(self, x: Cx) -> tuple[Cx, Cx, Triangle]:
        tri = truncate_std(x, self.cut)
        return tri.left, tri.right, tri

    def heart_gens(self) -> tuple[Cx, ...]:
        return self._hearts

    def aisle_gens(self) -> tuple[Cx, ...]:
        return self._hearts

    def describe(self) -> str:
        return f"standard(cut={self.cut})"


class AddGeneratedAisle(AisleSpec):
    """Nonnegative shifts of finitely many orthogonal exceptional objects.

    The aisle holds sums of G[l] with l >= 0 over the generators G.  With
    more than one generator the splitting used by member and truncate
    needs the generators Hom-orthogonal in both directions at every
    shift; the constructor enforces that.
    """

    def __init__(self, gens):
        objs = tuple(as_cx(g) for g in gens)
        if not objs:
            raise GlueError("an aisle needs at least one generator")
        self.algebra = objs[0].algebra
        for g in objs:
            check_exceptional(g)
        for a in objs:
            for b in objs:
                if a is b:
                    continue
                for n, d in _homs(a, b):
                    raise GlueError(
                        "aisle generators must be orthogonal: found "
                        f"Hom of dimension {d} at shift {n}")
        self._gens = objs

    def _parts(self, x: Cx) -> list[tuple[Cx, CxMap, int]]:
        parts = []
        for g in self._gens:
            parts += _hom_parts(g, x)
        return parts

    def member(self, x: Cx) -> bool:
        every = self._parts(x)
        if any(n >= 1 for _, _, n in every):
            return False
        _, ev = _assemble(x, every)
        return is_acyclic(cone(ev).cx)

    # bound here as well, so that perfbench's tracer, which wraps the
    # methods a class defines, still counts glue.truncate
    truncate = AisleSpec.truncate

    def _cut(self, x: Cx) -> tuple[Cx, CxMap]:
        every = self._parts(x)
        a, f = _assemble(x, every)
        if not is_acyclic(cone(f).cx):
            raise GlueError("object is not generated by the aisle objects")
        if any(n >= 1 for _, _, n in every):
            a, f = _assemble(x, [t for t in every if t[2] <= 0])
        return a, f

    def heart_gens(self) -> tuple[Cx, ...]:
        return self._gens

    def aisle_gens(self) -> tuple[Cx, ...]:
        return self._gens

    def sod_gens(self) -> tuple[Cx, ...]:
        return self._gens

    def describe(self) -> str:
        return f"add({len(self._gens)})"


def _cone_functorial(ca: CxSum, cb: CxSum, m: CxMap) -> CxMap:
    """cone(f) -> cone(g) induced by m: src(f) -> src(g) over the
    identity of the shared target, for strictly commuting squares."""
    return CxMap(ca.cx, cb.cx, {
        k: block_map(s, cb.sums[k], [[m.components.get(k + 1), None],
                                     [None, ID]])
        for k, s in ca.sums.items() if k in cb.sums})


class GluedAisle(AisleSpec):
    """The aisle glued from one on the left piece and one on the right.

    Objects of the glued aisle are extensions of a shifted-left-aisle
    object by a right-aisle one.  Both constituents must expose sod_gens,
    the exceptional generators of their pieces, with every generator of
    the right piece Hom-orthogonal to the left piece in one direction.
    """

    def __init__(self, left: AisleSpec, right: AisleSpec):
        if left.algebra is not right.algebra:
            raise GlueError("the aisles live over different algebras")
        self.left = left
        self.right = right
        self.algebra = left.algebra
        self._sod = left.sod_gens() + right.sod_gens()
        self._aisle = right.aisle_gens() + tuple(
            shift(g, 1) for g in left.aisle_gens())
        self._hearts = right.heart_gens() + tuple(
            shift(g, 1) for g in left.heart_gens())

    def _project(self, x: Cx) -> tuple[Cx, CxMap, CxSum]:
        # component of x along the right piece, with its evaluation map;
        # the cone is the left remainder
        parts = []
        for g in self.right.sod_gens():
            parts += _hom_parts(g, x)
        v2, ev2 = _assemble(x, parts)
        return v2, ev2, cone(ev2)

    def member(self, x: Cx) -> bool:
        v2, _, c = self._project(x)
        if not self.right.member(v2):
            return False
        return self.left.member(shift(c.cx, -1))

    truncate = AisleSpec.truncate  # counted by perfbench, as above

    def _cut(self, x: Cx) -> tuple[Cx, CxMap]:
        """Cut on minimal projective models.

        X is replaced once by its minimal model m -> X, so every later
        step runs on tagged complexes and resolve is the identity there;
        the left remainder is reduced again before the left cut.  The
        rotated cone A' -> m is reduced to A, and the result is A with
        A -> X, the composite with the model map.
        """
        m, q_x = minimal_model(x)
        v2, ev2, cproj = self._project(m)
        x1 = cproj.cx
        _, f2_in = self.right._cut(v2)
        f2 = ccompose(ev2, f2_in)
        ca2 = cone(f2)
        # cone(A2 -> m) -> cone(V2 -> m), functorial over the inclusion
        r = _cone_functorial(ca2, cproj, f2_in)
        down, q_down = minimal_model(shift(x1, -1))
        _, f1 = self.left._cut(down)
        j = shift_map(ccompose(q_down, f1), 1)
        # lift the shifted left part through r; A1 is tagged (a minimal
        # model or a sum of resolutions), so the lift is solved on its
        # generator data directly
        lifted = lift_map(j.source, j, r)
        q = ccompose(cone(lifted).injection(1), ca2.injection(1))
        # rotate m -> cone(q) back one step: A' = cone(q)[-1] -> m
        f_m = -shift_map(cone(q).projection(0), -1)
        small, q_a = minimal_model(f_m.source)
        return small, ccompose(q_x, ccompose(f_m, q_a))

    def heart_gens(self) -> tuple[Cx, ...]:
        return self._hearts

    def aisle_gens(self) -> tuple[Cx, ...]:
        return self._aisle

    def sod_gens(self) -> tuple[Cx, ...]:
        return self._sod

    def describe(self) -> str:
        return f"glue({self.left.describe()}, {self.right.describe()})"


def sod_project(x: Cx, es: ExcSequence, k: int) -> Cx:
    """Component of x along the k-th piece of the decomposition (1-based).

    Pieces are stripped from the last object backwards: the component
    along E_j collects one shifted resolution copy per basis class of
    Hom(E_j, cur[n]), and the cone carries the remainder to the next
    step.
    """
    m = len(es)
    if not 1 <= k <= m:
        raise GlueError(f"component index {k} outside 1..{m}")
    cur = x
    for j in range(m, 0, -1):
        e = es.object(j)
        parts = _hom_parts(e, cur)
        v, ev = _assemble(cur, parts)
        if j == k:
            return v
        cur = cone(ev).cx
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class CompatReport:
    """Outcome of a compatibility check, pairwise or n-fold.

    Violations are (kind, left, right, shift, dim).  Kind "backward"
    means the right piece maps to the left one, so the two do not form a
    semiorthogonal decomposition at all; kind "negative" means the left
    aisle maps to a positive co-aisle shift on the right.  compatible
    names 1-based generator positions into the two aisle generator
    lists; nfold_compatible names the pieces i < k.
    """

    ok: bool
    violations: tuple[tuple[str, int, int, int, int], ...]

    def __bool__(self) -> bool:
        return self.ok


def _violations(g1s, g2s,
                deepest: int) -> list[tuple[str, int, int, int, int]]:
    """Backward Homs from g2s to g1s at any shift and forward Homs from
    g1s to g2s at shifts n <= deepest, by 1-based generator positions."""
    viol = []
    for i1, g1 in enumerate(g1s, 1):
        for i2, g2 in enumerate(g2s, 1):
            viol += [("backward", i1, i2, n, d)
                     for n, d in _homs(g2, g1)]
            viol += [("negative", i1, i2, n, d)
                     for n, d in _homs(g1, g2, top=deepest)]
    return viol


def compatible(a1: AisleSpec, a2: AisleSpec) -> CompatReport:
    """Check that gluing a1 (left piece) with a2 (right piece) is sound.

    Two things can fail.  The pieces only decompose the category when
    the right one admits no maps back to the left one at any shift.  On
    top of that the glued truncation exists precisely when nonnegative
    shifts of the left aisle admit no maps to positive co-aisle shifts
    on the right, which at the generator level means Hom(G1, G2[n]) = 0
    for every n <= -1.
    """
    viol = _violations(a1.aisle_gens(), a2.aisle_gens(), -1)
    return CompatReport(not viol, tuple(viol))


@dataclass(frozen=True, eq=False)
class HeartDesc:
    """Additive generators of a heart, with provenance.

    Construction verifies the axiom that generators admit no maps into
    negative shifts of each other.
    """

    generators: tuple[Cx, ...]
    provenance: str

    def __post_init__(self):
        for a in self.generators:
            for b in self.generators:
                for n, d in _homs(a, b, top=-1):
                    raise GlueError(
                        "not a heart: generators map into a negative "
                        f"shift (dimension {d} at {n})")


def glue(a1: AisleSpec, a2: AisleSpec) -> tuple[GluedAisle, HeartDesc]:
    """Glue compatible aisles across the decomposition ordering a1 before
    a2, returning the glued aisle and its heart.

    The heart is generated by the right heart together with the left
    heart shifted up one step.  Raises GlueError when the compatibility
    check fails.
    """
    rep = compatible(a1, a2)
    if not rep.ok:
        raise GlueError("aisles are not compatible; first violations: "
                        f"{rep.violations[:3]}")
    aisle = GluedAisle(a1, a2)
    return aisle, aisle.heart()


def glue_sequence(es: ExcSequence) -> tuple[AisleSpec, HeartDesc]:
    """Iterate pairwise gluing left to right over a full sequence.

    Each object carries its own one-generator aisle; the result glues
    them all, so the heart generators come out as E_m, E_{m-1}[1], ...,
    E_1[m-1].  With two or more objects the last step's pieces are the
    glued aisle's left and right.
    """
    aisle: AisleSpec = AddGeneratedAisle((es.object(1),))
    heart = aisle.heart()
    for i in range(2, len(es) + 1):
        aisle, heart = glue(aisle, AddGeneratedAisle((es.object(i),)))
    return aisle, heart


def nfold_compatible(aisles) -> CompatReport:
    """Check that an ordered family of aisles glues in one go.

    For pieces i < k nothing may map backward from piece k to piece i,
    and forward maps must miss the deep negative shifts: the condition
    is Hom(G_i, G_k[n]) = 0 whenever n <= i - k, one shift deeper per
    intermediate piece.  Violations name the pieces (i, k).  For two
    pieces this is compatible; glue_sequence reaches the same
    configurations one pairwise step at a time, and the two are
    cross-checked in the test suite.
    """
    aisles = list(aisles)
    if not aisles:
        raise GlueError("nothing to check")
    viol = []
    for i in range(1, len(aisles) + 1):
        for k in range(i + 1, len(aisles) + 1):
            viol += [(kind, i, k, n, d) for kind, _, _, n, d in _violations(
                aisles[i - 1].aisle_gens(), aisles[k - 1].aisle_gens(),
                i - k)]
    return CompatReport(not viol, tuple(viol))


def _top_shift(gs1, gs2) -> tuple[int, int, int] | None:
    """The first pair (i, j), 1-based, with the largest shift n where
    Hom(gs1[i], gs2[j][n]) is nonzero, as (i, j, n); None when all vanish."""
    best = None
    for i, a in enumerate(gs1, 1):
        for j, b in enumerate(gs2, 1):
            for n, _ in _homs(a, b):
                if best is None or n > best[2]:
                    best = (i, j, n)
    return best


def heart_dim(h: HeartDesc) -> int | None:
    """Largest shift with a nonzero Hom between heart generators.

    None for a heart with no generators; 0 or more otherwise, since
    identities live at shift 0.
    """
    top = _top_shift(h.generators, h.generators)
    return None if top is None else top[2]


def rdim(h1: HeartDesc, h2: HeartDesc) -> int:
    """Largest shift with a nonzero Hom from h1 generators to h2 ones,
    or -1 when every such Hom vanishes."""
    top = _top_shift(h1.generators, h2.generators)
    return -1 if top is None else top[2]


@dataclass(frozen=True)
class DimFormulaReport:
    """Both sides of the dimension formula for a glued heart.

    lhs is the dimension of the glued heart; rhs the maximum of the two
    piece dimensions and the relative dimension plus one.  witness names
    the generator pair and shift attaining lhs (1-based positions into
    the glued heart's generators).
    """

    lhs: int
    dim_left: int
    dim_right: int
    rel: int
    rhs: int
    ok: bool
    witness: tuple[int, int, int] | None

    def __bool__(self) -> bool:
        return self.ok


def check_dim_formula(h1: HeartDesc, h2: HeartDesc,
                      glued: HeartDesc) -> DimFormulaReport:
    """Compare the glued heart dimension against the piecewise formula."""
    d1 = heart_dim(h1)
    d2 = heart_dim(h2)
    if d1 is None and d2 is None:
        raise GlueError("both hearts are zero")
    r = rdim(h1, h2)
    rhs = max(v for v in (d1, d2, r + 1) if v is not None)
    wit = _top_shift(glued.generators, glued.generators)
    if wit is None:
        raise GlueError("the glued heart is zero")
    lhs = wit[2]
    return DimFormulaReport(lhs, d1 if d1 is not None else -1,
                            d2 if d2 is not None else -1, r, rhs,
                            lhs == rhs, wit)
