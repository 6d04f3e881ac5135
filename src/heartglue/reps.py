"""Right modules over a path algebra, stored as vertex-graded representations.

A right module V decomposes as the direct sum of its vertex pieces
G_i V = V e_i. The arrow a: s -> t acts by a matrix act(a): G_t V -> G_s V
(shape dims[s] x dims[t]), and a composite path q = (a1, ..., ak) in traversal
order acts by act(a1) @ act(a2) @ ... @ act(ak). With these conventions the
indecomposable projective P_i = e_i A has G_j P_i spanned by the residue paths
from j into i, and Hom(P_i, M) is identified with G_i M.

This module alone knows the layout of a direct sum: at every vertex the
parts follow each other in order. A DirectSum keeps its parts, and
block_map builds any map between two sums from its grid of components,
one block matrix per vertex; injections, projections, cone differentials
and the maps of the extension calculus are all block_maps. When one part
alone is nonzero, that part is the sum, and a one-part sum is its part:
its injection and projection are the part's identity, and a block_map
whose grid holds one map between the two ends is that map.  Identities
compose away: compose returns the other factor.  An empty vertex piece
costs nothing: block_map joins no grid there, composite_blocks multiplies
no empty product, and naturality skips an arrow whose equation has no
entries.

A tagged projective sum is the same layout with one copy of P_v per
generator: copy_rows is the one reader of where each copy's basis sits
at a vertex, and generator_positions, minimal models and the generator
data of derived all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from .algebra import (AlgebraError, BasisPath, PathAlgebraDesc, memo_field,
                      memoised)
from .linalg import (
    RatMatrix,
    block_matrix,
    complement_pivots,
    hstack,
    kernel_basis,
    kron,
    pivot_columns,
    rank,
    solve,
)


class RepError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Rep:
    """A finite-dimensional right module presented by its arrow action matrices.

    proj_gens, when set, records that the module is the direct sum of the
    indecomposable projectives at those vertices, with the basis at vertex j
    grouped copy by copy and, within a copy at vertex v, ordered by the
    algebra's path order on the residue paths j -> v. Maps out of a tagged
    module are determined freely by the images of the copy generators.
    """

    algebra: PathAlgebraDesc
    dims: tuple[int, ...]
    arrow_maps: dict[str, RatMatrix]
    proj_gens: tuple[int, ...] | None = None
    memo: dict = memo_field()

    def __post_init__(self):
        n = self.algebra.vertex_count
        if len(self.dims) != n:
            raise RepError(f"dims length {len(self.dims)} != vertex count {n}")
        if any(d < 0 for d in self.dims):
            raise RepError("negative dimension")
        for a in self.algebra.quiver.arrows:
            m = self.arrow_maps.get(a.name)
            if m is None:
                raise RepError(f"missing action matrix for arrow {a.name}")
            want = (self.dims[a.source - 1], self.dims[a.target - 1])
            if m.shape != want:
                raise RepError(
                    f"arrow {a.name}: matrix shape {m.shape}, expected {want}")
        for rel in self.algebra.relations:
            acc = None
            for c, p in rel.terms:
                m = self.act_path_word(p).scale(c)
                acc = m if acc is None else acc + m
            if acc is not None and not acc.is_zero():
                raise RepError(f"relation {rel} does not act by zero")

    def dim_at(self, i: int) -> int:
        return self.dims[i - 1]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def act_arrow(self, name: str) -> RatMatrix:
        return self.arrow_maps[name]

    def act_path_word(self, arrows: Sequence[str]) -> RatMatrix:
        """Action of a composable arrow word in traversal order."""
        if not arrows:
            raise RepError("act_path_word needs a nonempty word")
        m = self.arrow_maps[arrows[0]]
        for name in arrows[1:]:
            m = m @ self.arrow_maps[name]
        return m

    def act_basis_path(self, p: BasisPath) -> RatMatrix:
        if p.is_trivial():
            return RatMatrix.identity(self.dim_at(p.source))
        return self.act_path_word(p.arrows)


@dataclass(frozen=True, eq=False)
class RepMap:
    source: Rep
    target: Rep
    blocks: tuple[RatMatrix, ...]
    memo: dict = memo_field()

    def __post_init__(self):
        if self.source.algebra is not self.target.algebra:
            raise RepError("module map across different algebras")
        n = self.source.algebra.vertex_count
        if len(self.blocks) != n:
            raise RepError("one block per vertex required")
        for v in range(1, n + 1):
            want = (self.target.dim_at(v), self.source.dim_at(v))
            if self.blocks[v - 1].shape != want:
                raise RepError(f"block at vertex {v}: {self.blocks[v-1].shape} != {want}")
        for a in self.source.algebra.quiver.arrows:
            if not self.target.dim_at(a.source) * self.source.dim_at(a.target):
                continue  # both sides are the one empty matrix of a shape
            lhs = self.block(a.source) @ self.source.act_arrow(a.name)
            rhs = self.target.act_arrow(a.name) @ self.block(a.target)
            if lhs != rhs:
                raise RepError(f"naturality fails at arrow {a.name}")

    def block(self, v: int) -> RatMatrix:
        return self.blocks[v - 1]

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def same_blocks(self, other: "RepMap") -> bool:
        return self.blocks == other.blocks

    def __add__(self, other: "RepMap") -> "RepMap":
        _require_parallel(self, other)
        return RepMap(self.source, self.target,
                      tuple(a + b for a, b in zip(self.blocks, other.blocks)))

    def __sub__(self, other: "RepMap") -> "RepMap":
        _require_parallel(self, other)
        return RepMap(self.source, self.target,
                      tuple(a - b for a, b in zip(self.blocks, other.blocks)))

    def __neg__(self) -> "RepMap":
        """-self, kept in self.memo: a map negated again, such as a
        differential shared by several odd shifts, is negated once."""
        return memoised(self, "neg", lambda: RepMap(
            self.source, self.target, tuple(-b for b in self.blocks)))

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target, tuple(b.scale(c) for b in self.blocks))


def _require_parallel(f: RepMap, g: RepMap) -> None:
    if f.source is not g.source or f.target is not g.target:
        raise RepError("maps are not parallel")


def compose(g: RepMap, f: RepMap) -> RepMap:
    """g after f; an identity factor (identity_map) returns the other."""
    if f.target is not g.source:
        raise RepError("composition endpoint mismatch")
    if g is g.source.memo.get("identity"):
        return f
    if f is f.source.memo.get("identity"):
        return g
    return RepMap(f.source, g.target, tuple(composite_blocks(g, f)))


def composite_blocks(g: RepMap, f: RepMap) -> list[RatMatrix]:
    """The per-vertex blocks of g after f, without building the map; an
    empty product is the shared zero of its shape."""
    return [gb @ fb if gb.rows * fb.cols
            else RatMatrix.zeros(gb.rows, fb.cols)
            for gb, fb in zip(g.blocks, f.blocks)]


def identity_map(m: Rep) -> RepMap:
    return memoised(m, "identity", lambda: RepMap(
        m, m, tuple(RatMatrix.identity(d) for d in m.dims)))


def zero_map(m: Rep, n: Rep) -> RepMap:
    return RepMap(m, n, tuple(RatMatrix.zeros(dn, dm) for dm, dn in zip(m.dims, n.dims)))


def zero_rep(alg: PathAlgebraDesc) -> Rep:
    """The zero module of the algebra: one object, built once."""
    return memoised(alg, "zero_rep", lambda: Rep(
        alg, (0,) * alg.vertex_count,
        {a.name: RatMatrix.zeros(0, 0) for a in alg.quiver.arrows},
        proj_gens=()))


def simple(alg: PathAlgebraDesc, i: int) -> Rep:
    if not 1 <= i <= alg.vertex_count:
        raise AlgebraError(f"vertex {i} out of range")
    dims = tuple(1 if v == i else 0 for v in range(1, alg.vertex_count + 1))
    maps = {}
    for a in alg.quiver.arrows:
        maps[a.name] = RatMatrix.zeros(dims[a.source - 1], dims[a.target - 1])
    return Rep(alg, dims, maps)


def projective(alg: PathAlgebraDesc, i: int) -> Rep:
    return projective_sum(alg, (i,))


def projective_sum(alg: PathAlgebraDesc, vertices: Sequence[int]) -> Rep:
    """Direct sum of indecomposable projectives, tagged with its generators."""
    for v in vertices:
        if not 1 <= v <= alg.vertex_count:
            raise AlgebraError(f"vertex {v} out of range")
    vertices = tuple(vertices)
    n = alg.vertex_count
    basis = {j: [(c, p) for c, v in enumerate(vertices)
                 for p in alg.paths_between(j, v)]
             for j in range(1, n + 1)}
    dims = tuple(len(basis[j]) for j in range(1, n + 1))
    index = {j: {cp: k for k, cp in enumerate(basis[j])} for j in basis}
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        cols = []
        for (c, p) in basis[t]:
            # right action: prepend the arrow to the traversal word
            combo = alg.reduce_path(s, (a.name,) + p.arrows)
            col = [0] * dims[s - 1]
            for bidx, coef in combo.items():
                bp = alg.basis[bidx]
                col[index[s][(c, bp)]] = coef
            cols.append(col)
        maps[a.name] = RatMatrix.from_cols(cols, rows=dims[s - 1])
    return Rep(alg, dims, maps, proj_gens=vertices)


def tagged_basis(m: Rep, j: int) -> list[tuple[int, BasisPath]]:
    """(copy, path) labels of the vertex-j basis of a tagged projective sum."""
    if m.proj_gens is None:
        raise RepError("module is not tagged as a projective sum")
    return [(c, p) for c, v in enumerate(m.proj_gens)
            for p in m.algebra.paths_between(j, v)]


def copy_rows(alg: PathAlgebraDesc, gens: Sequence[int], j: int) -> list[range]:
    """The basis indices at vertex j of each copy of the projective sum on
    gens, which lays its basis out copy by copy."""
    out, off = [], 0
    for v in gens:
        n = len(alg.paths_between(j, v))
        out.append(range(off, off + n))
        off += n
    return out


def generator_positions(m: Rep) -> list[tuple[int, int, int]]:
    """(copy, vertex, index in G_vertex) of each copy generator e_v: the
    first row of its copy at its vertex, as e_v is the only path v -> v."""
    if m.proj_gens is None:
        raise RepError("module is not tagged as a projective sum")
    rows = {v: copy_rows(m.algebra, m.proj_gens, v) for v in set(m.proj_gens)}
    return [(c, v, rows[v][c][0]) for c, v in enumerate(m.proj_gens)]


def map_from_generators(t: Rep, n: Rep, images: Sequence[RatMatrix]) -> RepMap:
    """The unique module map out of the tagged projective sum t sending the
    copy-c generator to the column images[c] in G_{v_c} n."""
    if t.proj_gens is None:
        raise RepError("source is not tagged")
    if len(images) != len(t.proj_gens):
        raise RepError("one image column per generator required")
    if any(x.shape != (n.dim_at(v), 1) for x, v in zip(images, t.proj_gens)):
        raise RepError("generator image has wrong shape")
    return RepMap(t, n, tuple(generator_block(t, n, images, j)
                              for j in range(1, t.algebra.vertex_count + 1)))


def generator_block(t: Rep, n: Rep, images: Sequence[RatMatrix],
                    j: int) -> RatMatrix:
    """The vertex-j block of map_from_generators(t, n, images), read
    without building or checking the map."""
    cols = [n.act_basis_path(p) @ images[c] for c, p in tagged_basis(t, j)]
    return hstack(cols) if cols else RatMatrix.zeros(n.dim_at(j), 0)


def eval_columns(t: Rep, n: Rep, j: int, m: RatMatrix) -> list[RatMatrix]:
    """Blocks U_c, one per copy c, with sum_c U_c @ image_c = phi_j(m).

    Here phi ranges over module maps t -> n from the tagged projective sum t,
    image_c being the image of the copy-c generator in G_{v_c} n, and m is a
    fixed column in G_j t.
    """
    if t.proj_gens is None:
        raise RepError("source is not tagged")
    out = [RatMatrix.zeros(n.dim_at(j), n.dim_at(v)) for v in t.proj_gens]
    for k, (c, p) in enumerate(tagged_basis(t, j)):
        if m.num[k][0]:
            out[c] = out[c] + n.act_basis_path(p).scale(m[k, 0])
    return out


def hom_space(m: Rep, n: Rep) -> list[RepMap]:
    """A basis of the intertwiner space Hom_A(m, n).

    The unknowns are the vertex blocks X_v, each read row by row.  An
    arrow a: s -> t asks X_s m_a = n_a X_t, one block row of the system:
    kron(I, m_a^T) in column block s and -kron(n_a, I) in column block t.
    """
    if m.algebra is not n.algebra:
        raise RepError("Hom across different algebras")
    shapes = list(zip(n.dims, m.dims))
    sizes = [r * c for r, c in shapes]
    offsets = list(accumulate(sizes, initial=0))
    arrows = m.algebra.quiver.arrows
    grid = []
    for a in arrows:
        s, t = a.source - 1, a.target - 1
        row: list[RatMatrix | None] = [None] * len(sizes)
        row[s] = kron(RatMatrix.identity(n.dims[s]),
                      m.act_arrow(a.name).transpose())
        row[t] = -kron(n.act_arrow(a.name), RatMatrix.identity(m.dims[t]))
        grid.append(row)
    heights = [n.dims[a.source - 1] * m.dims[a.target - 1] for a in arrows]
    basis = kernel_basis(block_matrix(grid, heights, sizes))
    return [RepMap(m, n, tuple(
                basis.take(range(o, o + size), [j]).reshape(*shape)
                for o, size, shape in zip(offsets, sizes, shapes)))
            for j in range(basis.cols)]


def _span(m: Rep, cols: Sequence[RatMatrix]) -> tuple[Rep, RepMap]:
    """The submodule of m spanned at each vertex v by the columns of
    cols[v - 1], which are independent, with its inclusion."""
    maps = {}
    for a in m.algebra.quiver.arrows:
        # act on the span through the inclusion: i_s X = act i_t
        x = solve(cols[a.source - 1], m.act_arrow(a.name) @ cols[a.target - 1])
        if x is None:
            raise RepError("span is not arrow-stable; broken input")
        maps[a.name] = x
    sub = Rep(m.algebra, tuple(c.cols for c in cols), maps)
    return sub, RepMap(sub, m, tuple(cols))


def kernel(f: RepMap) -> tuple[Rep, RepMap]:
    return _span(f.source, [kernel_basis(b) for b in f.blocks])


def cokernel(f: RepMap) -> tuple[Rep, RepMap]:
    alg = f.source.algebra
    projs = [kernel_basis(f.block(v).transpose()).transpose()
             for v in range(1, alg.vertex_count + 1)]
    dims = tuple(p.rows for p in projs)
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        # X pi_t = pi_s act; transpose to solve for X
        rhs = (projs[s - 1] @ f.target.act_arrow(a.name)).transpose()
        x = solve(projs[t - 1].transpose(), rhs)
        if x is None:
            raise RepError("cokernel action insoluble; broken input")
        maps[a.name] = x.transpose()
    cok = Rep(alg, dims, maps)
    proj = RepMap(f.target, cok, tuple(projs))
    return cok, proj


def image(f: RepMap) -> tuple[Rep, RepMap, RepMap]:
    """(image, mono into target, epi from source) with mono @ epi = f."""
    img, mono = _span(f.target,
                      [b.take(None, pivot_columns(b)) for b in f.blocks])
    return img, mono, through_mono(mono, f)


def through_mono(incl: RepMap, f: RepMap) -> RepMap:
    """The map h with incl after h equal to f, for incl injective."""
    blocks = []
    for a, b in zip(incl.blocks, f.blocks):
        x = solve(a, b)
        if x is None:
            raise RepError("map does not factor through the monomorphism")
        blocks.append(x)
    return RepMap(f.source, incl.source, tuple(blocks))


def through_epi(pr: RepMap, f: RepMap) -> RepMap:
    """The map h with h after pr equal to f, for pr surjective."""
    blocks = []
    for a, b in zip(pr.blocks, f.blocks):
        x = solve(a.transpose(), b.transpose())
        if x is None:
            raise RepError("map does not factor through the epimorphism")
        blocks.append(x.transpose())
    return RepMap(pr.target, f.target, tuple(blocks))


ID = object()  # a block_map entry: the identity of a part of both sums


@dataclass(frozen=True, eq=False)
class DirectSum:
    """rep is the sum of parts, laid out part by part at every vertex.

    The injection and projection of part i are built on first request;
    when the sum is part i itself, they are its identity.
    """

    rep: Rep
    parts: tuple[Rep, ...]
    memo: dict = memo_field()

    def _unit(self, i: int) -> list:
        return [ID if k == i else None for k in range(len(self.parts))]

    def injection(self, i: int) -> RepMap:
        if self.rep is self.parts[i]:
            return identity_map(self.rep)
        return memoised(self, ("inj", i), lambda: block_map(
            self.parts[i], self, [[e] for e in self._unit(i)]))

    def projection(self, i: int) -> RepMap:
        if self.rep is self.parts[i]:
            return identity_map(self.rep)
        return memoised(self, ("proj", i), lambda: block_map(
            self, self.parts[i], [self._unit(i)]))

    @property
    def injections(self) -> tuple[RepMap, ...]:
        return tuple(map(self.injection, range(len(self.parts))))

    @property
    def projections(self) -> tuple[RepMap, ...]:
        return tuple(map(self.projection, range(len(self.parts))))


def direct_sum(parts: Sequence[Rep]) -> DirectSum:
    """The sum of parts; when one part alone is nonzero and its tagging is
    the sum's (tagged when every part is), that part is the sum."""
    if not parts:
        raise RepError("direct sum of nothing (pass zero_rep instead)")
    parts = tuple(parts)
    alg = parts[0].algebra
    if any(p.algebra is not alg for p in parts):
        raise RepError("direct sum across algebras")
    tagged = all(p.proj_gens is not None for p in parts)
    nonzero = [p for p in parts if p.total_dim]
    if len(nonzero) == 1 and (nonzero[0].proj_gens is not None) == tagged:
        return DirectSum(nonzero[0], parts)
    dims = tuple(map(sum, zip(*(p.dims for p in parts))))
    maps = {a.name: block_matrix(
        [[p.act_arrow(a.name) if i == j else None for j in range(len(parts))]
         for i, p in enumerate(parts)],
        [p.dims[a.source - 1] for p in parts],
        [p.dims[a.target - 1] for p in parts]) for a in alg.quiver.arrows}
    # the copy-major tagged layout agrees with the block layout
    tags = tuple(v for p in parts for v in p.proj_gens) if tagged else None
    return DirectSum(Rep(alg, dims, maps, proj_gens=tags), parts)


def block_map(src: DirectSum | Rep, tgt: DirectSum | Rep,
              grid: Sequence[Sequence[RepMap | None]]) -> RepMap:
    """The map between two direct sums whose component from source part j
    to target part i is grid[i][j]: a RepMap, ID, or None for zero.

    A plain Rep is a sum of one part.  No zero block is built as a map.
    When the grid holds one map and it runs from the source sum to the
    target sum, each of which is then that one part, the map is returned.
    """
    sparts, srep = ((src.parts, src.rep) if isinstance(src, DirectSum)
                    else ((src,), src))
    tparts, trep = ((tgt.parts, tgt.rep) if isinstance(tgt, DirectSum)
                    else ((tgt,), tgt))
    for row, tp in zip(grid, tparts, strict=True):
        for g, sp in zip(row, sparts, strict=True):
            if g is None:
                continue
            ends = (tp, tp) if g is ID else (g.source, g.target)
            if ends[0] is not sp or ends[1] is not tp:
                raise RepError("block is not anchored to its parts")
    entries = [g for row in grid for g in row if g is not None]
    if len(entries) == 1:
        (g,) = entries
        if g is not ID and g.source is srep and g.target is trep:
            return g
    blocks = []
    for v in range(srep.algebra.vertex_count):
        shape = (trep.dims[v], srep.dims[v])
        if not shape[0] * shape[1]:
            blocks.append(RatMatrix.zeros(*shape))
            continue
        ws = [p.dims[v] for p in sparts]
        blocks.append(block_matrix(
            [[g if g is None else RatMatrix.identity(w) if g is ID
              else g.blocks[v] for g, w in zip(row, ws)] for row in grid],
            [p.dims[v] for p in tparts], ws))
    return RepMap(srep, trep, tuple(blocks))


def filtration_step(v: Rep, k: int) -> tuple[Rep, RepMap]:
    """The subrepresentation F^k v supported on vertices <= k, with inclusion."""
    n = v.algebra.vertex_count
    if not 0 <= k <= n:
        raise RepError(f"filtration level {k} outside 0..{n}")
    return _span(v, [RatMatrix.identity(d) if i < k else RatMatrix.zeros(d, 0)
                     for i, d in enumerate(v.dims)])


def filtration_inclusion(v: Rep, k: int) -> RepMap:
    """The step inclusion F^{k-1} v -> F^k v."""
    _, lower = filtration_step(v, k - 1)
    _, upper = filtration_step(v, k)
    return through_mono(upper, lower)


def exact_certificate(*maps: RepMap) -> None:
    """Raise unless 0 -> maps[0].source -> ... -> maps[-1].target -> 0 is
    exact: consecutive maps compose to zero on their blocks, and at every
    vertex the ranks into and out of each term add up to its dimension."""
    for i, (f, g) in enumerate(zip(maps, maps[1:])):
        if f.target is not g.source:
            raise RepError("sequence maps do not compose")
        if not all(b.is_zero() for b in composite_blocks(g, f)):
            raise RepError(f"composite of maps {i},{i + 1} is nonzero")
    terms = (maps[0].source,) + tuple(f.target for f in maps)
    for v in range(1, maps[0].source.algebra.vertex_count + 1):
        ranks = [0] + [rank(f.block(v)) for f in maps] + [0]
        for i, t in enumerate(terms):
            if ranks[i] + ranks[i + 1] != t.dim_at(v):
                raise RepError(f"not exact at term {i}, vertex {v}")


def top_generators(m: Rep) -> list[tuple[int, RatMatrix]]:
    """(vertex, column) generators lifting a basis of m / rad m.

    At each vertex the radical part is the span of all arrow-action images;
    the returned standard basis columns complete it.
    """
    alg = m.algebra
    out = []
    for v in range(1, alg.vertex_count + 1):
        incoming = [m.act_arrow(a.name) for a in alg.quiver.arrows if a.source == v]
        if incoming:
            radical = hstack(incoming)
        else:
            radical = RatMatrix.zeros(m.dim_at(v), 0)
        unit = RatMatrix.identity(m.dim_at(v))
        out += [(v, unit.col_matrix(j)) for j in complement_pivots(radical)]
    return out


def projective_cover(m: Rep) -> tuple[Rep, RepMap]:
    """A surjection from a tagged projective sum onto m through its top."""
    gens = top_generators(m)
    cover = projective_sum(m.algebra, tuple(v for v, _ in gens))
    pi = map_from_generators(cover, m, [col for _, col in gens])
    for v in range(1, m.algebra.vertex_count + 1):
        if rank(pi.block(v)) != m.dim_at(v):
            raise RepError("projective cover failed to surject; broken input")
    return cover, pi
