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
generator: projective_sum is the block-diagonal join of the P_v, each
built once per algebra, and shares its join with direct_sum.  copy_rows
is the one reader of where each copy's basis sits at a vertex, and
generator_positions, minimal models and the generator data of derived
all go through it.

Validation policy: Rep checks shapes and relations, and that a tagged
module is the projective_sum on its generators; RepMap checks shapes and
naturality.  A builder skips the checks by passing the module-private
_BUILT as _by where its output holds by construction: projective_sum
(the definition of a tagged module, joined from the per-vertex P_v,
whose relations hold when algebra.reduce_path is right, which a test
checks), zero_rep, sums, differences, negatives, multiples and
composites of maps, identity_map, map_from_generators (free on generator
images), and direct_sum's Rep and block_map (block-diagonal layouts of
valid parts).  Input, solves and
eliminations stay checked (jsonio, kernel, cokernel, hom_space, the lifts
and minimal models of derived, yoneda), and projective_cover certifies by
ranks that it surjects.  A resolution builds no module but its terms.

Memo policy: each result is kept in the memo of the object it
describes.  A module's memo holds its "identity" map, a map's memo its
negative ("neg"), and a DirectSum's memo the injection and projection
of part i, keyed by ("inj", i) and ("proj", i).  The algebra's memo
holds its "zero_rep" and, keyed by ("projective", v), the dims and
arrow blocks of P_v: data, not a Rep, which would hold the algebra back
and so close one more cycle that only the collector frees.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import partial
from itertools import accumulate
from typing import Sequence

from .algebra import (AlgebraError, BasisPath, PathAlgebraDesc, memo_field,
                      memoised)
from .linalg import (
    RatMatrix,
    block_diagonal,
    block_matrix,
    echelon,
    hstack,
    kernel_basis,
    kron,
    pivot_columns,
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
    _by: InitVar[object] = None

    def __post_init__(self, _by):
        if _by is _BUILT:
            return
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
        if self.proj_gens is not None:
            # the projective sum on its generators, whose relations hold
            if not all(1 <= v <= n for v in self.proj_gens):
                raise RepError(f"generator out of range in {self.proj_gens}")
            want = projective_sum(self.algebra, self.proj_gens)
            if want.dims != self.dims or any(
                    self.arrow_maps[a.name] != want.arrow_maps[a.name]
                    for a in self.algebra.quiver.arrows):
                raise RepError("tagged module is not the projective sum on "
                               f"its generators {self.proj_gens}")
            return
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
    _by: InitVar[object] = None

    def __post_init__(self, _by):
        if _by is _BUILT:
            return
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

    def __add__(self, other: "RepMap") -> "RepMap":
        _require_parallel(self, other)
        return RepMap(self.source, self.target, tuple(
            a + b for a, b in zip(self.blocks, other.blocks)), _by=_BUILT)

    def __sub__(self, other: "RepMap") -> "RepMap":
        _require_parallel(self, other)
        return RepMap(self.source, self.target, tuple(
            a - b for a, b in zip(self.blocks, other.blocks)), _by=_BUILT)

    def __neg__(self) -> "RepMap":
        """-self, kept in self.memo: a map negated again, such as a
        differential shared by several odd shifts, is negated once."""
        return memoised(self, "neg", lambda: RepMap(
            self.source, self.target, tuple(-b for b in self.blocks),
            _by=_BUILT))

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target,
                      tuple(b.scale(c) for b in self.blocks), _by=_BUILT)


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
    return RepMap(f.source, g.target, tuple(composite_blocks(g, f)),
                  _by=_BUILT)


def composite_blocks(g: RepMap, f: RepMap) -> list[RatMatrix]:
    """The per-vertex blocks of g after f, without building the map; an
    empty product is the shared zero of its shape."""
    return [gb @ fb if gb.rows * fb.cols
            else RatMatrix.zeros(gb.rows, fb.cols)
            for gb, fb in zip(g.blocks, f.blocks)]


def identity_map(m: Rep) -> RepMap:
    return memoised(m, "identity", lambda: RepMap(
        m, m, tuple(RatMatrix.identity(d) for d in m.dims), _by=_BUILT))


def zero_map(m: Rep, n: Rep) -> RepMap:
    return RepMap(m, n, tuple(RatMatrix.zeros(dn, dm) for dm, dn in zip(m.dims, n.dims)))


def zero_rep(alg: PathAlgebraDesc) -> Rep:
    """The zero module of the algebra: one object, built once."""
    return memoised(alg, "zero_rep", lambda: Rep(
        alg, (0,) * alg.vertex_count,
        {a.name: RatMatrix.zeros(0, 0) for a in alg.quiver.arrows}, (),
        _by=_BUILT))


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
    """Direct sum of indecomposable projectives, tagged with its generators:
    the block-diagonal join of the P_v, each built once per algebra.  Every
    call returns a new module; only the immutable blocks are shared."""
    vertices = tuple(vertices)
    for v in vertices:
        if not 1 <= v <= alg.vertex_count:
            raise AlgebraError(f"vertex {v} out of range")
    dims, maps = _join(alg, [memoised(alg, ("projective", v),
                                      partial(_projective, alg, v))
                             for v in vertices])
    return Rep(alg, dims, maps, vertices, _by=_BUILT)


def _projective(alg: PathAlgebraDesc, v: int) -> tuple[tuple[int, ...], dict]:
    """The dims and arrow blocks of P_v: at vertex j the residue paths
    j -> v in path order, each column read off one reduce_path and filled
    into sparse rows."""
    paths = [alg.paths_between(j, v) for j in range(1, alg.vertex_count + 1)]
    dims = tuple(map(len, paths))
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        row = {alg.index_of(s, p.arrows): i
               for i, p in enumerate(paths[s - 1])}
        rows = [{} for _ in range(dims[s - 1])]
        for j, p in enumerate(paths[t - 1]):
            # right action: prepend the arrow to the traversal word
            for b, c in alg.reduce_path(s, (a.name,) + p.arrows).items():
                rows[row[b]][j] = c
        maps[a.name] = RatMatrix.from_sparse(rows, dims[t - 1])
    return dims, maps


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
                              for j in range(1, t.algebra.vertex_count + 1)),
                  _by=_BUILT)


def generator_block(t: Rep, n: Rep, images: Sequence[RatMatrix],
                    j: int) -> RatMatrix:
    """The vertex-j block of map_from_generators(t, n, images), read
    without building or checking the map."""
    cols = [n.act_path_word(p.arrows) @ images[c] if p.arrows else images[c]
            for c, p in tagged_basis(t, j)]  # e_v acts by the identity
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
    for (c, p), x in zip(tagged_basis(t, j), m.col(0)):
        if x:
            out[c] = out[c] + n.act_basis_path(p).scale(x)
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


def through_mono(incl: RepMap, f: RepMap) -> RepMap:
    """The map h with incl after h equal to f, for incl injective."""
    blocks = []
    for a, b in zip(incl.blocks, f.blocks):
        x = solve(a, b)
        if x is None:
            raise RepError("map does not factor through the monomorphism")
        blocks.append(x)
    return RepMap(f.source, incl.source, tuple(blocks))


ID = object()  # a block_map entry: the identity of a part of both sums
_BUILT = object()  # the _by of a build that holds by construction


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
    dims, maps = _join(alg, [(p.dims, p.arrow_maps) for p in parts])
    # the copy-major tagged layout agrees with the block layout
    tags = tuple(v for p in parts for v in p.proj_gens) if tagged else None
    return DirectSum(Rep(alg, dims, maps, tags, _by=_BUILT), parts)


def _join(alg: PathAlgebraDesc,
          parts: Sequence[tuple[tuple[int, ...], dict]]
          ) -> tuple[tuple[int, ...], dict]:
    """The dims and arrow blocks of the sum of parts, each given by its
    dims and arrow blocks: block-diagonal, part by part at every vertex.
    The dict is new; the blocks of a one-part sum are the part's."""
    if len(parts) == 1:
        dims, maps = parts[0]
        return dims, dict(maps)
    dims = tuple(sum(d[j] for d, _ in parts) for j in range(alg.vertex_count))
    maps = {a.name: block_diagonal([m[a.name] for _, m in parts])
            for a in alg.quiver.arrows}
    return dims, maps


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
    return RepMap(srep, trep, tuple(blocks), _by=_BUILT)


def top_generators(m: Rep, span: Sequence[RatMatrix] | None = None
                   ) -> list[tuple[int, RatMatrix]]:
    """(vertex, column) generators lifting a basis of N / rad N, for N the
    submodule of m spanned at each vertex v by the independent columns of
    span[v - 1] (all of m by default).  The columns at v are those of
    span[v - 1] that complete the radical, the span of the arrow images of
    N: the pivots past it in the forward pass of radical | span[v - 1].
    """
    if span is None:
        span = [RatMatrix.identity(d) for d in m.dims]
    out = []
    for v, basis in enumerate(span, 1):
        radical = [m.act_arrow(a.name) @ span[a.target - 1]
                   for a in m.algebra.quiver.arrows if a.source == v]
        width = sum(r.cols for r in radical)
        out += [(v, basis.col_matrix(j - width))
                for j in pivot_columns(hstack(radical + [basis])) if j >= width]
    return out


def projective_cover(m: Rep, span: Sequence[RatMatrix] | None = None
                     ) -> tuple[Rep, RepMap, list[RatMatrix]]:
    """(P, pi, K): pi maps the tagged projective sum P into m, onto the
    submodule N spanned by span (all of m by default) through the top of
    N (top_generators), and K[v - 1] is the kernel basis of pi at v, the
    syzygy of N inside P.  One forward pass per vertex block of pi reads
    both K and the certificate that pi surjects onto N."""
    gens = top_generators(m, span)
    cover = projective_sum(m.algebra, tuple(v for v, _ in gens))
    pi = map_from_generators(cover, m, [col for _, col in gens])
    echs = [echelon(b) for b in pi.blocks]
    covered = m.dims if span is None else tuple(k.cols for k in span)
    if tuple(len(e.pivots) for e in echs) != covered:
        raise RepError("projective cover failed to surject; broken input")
    return cover, pi, [kernel_basis(e) for e in echs]
