"""Right modules over a path algebra, stored as vertex-graded representations.

A right module V decomposes as the direct sum of its vertex pieces
G_i V = V e_i. The arrow a: s -> t acts by a matrix act(a): G_t V -> G_s V
(shape dims[s] x dims[t]), and a composite path q = (a1, ..., ak) in traversal
order acts by act(a1) @ act(a2) @ ... @ act(ak). With these conventions the
indecomposable projective P_i = e_i A has G_j P_i spanned by the residue paths
from j into i, and Hom(P_i, M) is identified with G_i M.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from .algebra import AlgebraError, BasisPath, PathAlgebraDesc
from .linalg import (
    RatMatrix,
    block_diag,
    complement_pivots,
    hstack,
    kernel_basis,
    pivot_columns,
    rank,
    solve,
    vstack,
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
            src, tgt = None, None
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
        q = self.algebra.quiver
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

    def same_shape(self, other: "Rep") -> bool:
        return (self.algebra is other.algebra and self.dims == other.dims
                and all(self.arrow_maps[a.name] == other.arrow_maps[a.name]
                        for a in self.algebra.quiver.arrows))


@dataclass(frozen=True, eq=False)
class RepMap:
    source: Rep
    target: Rep
    blocks: tuple[RatMatrix, ...]

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
        return RepMap(self.source, self.target, tuple(-b for b in self.blocks))

    def scale(self, c) -> "RepMap":
        return RepMap(self.source, self.target, tuple(b.scale(c) for b in self.blocks))


def _require_parallel(f: RepMap, g: RepMap) -> None:
    if f.source is not g.source or f.target is not g.target:
        raise RepError("maps are not parallel")


def compose(g: RepMap, f: RepMap) -> RepMap:
    """g after f."""
    if f.target is not g.source:
        raise RepError("composition endpoint mismatch")
    return RepMap(f.source, g.target,
                  tuple(gb @ fb for gb, fb in zip(g.blocks, f.blocks)))


def identity_map(m: Rep) -> RepMap:
    return RepMap(m, m, tuple(RatMatrix.identity(d) for d in m.dims))


def zero_map(m: Rep, n: Rep) -> RepMap:
    return RepMap(m, n, tuple(RatMatrix.zeros(dn, dm) for dm, dn in zip(m.dims, n.dims)))


def zero_rep(alg: PathAlgebraDesc) -> Rep:
    n = alg.vertex_count
    return Rep(alg, (0,) * n,
               {a.name: RatMatrix.zeros(0, 0) for a in alg.quiver.arrows},
               proj_gens=())


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


def generator_positions(m: Rep) -> list[tuple[int, int, int]]:
    """(copy, vertex, index in G_vertex) of each copy generator e_v."""
    if m.proj_gens is None:
        raise RepError("module is not tagged as a projective sum")
    out = []
    for c, v in enumerate(m.proj_gens):
        labels = tagged_basis(m, v)
        out.append((c, v, labels.index((c, BasisPath(v, v, ())))))
    return out


def summand_maps(m: Rep, keep: Sequence[int]) -> tuple[Rep, RepMap, RepMap]:
    """Sub-sum of a tagged projective sum on the kept copies.

    Returns (sub, inclusion sub -> m, coordinate projection m -> sub).
    Both maps are module maps because arrows act copy by copy.
    """
    if m.proj_gens is None:
        raise RepError("module is not tagged as a projective sum")
    keep = tuple(keep)
    for c in keep:
        if not 0 <= c < len(m.proj_gens):
            raise RepError(f"copy {c} out of range")
    sub = projective_sum(m.algebra, [m.proj_gens[c] for c in keep])
    inj_blocks = []
    proj_blocks = []
    for j in range(1, m.algebra.vertex_count + 1):
        spot = {lab: r for r, lab in enumerate(tagged_basis(m, j))}
        rows = len(spot)
        picks = [spot[(keep[c], p)] for (c, p) in tagged_basis(sub, j)]
        cols = []
        prows = []
        for r in picks:
            col = [0] * rows
            col[r] = 1
            cols.append(col)
            prows.append(col)
        inj_blocks.append(RatMatrix.from_cols(cols, rows=rows))
        proj_blocks.append(RatMatrix(prows, cols=rows))
    return (sub, RepMap(sub, m, tuple(inj_blocks)),
            RepMap(m, sub, tuple(proj_blocks)))


def map_from_generators(t: Rep, n: Rep, images: Sequence[RatMatrix]) -> RepMap:
    """The unique module map out of the tagged projective sum t sending the
    copy-c generator to the column images[c] in G_{v_c} n."""
    if t.proj_gens is None:
        raise RepError("source is not tagged")
    if len(images) != len(t.proj_gens):
        raise RepError("one image column per generator required")
    blocks = []
    for j in range(1, t.algebra.vertex_count + 1):
        cols = []
        for (c, p) in tagged_basis(t, j):
            x = images[c]
            if x.shape != (n.dim_at(t.proj_gens[c]), 1):
                raise RepError("generator image has wrong shape")
            cols.append((n.act_basis_path(p) @ x).col(0))
        blocks.append(RatMatrix.from_cols(cols, rows=n.dim_at(j)))
    return RepMap(t, n, tuple(blocks))


def eval_columns(t: Rep, n: Rep, j: int, m: RatMatrix) -> RatMatrix:
    """Coefficient matrix U with U @ stacked-generator-data = phi_j(m).

    Here phi ranges over module maps t -> n from the tagged projective sum t,
    its unknown data being the stacked generator images (copy-major), and m is
    a fixed column in G_j t.
    """
    if t.proj_gens is None:
        raise RepError("source is not tagged")
    labels = tagged_basis(t, j)
    widths = [n.dim_at(v) for v in t.proj_gens]
    total = sum(widths)
    rows = n.dim_at(j)
    acc = [[0] * total for _ in range(rows)]
    for k, (c, p) in enumerate(labels):
        a = m.num[k][0]
        if a == 0:
            continue
        act = n.act_basis_path(p)
        den = m.den * act.den
        coef = a if den == 1 else Fraction(a, den)
        off = sum(widths[:c])
        for r in range(rows):
            arow = act.num[r]
            row = acc[r]
            for q in range(widths[c]):
                if arow[q]:
                    row[off + q] += coef * arow[q]
    return RatMatrix(acc, cols=total)


def hom_space(m: Rep, n: Rep) -> list[RepMap]:
    """A basis of the intertwiner space Hom_A(m, n)."""
    if m.algebra is not n.algebra:
        raise RepError("Hom across different algebras")
    nv = m.algebra.vertex_count
    sizes = [n.dims[v] * m.dims[v] for v in range(nv)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    total = offsets[-1]

    def entry(v: int, r: int, c: int) -> int:
        # row-major inside the vertex block
        return offsets[v] + r * m.dims[v] + c

    rows = []
    for a in m.algebra.quiver.arrows:
        s, t = a.source - 1, a.target - 1
        am = m.act_arrow(a.name)
        an = n.act_arrow(a.name)
        # each equation is scaled by am.den * an.den, which keeps it
        # integral and leaves the kernel (and its rref basis) unchanged
        am_num, an_num = am.num, an.num
        for r in range(n.dims[s]):
            an_row = an_num[r]
            for c in range(m.dims[t]):
                row = [0] * total
                for k in range(m.dims[s]):
                    if am_num[k][c]:
                        row[entry(s, r, k)] += am_num[k][c] * an.den
                for k in range(n.dims[t]):
                    if an_row[k]:
                        row[entry(t, k, c)] -= an_row[k] * am.den
                rows.append(row)
    system = RatMatrix(rows, cols=total) if rows else RatMatrix.zeros(0, total)
    basis = kernel_basis(system)
    out = []
    for j in range(basis.cols):
        vec = basis.col(j)
        blocks = []
        for v in range(nv):
            block = [[vec[entry(v, r, c)] for c in range(m.dims[v])]
                     for r in range(n.dims[v])]
            blocks.append(RatMatrix(block, cols=m.dims[v]))
        out.append(RepMap(m, n, tuple(blocks)))
    return out


def kernel(f: RepMap) -> tuple[Rep, RepMap]:
    alg = f.source.algebra
    kbs = [kernel_basis(f.block(v)) for v in range(1, alg.vertex_count + 1)]
    dims = tuple(k.cols for k in kbs)
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        # act on the kernel through the inclusion: i_s X = act i_t
        rhs = f.source.act_arrow(a.name) @ kbs[t - 1]
        x = solve(kbs[s - 1], rhs)
        if x is None:
            raise RepError("kernel is not arrow-stable; broken input")
        maps[a.name] = x
    ker = Rep(alg, dims, maps)
    incl = RepMap(ker, f.source, tuple(kbs))
    return ker, incl


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
    alg = f.source.algebra
    monos = []
    for v in range(1, alg.vertex_count + 1):
        piv = pivot_columns(f.block(v))
        cols = [f.block(v).col(j) for j in piv]
        monos.append(RatMatrix.from_cols(cols, rows=f.target.dim_at(v)))
    dims = tuple(m.cols for m in monos)
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        rhs = f.target.act_arrow(a.name) @ monos[t - 1]
        x = solve(monos[s - 1], rhs)
        if x is None:
            raise RepError("image is not arrow-stable; broken input")
        maps[a.name] = x
    img = Rep(alg, dims, maps)
    mono = RepMap(img, f.target, tuple(monos))
    epis = []
    for v in range(1, alg.vertex_count + 1):
        x = solve(monos[v - 1], f.block(v))
        if x is None:
            raise RepError("factorization through image failed")
        epis.append(x)
    epi = RepMap(f.source, img, tuple(epis))
    return img, mono, epi


@dataclass(frozen=True, eq=False)
class DirectSum:
    rep: Rep
    injections: tuple[RepMap, ...]
    projections: tuple[RepMap, ...]


def direct_sum(parts: Sequence[Rep]) -> DirectSum:
    if not parts:
        raise RepError("direct sum of nothing (pass zero_rep instead)")
    alg = parts[0].algebra
    if any(p.algebra is not alg for p in parts):
        raise RepError("direct sum across algebras")
    nv = alg.vertex_count
    dims = tuple(sum(p.dims[v] for p in parts) for v in range(nv))
    maps = {a.name: block_diag([p.act_arrow(a.name) for p in parts])
            for a in alg.quiver.arrows}
    tags = None
    if all(p.proj_gens is not None for p in parts):
        tags = tuple(v for p in parts for v in p.proj_gens)
        # the copy-major tagged layout must agree with the block layout
    total = Rep(alg, dims, maps, proj_gens=tags)
    injections = []
    projections = []
    for k, p in enumerate(parts):
        inj_blocks = []
        proj_blocks = []
        for v in range(nv):
            before = sum(q.dims[v] for q in parts[:k])
            rows = [[0] * p.dims[v] for _ in range(dims[v])]
            for i in range(p.dims[v]):
                rows[before + i][i] = 1
            inj_blocks.append(RatMatrix(rows, cols=p.dims[v]))
            prows = [[0] * dims[v] for _ in range(p.dims[v])]
            for i in range(p.dims[v]):
                prows[i][before + i] = 1
            proj_blocks.append(RatMatrix(prows, cols=dims[v]))
        injections.append(RepMap(p, total, tuple(inj_blocks)))
        projections.append(RepMap(total, p, tuple(proj_blocks)))
    return DirectSum(total, tuple(injections), tuple(projections))


def filtration_step(v: Rep, k: int) -> tuple[Rep, RepMap]:
    """The subrepresentation F^k v supported on vertices <= k, with inclusion."""
    alg = v.algebra
    n = alg.vertex_count
    if not 0 <= k <= n:
        raise RepError(f"filtration level {k} outside 0..{n}")
    dims = tuple(v.dims[i] if i + 1 <= k else 0 for i in range(n))
    maps = {}
    for a in alg.quiver.arrows:
        s, t = a.source, a.target
        if t <= k:
            maps[a.name] = v.act_arrow(a.name)
        else:
            maps[a.name] = RatMatrix.zeros(dims[s - 1], 0)
    sub = Rep(alg, dims, maps)
    blocks = []
    for i in range(n):
        if i + 1 <= k:
            blocks.append(RatMatrix.identity(v.dims[i]))
        else:
            blocks.append(RatMatrix.zeros(v.dims[i], 0))
    return sub, RepMap(sub, v, tuple(blocks))


def filtration_inclusion(v: Rep, k: int) -> RepMap:
    """The step inclusion F^{k-1} v -> F^k v."""
    lower, _ = filtration_step(v, k - 1)
    upper, _ = filtration_step(v, k)
    blocks = []
    for i in range(v.algebra.vertex_count):
        if i + 1 <= k - 1:
            blocks.append(RatMatrix.identity(v.dims[i]))
        else:
            blocks.append(RatMatrix.zeros(upper.dims[i], 0))
    return RepMap(lower, upper, tuple(blocks))


def exact_certificate(f: RepMap, g: RepMap) -> None:
    """Raise unless 0 -> source(f) -> source(g) -> target(g) -> 0 is exact."""
    if f.target is not g.source:
        raise RepError("sequence maps do not compose")
    if not compose(g, f).is_zero():
        raise RepError("g after f is not zero")
    for v in range(1, f.source.algebra.vertex_count + 1):
        rf = rank(f.block(v))
        rg = rank(g.block(v))
        if rf != f.source.dim_at(v):
            raise RepError(f"first map not injective at vertex {v}")
        if rg != g.target.dim_at(v):
            raise RepError(f"second map not surjective at vertex {v}")
        if rf + rg != g.source.dim_at(v):
            raise RepError(f"rank gap at vertex {v}: not exact in the middle")


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
        for j in complement_pivots(radical):
            col = [0] * m.dim_at(v)
            col[j] = 1
            out.append((v, RatMatrix.column(col)))
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
