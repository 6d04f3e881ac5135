"""Builds that skip their checks do so only where the checks hold by
construction.

reps and complexes pass a module-private sentinel, ``_BUILT``, as the
``_by`` argument of Rep, RepMap, Cx and CxMap at the sites listed in
BY_CONSTRUCTION, and ``__post_init__`` then returns before its checks.
The lint keeps the sentinel at those sites and out of every other module;
the property rebuilds every by-construction output through its public,
checked constructor.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import entrywise_projective_sum, random_map, random_sum
from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.cli import CORPUS_NAMES, corpus_path
from heartglue.complexes import (
    Cx,
    CxError,
    CxMap,
    compose,
    cone,
    cx_block_map,
    cx_direct_sum,
    identity_chain_map,
    module_cx,
    shift,
    shift_map,
)
from heartglue.jsonio import load_algebra
from heartglue.reps import (
    ID,
    Rep,
    RepMap,
    block_map,
    direct_sum,
    hom_space,
    identity_map,
    projective,
    projective_sum,
    zero_rep,
)
from heartglue.reps import compose as rcompose

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"
SENTINEL, KEYWORD = "_BUILT", "_by"

# Every function that names the sentinel, by module; "<module>" is its
# definition.  The constructors' own __post_init__ read it.
BY_CONSTRUCTION = {
    "reps.py": {
        "<module>", "Rep.__post_init__", "RepMap.__post_init__",
        "identity_map", "RepMap.__neg__", "RepMap.__add__", "RepMap.__sub__",
        "RepMap.scale", "compose", "block_map", "map_from_generators",
        "direct_sum", "projective_sum", "zero_rep",
    },
    "complexes.py": {
        "<module>", "Cx.__post_init__", "CxMap.__post_init__",
        "identity_chain_map", "compose", "shift_map", "CxMap.__neg__",
        "CxMap.__add__", "CxMap.scale", "CxSum.injection", "CxSum.projection",
        "module_cx", "_shifted", "_sum",
    },
}


def sentinel_sites(source: str) -> set[str]:
    """The qualified names of the functions that name the sentinel (as a
    name, an attribute, an import or a string) or pass the keyword."""
    sites = set()

    def names_it(node) -> bool:
        return ((isinstance(node, ast.Name) and node.id == SENTINEL)
                or (isinstance(node, ast.Attribute) and node.attr == SENTINEL)
                or (isinstance(node, ast.alias) and node.name == SENTINEL)
                or (isinstance(node, ast.Constant) and node.value == SENTINEL)
                or (isinstance(node, ast.keyword) and node.arg == KEYWORD))

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = scope + [child.name]
            elif names_it(child):
                sites.add(".".join(scope) or "<module>")
            visit(child, inner)

    visit(ast.parse(source), [])
    return sites


def test_scan_finds_the_sentinel():
    src = ("_BUILT = object()\n"
           "class A:\n"
           "    def f(self):\n"
           "        return A(_by=_BUILT)\n"
           "def g():\n"
           "    return h(_by=None)\n"
           "def k():\n"
           "    from .reps import _BUILT as b\n"
           "def m():\n"
           "    return reps._BUILT, getattr(reps, '_BUILT')\n"
           "def n():\n"
           "    return [lambda: RepMap(a, b, c, _by=x) for x in y]\n")
    assert sentinel_sites(src) == {"<module>", "A.f", "g", "k", "m", "n"}
    assert sentinel_sites("def f(x, _by=None):\n"
                          "    return RepMap(x, x, (), by=1)\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_sentinel_only_at_by_construction_sites(path):
    got = sentinel_sites(path.read_text(encoding="utf-8"))
    assert got == BY_CONSTRUCTION.get(path.name, set())


def rebuilt_rep(m: Rep) -> None:
    got = Rep(m.algebra, m.dims, m.arrow_maps, m.proj_gens)
    assert got.arrow_maps == m.arrow_maps
    if m.proj_gens is not None:
        # the tagged check compares with projective_sum; the relations are
        # what projective_sum itself skips
        Rep(m.algebra, m.dims, m.arrow_maps)


def rebuilt_map(f: RepMap) -> None:
    rebuilt_rep(f.source)
    rebuilt_rep(f.target)
    assert RepMap(f.source, f.target, f.blocks).blocks == f.blocks


def rebuilt_cx(x: Cx) -> None:
    for t in x.terms.values():
        rebuilt_rep(t)
    for d in x.diffs.values():
        rebuilt_map(d)
    got = Cx(x.algebra, x.terms, x.diffs)
    assert {i: d.blocks for i, d in got.diffs.items()} == {
        i: d.blocks for i, d in x.diffs.items()}


def rebuilt_cx_map(f: CxMap) -> None:
    rebuilt_cx(f.source)
    rebuilt_cx(f.target)
    for c in f.components.values():
        rebuilt_map(c)
    got = CxMap(f.source, f.target, f.components)
    assert {i: c.blocks for i, c in got.components.items()} == {
        i: c.blocks for i, c in f.components.items()}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_by_construction_outputs_pass_full_validation(
        a3, a5rad2, commsquare, kron, data):
    alg = data.draw(st.sampled_from([a3, a5rad2, commsquare, kron]))
    p, q, r = (random_sum(data, alg, min_size=1) for _ in range(3))
    f, g = random_map(data, p, q), random_map(data, p, q)
    h = random_map(data, q, r)
    c = Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3)))
    ds = direct_sum([p, q])
    for m in (p, q, r, ds.rep, zero_rep(alg)):
        rebuilt_rep(m)
    for m in (f, identity_map(p), -f, f + g, f - g, f.scale(c),
              rcompose(h, f), ds.injection(0), ds.projection(1),
              block_map(ds, r, [[rcompose(h, f), h]]),
              block_map(p, ds, [[ID], [f]])):
        rebuilt_map(m)

    x = Cx(alg, {0: p, 1: q}, {0: f})
    y = Cx(alg, {0: q, 1: r}, {0: h})
    fx = CxMap(x, y, {0: f, 1: h})
    cf = cone(fx)
    sm = cx_direct_sum([x, y])
    for z in (module_cx(p), shift(x, 1), shift(x, -2), cf.cx, sm.cx):
        rebuilt_cx(z)
    for m in (identity_chain_map(x), shift_map(fx, 1), shift_map(fx, -3),
              -fx, fx + fx, fx - fx, fx.scale(c),
              compose(cf.injection(1), fx),
              compose(cf.projection(0), cf.injection(1)),
              cf.injection(1), cf.projection(0), sm.injection(0),
              sm.injection(1), sm.projection(0), sm.projection(1)):
        rebuilt_cx_map(m)


def _kronecker(m):
    return build_algebra(make_quiver(2, [(f"x{i}", 1, 2)
                                         for i in range(1, m + 1)]))


def _linear_rad2(n):
    names = [f"a{i}" for i in range(1, n)]
    q = make_quiver(n, [(a, i, i + 1) for i, a in enumerate(names, 1)])
    return build_algebra(q, [Relation.of([(1, (a, b))])
                             for a, b in zip(names, names[1:])])


GUARDED = {**{name: (lambda name=name: load_algebra(str(corpus_path(name))))
              for name in CORPUS_NAMES + ("branching",)},
           "K3": lambda: _kronecker(3), "K5": lambda: _kronecker(5),
           "A5-rad2": lambda: _linear_rad2(5),
           "A7-rad2": lambda: _linear_rad2(7)}


@pytest.mark.parametrize("name", sorted(GUARDED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_projective_sums_satisfy_the_relations(name, data):
    # projective_sum skips the relation check, which guards the path
    # reduction (algebra.reduce_path) its action is read from
    alg = GUARDED[name]()
    n = alg.vertex_count
    sums = [(v,) for v in range(1, n + 1)]
    sums.append(tuple(data.draw(st.lists(st.integers(1, n), min_size=1,
                                         max_size=4))))
    for gens in sums:
        p = projective_sum(alg, gens)
        assert Rep(alg, p.dims, p.arrow_maps).dims == p.dims


@pytest.mark.parametrize("name", sorted(GUARDED))
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_projective_sums_are_the_entrywise_build(name, data):
    # the join of the kept P_v against every column read off its own
    # path reduction: single vertices first, then sums with a repeat
    alg = GUARDED[name]()
    n = alg.vertex_count
    some = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    sums = [(), *((v,) for v in range(1, n + 1)), tuple(some + some[:1])]
    for gens in sums:
        p = projective_sum(alg, gens)
        dims, maps = entrywise_projective_sum(alg, gens)
        assert (p.dims, p.proj_gens) == (dims, gens)
        assert p.arrow_maps == maps


def test_cx_block_map_rejects_a_square_that_does_not_commute(kron):
    p1, p2 = projective(kron, 1), projective(kron, 2)
    f = hom_space(p1, p2)[0]
    src, tgt = module_cx(p1), module_cx(p2)
    ca = cone(CxMap(src, tgt, {0: f}))
    m = identity_chain_map(src)
    # cone(f) -> cone(g) induced by m over the identity of the target
    grid = [[shift_map(m, 1), None], [None, ID]]
    # g m = f: the induced map is a chain map
    assert cx_block_map(ca, ca, grid).source is ca.cx
    # g m = 2f != f: it is not, and the check still runs
    cb = cone(CxMap(src, tgt, {0: f.scale(2)}))
    with pytest.raises(CxError, match="not a chain map"):
        cx_block_map(ca, cb, grid)
    # one entry from the whole source to the whole target is that map
    g = CxMap(src, tgt, {0: f})
    assert cx_block_map(src, tgt, [[g]]) is g
    assert cx_block_map(tgt, ca, [[None], [ID]]).target is ca.cx
