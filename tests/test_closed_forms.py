"""Ext between simples against closed forms, read off ext-table's report.

Two families whose Ext groups are known exactly:

- The Auslander algebra of kA_n (see conftest.auslander), from its
  almost split sequences: Hom(S_y, S_x[1]) is the number of arrows
  x -> y, Hom(S_(i+1,j+1), S_(i,j)[2]) = 1 for each j < n, and every
  other shift >= 1 vanishes.  Its mesh relations are not monomial, and
  with the horizontal arrows named before the vertical ones they are not
  a Groebner basis of the ideal they span, so the table checks the
  normal forms as well as the Hom complexes.
- Linear A_n modulo every path of length N, a monomial algebra: for
  k >= 1, Hom(S_t, S_i[k]) = 1 exactly when t = i + (k // 2) N + k % 2,
  and 0 otherwise.
"""

import json

import pytest

from conftest import auslander, auslander_vertices
from heartglue.algebra import Relation, build_algebra, make_quiver
from heartglue.cli import JobSpec, run
from heartglue.jsonio import algebra_to_dict, dump_json


def _job(tmp_path, command, alg, objects=None) -> tuple[int, dict]:
    """command's exit status and JSON report on alg, over the given object
    specs (None: the default projectives)."""
    path = tmp_path / "alg.json"
    path.write_text(dump_json(algebra_to_dict(alg)), encoding="utf-8")
    paths = ()
    if objects is not None:
        objs = tmp_path / "objs.json"
        objs.write_text(dump_json({"objects": objects}), encoding="utf-8")
        paths = (str(objs),)
    code, rendered = run(JobSpec(command, str(path), paths, output="json"))
    return code, json.loads(rendered)


def ext_between_simples(tmp_path, alg) -> dict[tuple[int, int, int], int]:
    """{(t, i, k): dim Hom(S_t, S_i[k])} over the nonzero entries."""
    simples = [{"type": "simple", "vertex": v}
               for v in range(1, alg.vertex_count + 1)]
    code, report = _job(tmp_path, "ext-table", alg, simples)
    assert code == 0
    return {(e["source"], e["target"], e["shift"]): e["dim"]
            for e in report["entries"]}


def split_by_shift(table: dict) -> tuple[dict, dict]:
    """The entries at shifts <= 0 and at shifts >= 1."""
    return ({key: d for key, d in table.items() if key[2] <= 0},
            {key: d for key, d in table.items() if key[2] >= 1})


NAMINGS = [("a", "b"), ("b", "a")]


@pytest.mark.parametrize("names", NAMINGS, ids="".join)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_auslander_ext_between_simples(tmp_path, n, names):
    alg = auslander(n, *names)
    vertex = auslander_vertices(n)
    expected: dict[tuple[int, int, int], int] = {}
    for a in alg.quiver.arrows:
        key = (a.target, a.source, 1)
        expected[key] = expected.get(key, 0) + 1
    for (i, j), x in vertex.items():
        if j < n:
            expected[(vertex[(i + 1, j + 1)], x, 2)] = 1
    low, high = split_by_shift(ext_between_simples(tmp_path, alg))
    assert low == {(v, v, 0): 1 for v in vertex.values()}
    assert high == expected


@pytest.mark.parametrize("names", NAMINGS, ids="".join)
def test_bondal_check_presents_auslander_algebra(tmp_path, names):
    code, report = _job(tmp_path, "bondal-check", auslander(3, *names))
    assert code == 0
    assert report["ok"] is True


def linear_radical(n: int, length: int):
    """Linear A_n, arrows a1, ..., a(n-1), modulo every path of the given
    length."""
    arrows = [(f"a{i}", i, i + 1) for i in range(1, n)]
    relations = [Relation.of([(1, [f"a{k}" for k in range(i, i + length)])])
                 for i in range(1, n - length + 1)]
    return build_algebra(make_quiver(n, arrows), relations)


@pytest.mark.parametrize("n, length", [(7, 2), (8, 3), (9, 4), (10, 3)])
def test_linear_radical_ext_between_simples(tmp_path, n, length):
    expected = {}
    for i in range(1, n + 1):
        for k in range(1, 2 * n):
            t = i + (k // 2) * length + k % 2
            if t <= n:
                expected[(t, i, k)] = 1
    low, high = split_by_shift(
        ext_between_simples(tmp_path, linear_radical(n, length)))
    assert low == {(v, v, 0): 1 for v in range(1, n + 1)}
    assert high == expected
