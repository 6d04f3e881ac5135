"""Reading and writing the JSON descriptions the command line consumes.

Algebras: {"vertices": n, "arrows": [{"name", "source", "target"}],
"relations": [[{"coef": "p/q", "path": ["a", "b"]}, ...], ...]} with
"relations" optional.  Modules: {"dims": [...], "arrows": {"name":
[[entries]]}}.  Object lists: {"objects": [spec, ...]} where a spec is
{"type": "projective" | "simple", "vertex": i}, {"type": "module",
"dims": ..., "arrows": ...}, or {"type": "shift", "by": k, "of": spec}.

Rational entries are strings like "2/3" or "-1"; plain integers are
accepted on input.  Dumps always emit strings, so parsing a dump is
lossless.  Files are UTF-8.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .algebra import (AlgebraError, PathAlgebraDesc, Relation, build_algebra,
                      make_quiver)
from .complexes import shift
from .derived import as_cx
from .linalg import RatMatrix
from .reps import Rep, RepError, projective, simple


class SchemaError(ValueError):
    """Raised when a description file does not match its schema."""


def parse_fraction(v, where: str) -> Fraction:
    if isinstance(v, bool):
        raise SchemaError(f"{where}: expected a rational, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(f"{where}: not a rational: {v!r}") from None
    raise SchemaError(f"{where}: expected a rational, got {v!r}")


def fraction_str(f: Fraction) -> str:
    return str(f)


def _need(d: dict, key: str, where: str):
    if not isinstance(d, dict) or key not in d:
        raise SchemaError(f"{where}: missing key {key!r}")
    return d[key]


def _vertex(v, where: str, count: int) -> int:
    if not isinstance(v, int) or isinstance(v, bool) or not 1 <= v <= count:
        raise SchemaError(f"{where}: vertex must be an integer in 1..{count}")
    return v


def load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise SchemaError(f"{path}: {e.strerror or e}") from None
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}:{e.lineno}: {e.msg}") from None


def dump_json(obj) -> str:
    """Canonical dump: sorted keys, two-space indent, trailing newline.

    Parsing a dump and dumping again reproduces it byte for byte.
    """
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def algebra_from_dict(d: dict, where: str = "algebra") -> PathAlgebraDesc:
    n = _need(d, "vertices", where)
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SchemaError(f"{where}: vertices must be a positive integer")
    arrows = []
    for k, a in enumerate(_need(d, "arrows", where)):
        spot = f"{where}: arrows[{k}]"
        arrows.append((str(_need(a, "name", spot)),
                       _vertex(_need(a, "source", spot), spot, n),
                       _vertex(_need(a, "target", spot), spot, n)))
    relations = []
    for k, terms in enumerate(d.get("relations", [])):
        spot = f"{where}: relations[{k}]"
        if not isinstance(terms, list) or not terms:
            raise SchemaError(f"{spot}: must be a nonempty list of terms")
        pairs = []
        for t in terms:
            coef = parse_fraction(_need(t, "coef", spot), spot)
            path = _need(t, "path", spot)
            if (not isinstance(path, list)
                    or not all(isinstance(x, str) for x in path)):
                raise SchemaError(f"{spot}: path must be a list of arrow names")
            pairs.append((coef, tuple(path)))
        relations.append(Relation(tuple(pairs)))
    try:
        return build_algebra(make_quiver(n, arrows), relations)
    except AlgebraError as e:
        raise SchemaError(f"{where}: {e}") from None


def algebra_to_dict(alg: PathAlgebraDesc) -> dict:
    return {
        "vertices": alg.vertex_count,
        "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                   for a in alg.quiver.arrows],
        "relations": [[{"coef": fraction_str(c), "path": list(p)}
                       for c, p in r.terms]
                      for r in alg.relations],
    }


def load_algebra(path: str) -> PathAlgebraDesc:
    return algebra_from_dict(load_json(path), where=path)


def module_from_dict(d: dict, alg: PathAlgebraDesc,
                     where: str = "module") -> Rep:
    dims = _need(d, "dims", where)
    if (not isinstance(dims, list) or len(dims) != alg.vertex_count
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       and x >= 0 for x in dims)):
        raise SchemaError(
            f"{where}: dims must list {alg.vertex_count} sizes")
    raw = _need(d, "arrows", where)
    maps = {}
    for a in alg.quiver.arrows:
        rows = raw.get(a.name)
        spot = f"{where}: arrows[{a.name!r}]"
        if rows is None:
            raise SchemaError(f"{spot}: missing matrix")
        data = tuple(tuple(parse_fraction(v, spot) for v in row)
                     for row in rows)
        maps[a.name] = RatMatrix(data, cols=dims[a.target - 1])
    try:
        return Rep(alg, tuple(dims), maps)
    except (RepError, ValueError) as e:
        raise SchemaError(f"{where}: {e}") from None


def module_to_dict(m: Rep) -> dict:
    arrows = {}
    for a in m.algebra.quiver.arrows:
        mat = m.arrow_maps[a.name]
        arrows[a.name] = [[fraction_str(v) for v in mat.row(i)]
                          for i in range(mat.rows)]
    return {"dims": list(m.dims), "arrows": arrows}


def object_from_dict(d: dict, alg: PathAlgebraDesc,
                     where: str = "object"):
    """One object spec as a (label, module or complex) pair."""
    kind = _need(d, "type", where)
    if kind == "projective":
        i = _vertex(_need(d, "vertex", where), where, alg.vertex_count)
        return f"projective {i}", projective(alg, i)
    if kind == "simple":
        i = _vertex(_need(d, "vertex", where), where, alg.vertex_count)
        return f"simple {i}", simple(alg, i)
    if kind == "module":
        m = module_from_dict(d, alg, where)
        return f"module {tuple(m.dims)}", m
    if kind == "shift":
        k = _need(d, "by", where)
        if not isinstance(k, int) or isinstance(k, bool):
            raise SchemaError(f"{where}: shift amount must be an integer")
        label, inner = object_from_dict(_need(d, "of", where), alg, where)
        return f"shift {k} of {label}", shift(as_cx(inner), k)
    raise SchemaError(f"{where}: unknown object type {kind!r}")


def objects_from_dict(d: dict, alg: PathAlgebraDesc,
                      where: str = "objects") -> list:
    specs = _need(d, "objects", where)
    if not isinstance(specs, list) or not specs:
        raise SchemaError(f"{where}: objects must be a nonempty list")
    return [object_from_dict(s, alg, f"{where}: objects[{k}]")
            for k, s in enumerate(specs)]


def load_objects(path: str, alg: PathAlgebraDesc) -> list:
    return objects_from_dict(load_json(path), alg, where=path)
