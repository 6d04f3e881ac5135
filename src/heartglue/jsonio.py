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

Cache policy: the module keeps one entry, for the algebra description
loaded last.  Its key is the description's canonical text (the parsed
JSON dumped with sorted keys), so a file rewritten with other content
misses it.  It holds the algebra and a table from the canonical text of
each base object spec (the spec inside any shifts) to the (label,
object) built for it; shifts are kept in the memos of the objects they
shift.  `load_algebra` returns the entry's algebra on a hit and replaces
the entry on a miss, so the objects and memos of at most one
description are kept.  An input that fails to load is never stored.
Specs over any other algebra, or that JSON cannot carry (a foreign
value, a cycle, nesting too deep to dump), build fresh objects.  Jobs
run one after another in one process on one description share the
entry, as scripts/check_all.py runs them.  The entry is module state
and is not locked: one thread at a time.
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


def _list(v, where: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"{where}: must be a list")
    return v


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
    except RecursionError:
        raise SchemaError(f"{path}: nested too deeply to parse") from None


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
    for k, a in enumerate(_list(_need(d, "arrows", where), f"{where}: arrows")):
        spot = f"{where}: arrows[{k}]"
        name = _need(a, "name", spot)
        if not isinstance(name, str):
            raise SchemaError(f"{spot}: name must be a string")
        arrows.append((name,
                       _vertex(_need(a, "source", spot), spot, n),
                       _vertex(_need(a, "target", spot), spot, n)))
    relations = []
    for k, terms in enumerate(_list(d.get("relations", []),
                                    f"{where}: relations")):
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


# the entry: (canonical text, algebra, {base spec text: (label, object)})
_last: tuple[str, PathAlgebraDesc, dict] | None = None


def load_algebra(path: str) -> PathAlgebraDesc:
    """The algebra path describes: the entry's when the description's
    canonical text is the entry's, else a new one, which replaces it."""
    global _last
    d = load_json(path)
    text = json.dumps(d, sort_keys=True)
    if _last is None or _last[0] != text:
        _last = None  # the old entry's objects go before the new build
        _last = (text, algebra_from_dict(d, where=path), {})
    return _last[1]


def module_from_dict(d: dict, alg: PathAlgebraDesc,
                     where: str = "module") -> Rep:
    dims = _need(d, "dims", where)
    if (not isinstance(dims, list) or len(dims) != alg.vertex_count
            or not all(isinstance(x, int) and not isinstance(x, bool)
                       and x >= 0 for x in dims)):
        raise SchemaError(
            f"{where}: dims must list {alg.vertex_count} sizes")
    raw = _need(d, "arrows", where)
    if not isinstance(raw, dict):
        raise SchemaError(f"{where}: arrows must map arrow names to matrices")
    maps = {}
    for a in alg.quiver.arrows:
        rows = raw.get(a.name)
        spot = f"{where}: arrows[{a.name!r}]"
        if rows is None:
            raise SchemaError(f"{spot}: missing matrix")
        if (not isinstance(rows, list)
                or not all(isinstance(row, list) for row in rows)):
            raise SchemaError(f"{spot}: matrix must be a list of rows")
        data = tuple(tuple(parse_fraction(v, spot) for v in row)
                     for row in rows)
        try:
            maps[a.name] = RatMatrix(data, cols=dims[a.target - 1])
        except ValueError as e:
            raise SchemaError(f"{spot}: {e}") from None
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
    """One object spec as a (label, module or complex) pair; a chain of
    shifts is unwound in a loop, so no recursion limit bounds its depth.
    Over the entry's algebra the object of a base spec is built once and
    kept in the entry's table (see the cache policy)."""
    shifts = []
    while (kind := _need(d, "type", where)) == "shift":
        k = _need(d, "by", where)
        if not isinstance(k, int) or isinstance(k, bool):
            raise SchemaError(f"{where}: shift amount must be an integer")
        shifts.append(k)
        d = _need(d, "of", where)
    shared = _last is not None and _last[1] is alg
    try:
        key = json.dumps(d, sort_keys=True) if shared else None
    except (TypeError, ValueError, RecursionError):
        key = None  # a spec built in Python that no file can hold
    if key is None:
        label, obj = _base_object(d, kind, alg, where)
    else:
        table = _last[2]
        if key not in table:
            table[key] = _base_object(d, kind, alg, where)
        label, obj = table[key]
    for k in reversed(shifts):
        label, obj = f"shift {k} of {label}", shift(as_cx(obj), k)
    return label, obj


def _base_object(d: dict, kind: str, alg: PathAlgebraDesc, where: str):
    if kind == "projective":
        i = _vertex(_need(d, "vertex", where), where, alg.vertex_count)
        return f"projective {i}", projective(alg, i)
    if kind == "simple":
        i = _vertex(_need(d, "vertex", where), where, alg.vertex_count)
        return f"simple {i}", simple(alg, i)
    if kind == "module":
        obj = module_from_dict(d, alg, where)
        return f"module {tuple(obj.dims)}", obj
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
