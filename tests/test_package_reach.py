"""Every public name and field of the package is reached from outside the
tests.

An AST scan of src/heartglue lists each public module-level function and
class, and each public method of a public class.  Each must be referenced
by name in src/, scripts/ or perfbench/: read as a name or an attribute,
or imported.  A definition is not a reference to itself.  Each public
annotated field of a public class must be read there as an attribute.  A
name or field that only the tests reach is a test reference and belongs
in tests/ as an oracle, or nowhere.  ALLOWED lists the names and fields
kept on purpose, each with its reason.

The scan sees names, not branches: a field read only on a branch that
only the tests take passes.  So it could not have caught the comparison
field of complexes.Triangle, which only a test oracle set, because
Triangle.certified read it.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "heartglue"
REACHING = [ROOT / "src", ROOT / "scripts", ROOT / "perfbench"]

ALLOWED = {
    # its loop is to become the fullness certificate of a decomposition
    "glue.sod_project",
    # kept for writing modules back to files
    "jsonio.module_to_dict",
    # the certificate route that f_map is checked against
    "yoneda.f_map_via_quasi_iso",
    # the paper's standard t-structure on D^b(A), which glued ones are
    # compared with; perfbench's tracer names it only in a string
    "glue.StandardAisle",
    # BENCHMARK.json reads reps.cokernel.calls, so perfbench's tracer must
    # span a live function of that name (tests/test_tracer_names.py), and
    # the heart-cohomology and pushout oracles use it
    "reps.cokernel",
    # the witnesses of a failed bondal check, which the tests read
    "bondal.FaithfulReport.mismatches",
    "bondal.TableReport.mismatches",
}


def public_names(source: str, mod: str) -> list[str]:
    """'mod.name' for each public module-level function and class, and
    'mod.Class.method' for each public method of a public class."""
    out = []
    for node in ast.parse(source).body:
        if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                or node.name.startswith("_")):
            continue
        out.append(f"{mod}.{node.name}")
        if isinstance(node, ast.ClassDef):
            out += [f"{mod}.{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not m.name.startswith("_")]
    return out


def public_fields(source: str, mod: str) -> list[str]:
    """'mod.Class.field' for each public annotated field of a public
    module-level class."""
    return [f"{mod}.{node.name}.{f.target.id}"
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for f in node.body
            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
            and not f.target.id.startswith("_")]


def attributes_read(source: str) -> set[str]:
    """The attributes a source reads."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def referenced(source: str) -> set[str]:
    """The names a source reads, as a name or an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


@cache
def reached(scan=referenced) -> frozenset[str]:
    names = set()
    for top in REACHING:
        for path in sorted(top.rglob("*.py")):
            names |= scan(path.read_text(encoding="utf-8"))
    return frozenset(names)


def test_scan_finds_definitions_and_references():
    src = ("from m import a\ndef f(): return b.c\nclass K:\n"
           "    def g(self): pass\n    def _h(self): pass\n    x = y\n"
           "def _p(): pass\n")
    assert referenced(src) == {"a", "b", "c", "y"}
    assert public_names(src, "m") == ["m.f", "m.K", "m.K.g"]


def test_scan_finds_fields_and_attribute_reads():
    src = ("class K:\n    a: int\n    _b: int\n    c: int = 0\n    d = 1\n"
           "class _P:\n    e: int\n"
           "def f(k): return k.a + c\n")
    assert public_fields(src, "m") == ["m.K.a", "m.K.c"]
    assert attributes_read(src) == {"a"}


def defined(path: Path) -> list[str]:
    return public_names(path.read_text(encoding="utf-8"), path.stem)


def fields(path: Path) -> list[str]:
    return public_fields(path.read_text(encoding="utf-8"), path.stem)


def test_allowed_names_are_still_defined():
    assert ALLOWED <= {n for p in SRC.glob("*.py")
                       for n in defined(p) + fields(p)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_public_name_is_reached_outside_tests(path):
    names = reached()
    unreached = [n for n in defined(path)
                 if n not in ALLOWED and n.rsplit(".", 1)[1] not in names]
    assert unreached == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_public_field_is_read_outside_tests(path):
    read = reached(attributes_read)
    unread = [n for n in fields(path)
              if n not in ALLOWED and n.rsplit(".", 1)[1] not in read]
    assert unread == []
