"""Only linalg reads the storage of a RatMatrix, and Fractions stay at
the API boundary.

The sparse rows ``nz`` and the denominator ``den`` are linalg's own
format; every other module goes through the public queries (entries, rows,
columns, ``take``, products), so the storage can change inside linalg
alone.  Classes are read by their coordinate column; ``coords``, the same
entries as Fractions, is for reports and callers outside the package, so
only derived, which defines it, reads it.  Only linalg, jsonio (the file
format) and algebra (relation coefficients) import fractions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"
STORAGE = {"nz", "den"}


FRACTION_MODULES = {"linalg.py", "jsonio.py", "algebra.py"}
MODULES = sorted(SRC.glob("*.py"))


def storage_reads(source: str, attrs=STORAGE) -> list[int]:
    """The lines that read one of attrs, directly or by getattr."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in attrs):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_a_storage_read():
    src = "a = m.nz[0]\nb = m.den\nc = getattr(m, 'nz')\n"
    assert storage_reads(src) == [1, 2, 3]
    assert storage_reads("m.rows, m.cols, m[0, 1], m.row(0)\nden = 1\n") == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_module_reads_no_matrix_storage(path):
    assert storage_reads(path.read_text(encoding="utf-8")) == []


def fraction_imports(source: str) -> list[int]:
    """The lines that import the fractions module or a name from it."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
        or (isinstance(node, ast.Import)
            and any(a.name == "fractions" for a in node.names)))


def test_scans_find_coords_reads_and_fraction_imports():
    src = "a = c.coords\nb = getattr(c, 'coords')\ncoords = 1\n"
    assert storage_reads(src, {"coords"}) == [1, 2]
    src = ("from fractions import Fraction\nimport fractions\n"
           "import fractions as fr, json\nfrom .linalg import Fraction\n")
    assert fraction_imports(src) == [1, 2, 3]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name != "derived.py"],
                         ids=lambda p: p.name)
def test_module_reads_no_class_coords(path):
    assert storage_reads(path.read_text(encoding="utf-8"), {"coords"}) == []


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if p.name not in FRACTION_MODULES],
                         ids=lambda p: p.name)
def test_module_imports_no_fractions(path):
    assert fraction_imports(path.read_text(encoding="utf-8")) == []
