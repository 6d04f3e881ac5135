"""Only linalg reads the storage of a RatMatrix.

The sparse rows ``nz`` and the denominator ``den`` are linalg's own
format; every other module goes through the public queries (entries, rows,
columns, ``take``, products), so the storage can change inside linalg
alone.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"
STORAGE = {"nz", "den"}


def storage_reads(source: str) -> list[int]:
    """The lines that read a storage attribute, directly or by getattr."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in STORAGE:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and node.args[1].value in STORAGE):
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_finds_a_storage_read():
    src = "a = m.nz[0]\nb = m.den\nc = getattr(m, 'nz')\n"
    assert storage_reads(src) == [1, 2, 3]
    assert storage_reads("m.rows, m.cols, m[0, 1], m.row(0)\nden = 1\n") == []


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py"))
                                  if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_module_reads_no_matrix_storage(path):
    assert storage_reads(path.read_text(encoding="utf-8")) == []
