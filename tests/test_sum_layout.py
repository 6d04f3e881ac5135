"""Only complexes reads the layout of a sum of complexes.

A CxSum keeps each degree's reps.DirectSum in .sums, and a chain map
between sums is built from them by complexes.cx_block_map alone.  A
module that walked .sums itself would build its chain map one degree at
a time, a second owner of the layout.  The lint reads every other
module's attribute reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"


def sums_reads(source: str) -> int:
    """The number of .sums attribute reads in the source."""
    return sum(isinstance(node, ast.Attribute) and node.attr == "sums"
               for node in ast.walk(ast.parse(source)))


def test_scan_finds_each_read():
    src = ("for k, s in co.sums.items(): pass\n"
           "t = cb.sums[k]\n"
           "sums = [direct_sum(p) for p in parts]\n"
           "cx_block_map(ca, cb, grid)\n")
    assert sums_reads(src) == 2


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "complexes.py"],
    ids=lambda p: p.name)
def test_only_complexes_reads_the_layout_of_a_sum(path):
    assert sums_reads(path.read_text(encoding="utf-8")) == 0
