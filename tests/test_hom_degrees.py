"""Only derived reads the degrees of a Hom complex.

A Hom complex is kept for the unshifted pair, and derived alone
translates a caller's shifts into its degrees (derived._at and
derived.hom_scan).  A module that imported the Hom complex, or
unshifted to redo that arithmetic on a support, would read degrees in
the wrong labels once either side is a shift.  The lint reads every
other module's imports and attribute reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"

# The Hom complex, its degree map, and the shift it would be offset by.
DEGREE_NAMES = {"hom", "HomCx", "_at", "unshifted"}


def degree_readers(source: str) -> list[str]:
    """The degree names the source imports or reads as an attribute,
    and its reads of a .support, sorted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [a.name for a in node.names if a.name in DEGREE_NAMES]
        elif (isinstance(node, ast.Attribute)
              and node.attr in DEGREE_NAMES | {"support"}):
            found.append(node.attr)
    return sorted(found)


def test_scan_finds_each_way_in():
    src = ("from .derived import hom, dhom_space, hom_scan\n"
           "from .complexes import shift, unshifted as base\n"
           "n = h.support\n"
           "derived.hom(r, y)\n"
           "complexes.unshifted(y)\n"
           "hom_scan(a, b)\n"
           "sp.layout\n")
    assert degree_readers(src) == ["hom", "hom", "support", "unshifted",
                                   "unshifted"]


@pytest.mark.parametrize(
    "path", [p for p in sorted(SRC.glob("*.py")) if p.name != "derived.py"],
    ids=lambda p: p.name)
def test_only_derived_reads_hom_complex_degrees(path):
    assert degree_readers(path.read_text(encoding="utf-8")) == []
