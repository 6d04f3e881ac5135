"""No heartglue module imports a private name from another heartglue module.

A `_`-prefixed name belongs to the module that defines it; a second module
that needs it calls for a public name.  Tests may still read private names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"

# (module, imported name) pairs kept on purpose; none today
ALLOWED: set[tuple[str, str]] = set()


def private_imports(source: str) -> list[str]:
    """The `_`-prefixed names a module imports from the package, by a
    relative import or one from `heartglue`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").split(".")[0] == "heartglue":
            found += [a.name for a in node.names
                      if a.name.startswith("_")]
    return found


def test_scan_finds_a_private_name():
    src = ("from .glue import ExcSequence, _homs\n"
           "from heartglue.derived import (as_cx,\n    _at)\n"
           "from functools import _lru_cache_wrapper\n"
           "from __future__ import annotations\n")
    assert private_imports(src) == ["_homs", "_at"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    names = private_imports(path.read_text(encoding="utf-8"))
    assert [n for n in names if (path.stem, n) not in ALLOWED] == []
