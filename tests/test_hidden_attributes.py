"""No heartglue object carries attributes its class does not declare."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"


def setattr_calls(source: str) -> list[int]:
    """The lines that read object.__setattr__."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
            and isinstance(node.value, ast.Name) and node.value.id == "object"]


def test_scan_finds_a_setattr():
    src = "class A:\n    def f(self):\n        object.__setattr__(self, 'x', 1)\n"
    assert setattr_calls(src) == [3]
    assert setattr_calls("self.memo['x'] = 1\nsetattr(a, 'x', 1)\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_module_sets_no_hidden_attribute(path):
    assert setattr_calls(path.read_text(encoding="utf-8")) == []
