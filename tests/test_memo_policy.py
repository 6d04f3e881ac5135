"""The memo policy of derived, reps and complexes names every memo key
the module uses.

The "Memo policy:" paragraph of each module docstring says what each
memo holds.  The lint reads every literal key (or the literal head of a
tuple key) that the module passes to memoised, or reads or writes
through a ``.memo``, and asserts that the paragraph names it in quotes,
so the policy cannot drift from the code.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "heartglue"
DERIVED = SRC / "derived.py"


def _literal_head(node) -> str | None:
    if isinstance(node, ast.Tuple) and node.elts:
        node = node.elts[0]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_memo(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "memo"


def memo_key_heads(source: str) -> set[str]:
    """The literal key heads passed to memoised or used on a .memo."""
    heads = set()
    for node in ast.walk(ast.parse(source)):
        key = None
        if isinstance(node, ast.Call):
            f = node.func
            if (isinstance(f, ast.Name) and f.id == "memoised"
                    and len(node.args) > 1):
                key = node.args[1]
            elif (isinstance(f, ast.Attribute) and _is_memo(f.value)
                  and node.args):
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_memo(node.value):
            key = node.slice
        head = None if key is None else _literal_head(key)
        if head is not None:
            heads.add(head)
    return heads


def memo_policy(source: str) -> str:
    """The docstring paragraph that starts with "Memo policy:"."""
    doc = ast.get_docstring(ast.parse(source))
    found = [p for p in doc.split("\n\n") if p.startswith("Memo policy:")]
    assert len(found) == 1
    return found[0]


def test_scan_finds_every_kind_of_key():
    src = ("memoised(x, 'a', f)\n"
           "memoised(x, ('b', y), f)\n"
           "memoised(x, (y, 1), f)\n"
           "x.memo.get('c')\n"
           "x.memo[('d', 2)] = 1\n"
           "y = x.memo['e']\n"
           "x.memo.setdefault('f', 0)\n"
           "other.get('g')\n"
           "d['h']\n")
    assert memo_key_heads(src) == {"a", "b", "c", "d", "e", "f"}


def test_policy_names_every_key_derived_uses():
    source = DERIVED.read_text(encoding="utf-8")
    policy = memo_policy(source)
    heads = memo_key_heads(source)
    assert {"hom", "resolution"} <= heads
    assert [h for h in sorted(heads) if f'"{h}"' not in policy] == []


# Every key head reps and complexes use: the scan must find them all.
KEYS = {
    "reps.py": {"identity", "inj", "neg", "proj", "zero_rep", "projective"},
    "complexes.py": {"cx", "identity", "injection", "projection", "shift",
                     "unshifted", "degrees"},
}


@pytest.mark.parametrize("name", sorted(KEYS))
def test_policy_names_every_key_the_module_uses(name):
    source = (SRC / name).read_text(encoding="utf-8")
    policy = memo_policy(source)
    heads = memo_key_heads(source)
    assert heads == KEYS[name]
    assert [h for h in sorted(heads) if f'"{h}"' not in policy] == []
