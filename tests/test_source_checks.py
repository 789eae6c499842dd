"""Checks on the library source itself.

python -O strips assert statements, so a correctness check written as an
assert vanishes from optimized runs; the library raises its checks instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gfpfft"


def test_library_has_no_assert_statements():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in src/gfpfft: %s" % ", ".join(found)
