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


# imported names no module uses: __init__ re-exports its imports, and
# gfp_mult keeps these three as globals for the layer tracer
UNUSED_IMPORTS_ALLOWED = {
    "__init__.py": None,
    "gfp_mult.py": {"gfp_add", "gfp_sub", "gfp_mul_pow_r"},
}


def test_library_imports_only_names_it_uses():
    found = []
    for path in sorted(SRC.glob("*.py")):
        allowed = UNUSED_IMPORTS_ALLOWED.get(path.name, set())
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += ["%s:%d %s" % (path.name, line, name)
                  for name, line in sorted(imported.items())
                  if name not in used and name not in allowed]
    assert not found, "unused imports in src/gfpfft: %s" % ", ".join(found)
