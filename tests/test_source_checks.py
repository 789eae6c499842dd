"""Checks on the library source itself.

python -O strips assert statements, so a correctness check written as an
assert vanishes from optimized runs; the library raises its checks instead.
"""

import ast
import os
import subprocess
import sys
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


def test_all_lists_exactly_the_package_imports():
    # __all__ is the names __init__ imports plus __version__, each once,
    # and each resolves on the package, so a name a module drops must
    # leave both lists
    import gfpfft
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(set(gfpfft.__all__)) == len(gfpfft.__all__)
    assert set(gfpfft.__all__) == imported | {"__version__"}
    missing = [name for name in gfpfft.__all__ if not hasattr(gfpfft, name)]
    assert not missing, "unresolved names in __all__: %s" % ", ".join(missing)


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site, which can import typing by itself, out of the run;
    # dataclasses would bring inspect, ast, dis and tokenize along
    code = ("import gfpfft, sys; print(' '.join(sorted({'dataclasses', "
            "'inspect', 'typing'} & set(sys.modules))))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
