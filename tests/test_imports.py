"""Every name an import binds in the package, the tests, the tools and the
demos is used in its module: read from the source's syntax tree, a name
counts as used where it is loaded anywhere in the module.  Names listed in
``__all__`` and ``from __future__`` imports are exempt, and so is the
package's ``__init__.py``, whose imports are the names it exports."""

import ast
import glob
import os

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(
    os.path.relpath(path, ROOT)
    for part in ("src/affsym", "tests", "tools", "demos")
    for path in glob.glob(os.path.join(ROOT, part, "*.py"))
    if os.path.basename(path) != "__init__.py"
)


def unused_imports(source):
    """The names that the module's imports bind and nothing loads, in order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        targets = node.targets if isinstance(node, ast.Assign) else ()
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [name for name in bound if name not in used]


def test_the_scan_finds_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path as osp\nimport numpy.linalg\nfrom a import b, c as d, e, g\n"
        "__all__ = ['e']\ng = 1\n"
        "def f():\n    return os.sep, numpy.linalg\n"
    )
    assert unused_imports(source) == ["osp", "b", "d", "g"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_import(path):
    with open(os.path.join(ROOT, path), encoding="utf-8") as fp:
        assert unused_imports(fp.read()) == []
