"""Every import in the package, the tests and the demos is used.

The check is syntactic: an imported name counts as used when the module
reads it as a bare name anywhere (an attribute chain `a.b` reads `a`).
`src/voxloc/__init__.py` is skipped, since its imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src/voxloc", "tests", "demos")
               for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c as d, e\nd()\n") \
        == ["line 1: os", "line 2: e"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
