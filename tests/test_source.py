"""Source hygiene: every name a library module imports is used in it, and
every import sits at the top of its module.

No linter runs in CI; this catches the imports that deletions leave behind.
The package __init__ is skipped by the unused-name check, as its imports are
the public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "riemgrid"


def unused_imports(source: str) -> list:
    """Names bound by the imports of source (except from __future__) that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    # an attribute chain such as np.linalg.norm reads its root as a Name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_only_unread_names():
    source = "from __future__ import annotations\nimport os\nimport numpy as np\nfrom a import b, c as d\nnp.x(b)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def function_imports(source: str) -> list:
    """Line numbers of the import statements inside the functions of source."""
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def test_function_imports_finds_nested_imports():
    source = "import os\ndef f():\n    import sys\n    def g():\n        from a import b\nclass C:\n    def m(self):\n        import re\n"
    assert function_imports(source) == [3, 5, 8]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_at_top_level(path):
    assert function_imports(path.read_text()) == []
