"""Source hygiene: every name a library module imports is used in it, every
import sits at the top of its module, every public definition is exported or
used, and every public class member is read by the library.

No linter runs in CI; this catches the imports that deletions leave behind,
and the operations and members that only tests still call.  The package __init__ is
skipped by the unused-name check, as its imports are the public re-exports.
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


def unreachable_definitions(sources: dict, exported: set) -> list:
    """module.name of each public top-level function or class in sources (module -> text)
    that is not in exported and that no other top-level statement names."""
    statements = []  # (module, name defined or None, names read)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            defined = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else None
            read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            read |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            statements.append((module, defined, read))
    return sorted(
        f"{module}.{name}"
        for module, name, _ in statements
        if name is not None and not name.startswith("_") and name not in exported
        and not any(name in read for m, d, read in statements if (m, d) != (module, name))
    )


def test_unreachable_definitions_finds_only_unnamed_ones():
    sources = {
        "a": "def f():\n    return g()\ndef g():\n    return g()\ndef h():\n    return h()\nclass C:\n    pass\n",
        "b": "def k(x):\n    return x.C\ndef _p():\n    pass\n",
    }
    assert unreachable_definitions(sources, {"k"}) == ["a.f", "a.h"]


def test_every_public_definition_is_exported_or_used():
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {
        alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names
    }
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    assert unreachable_definitions(sources, exported) == []


def unread_members(sources: dict) -> list:
    """Class.member of each public method, property or class-level attribute of a class in
    sources (module -> text) that no attribute read outside its own definition names."""
    members = []  # (class, member, ids of the nodes of its definition)
    reads = []
    for source in sources.values():
        tree = ast.parse(source)
        reads += [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [node.name]
                elif isinstance(node, ast.Assign):
                    names = [t.id for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    names = [node.target.id]  # a dataclass field without a default is no class attribute
                else:
                    names = []
                own = {id(n) for n in ast.walk(node)}
                members += [(cls.name, name, own) for name in names if not name.startswith("_")]
    return sorted(
        f"{cls}.{name}" for cls, name, own in members if not any(r.attr == name and id(r) not in own for r in reads)
    )


def test_unread_members_finds_only_unread_ones():
    sources = {
        "a": (
            "class C:\n    x: int\n    y: int = 0\n    z = 1\n    _p = 2\n"
            "    def f(self):\n        return self.f()\n    @property\n    def g(self):\n        return self.z\n"
        ),
        "b": "def k(c):\n    return c.g\n",
    }
    assert unread_members(sources) == ["C.f", "C.y"]


def test_every_public_member_is_read_by_the_library():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_members(sources) == []


def test_library_calls_no_eigh():
    # the split's 2x2 eigenproblem has a closed form (slicing._sym_eigen2);
    # LAPACK's eigh was the runtime's only LAPACK call, and it rounds
    # differently on different CPU cores
    found = [
        f"{p.name}:{node.lineno}"
        for p in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "eigh" or isinstance(node, ast.Name) and node.id == "eigh"
    ]
    assert found == []
