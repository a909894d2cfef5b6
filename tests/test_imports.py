"""Import hygiene: no module of the package imports a name it never uses,
so a deleted function or evaluation path leaves no stale import behind.
``__init__.py`` is left out: its imports are the package exports.  Every
import is made at module level, none inside a function or class body.

No module memoizes with ``functools``: derived data is kept on the object
it derives from by ``algebra._per_object``, the package's one memo."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hjj"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
FUNCTOOLS_MEMOS = {"lru_cache", "cache", "cached_property"}


def _imported(tree: ast.Module):
    """(bound name, line) of every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set:
    """Every name the module reads, including names inside string
    annotations, where an import made under ``TYPE_CHECKING`` is used."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                inner = ast.parse(node.value, mode="eval")
                names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def test_modules_found():
    assert len(MODULES) > 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_string_annotation_counts_as_use():
    tree = ast.parse(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .cohomology import Cochain2\n"
        "def f(theta: 'Cochain2') -> None: ...\n"
    )
    assert {name for name, _ in _imported(tree)} <= _used(tree)
    assert "Cochain2" not in _used(ast.parse("from .cohomology import Cochain2\nx = 'Cochain2'\n"))


def _functools_memos(tree: ast.Module) -> list:
    """(name, line) of every functools memo the module imports or reads."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(alias.name, node.lineno) for alias in node.names if alias.name in FUNCTOOLS_MEMOS]
        elif isinstance(node, ast.Attribute) and node.attr in FUNCTOOLS_MEMOS:
            found.append((node.attr, node.lineno))
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_functools_memo(path):
    found = _functools_memos(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} memoizes with functools: {found}"


def test_functools_memo_rule_sees_every_spelling():
    for source in (
        "from functools import lru_cache\n",
        "import functools\n@functools.cache\ndef f(x): ...\n",
        "from functools import cached_property as cp\n",
    ):
        assert _functools_memos(ast.parse(source))
    assert not _functools_memos(ast.parse("from functools import reduce, wraps\n"))


def _nested_imports(tree: ast.Module) -> list:
    """The lines of every import inside a function or class body."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted({
        node.lineno
        for scope in ast.walk(tree) if isinstance(scope, scopes)
        for node in ast.walk(scope) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_at_module_level(path):
    found = _nested_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} imports inside a function or class body at lines {found}"


def test_nested_import_rule_sees_every_body():
    for source in (
        "def f():\n    from .scalars import format_scalar\n",
        "async def f():\n    import os\n",
        "class C:\n    import os\n",
        "class C:\n    def describe(self):\n        if True:\n            from .linalg import rank\n",
    ):
        assert _nested_imports(ast.parse(source))
    assert not _nested_imports(ast.parse(
        "import os\nfrom typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from .cohomology import Cochain2\n"
        "try:\n    from gmpy2 import mpq\nexcept ImportError:\n    pass\n"
        "def f():\n    return os\n"
    ))
