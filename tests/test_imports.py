"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "credalmc"
# __init__.py imports names to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports, at any depth, and never reads.  An
    import line marked ``# noqa: F401`` and ``__future__`` imports are
    exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from .core import EPS_FEAS, EPS_PROB\n"
        "from .engine import step  # noqa: F401\n"
        "def f():\n"
        "    from .lp import _solve\n"
        "    return EPS_FEAS + os.sep\n"
    )
    assert unused_imports(source) == ["math", "EPS_PROB", "_solve"]
