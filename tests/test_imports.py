"""Every name a module of the package imports is used in that module, and
the modules do not import each other in a cycle."""

import ast
from graphlib import CycleError, TopologicalSorter
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


def package_imports(path: Path) -> set[str]:
    """The package modules that the module at ``path`` imports, at any
    depth, by relative or absolute import; ``__init__`` stands for the
    package itself."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ("credalmc." if node.level else "") + (node.module or "")
            # ``from . import lp`` imports the module lp.
            targets = [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            top, _, rest = target.partition(".")
            if top == "credalmc":
                name = rest.split(".")[0]
                out.add(name if name in modules else "__init__")
    return out


def test_package_modules_import_no_cycle():
    graph = {p.stem: package_imports(p) for p in PACKAGE.glob("*.py")}
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    assert graph["core"] == set()


def test_imports_are_read_at_any_depth(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .core import EPS_FEAS\n"
        "import credalmc.oracle\n"
        "from credalmc import maximize\n"
        "def f():\n"
        "    from . import lp\n"
    )
    assert package_imports(module) == {"core", "oracle", "__init__", "lp"}
