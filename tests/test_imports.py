"""Every name a module of the package imports is used in that module, and
the package imports nothing beyond the standard library and its declared
dependencies."""
import ast
import re
import sys
from pathlib import Path

import pytest

import permfix

SOURCES = sorted(Path(permfix.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def unused_imports(source: str) -> list[str]:
    """The names that source binds by import and never reads; `__future__`
    imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["math (line 2)", "os (line 3)", "c (line 4)"]


def absolute_imports(source: str) -> set[str]:
    """The top-level names of the packages that source imports absolutely."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    """The import names of pyproject's runtime dependencies."""
    tomllib = pytest.importorskip("tomllib")
    specs = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]
    return {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_") for spec in specs}


def test_imports_are_stdlib_or_declared():
    declared = declared_dependencies()
    imported = set().union(*(absolute_imports(p.read_text()) for p in SOURCES))
    assert imported - sys.stdlib_module_names - {"permfix"} - declared == set()
    assert declared - imported == set()


def test_absolute_imports_skip_relative_ones():
    source = "import os.path\nfrom numpy.linalg import solve\nfrom . import rng\nfrom .kernels import p\n"
    assert absolute_imports(source) == {"os", "numpy"}
