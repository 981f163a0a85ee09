"""Every name a module of the package imports is used in that module."""
import ast
from pathlib import Path

import pytest

import permfix

MODULES = sorted(p for p in Path(permfix.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
