"""Every name a module of the package imports is used in that module, the
package imports nothing beyond the standard library and its declared
dependencies, and it reads no environment variable beyond its two."""
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


def _is_environ(node: ast.expr) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ" and (
        isinstance(node.value, ast.Name) and node.value.id == "os"
    )


def environment_reads(source: str) -> set[str]:
    """The environment variables that source reads by `os.environ[...]`,
    `os.environ.get(...)` or `os.getenv(...)`.  A name given as a string
    literal or a module-level string constant is resolved; any other name
    is reported as unresolved, with its line."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        for target in node.targets if isinstance(target, ast.Name)
    }

    def resolve(arg: ast.expr) -> str:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name) and arg.id in constants:
            return constants[arg.id]
        return f"unresolved (line {arg.lineno})"

    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_environ(node.value):
            names.add(resolve(node.slice))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "get" and _is_environ(node.func.value)
            or node.func.attr == "getenv"
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
        ):
            names.add(resolve(node.args[0]))
    return names


def test_environment_census():
    reads = set().union(*(environment_reads(p.read_text()) for p in SOURCES))
    assert reads == {"PERMFIX_GUARD_N", "XDG_CACHE_HOME"}


def test_environment_reads_resolve_constants():
    source = (
        'import os\nKEY = "A"\nos.environ["B"]\nos.environ.get(KEY)\n'
        'os.getenv("C", "d")\nos.environ.get(prefix + "E")\n{}.get("F")\n'
    )
    assert environment_reads(source) == {"A", "B", "C", "unresolved (line 6)"}
