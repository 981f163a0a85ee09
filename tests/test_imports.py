"""Every name a module of the package imports is used in that module, no
module imports or reads a private name of another, the package imports
nothing beyond the standard library and its declared dependencies, it
reads no environment variable beyond its two, one module states the rule
for exact weights, no function restates the type or minimum of a count
that `check_integer` checks, and every function, class and method it
defines is named somewhere outside its own definition."""
import ast
import re
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import permfix

SOURCES = sorted(Path(permfix.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_reads(source: str) -> list[str]:
    """The `_`-prefixed names of other package modules that source imports
    (`from .kernels import _x`) or reads as an attribute of a package
    module it imported (`from . import exactdist`, then `exactdist._y`);
    dunder names are exempt."""
    tree = ast.parse(source)
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "permfix"):
            for alias in node.names:
                if node.module in (None, "permfix"):
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr) and (
            isinstance(node.value, ast.Name) and node.value.id in modules
        ):
            found.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_private_name_crosses_modules(path):
    assert private_reads(path.read_text()) == []


def test_a_private_read_is_caught():
    source = (
        "from . import exactdist, kernels as k\nfrom .kernels import _x, y\n"
        "from permfix.rng import _z\nfrom numpy import _w\n"
        "exactdist._y\nk._v\nexactdist.z\nself._u\nexactdist.__doc__\n"
    )
    assert private_reads(source) == [
        "_x (line 2)", "_z (line 3)", "exactdist._y (line 5)", "k._v (line 6)",
    ]


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


def test_one_module_states_the_weight_rule():
    # laws, kernel rows and chain invariants share `exactdist.checked_weights`
    holders = [p.stem for p in SOURCES if "den must be a positive int" in p.read_text()]
    assert holders == ["exactdist"]


def _calls(node: ast.AST, name: str) -> bool:
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == name
        or isinstance(node.func, ast.Attribute) and node.func.attr == name
    )


def restated_integer_checks(source: str) -> list[str]:
    """The `raise ValueError(...)` whose message says "must be an integer"
    or "must be >=", inside a function of source that calls
    `check_integer`: a check that rule already makes."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or not any(
            _calls(node, "check_integer") for node in ast.walk(func)
        ):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Raise) and node.exc is not None and _calls(node.exc, "ValueError"):
                text = "".join(
                    part.value for arg in node.exc.args for part in ast.walk(arg)
                    if isinstance(part, ast.Constant) and isinstance(part.value, str)
                )
                if "must be an integer" in text or "must be >=" in text:
                    found.append(f"{func.name} (line {node.lineno})")
    return found


def test_one_rule_checks_each_count():
    # every count's type and minimum is `coupling.check_integer`'s to check
    assert [f for p in SOURCES for f in restated_integer_checks(p.read_text())] == []


def test_a_restated_integer_check_is_caught():
    source = (
        "def f(n, k):\n    check_integer('n', n, 1)\n    if k < 2:\n"
        "        raise ValueError(f'k must be >= {2}')\n\n"
        "def g(n):\n    coupling.check_integer('n', n, 0)\n"
        "    if n % 2:\n        raise ValueError('n must be an integer')\n"
        "    raise ValueError('n must be even')\n\n"
        "def h(n):\n    if n < 1:\n        raise ValueError('n must be >= 1')\n"
    )
    assert restated_integer_checks(source) == ["f (line 4)", "g (line 9)"]


def test_environment_reads_resolve_constants():
    source = (
        'import os\nKEY = "A"\nos.environ["B"]\nos.environ.get(KEY)\n'
        'os.getenv("C", "d")\nos.environ.get(prefix + "E")\n{}.get("F")\n'
    )
    assert environment_reads(source) == {"A", "B", "C", "unresolved (line 6)"}


def definitions(tree: ast.Module):
    """Each module-level function and class of tree, and each method of a
    module-level class; dunder methods, which the language calls, are left
    out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def namings(tree: ast.Module):
    """(name, line) for each Name, Attribute and string constant of tree: a
    string counts so that `wrap_function(module, "name", ...)` names it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


def unnamed_definitions(package: dict[str, str], others: list[str]) -> list[str]:
    """The definitions in the package sources (label -> source) that no
    package source names outside the definition itself and no other source
    names at all."""
    trees = {label: ast.parse(source) for label, source in package.items()}
    where = defaultdict(list)  # name -> (label, line) of each naming
    for label, tree in trees.items():
        for name, line in namings(tree):
            where[name].append((label, line))
    for source in others:
        for name, _ in namings(ast.parse(source)):
            where[name].append((None, 0))
    return [
        f"{label}:{node.lineno} {node.name}"
        for label, tree in trees.items()
        for node in definitions(tree)
        if all(
            other == label and node.lineno <= line <= node.end_lineno
            for other, line in where[node.name]
        )
    ]


def test_every_definition_is_named():
    others = sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("bench/*.py"))
    package = {p.name: p.read_text() for p in SOURCES}
    assert unnamed_definitions(package, [p.read_text() for p in others]) == []


def test_an_unnamed_definition_is_caught():
    package = {
        "a.py": (
            "def used():\n    return spare\n\n"
            "def recursive(n):\n    return recursive(n - 1)\n\n"
            "class Box:\n    def __len__(self):\n        return 0\n\n"
            "    def wrapped(self):\n        pass\n\n"
            "    def spare(self):\n        pass\n"
        ),
        "b.py": "from a import used\nused()\n",
    }
    others = ['tracer.wrap_function(a, "wrapped", "a.wrapped")\nBox\n']
    assert unnamed_definitions(package, others) == ["a.py:4 recursive"]
