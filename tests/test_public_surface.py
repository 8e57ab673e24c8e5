"""The top-level ``polyurn`` names, the functions the benchmark traces, and no dead names.

``polyurn`` exports (``__all__``) exactly what the demos and the README quick
start import from it. The benchmark's tracer rebinds the functions listed in
``perfbench/tracing.py`` by name, so each of them must still exist; the list
is read as data, without importing anything from ``perfbench``. Every
function, class and method that ``src/polyurn`` defines is used somewhere.
"""

import ast
import importlib
import re
import types
from pathlib import Path

import polyurn

REPO_ROOT = Path(__file__).resolve().parents[1]


def _names_imported_from_polyurn(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "polyurn" and node.level == 0
        for alias in node.names
    }


def test_package_exports_exactly_the_demo_and_quick_start_names():
    sources = [path.read_text() for path in sorted((REPO_ROOT / "demos").glob("*.py"))]
    readme = (REPO_ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    used = set().union(*(_names_imported_from_polyurn(src) for src in sources))
    assert len(set(polyurn.__all__)) == len(polyurn.__all__)
    assert set(polyurn.__all__) == used
    assert all(callable(getattr(polyurn, name)) for name in polyurn.__all__)
    # The names bound at import (the simulation names resolve on first use) are exported.
    bound = {
        name
        for name, value in vars(polyurn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= set(polyurn.__all__)
    assert polyurn.__version__


def _traced_targets() -> list[tuple[str, str]]:
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    return targets


def test_every_traced_benchmark_target_resolves():
    targets = _traced_targets()
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, f"traced names that no longer exist: {missing}"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _package_definitions() -> list[str]:
    """``module.name`` of each module-level function and class, and each non-dunder method."""
    found = []
    for path in sorted((REPO_ROOT / "src" / "polyurn").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{item.name}" for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [name for name in found if not _is_dunder(name.rsplit(".", 1)[1])]


def _referenced_names() -> set[str]:
    """Every name read, every attribute taken and every name imported, plus the traced names.

    The sources are ``src``, ``tests``, ``demos`` and ``tools``. A name counts
    wherever it appears, so this finds what nothing mentions, not what nothing
    calls. ``ast`` sees the names inside f-strings, which ``tokenize`` on
    Python 3.11 reads as one string token.
    """
    names = {part for module, attr in _traced_targets() for part in attr.split(".")}
    for folder in ("src", "tests", "demos", "tools"):
        for path in (REPO_ROOT / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.update(node.name.split("."))
    return names


def test_every_package_definition_is_referenced():
    used = _referenced_names()
    unused = [name for name in _package_definitions() if name.rsplit(".", 1)[1] not in used]
    assert not unused, f"defined in src/polyurn but referenced nowhere: {unused}"
