"""The top-level ``polyurn`` names, and the functions the benchmark traces.

``polyurn`` exports (``__all__``) exactly what the demos and the README quick
start import from it. The benchmark's tracer rebinds the functions listed in
``perfbench/tracing.py`` by name, so each of them must still exist; the list
is read as data, without importing anything from ``perfbench``.
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


def test_every_traced_benchmark_target_resolves():
    tree = ast.parse((REPO_ROOT / "perfbench" / "tracing.py").read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets)
    ]
    missing = []
    for module_name, attr in targets:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert targets and not missing, f"traced names that no longer exist: {missing}"
