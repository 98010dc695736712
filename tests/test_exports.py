"""Every public name the package's modules and the benchmark import from a
shallowcal module is exported by that module's ``__all__``."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_names(path: Path):
    """(module, name) for each public name imported from a shallowcal module,
    by ``from .x import ...`` or ``from shallowcal.x import ...``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("shallowcal."):
            module = node.module.removeprefix("shallowcal.")
        else:
            continue
        for alias in node.names:
            if not alias.name.startswith("_"):
                yield module, alias.name


def test_imported_names_are_exported():
    files = sorted((ROOT / "src" / "shallowcal").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    seen = [(path.name, module, name) for path in files for module, name in imported_names(path)]
    assert seen  # the parse found the package's imports
    missing = [
        f"{file}: {name} not in shallowcal.{module}.__all__"
        for file, module, name in seen
        if name not in importlib.import_module(f"shallowcal.{module}").__all__
    ]
    assert missing == []
