"""``cli.py`` is the package's one reader and writer of files: no other
module imports ``csv`` or ``json`` or calls ``open``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shallowcal"
IO_MODULES = {"csv", "json"}


def file_io(path: Path):
    """Each import of ``csv`` or ``json`` and each call of ``open`` (bare or
    as a method, like ``Path.open``) in a source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (f"import {a.name}" for a in node.names if a.name.split(".")[0] in IO_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in IO_MODULES:
            yield f"from {node.module} import"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "open":
                yield f"open() at line {node.lineno}"


def test_only_cli_does_file_io():
    found = {path.name: list(file_io(path)) for path in sorted(SRC.glob("*.py"))}
    assert found["cli.py"]  # the parse sees cli's own imports and opens
    assert {name: io for name, io in found.items() if io and name != "cli.py"} == {}
