"""``distributions.py`` is the one module that knows a task: no other module
reads a key of ``dist_params``, so a task's defaults and its reference
teacher are stated only in its factory."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "shallowcal"


def names_dist_params(node) -> bool:
    """``dist_params`` as a name, an attribute (``cfg.dist_params``) or a
    string key (``fields["dist_params"]``)."""
    if isinstance(node, ast.Name):
        return node.id == "dist_params"
    if isinstance(node, ast.Attribute):
        return node.attr == "dist_params"
    return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
            and node.slice.value == "dist_params")


def key_reads(source: str):
    """Each subscript of ``dist_params`` and each method call on it (``get``,
    ``items``, ...) in a source text."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and names_dist_params(node.value):
            yield f"subscript at line {node.lineno}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and names_dist_params(node.func.value)):
            yield f".{node.func.attr}() at line {node.lineno}"


def test_only_distributions_reads_dist_params_keys():
    source = 'dist_params["c"]\ncfg.dist_params.get("c", 2.0)\nfields["dist_params"].items()\n'
    assert list(key_reads(source)) == ["subscript at line 1", ".get() at line 2", ".items() at line 3"]
    assert list(key_reads('make_distribution(name, **cfg.dist_params)\nfields["dist_params"] = {}')) == []
    found = {path.name: list(key_reads(path.read_text())) for path in sorted(SRC.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads and name != "distributions.py"} == {}
