"""The program never imports the benchmark or the test oracles.

``perfbench/oracles.py`` and ``tests/oracles.py`` check the program's
results, so neither may be reachable from ``src/ramsums``; otherwise a
fault shared by both would pass unseen.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ramsums"
FORBIDDEN = {"perfbench", "oracles"}


def _imported_names(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_source_imports_no_oracle():
    paths = sorted(SRC.glob("*.py"))
    assert "checks.py" in {p.name for p in paths}
    bad = {}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names = [n for n in _imported_names(tree) if FORBIDDEN & set(n.split("."))]
        if names:
            bad[path.name] = names
    assert bad == {}
