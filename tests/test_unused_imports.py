"""No module under ``src/`` but a package ``__init__`` (whose imports are its
exports) keeps a top-level import it never reads.  ``# noqa`` on the
import's first line is the only opt-out."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(path for path in SRC.rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """``"line N: name"`` for each top-level import binding *source* never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and "# noqa" not in lines[node.lineno - 1]:
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_scan_finds_an_unused_import_and_honours_noqa():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a import (b,\n    c)\nb()\n") == ["line 1: c"]
    assert unused_imports("import os  # noqa: F401\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_top_level_import():
    found = {str(path.relative_to(SRC)): unused_imports(path.read_text())
             for path in MODULES}
    assert {path: unused for path, unused in found.items() if unused} == {}
