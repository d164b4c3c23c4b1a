"""Every walkthrough under ``examples/`` runs to exit 0 from a fresh
interpreter and leaves the checkout as it found it (``analyze_and_schedule``
rewrites the tracked ``examples/resnet18.dot`` with identical bytes).

Each example runs from a copy of ``examples/`` with the copy's parent as its
working directory, so only what the example itself wrote is compared: an
edit made elsewhere in the checkout while the suite runs is not its doing.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _files(root: Path) -> dict:
    return {path.relative_to(root): path.read_bytes() for path in root.rglob("*")
            if path.is_file() and "__pycache__" not in path.parts}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_and_leaves_the_checkout_clean(script, tmp_path):
    shutil.copytree(ROOT / "examples", tmp_path / "examples",
                    ignore=shutil.ignore_patterns("__pycache__"))
    before = _files(tmp_path)
    run = subprocess.run([sys.executable, str(tmp_path / "examples" / script.name)],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    after = _files(tmp_path)
    written = sorted(str(path) for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    assert written == []
