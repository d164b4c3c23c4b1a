"""Every walkthrough under ``examples/`` runs to exit 0 from a fresh
interpreter and leaves the checkout as it found it (``analyze_and_schedule``
rewrites the tracked ``examples/resnet18.dot`` with identical bytes)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def _git_status() -> str:
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_and_leaves_the_checkout_clean(script):
    before = _git_status()
    run = subprocess.run([sys.executable, str(script)], cwd=ROOT, capture_output=True,
                         text=True, timeout=300,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    assert _git_status() == before
