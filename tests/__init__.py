"""Tier-1 tests.

:func:`load_spec` resolves a ``pkg.mod:attr`` or ``path/file.py:attr``
spec (the path relative to the repository root) to the object it names,
so a test can reach a model defined in ``examples/``.
"""

import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]


def load_spec(spec: str):
    where, _, attr = spec.rpartition(":")
    if where.endswith(".py"):
        found = importlib.util.spec_from_file_location(Path(where).stem, ROOT / where)
        module = importlib.util.module_from_spec(found)
        found.loader.exec_module(module)
    else:
        module = importlib.import_module(where)
    return getattr(module, attr)
