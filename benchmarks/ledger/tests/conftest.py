"""Harness unit tests: ``PYTHONPATH=src python -m pytest benchmarks/ledger/tests``
(not part of the tier-1 ``testpaths``)."""

import os
import sys

LEDGER_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if LEDGER_DIR not in sys.path:
    sys.path.insert(0, LEDGER_DIR)

import bootstrap  # noqa: E402

bootstrap.init()
