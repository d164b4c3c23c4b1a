"""Imported first by every ledger entry point: pins BLAS to one thread
before numpy can be imported and puts the program under test on the path.

One BLAS thread because the host has two cores and one of them belongs to
the load generator / event loop: measured here, steady ResNet-50 medians
spread 7% across blocks at one BLAS thread against 15% at the default two.
"""

import os
import sys

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LEDGER_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(LEDGER_DIR, "out")


def init() -> None:
    os.environ.update(THREAD_ENV)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        # A directory holding only the benchmark has nothing to measure.
        sys.exit(f"ledger: no program under test at {SRC_DIR}/repro")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
