"""Tier-1 bounded fuzz smoke run.

200 iterations with a fixed seed: fast, deterministic, and enough to keep
the whole capture → transform → codegen pipeline honest on every CI run.
A failure here prints the oracle summaries; replay any of them with the
spec shown (see README.md, "Fuzzing & differential testing").
"""

import pytest

from repro.fx.testing import fuzz as run_fuzz


@pytest.mark.fuzz
def test_fuzz_smoke_200_iterations():
    result = run_fuzz(seed=0, iters=200, minimize_failures=False)
    assert result.iterations == 200
    details = "\n\n".join(f.summary for f in result.failures)
    assert result.ok, f"{len(result.failures)} fuzz failures:\n{details}"
