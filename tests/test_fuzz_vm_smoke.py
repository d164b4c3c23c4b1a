"""Tier-1 bounded fuzz smoke run for the VM execution tier.

200 iterations with a fixed seed, restricted to the ``vm`` and
``vm_compiled`` oracle checks: every generated program (including its
fused ``fx.compile`` form) must replay exactly on the flat
bytecode VM, and pickle round-trips must be bit-identical.  The
``recompile`` check rides along — the compiled form this tier runs is, on
every compile after the first, a replay from the transform cache, which
must be indistinguishable from a build (second compile all-hit and
bit-identical; a compile under the program's second input signature equal
to its own ``cache=False`` compile), and a copy of the replay must see a
``get_attr`` target rebound after its first call.  So does
``key_soundness``: a perturbed module-family program recompiles to what
its ``cache=False`` compile gives, and a changed weight is a hit.  The corpus
includes the ``deep_chain`` generator kind (50+ sequential ops with
multi-use intermediates), the shape that stresses register liveness.
"""

import pytest

from repro.fx.testing import fuzz as run_fuzz


@pytest.mark.fuzz
def test_fuzz_vm_smoke_200_iterations():
    result = run_fuzz(seed=0, iters=200, minimize_failures=False,
                      only=frozenset({"vm", "vm_compiled", "recompile",
                                      "key_soundness"}))
    assert result.iterations == 200
    details = "\n\n".join(f.summary for f in result.failures)
    assert result.ok, f"{len(result.failures)} fuzz failures:\n{details}"
