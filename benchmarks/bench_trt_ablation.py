"""Ablation — where the TensorRT-style engine's speedup comes from (§6.4).

Decomposes the lowered engine's win over eager execution into its
ingredients:

  1. eager execution (baseline);
  2. engine without Conv-BN folding: the raw trace flattened onto the
     bytecode tier (the containers' nested calls flattened, nothing
     rewritten);
  3. the full engine: the ``"trt"`` backend's pass list (Conv-BN fold +
     DCE) and then the same flattening.

Kernel selection is not an ingredient: every configuration runs eager's
own ``repro.kernels`` convolution and pooling.
"""

import pytest

import repro
from repro.bench import format_table
from repro.fx import symbolic_trace, to_backend
from repro.fx.vm import VMModule, compile_to_vm
from repro.models import resnet50

from conftest import write_results


@pytest.fixture(scope="module")
def setup():
    repro.manual_seed(0)
    model = resnet50().eval()
    x = repro.randn(2, 3, 96, 96)
    return model, x


def test_ablation_engine_ingredients(benchmark, setup):
    model, x = setup

    def run():
        import time

        e_nofold = VMModule(compile_to_vm(symbolic_trace(model)))
        e_full = to_backend(model, "trt", allow_fallback=False)
        variants = [model, e_nofold, e_full]
        for v in variants:
            v(x)  # warmup
        # round-robin all configurations per trial so machine drift
        # affects them equally; compare best-of-N
        times = [[] for _ in variants]
        for _ in range(9):
            for i, v in enumerate(variants):
                t0 = time.perf_counter()
                v(x)
                times[i].append(time.perf_counter() - t0)
        best = [min(t) for t in times]
        return best, len(e_full.program), len(e_nofold.program)

    best, full_ops, nofold_ops = benchmark.pedantic(run, rounds=1, iterations=1)
    eager_t, nofold_t, full_t = best
    rows = [
        ["eager (baseline)", eager_t, 1.0, "-"],
        ["engine, no conv-bn fold", nofold_t, eager_t / nofold_t, nofold_ops],
        ["engine, full pipeline", full_t, eager_t / full_t, full_ops],
    ]
    table = format_table(
        ["configuration", "best (s)", "speedup vs eager", "instructions"],
        rows,
        title="Ablation — decomposing the TRT-style engine speedup "
              "(ResNet-50, batch 2 @ 96px)",
    )
    write_results("ablation_trt_engine", table)

    # Folding must pay (full >= partial >= baseline), with tolerance for
    # timer noise on a shared machine.
    assert full_t <= nofold_t * 1.10
    assert full_t < eager_t
    assert full_ops < nofold_ops  # folding shrank the program
