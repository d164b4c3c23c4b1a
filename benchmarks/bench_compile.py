"""Benchmark — ``repro.fx.compile``: pointwise fusion.

Measures the one-call graph compiler against eager execution on three
workloads:

  * a deep pointwise chain (best case: N elementwise ops collapse into a
    single fused kernel writing through two registers);
  * ResNet-50 (conv-dominated: fusion covers the add+relu block tails,
    the win is bounded by matmul/conv time);
  * DeepRecommender (Linear+SELU stacks: each Linear and the SELU after
    it fuse into one kernel, its GEMM writing the kernel's buffer; the
    Linears dominate, so compile() must at least not regress).

Alongside latency we count **tensor materializations per forward** — every
eager elementwise op wraps a freshly allocated result buffer, while a fused
kernel allocates a couple of registers and wraps once.
"""

import numpy as np
import pytest

import repro
import repro.functional as F
import repro.fx as fx
from repro import nn
from repro.bench import format_table, measure
from repro.models import DeepRecommender, resnet50
from repro.tensor.tensor import Tensor

from conftest import write_results


class PointwiseChain(nn.Module):
    """16 elementwise ops, single-consumer — fuses into one kernel."""

    def forward(self, x):
        t = x
        for _ in range(4):
            t = F.relu(t)
            t = t * 1.01
            t = t + 0.1
            t = F.clamp(t, min=-4.0, max=4.0)
        return t


def _count_tensor_allocs(fn):
    """Run ``fn`` once, counting every Tensor constructed.

    Each eager op materializes exactly one fresh result tensor (and its
    backing buffer), so this is a faithful per-forward allocation count.
    """
    count = [0]

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return object.__new__(cls)

    def passthrough_new(cls, *args, **kwargs):
        # Behaves exactly like the inherited default (Tensor overrides
        # __init__, so extra constructor args are ignored here).  We can't
        # `del Tensor.__new__` to restore: CPython keeps tp_new overridden
        # after the del, which then rejects Tensor(data, dtype) calls.
        return object.__new__(cls)

    orig = Tensor.__dict__.get("__new__")
    Tensor.__new__ = staticmethod(counting_new)
    try:
        fn()
    finally:
        Tensor.__new__ = orig if orig is not None else staticmethod(passthrough_new)
    return count[0]


def _bench_case(model, inputs, trials, warmup):
    compiled = fx.compile(model, inputs)
    ref = model(*inputs)
    out = compiled(*inputs)
    assert np.allclose(out.data, ref.data, atol=1e-3), "compile changed numerics"
    compiled(*inputs)  # generate the forward before timing/counting
    t_eager = measure(lambda: model(*inputs), trials=trials, warmup=warmup)
    t_compiled = measure(lambda: compiled(*inputs), trials=trials, warmup=warmup)
    a_eager = _count_tensor_allocs(lambda: model(*inputs))
    a_compiled = _count_tensor_allocs(lambda: compiled(*inputs))
    return compiled, t_eager, t_compiled, a_eager, a_compiled


CASES = {
    "pointwise chain (16 ops)": (
        PointwiseChain, lambda: (repro.randn(512, 1024),), 20, 3),
    "ResNet-50": (
        resnet50, lambda: (repro.randn(1, 3, 64, 64),), 5, 1),
    "DeepRecommender": (
        lambda: DeepRecommender(n_items=2048), lambda: (repro.randn(8, 2048),),
        10, 2),
}


@pytest.fixture(scope="module")
def compile_results():
    results = {}
    for name, (factory, make_inputs, trials, warmup) in CASES.items():
        repro.manual_seed(2022)
        model = factory().eval()
        results[name] = _bench_case(model, make_inputs(), trials, warmup)
    return results


def test_compile_speedup_and_allocations(benchmark, compile_results):
    rows = []

    def run():
        for name, (cm, t_e, t_c, a_e, a_c) in compile_results.items():
            rows.append([name, t_e.median, t_c.median,
                         t_e.median / t_c.median, a_e, a_c])
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        ["model", "eager (s)", "compiled (s)", "speedup",
         "allocs/fwd eager", "allocs/fwd compiled"],
        rows,
        title="repro.fx.compile — fusion vs eager",
        floatfmt=".4f",
    )
    reports = "\n".join(
        f"[{name}] {cm.compile_report.format()}"
        for name, (cm, *_rest) in compile_results.items()
    )
    write_results("compile", table + "\n\n" + reports)

    chain = dict(zip(compile_results, rows))["pointwise chain (16 ops)"]
    # Acceptance: >=1.5x on the 16-op chain, with fewer allocations.
    assert chain[3] >= 1.5, f"chain speedup {chain[3]:.2f}x < 1.5x"
    assert chain[5] < chain[4], "fusion did not reduce allocation count"
    for name, (_cm, t_e, t_c, a_e, a_c) in compile_results.items():
        assert t_c.median <= t_e.median * 1.15, f"{name}: compile regressed latency"
        assert a_c <= a_e, f"{name}: compile increased allocations"

