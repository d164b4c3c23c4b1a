"""Ablation — the cost of capture, code generation and transformed code.

Supports the paper's design-decision claims (§5):
  * AoT capture is a one-time cost, not a per-invocation cost (§5.3 —
    contrast with JIT specialization which "adds additional cost, since
    the program is captured on every invocation");
  * generated Python code adds negligible overhead versus the original
    module's forward (§4.3 — the output is just Python);
  * transforms (DCE, CSE, recompile) run at interactive speed.
"""

import pytest

import repro
from repro.bench import format_table, measure
from repro.fx import Interpreter, symbolic_trace
from repro.models import resnet50

from conftest import write_results


@pytest.fixture(scope="module")
def setup():
    repro.manual_seed(0)
    model = resnet50().eval()
    gm = symbolic_trace(model)
    x = repro.randn(1, 3, 64, 64)
    return model, gm, x


def _regenerate(gm):
    """Code is generated on first use after ``recompile()``."""
    gm.recompile()
    return gm.code


def test_ablation_capture_costs(benchmark, setup):
    model, gm, x = setup

    def run():
        t_trace = measure(lambda: symbolic_trace(model), trials=5, warmup=1)
        t_codegen = measure(lambda: _regenerate(gm), trials=5, warmup=1)
        t_eager = measure(lambda: model(x), trials=5, warmup=1)
        t_generated = measure(lambda: gm(x), trials=5, warmup=1)
        t_interp = measure(lambda: Interpreter(gm).run(x), trials=5, warmup=1)
        return t_trace, t_codegen, t_eager, t_generated, t_interp

    t_trace, t_codegen, t_eager, t_generated, t_interp = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    rows = [
        ["symbolic_trace (one-time)", t_trace.median],
        ["recompile / codegen (one-time)", t_codegen.median],
        ["eager forward", t_eager.median],
        ["generated-code forward", t_generated.median],
        ["Interpreter forward", t_interp.median],
    ]
    table = format_table(
        ["operation", "median (s)"], rows,
        title="Ablation — capture/codegen overheads on ResNet-50",
        floatfmt=".5f",
    )
    write_results("ablation_capture_overhead", table)

    # capture + codegen are cheaper than a single forward pass
    assert t_trace.median < t_eager.median
    assert t_codegen.median < t_eager.median
    # generated code is within noise of the hand-written forward
    assert t_generated.median < t_eager.median * 1.25


class _DynamicDispatchInterpreter(Interpreter):
    """The pre-handler-table dispatch: ``getattr(self, n.op)`` per node
    per run.  Kept as the baseline for the dispatch-table measurement."""

    def run_node(self, n):
        args, kwargs = self.fetch_args_kwargs_from_env(n)
        return getattr(self, n.op)(n.target, args, kwargs)


def test_interpreter_dispatch_table(benchmark):
    """Measure the per-node handler table vs per-run getattr dispatch.

    Uses a deep graph of tiny elementwise ops so dispatch overhead, not
    numpy kernels, dominates the run time.
    """
    from repro import nn
    import repro.functional as F

    class DeepChain(nn.Module):
        def forward(self, x):
            for _ in range(100):
                x = F.relu(x)
                x = x.neg()
            return x

    repro.manual_seed(0)
    gm = symbolic_trace(DeepChain())
    x = repro.randn(4)
    table_interp = Interpreter(gm)
    dynamic_interp = _DynamicDispatchInterpreter(gm)

    def run():
        t_dynamic = measure(lambda: dynamic_interp.run(x), trials=30, warmup=3)
        t_table = measure(lambda: table_interp.run(x), trials=30, warmup=3)
        return t_dynamic, t_table

    t_dynamic, t_table = benchmark.pedantic(run, rounds=1, iterations=1)
    ratio = t_dynamic.median / t_table.median
    rows = [
        ["getattr-per-node dispatch", t_dynamic.median],
        ["precomputed handler table", t_table.median],
        ["speedup", ratio],
    ]
    table = format_table(
        ["dispatch strategy", "median (s) / ratio"], rows,
        title="Interpreter dispatch — 200-node elementwise chain",
        floatfmt=".6f",
    )
    write_results("interpreter_dispatch", table)
    # The table must never be slower than dynamic dispatch (noise slack).
    assert t_table.median <= t_dynamic.median * 1.10


def test_trace_speed(benchmark, setup):
    model, _, _ = setup
    benchmark.pedantic(lambda: symbolic_trace(model), rounds=5, iterations=1,
                       warmup_rounds=1)


def test_recompile_speed(benchmark, setup):
    _, gm, _ = setup
    benchmark.pedantic(lambda: _regenerate(gm), rounds=5, iterations=1,
                       warmup_rounds=1)


def test_transform_pipeline_speed(benchmark, setup):
    """DCE + CSE + recompile over the 177-node graph."""
    from repro.fx.passes import eliminate_common_subexpressions, eliminate_dead_code

    model, _, _ = setup

    def pipeline():
        gm = symbolic_trace(model)
        eliminate_dead_code(gm)
        eliminate_common_subexpressions(gm)
        _regenerate(gm)
        return gm

    benchmark.pedantic(pipeline, rounds=3, iterations=1, warmup_rounds=1)
