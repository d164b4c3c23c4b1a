"""Ablation — where the TensorRT-style engine's speedup comes from (§6.4).

Decomposes the lowered engine's win over eager execution into its
ingredients, each of which is a design decision in the backend:

  1. eager execution (baseline);
  2. engine without Conv-BN folding (dispatch removal only);
  3. engine with Conv-BN folding but ReLU epilogue fusion disabled;
  4. the full pipeline (fold + fuse + buffer frees).

Kernel selection is not an ingredient: the engine and the eager substrate
run the same ``repro.kernels`` convolution and pooling.
"""

import pytest

import repro
from repro.bench import format_table
from repro.fx import symbolic_trace
from repro.fx.passes import fuse_conv_bn
from repro.models import resnet50
from repro.trt import TRTInterpreter, TRTModule

from conftest import write_results


@pytest.fixture(scope="module")
def setup():
    repro.manual_seed(0)
    model = resnet50().eval()
    x = repro.randn(2, 3, 96, 96)
    return model, x


def _engine_without_relu_fusion(gm):
    """Build an engine with the epilogue-fusion peephole disabled: a
    subclass that replans the op list without the relu-into-producer
    folding step."""

    class NoFusion(TRTInterpreter):
        def run(self):
            # replicate TRTInterpreter.run but with empty fusion plan
            import numpy as np

            from repro.trt.engine import EngineOp, TRTEngine
            from repro.tensor import Tensor

            gm_ = self.gm
            graph = gm_.graph
            slot_of, next_slot = {}, 0

            def new_slot(node):
                nonlocal next_slot
                slot_of[node] = next_slot
                next_slot += 1
                return slot_of[node]

            constants, input_slots, plan = {}, [], []
            for node in graph.nodes:
                if node.op == "placeholder":
                    input_slots.append(new_slot(node))
                    continue
                if node.op == "get_attr":
                    value = self._fetch_attr(node.target)
                    s = new_slot(node)
                    constants[s] = value.data if isinstance(value, Tensor) else value
                    continue
                if node.op == "output":
                    break
                fn, in_nodes = self._translate(node, fuse_relu=False)
                plan.append(EngineOp(
                    name=node.name, fn=fn,
                    input_slots=tuple(slot_of[n] for n in in_nodes),
                    output_slot=new_slot(node),
                ))
            out_node = graph.output_node
            spec = slot_of[out_node.args[0]]
            return TRTEngine(plan, next_slot, input_slots, spec, constants)

    return NoFusion(gm).run()


def test_ablation_engine_ingredients(benchmark, setup):
    model, x = setup

    def run():
        import time

        gm_plain = symbolic_trace(model)
        gm_fused = fuse_conv_bn(symbolic_trace(model))
        e_nofold = TRTModule(TRTInterpreter(gm_plain).run())
        e_norelu = TRTModule(_engine_without_relu_fusion(gm_fused))
        e_full = TRTModule(TRTInterpreter(gm_fused).run())
        variants = [model, e_nofold, e_norelu, e_full]
        for v in variants:
            v(x)  # warmup
        # round-robin all four configurations per trial so machine drift
        # affects them equally; compare best-of-N
        times = [[] for _ in variants]
        for _ in range(9):
            for i, v in enumerate(variants):
                t0 = time.perf_counter()
                v(x)
                times[i].append(time.perf_counter() - t0)
        best = [min(t) for t in times]
        return best, len(e_full.engine), len(e_nofold.engine)

    best, full_ops, nofold_ops = benchmark.pedantic(run, rounds=1, iterations=1)
    eager_t, nofold_t, norelu_t, full_t = best
    rows = [
        ["eager (baseline)", eager_t, 1.0],
        ["engine, no conv-bn fold", nofold_t, eager_t / nofold_t],
        ["engine, fold, no relu fusion", norelu_t, eager_t / norelu_t],
        ["engine, full pipeline", full_t, eager_t / full_t],
    ]
    table = format_table(
        ["configuration", "median (s)", "speedup vs eager"],
        rows,
        title="Ablation — decomposing the TRT-style engine speedup "
              "(ResNet-50, batch 2 @ 96px)",
    )
    write_results("ablation_trt_engine", table)

    # Every stage must contribute (full >= partial >= baseline), with
    # tolerance for timer noise on a shared machine.
    assert full_t <= norelu_t * 1.10
    assert full_t <= nofold_t * 1.10
    assert full_t < eager_t
    assert full_ops < nofold_ops  # folding + fusion shrank the plan
