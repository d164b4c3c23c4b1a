"""Conv-BN fusion and backend lowering of ResNet (§6.2.2, §6.4).

Shows the two performance workflows the paper evaluates, on the current
API surface:
  * fuse_conv_bn — folds BatchNorm into the preceding convolution's
    weights (Figure 7's transform, < 150 lines in repro.fx.passes.fuser);
  * fx.to_backend — the one lowering entrypoint: backend-preferred
    passes, capability partitioning, per-partition compilation with a
    structural-hash memo, eager fallback for unsupported operators
    (Figure 8's pipeline, with backend "trt").

Run:  python examples/fuse_and_lower_resnet.py
"""

import repro
import repro.fx as fx
from repro.bench import measure, print_table
from repro.fx import symbolic_trace
from repro.fx.backends import override_support
from repro.fx.passes import fuse_conv_bn
from repro.models import resnet18


def main() -> None:
    repro.manual_seed(0)
    model = resnet18(num_classes=10).eval()
    x = repro.randn(2, 3, 64, 64)

    gm = symbolic_trace(model)
    n_before = len(gm.graph)
    fused = fuse_conv_bn(symbolic_trace(model))
    n_after = len(fused.graph)
    print(f"graph nodes: {n_before} -> {n_after} after conv-bn fusion")
    assert repro.allclose(gm(x), fused(x), rtol=1e-3, atol=1e-4)

    # fully supported: to_backend returns the backend's native module,
    # here one flat program on the bytecode tier
    lowered = fx.to_backend(model, "trt", allow_fallback=False)
    print(f"engine: {lowered.program!r}")
    assert repro.allclose(model(x), lowered(x), rtol=1e-3, atol=1e-4)
    print(lowered.backend_report.format())

    # mixed support: pretend pooling can't lower — the dependency-aware
    # partitioner compiles the supported regions, pooling runs eager
    # inline, and the report shows the partition/cache breakdown
    pooling = ("MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d")

    def no_pooling(node, modules):
        if node.op == "call_module":
            return type(modules[node.target]).__name__ not in pooling
        return True

    mixed = fx.to_backend(model, override_support("trt", no_pooling))
    assert repro.allclose(model(x), mixed(x), rtol=1e-3, atol=1e-4)
    print(mixed.backend_report.format())

    t_eager = measure(lambda: model(x), trials=5, warmup=1)
    t_fused = measure(lambda: fused(x), trials=5, warmup=1)
    t_lowered = measure(lambda: lowered(x), trials=5, warmup=1)
    t_mixed = measure(lambda: mixed(x), trials=5, warmup=1)

    print_table(
        ["configuration", "mean (s)", "stdev (s)", "speedup"],
        [
            ["eager", t_eager.mean, t_eager.stdev, 1.0],
            ["conv-bn fused", t_fused.mean, t_fused.stdev, t_eager.mean / t_fused.mean],
            ["lowered engine", t_lowered.mean, t_lowered.stdev,
             t_eager.mean / t_lowered.mean],
            ["mixed (pooling eager)", t_mixed.mean, t_mixed.stdev,
             t_eager.mean / t_mixed.mean],
        ],
        title="ResNet-18 inference, batch 2 @ 64x64 (this machine)",
        floatfmt=".4f",
    )
    print("fusion + lowering example OK")


if __name__ == "__main__":
    main()
