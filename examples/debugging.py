"""Debugging workflows on fx graphs: profiling and net_min.

Two tools built on the IR's analyzability (§6.3):

  * per-node profiling — find the hot operators by interpretation;
  * numeric-divergence minimization (net_min) — given a backend that
    produces wrong numbers, pin the exact node whose kernel is broken.

Run:  python examples/debugging.py
"""

import repro
from repro.fx import Interpreter, symbolic_trace
from repro.fx.passes import find_first_divergence, profile
from repro.models import SimpleCNN


def main() -> None:
    repro.manual_seed(0)
    model = SimpleCNN(num_classes=10).eval()
    gm = symbolic_trace(model)

    # -- profiling ---------------------------------------------------------------
    report = profile(gm, repro.randn(4, 3, 32, 32), runs=3)
    print("== hottest operators ==")
    print(report.summary(top=5))
    print()

    # -- net_min: localize a broken backend kernel --------------------------------
    interp = Interpreter(gm, garbage_collect_values=False)
    bad_node = gm.graph.find_nodes(op="call_module", target="stage2.conv")[0]

    def buggy_backend(node, args, kwargs):
        """A pretend lowered backend whose stage2 conv kernel is wrong."""
        out = getattr(interp, node.op)(node.target, args, kwargs)
        if node is bad_node:
            out = out * 1.01  # subtle 1% error
        return out

    report = find_first_divergence(
        gm, buggy_backend, repro.randn(1, 3, 32, 32), atol=1e-4
    )
    print(f"net_min verdict: {report}")
    assert report.diverged and report.node is bad_node
    print(f"pinned the broken kernel: {report.node.name} "
          f"(defined at {report.node.meta.get('stack_trace')})")
    print("debugging example OK")


if __name__ == "__main__":
    main()
