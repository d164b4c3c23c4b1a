"""§6.3 — Program analysis: shape propagation, cost estimation, hardware
simulation, and graph drawing.

The paper reports no table for this section; the claims are capability
claims ("torch.fx enables the estimation of FLOPs, memory bandwidth
usage, and data value sizes ... allowing for estimation of the program
runtime and memory consumption", "rapid development ... quick iteration
in simulation rather than on real devices").  This harness regenerates a
representative analysis table and benchmarks the analyses themselves —
they must be fast enough for interactive iteration (orders of magnitude
faster than running the model on a device).
"""

import pytest

import repro
from repro.bench import format_table, measure
from repro.fx import symbolic_trace
from repro.fx.passes import FxGraphDrawer, ShapeProp, estimate
from repro.fx.passes.cost_model import ASIC_MODEL, CPU_MODEL, GPU_MODEL
from repro.models import resnet18, resnet50

from conftest import write_results


@pytest.fixture(scope="module")
def traced():
    repro.manual_seed(0)
    return symbolic_trace(resnet50().eval())


def test_analysis_table(benchmark, traced):
    x = repro.randn(1, 3, 224, 224)

    def analyze():
        report = estimate(traced, x)
        rows = [
            ["graph nodes", len(traced.graph)],
            ["tensor ops costed", len(report.rows)],
            ["total GFLOPs", report.total_flops / 1e9],
            ["total traffic (MB)", report.total_bytes / 1e6],
            ["peak activation (MB)", report.peak_value_bytes / 1e6],
        ]
        for dev in (CPU_MODEL, GPU_MODEL, ASIC_MODEL):
            rows.append([f"predicted latency on {dev.name} (ms)",
                         dev.predict_runtime(report) * 1e3])
        return rows, report

    rows, report = benchmark.pedantic(analyze, rounds=1, iterations=1)
    table = format_table(
        ["metric", "value"], rows,
        title="§6.3 — ResNet-50 @ 1x3x224x224 analysis summary",
        floatfmt=".3f",
    )
    write_results("section6_3_analysis", table)

    # sanity: ResNet-50 is ~4.1 GMACs => ~8.2 GFLOPs
    gflops = report.total_flops / 1e9
    assert 7.0 < gflops < 9.5
    # simulated device ordering must be sane
    assert (ASIC_MODEL.predict_runtime(report)
            < GPU_MODEL.predict_runtime(report)
            < CPU_MODEL.predict_runtime(report))


def test_shape_prop_speed(benchmark, traced):
    """Shape propagation interprets the graph once — fast enough to run
    interactively (it IS a model forward plus bookkeeping)."""
    x = repro.randn(1, 3, 64, 64)
    benchmark.pedantic(lambda: ShapeProp(traced).propagate(x),
                       rounds=3, iterations=1, warmup_rounds=1)


def test_cost_estimate_speed(benchmark, traced):
    x = repro.randn(1, 3, 64, 64)
    benchmark.pedantic(lambda: estimate(traced, x), rounds=3, iterations=1,
                       warmup_rounds=1)


def test_simulation_vs_execution_speed(benchmark, traced):
    """The point of simulating: predicting a device latency from a costed
    graph is ~instant compared to actually running the model."""
    x = repro.randn(1, 3, 64, 64)
    report = estimate(traced, x)

    t_predict = measure(lambda: CPU_MODEL.predict_runtime(report), trials=5)
    t_run = measure(lambda: traced(x), trials=3, warmup=1)
    benchmark.pedantic(lambda: CPU_MODEL.predict_runtime(report), rounds=3,
                       iterations=1)
    assert t_predict.median * 100 < t_run.median


def test_graph_drawer_speed_and_output(benchmark, traced):
    dot = benchmark.pedantic(
        lambda: FxGraphDrawer(traced, "resnet50").get_dot_graph(),
        rounds=3, iterations=1,
    )
    assert dot.startswith("digraph")
    # 177 nodes, each with a label line
    assert dot.count("label=") == len(traced.graph)


# ---------------------------------------------------------------------------
# the unified dataflow analysis framework (repro.fx.analysis)
# ---------------------------------------------------------------------------


def _fuzz_graph():
    """A ~200-node generated graph — the fuzzer's stress shape, all six
    opcodes, shared subexpressions, multi-output nodes."""
    from repro.fx.testing.generator import ProgramSpec, generate_program

    prog = generate_program(ProgramSpec(seed=7, family="graph", n_ops=100))
    ShapeProp(prog.gm).propagate(*prog.inputs)
    return prog.gm


def test_dataflow_analysis_speed(benchmark, traced):
    """Per-analysis wall time.  §5.5 argues dataflow over the fx IR
    collapses to single sweeps — every analysis must be cheap enough to
    run after every pass of a pipeline."""
    from repro.fx.analysis import analyze, lint_graph

    x = repro.randn(1, 3, 64, 64)
    ShapeProp(traced).propagate(x)
    fuzz_gm = _fuzz_graph()

    rows = []
    for label, gm in ((f"ResNet-50 ({len(traced.graph)} nodes)", traced),
                      (f"fuzz graph ({len(fuzz_gm.graph)} nodes)", fuzz_gm)):
        for name in ("alias", "purity", "dtype", "mutation"):
            t = measure(lambda: analyze(gm, [name]), trials=5, warmup=1)
            rows.append([label, name, t.median * 1e3])
        t = measure(lambda: lint_graph(gm), trials=5, warmup=1)
        rows.append([label, "full lint (6 rules)", t.median * 1e3])

    table = format_table(
        ["graph", "analysis", "wall (ms)"],
        rows,
        title="repro.fx.analysis — dataflow analysis wall time (one sweep "
              "per fact)",
        floatfmt=".3f",
    )
    benchmark.pedantic(lambda: analyze(traced, ["alias"]), rounds=3,
                       iterations=1)

    global _ANALYSIS_TABLE
    _ANALYSIS_TABLE = table


_ANALYSIS_TABLE = None


def test_verifier_overhead_on_compile(benchmark):
    """The hard budget: with caching, running the PassVerifier after every
    stage of a ResNet-50 compile must cost < 25% extra wall time."""
    from repro.fx import clear_caches

    model = resnet50().eval()
    x = repro.randn(1, 3, 64, 64)
    clear_caches("transform")

    def compile_off():
        return repro.fx.compile(model, (x,), verify=False)

    def compile_on():
        return repro.fx.compile(model, (x,), verify=True)

    # Warm every cache layer (transform cache, codegen cache), then measure
    # the steady state both ways — interleaved, so machine-load drift hits
    # both configurations equally.
    import statistics
    import time

    compile_off()
    compile_on()
    off_times, on_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        compile_off()
        off_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        compile_on()
        on_times.append(time.perf_counter() - t0)
    t_off_med = statistics.median(off_times)
    t_on_med = statistics.median(on_times)
    benchmark.pedantic(compile_on, rounds=1, iterations=1)

    overhead = (t_on_med - t_off_med) / t_off_med * 100.0
    rows = [
        ["compile, verify=False (cached)", t_off_med * 1e3, ""],
        ["compile, verify=True (cached)", t_on_med * 1e3, ""],
        ["verifier overhead", "", f"{overhead:+.1f}%"],
    ]
    table = format_table(
        ["configuration", "median (ms)", "overhead"],
        rows,
        title="PassVerifier overhead on repro.fx.compile(ResNet-50) — "
              "budget: < 25%",
        floatfmt=".3f",
    )
    parts = [table]
    if _ANALYSIS_TABLE is not None:
        parts.insert(0, _ANALYSIS_TABLE)
    write_results("analysis", "\n\n".join(parts))

    assert overhead < 25.0, f"verifier overhead {overhead:.1f}% >= 25%"
