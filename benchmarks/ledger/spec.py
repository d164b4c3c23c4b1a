"""The ledger's names: workloads, end-to-end metrics, per-layer metrics.

This table is the single source of ``BENCHMARK.json`` (``run.py
--emit-spec`` prints it; a harness test holds the committed file to it)
and of the tables in the README.  Later issues cite a number as
``{"metric": "op_p50_ms", "workload": "cold_resnet50"}``.
"""

from __future__ import annotations

RUN_SECONDS = 10
COMMAND = ["python3", "benchmarks/ledger/run.py"]
PATHS = ["benchmarks/ledger"]

#: (name, why the workload exists — one line, <= 200 characters —, its
#: operation)
WORKLOADS = [
    ("cold_resnet50",
     "Cold journey, weight-heavy: fresh process traces, compiles and first "
     "runs ResNet-50 (102 MB state, 177 nodes); hashing, snapshots and "
     "ShapeProp dominate, pass algorithms are noise.",
     'in a **fresh child process**: `symbolic_trace(resnet50().eval())` '
     '→ `fx.compile(gm, (x,))` → first `compiled(x)`, `x = '
     'randn(1,3,64,64)`; timed inside the child, children sequential'),
    ("warm_resnet50",
     "Read side of the caches cold_resnet50 writes: re-trace and re-compile "
     "ResNet-50 with every memo warm, so a cold-path change that slows the "
     "hit path shows.",
     'one process; set-up compiles once; op = `symbolic_trace(m)` → '
     '`fx.compile` → forward again with every memo warm; `gc.collect()` '
     'between ops, untimed'),
    ("cold_many_ops",
     "Cold journey, structure-heavy: ~600 nodes, <1 MB state; tracer, rule "
     "engine, fuser, planner and codegen do the work and weight traffic "
     "none - bypass for weight optimisations.",
     'as `cold_resnet50`, on `ManyOps`: 32 blocks of `Linear(64,64)` + '
     'pointwise tails with a duplicated subexpression, a dead branch, a '
     'buffer-only constant and (every 4th block) rule bait; 602 nodes → '
     '98, 32 fused regions, 64 VM instructions; input `(8,64)`'),
    ("steady_resnet50",
     "Steady state, kernel-bound: one forward of compiled ResNet-50; conv "
     "and matmul are >=90% of it, so dispatch/VM/arena changes predict no "
     "change here.",
     'one forward of the default `fx.compile(resnet50, (x,))` product, '
     'cycling 4 inputs'),
    ("steady_many_ops",
     "Steady state, dispatch-bound: ~100 post-fusion nodes on (8,64) "
     "tensors; per-instruction overhead, arena leasing and guards are most "
     "of the time, kernel work shows nothing.",
     'one forward of the default `fx.compile(ManyOps, (x,))` product, '
     'cycling 4 inputs'),
    ("served_burst",
     "Served, closed loop: 8 coroutine clients each wait for their reply "
     "before sending again; batching, worker handoff and engine set the "
     "capacity a window change must keep.",
     'closed loop: 8 coroutine clients, each sending its next `(1,256)` '
     'request to `Chain16` only after the previous reply'),
    ("served_open",
     "Served, open loop below saturation: seeded exponential arrivals at "
     "600 req/s, 70/30 two-signature mix, timed from due time; lone "
     "requests pay the batch window.",
     'open loop: seeded exponential inter-arrivals at 600 req/s, 70% '
     '`Chain16` `(1,256)`, 30% `SmallMLP` with 1, 2 or 4 rows; latency '
     'from the **due time**; limit 5 ms'),
]

#: (name, unit, better, bound, meaning)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "wall time before the first timed op, ÷ host slowdown: imports, model "
     "build, input generation, eager references and (steady/served) "
     "compile, server start, engine build on the first request, warm-up; "
     "(cold) the discarded warm-up child"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median wall latency of the workload's operation: over every op, "
     "÷ host slowdown (cold_*, warm_*, steady_*); in the quietest block, "
     "as the clock read it (served_*)"),
    ("ops_per_s", "1/s", "higher", 0.25,
     "ops completed with a correct output per second of timed wall, over "
     "the whole run (wall ÷ host slowdown on cold_*, warm_*, steady_*); on "
     "served_open goodput: correct replies within the 5 ms limit per "
     "second of schedule"),
    ("cpu_ms_per_op", "ms", "lower", 0.25,
     "process CPU time (user+sys, all threads; of the children for child "
     "workloads) per op attempted, over the whole run ÷ host slowdown: read "
     "between blocks (cold_*, warm_*, steady_*); sampled on the event loop "
     "beside the traffic, the sampling's own CPU time taken off (served_*)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "max RSS of the process doing the work (largest child for child "
     "workloads)"),
]

#: The seventh end-to-end metric, (name, unit, better, bound, meaning).  It is
#: 0 on every workload and the driver refuses a metric that can be 0, so it is
#: not in ``BENCHMARK.json``: a run carries it as the JSON line's ``failed`` /
#: ``attempted``, a run set as its ``failures`` table, and ``--compare`` calls
#: any increase a regression.
FAILED_SHARE = (
    "failed_share", "ratio", "lower", "any increase",
    "ops that raised, timed out, were refused, went unanswered, or whose "
    "output disagrees with the eager reference, per op attempted")

#: (name, unit, better, end-to-end metric it should move, on which
#: workloads, where no move is predicted)
PER_LAYER = [
    ("ops.failed_share", "ratio", "lower", "-", "all", "-"),
    ("ops.p90_ms", "ms", "lower",
     "ops_per_s (the whole-run rate pays for the tail; on served_open the "
     "5 ms limit sits just above it)", "served_*, steady_*",
     "cold_resnet50 (5 samples)"),
    ("trace.overhead_share", "ratio", "lower", "-", "all", "-"),
    ("import.repro_ms", "ms", "lower", "setup_s", "all", "-"),
    ("models.build_ms", "ms", "lower", "setup_s", "all", "-"),
    ("tracer.trace_ms", "ms", "lower", "op_p50_ms",
     "cold_many_ops, warm_resnet50", "steady_*, served_*"),
    ("tracer.nodes", "count", "lower", "op_p50_ms",
     "cold_many_ops, warm_resnet50", "steady_*, served_*"),
    ("graph.hash_ms", "ms", "lower", "op_p50_ms, cpu_ms_per_op",
     "cold_resnet50, warm_resnet50; setup_s on served_*", "cold_many_ops"),
    ("graph.state_mb", "MB", "lower", "op_p50_ms, cpu_ms_per_op",
     "cold_resnet50, warm_resnet50", "cold_many_ops"),
    ("graph_module.pickle_ms", "ms", "lower", "op_p50_ms, peak_rss_mb",
     "cold_resnet50 (store)", "cold_many_ops"),
    ("graph_module.pickle_mb", "MB", "lower", "op_p50_ms, peak_rss_mb",
     "cold_resnet50 (store)", "cold_many_ops"),
    ("graph_module.unpickle_ms", "ms", "lower", "op_p50_ms, peak_rss_mb",
     "warm_resnet50 (replay)", "cold_many_ops"),
    ("graph_module.recompile_ms", "ms", "lower", "op_p50_ms",
     "cold_many_ops", "cold_resnet50"),
    ("graph_module.code_lines", "count", "lower", "op_p50_ms",
     "cold_many_ops", "cold_resnet50"),
    ("shape_prop.run_ms", "ms", "lower", "op_p50_ms",
     "cold_resnet50 (executes real convs)", "cold_many_ops"),
    ("shape_prop.refresh_ms", "ms", "lower", "op_p50_ms",
     "cold_resnet50 (the second run)", "cold_many_ops"),
    ("passes.dce_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50 (<5% of op)"),
    ("passes.cse_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50 (<5% of op)"),
    ("passes.const_fold_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50 (<5% of op)"),
    ("passes.fuse_conv_bn_ms", "ms", "lower", "op_p50_ms", "cold_resnet50",
     "cold_many_ops"),
    ("passes.pointwise_fuse_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50 (<5% of op)"),
    ("passes.memory_plan_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50 (<5% of op)"),
    ("passes.nodes_after_cleanup", "count", "lower", "op_p50_ms",
     "cold_many_ops; steady_many_ops", "cold_resnet50"),
    ("passes.fused_regions", "count", "higher", "op_p50_ms",
     "steady_many_ops", "steady_resnet50"),
    ("passes.fused_ops", "count", "higher", "op_p50_ms", "steady_many_ops",
     "steady_resnet50"),
    ("passes.arena_slots", "count", "lower", "peak_rss_mb",
     "steady_many_ops", "steady_resnet50"),
    ("passes.arena_bytes", "B", "lower", "peak_rss_mb", "steady_many_ops",
     "steady_resnet50"),
    ("rules.first_use_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50"),
    ("rules.apply_ms", "ms", "lower", "op_p50_ms", "cold_many_ops",
     "cold_resnet50"),
    ("rules.firings", "count", "higher", "op_p50_ms", "cold_many_ops",
     "cold_resnet50"),
    ("compile.total_ms", "ms", "lower", "op_p50_ms", "cold_*", "steady_*"),
    ("compile.first_forward_ms", "ms", "lower", "op_p50_ms", "cold_*",
     "steady_*"),
    ("pass_manager.overhead_ms", "ms", "lower", "op_p50_ms",
     "cold_resnet50 (hashing + snapshot + verify around each stage)",
     "steady_*"),
    ("analysis.verify_delta_ms", "ms", "lower", "op_p50_ms", "cold_*",
     "steady_*"),
    ("analysis.guards_ms", "ms", "lower", "op_p50_ms; setup_s on served_*",
     "cold_*", "steady_*"),
    ("transform_cache.warm_compile_ms", "ms", "lower", "op_p50_ms",
     "warm_resnet50", "cold_*"),
    ("transform_cache.warm_vs_cold", "ratio", "lower", "op_p50_ms",
     "warm_resnet50", "cold_*"),
    ("vm.compile_ms", "ms", "lower", "setup_s", "served_*",
     "cold_* (default executor)"),
    ("vm.instructions", "count", "lower", "ops_per_s", "served_burst",
     "cold_*"),
    ("vm.registers", "count", "lower", "peak_rss_mb", "served_*", "cold_*"),
    ("tier.eager_ms", "ms", "lower", "-", "reference line", "-"),
    ("tier.interpreter_ms", "ms", "lower", "-", "reference line", "-"),
    ("tier.codegen_ms", "ms", "lower", "-", "reference line", "-"),
    ("tier.compiled_ms", "ms", "lower", "op_p50_ms, ops_per_s",
     "steady_many_ops (dispatch), steady_resnet50 (kernels, fusion)",
     "the other steady_*"),
    ("tier.vm_ms", "ms", "lower", "ops_per_s", "served_burst",
     "steady_* (codegen is the default)"),
    ("tier.compiled_p90_ms", "ms", "lower", "ops.p90_ms", "steady_*", "-"),
    ("tier.compiled_vs_eager", "ratio", "higher", "op_p50_ms", "steady_*",
     "-"),
    ("tier.vm_vs_codegen", "ratio", "higher", "ops_per_s", "served_burst",
     "-"),
    ("profiler.kernel_ms", "ms", "lower", "op_p50_ms, cpu_ms_per_op",
     "steady_resnet50", "steady_many_ops"),
    ("interpreter.dispatch_ms", "ms", "lower", "op_p50_ms, cpu_ms_per_op",
     "steady_many_ops", "steady_resnet50 (dispatch <10%)"),
    ("codegen.dispatch_ms", "ms", "lower", "op_p50_ms, cpu_ms_per_op",
     "steady_many_ops", "steady_resnet50 (dispatch <10%)"),
    ("vm.dispatch_ms", "ms", "lower", "op_p50_ms, cpu_ms_per_op",
     "steady_many_ops", "steady_resnet50 (dispatch <10%)"),
    ("vm.dispatch_us_per_instr", "us", "lower", "op_p50_ms, cpu_ms_per_op",
     "steady_many_ops", "steady_resnet50 (dispatch <10%)"),
    ("tier.eager_allocs_per_forward", "count", "lower", "-",
     "reference line", "-"),
    ("tier.compiled_allocs_per_forward", "count", "lower", "op_p50_ms",
     "steady_many_ops", "steady_resnet50"),
    ("cost_model.rank_corr", "ratio", "higher",
     "none today: the calibration error bar that gates later sharding and "
     "fusion decisions", "steady_resnet50, steady_many_ops", "-"),
    ("cost_model.median_abs_log_err", "ratio", "lower", "as above",
     "steady_resnet50, steady_many_ops", "-"),
    ("engine_cache.build_ms", "ms", "lower", "setup_s", "served_*",
     "steady_*"),
    ("engine_cache.store_mb", "MB", "lower", "setup_s", "served_*",
     "steady_*"),
    ("engine_cache.load_ms", "ms", "lower", "setup_s", "served_*",
     "steady_*"),
    ("server.first_request_ms", "ms", "lower", "setup_s", "served_*",
     "steady_*"),
    ("server.disk_warm_first_request_ms", "ms", "lower", "setup_s",
     "served_*", "steady_*"),
    ("server.rows_per_batch", "count", "higher", "ops_per_s",
     "served_burst (more rows per batch, fewer forwards)", "-"),
    ("server.batches", "count", "lower", "ops_per_s", "served_burst", "-"),
    ("server.guard_hits", "count", "higher", "ops_per_s", "served_*", "-"),
    ("server.guard_violations", "count", "lower", "ops_per_s", "served_open",
     "-"),
    ("engine_cache.builds", "count", "lower", "setup_s",
     "served_open (must stay = distinct guard classes)", "-"),
    ("engine_cache.hits", "count", "higher", "ops_per_s", "served_*", "-"),
    ("server.burst_ops_per_s", "1/s", "higher", "ops_per_s", "served_burst",
     "-"),
    ("server.burst_p50_ms", "ms", "lower", "op_p50_ms", "served_burst", "-"),
    ("server.unbatched_ops_per_s", "1/s", "higher",
     "reference line for ops_per_s (target: batched >= 2x under burst)",
     "served_burst", "-"),
    ("server.open_p50_ms", "ms", "lower", "op_p50_ms", "served_open", "-"),
    ("server.unbatched_p50_ms", "ms", "lower",
     "reference line for op_p50_ms (target: batched >= 0.9x alone)",
     "served_open", "-"),
    ("server.engine_forward_ms", "ms", "lower", "op_p50_ms, ops.p90_ms",
     "served_burst", "steady_*"),
    ("server.overhead_ms", "ms", "lower", "op_p50_ms, ops.p90_ms",
     "served_open (the window is nearly all of it), served_burst",
     "steady_*"),
    ("batching.coalesce_us", "us", "lower", "cpu_ms_per_op, ops_per_s",
     "served_burst", "served_open (lone requests skip both)"),
    ("batching.split_us", "us", "lower", "cpu_ms_per_op, ops_per_s",
     "served_burst", "served_open (lone requests skip both)"),
    ("server.op_p99_ms", "ms", "lower", "diagnostic for ops.p90_ms",
     "served_open", "-"),
    ("server.within_limit_share", "ratio", "higher",
     "diagnostic for ops_per_s", "served_open", "-"),
    ("loadgen.late_p50_ms", "ms", "lower", "harness health", "served_open",
     "-"),
    ("loadgen.late_p99_ms", "ms", "lower", "harness health", "served_open",
     "-"),
    ("server.ladder_r250_p90_ms", "ms", "lower", "diagnostic for ops.p90_ms",
     "served_open", "-"),
    ("server.ladder_r1000_p90_ms", "ms", "lower",
     "diagnostic for ops.p90_ms", "served_open", "-"),
    ("server.ladder_r4000_p90_ms", "ms", "lower",
     "diagnostic for ops.p90_ms", "served_open", "-"),
    ("server.max_rate_in_limit", "1/s", "higher",
     "diagnostic for ops_per_s", "served_open", "-"),
]

#: what a run prints for a figure that could not be taken (a probe that
#: failed; a latency when no op answered).  Real values can be negative —
#: ``*.dispatch_ms`` is a difference and measures about -2 ms on ``many_ops``,
#: ``trace.overhead_share`` dips below 0 — but never by nine digits, so this
#: cannot be mistaken for a measurement.
MISSING_VALUE = -1.0e9


def benchmark_json() -> dict:
    """``BENCHMARK.json`` in the driver's schema."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why, _ in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, *_ in PER_LAYER],
    }


def workload_names() -> list:
    return [n for n, *_ in WORKLOADS]
