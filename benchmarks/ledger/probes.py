"""Per-layer probes, taken from outside: the harness calls each layer's
public function and times the call; counts come from public reports.
Nothing under ``src/`` is edited and no private name is used.

Three suites, one per journey, each measuring the layers on a subject:

* :func:`compile_suite` — the cold journey's layers on the workload's own
  model, in fresh child processes (``child.py --mode probe``);
* :func:`tier_suite` — the steady journey's layers on the same model, in
  this process: every execution tier against eager, kernel vs dispatch;
* :func:`serve_suite` — the served journey's layers on the reference
  traffic (``chain16`` / ``small_mlp``), whatever the workload.

A probe whose import or call fails is recorded in ``Probes.missing`` with
the reason and never fails the run.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import statistics
import time
from typing import Callable, Dict, List, Sequence

import bootstrap
import models
import workloads
from loadgen import closed_loop, exponential_schedule, open_loop
from stats import percentile, spearman

#: Nominal roofline used to turn ``estimate``'s flops and bytes into a
#: time; only its *shape* is scored (predictions are rescaled by the median
#: ratio before the error is taken), so the constants need not fit the host.
NOMINAL_FLOPS_PER_S = 2.0e10
NOMINAL_BYTES_PER_S = 1.0e10
NOMINAL_OVERHEAD_S = 5.0e-6

LADDER_RATES = (250, 1000, 4000)


class Probes:
    """Values gathered so far, and the probes that could not be taken."""

    def __init__(self, tracer) -> None:
        self.values: Dict[str, float] = {}
        self.missing: Dict[str, str] = {}
        self.tracer = tracer

    def _record(self, names, got) -> None:
        for name, value in zip(names, got, strict=True):
            self.values[name] = float(value)

    def _fail(self, names, exc) -> None:
        for name in names:
            self.missing[name] = f"{type(exc).__name__}: {exc}"

    def take(self, names: Sequence[str], fn: Callable[[], Sequence[float]]):
        """Run *fn* under a span; it returns one value per name."""
        try:
            with self.tracer.span("probe." + names[0]):
                self._record(names, fn())
        except Exception as exc:  # a missing probe never fails the run
            self._fail(names, exc)

    async def take_async(self, names: Sequence[str], coro_fn: Callable):
        """:meth:`take` for a probe that must run on the event loop."""
        try:
            with self.tracer.span("probe." + names[0]):
                self._record(names, await coro_fn())
        except Exception as exc:
            self._fail(names, exc)


def _median_ms(fn: Callable[[], object], repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


# -- cold journey

#: direct-call stage times that ``fx.compile`` also pays; their sum against
#: ``compile.total_ms`` is what the PassManager wrapper adds around them
#: (per-stage hashing, cache snapshots, verification)
PIPELINE_STAGES = (
    "shape_prop.run_ms", "passes.dce_ms", "passes.cse_ms",
    "passes.const_fold_ms", "rules.first_use_ms", "rules.apply_ms",
    "passes.fuse_conv_bn_ms", "shape_prop.refresh_ms",
    "passes.pointwise_fuse_ms", "passes.memory_plan_ms")


def compile_suite(probes: Probes, model: str, seed: int,
                  children: List[dict]) -> None:
    """*children* are cold op results already in hand (the traced phase of
    a cold workload); one is spawned when there are none."""
    result, t0, t1 = workloads.spawn_child("probe", model, seed)
    if result is None:
        probes.missing["compile_suite"] = "probe child failed"
    else:
        workloads.add_child_spans(probes.tracer, result, t0, t1, op=-1)
        probes.values.update(result["values"])
        probes.missing.update(result["missing"])

    def cold_op(verify: bool) -> dict:
        got, c0, c1 = workloads.spawn_child("op", model, seed, verify=verify)
        if got is None:
            raise RuntimeError("cold op child failed")
        workloads.add_child_spans(probes.tracer, got, c0, c1, op=-2)
        return got

    def totals():
        ops = children or [cold_op(True)]
        verified = statistics.median(c["op_ms"] for c in ops)
        return (statistics.median(c["compile_total_ms"] for c in ops),
                statistics.median(c["first_forward_ms"] for c in ops),
                verified - cold_op(False)["op_ms"])

    probes.take(["compile.total_ms", "compile.first_forward_ms",
                 "analysis.verify_delta_ms"], totals)
    probes.take(["pass_manager.overhead_ms"], lambda: (
        probes.values["compile.total_ms"]
        - sum(probes.values[s] for s in PIPELINE_STAGES),))


# -- steady journey


def tier_suite(probes: Probes, model: str, seed: int, rounds: int) -> None:
    import repro
    from repro import fx

    module = models.build(model, seed)
    x = models.make_inputs(model, seed, 1)[0]
    with probes.tracer.span("probe.tier.build"):
        gm = fx.symbolic_trace(module)
        compiled = fx.compile(gm, (x,))
        vm = fx.compile(gm, (x,), executor="vm")
    tier_fns = {
        "eager": lambda: module(x),
        "interpreter": lambda: fx.Interpreter(gm).run(x),
        "codegen": lambda: gm(x),
        "compiled": lambda: compiled(x),
        "vm": lambda: vm(x),
    }
    state: dict = {}    # what later probes reuse: tier medians, node times

    def tiers():
        """Round-robin over the tiers with a rotating start, so drift of
        the host is shared by all of them and no tier always runs right
        after the same neighbour."""
        order = list(tier_fns)
        times: Dict[str, list] = {name: [] for name in order}
        for fn in tier_fns.values():    # one warm-up each
            fn()
        gc.collect()
        for r in range(rounds):
            for k in range(len(order)):
                name = order[(r + k) % len(order)]
                t0 = time.perf_counter()
                tier_fns[name]()
                times[name].append((time.perf_counter() - t0) * 1e3)
        med = {name: statistics.median(ts) for name, ts in times.items()}
        state["median"] = med
        return (med["eager"], med["interpreter"], med["codegen"],
                med["compiled"], med["vm"],
                percentile(times["compiled"], 90),
                med["eager"] / med["compiled"], med["compiled"] / med["vm"])

    probes.take(["tier.eager_ms", "tier.interpreter_ms", "tier.codegen_ms",
                 "tier.compiled_ms", "tier.vm_ms", "tier.compiled_p90_ms",
                 "tier.compiled_vs_eager", "tier.vm_vs_codegen"], tiers)

    def node_seconds(graph_module, repeats=5) -> dict:
        """{node name: median seconds} over *repeats* profiled forwards —
        a median per node, because one forward hitting fresh pages can
        double a mean."""
        from repro.fx.passes import profile
        seen: Dict[str, list] = {}
        for _ in range(repeats):
            for row in profile(graph_module, x, runs=1).rows:
                seen.setdefault(row.node_name, []).append(row.total_seconds)
        return {name: statistics.median(ts) for name, ts in seen.items()}

    def dispatch():
        """Tier time minus the time ``profile`` attributes to nodes.  Node
        time includes the profiling interpreter's own fetch and store per
        node, so on graphs of tiny ops it overstates kernels and a
        difference can come out negative; it still compares across
        commits."""
        state["profile"] = node_seconds(gm)
        kernel_plain = sum(state["profile"].values()) * 1e3
        kernel_fused = sum(node_seconds(compiled).values()) * 1e3
        med = state["median"]
        vm_dispatch = med["vm"] - kernel_fused
        instructions = len(vm.program.instructions)
        return (kernel_fused, med["interpreter"] - kernel_plain,
                med["codegen"] - kernel_plain, vm_dispatch,
                vm_dispatch * 1e3 / instructions)

    probes.take(["profiler.kernel_ms", "interpreter.dispatch_ms",
                 "codegen.dispatch_ms", "vm.dispatch_ms",
                 "vm.dispatch_us_per_instr"], dispatch)

    def cost_model():
        """How well ``estimate`` ranks and sizes nodes against ``profile``
        — the error bar on the model that drives sharding cuts."""
        from repro.fx.passes import estimate
        measured = state["profile"]
        pairs = []
        for cost in estimate(gm, x).rows:
            seconds = measured.get(cost.node_name)
            if seconds:
                predicted = max(cost.flops / NOMINAL_FLOPS_PER_S,
                                cost.total_bytes / NOMINAL_BYTES_PER_S) \
                    + NOMINAL_OVERHEAD_S
                pairs.append((predicted, seconds))
        logs = [math.log(p / m) for p, m in pairs]
        shift = statistics.median(logs)
        # Every node of a graph of like ops (chain16) gets one prediction:
        # the ranking carries no information, which a correlation of 0 says.
        rank = spearman([p for p, _ in pairs], [m for _, m in pairs])
        return (rank or 0.0,
                statistics.median(abs(v - shift) for v in logs))

    probes.take(["cost_model.rank_corr", "cost_model.median_abs_log_err"],
                cost_model)

    def warm_compile():
        def once():
            gc.collect()
            return _median_ms(
                lambda: fx.compile(fx.symbolic_trace(module), (x,)))
        once()
        warm = statistics.median(once() for _ in range(3))
        return warm, warm / probes.values["compile.total_ms"]

    probes.take(["transform_cache.warm_compile_ms",
                 "transform_cache.warm_vs_cold"], warm_compile)

    def allocations():
        """Tensor constructions per forward.  Counting means replacing
        ``Tensor.__new__``, and CPython cannot put the inherited slot back
        afterwards, so this probe runs last in the process."""
        count = [0]

        def counting_new(cls, *args, **kwargs):
            count[0] += 1
            return object.__new__(cls)

        def counted(fn):
            count[0] = 0
            fn()
            return count[0]

        repro.Tensor.__new__ = staticmethod(counting_new)
        try:
            return (counted(tier_fns["eager"]),
                    counted(tier_fns["compiled"]))
        finally:
            repro.Tensor.__new__ = staticmethod(
                lambda cls, *args, **kwargs: object.__new__(cls))

    probes.take(["tier.eager_allocs_per_forward",
                 "tier.compiled_allocs_per_forward"], allocations)


# -- served journey


def serve_suite(probes: Probes, seed: int, seconds: float) -> None:
    asyncio.run(_serve_suite(probes, seed, seconds))


async def _session(served, requests, *, burst: int = 0, open_rate: float = 0,
                   open_s: float = 0, rng=None, tracer=None, **config):
    """One server lifetime: warm-up, then a closed-loop burst of *burst*
    requests per client or an open loop at *open_rate* for *open_s*."""
    server = await workloads.start_server(served, requests, 20, **config)
    try:
        if burst:
            out = await closed_loop(server.infer, requests, models.same,
                                    workloads.BURST_CLIENTS, burst,
                                    tracer=tracer)
        else:
            due = exponential_schedule(rng, open_rate,
                                       max(10, int(open_rate * open_s)))
            out = await open_loop(server.infer, requests, models.same, due,
                                  workloads.LIMIT_MS, tracer=tracer)
        out.extra["stats"] = server.stats()
    finally:
        await server.close()
    return out


async def _serve_suite(probes: Probes, seed: int, seconds: float) -> None:
    from repro import fx
    from repro.serve import (EngineCache, EngineKey, InferenceServer,
                             coalesce, input_signature, split_results)

    rng = random.Random(seed + 2)
    tmp = os.path.join(bootstrap.OUT_DIR, f"engines-{os.getpid()}")
    single, single_requests = workloads.served_requests(seed, mixed=False)
    mixed, mixed_requests = workloads.served_requests(seed, mixed=True)
    chain = single["chain16"]
    x1 = single_requests[0][1]

    # -- engine cache and first requests (before anything compiles chain16)
    async def first_request(cache_dir):
        server = InferenceServer(workloads.serve_config(cache_dir=cache_dir))
        try:
            server.register("chain16", chain)
            t0 = time.perf_counter()
            await server.infer("chain16", x1)
            return (time.perf_counter() - t0) * 1e3
        finally:
            await server.close()

    async def first_requests():
        """Cold (build + store), then a second server over the same
        directory (load from disk)."""
        directory = os.path.join(tmp, "server")
        return await first_request(directory), await first_request(directory)

    shutil.rmtree(tmp, ignore_errors=True)
    try:
        await probes.take_async(["server.first_request_ms",
                                 "server.disk_warm_first_request_ms"],
                                first_requests)

        def engine_cache():
            gm = fx.symbolic_trace(chain)
            x8 = coalesce([(r[1],) for r in single_requests[:8]])
            key = EngineKey.for_graph(gm, "numpy", "vm", input_signature(x8))
            directory = os.path.join(tmp, "direct")

            def builder():
                return fx.compile(gm, x8, executor="vm").program

            def no_build():
                raise RuntimeError("engine was not loaded from disk")

            build = _median_ms(lambda: EngineCache(
                directory=directory).get_or_build(key, builder))
            size = sum(os.path.getsize(os.path.join(root, f))
                       for root, _, files in os.walk(directory)
                       for f in files)
            load = _median_ms(lambda: EngineCache(
                directory=directory).get_or_build(key, no_build))
            return build, size / 2 ** 20, load

        probes.take(["engine_cache.build_ms", "engine_cache.store_mb",
                     "engine_cache.load_ms"], engine_cache)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # -- batching arithmetic
    def batching():
        eight = [(r[1],) for r in single_requests[:8]]
        batch = coalesce(eight)
        out = chain(*batch)
        reps = 2000
        t0 = time.perf_counter()
        for _ in range(reps):
            coalesce(eight)
        t1 = time.perf_counter()
        for _ in range(reps):
            split_results(out, [1] * 8)
        t2 = time.perf_counter()
        return (t1 - t0) / reps * 1e6, (t2 - t1) / reps * 1e6

    probes.take(["batching.coalesce_us", "batching.split_us"], batching)

    # -- closed-loop burst: batched, then the unbatched reference line
    burst_n = max(25, int(35 * seconds))

    async def burst():
        phase = await _session(single, single_requests, burst=burst_n,
                               tracer=probes.tracer)
        out = phase.total()
        stats = phase.extra["stats"]
        cache = stats["engine_cache"]
        rows = stats["mean_rows_per_batch"]
        return (rows, out.attempted / rows if rows else 0.0,
                stats["guard_hits"], stats["guard_violations"],
                cache["builds"], cache["hits"],
                out.good / out.wall_s,
                statistics.median(out.latencies_ms))

    await probes.take_async(
        ["server.rows_per_batch", "server.batches", "server.guard_hits",
         "server.guard_violations", "engine_cache.builds",
         "engine_cache.hits", "server.burst_ops_per_s",
         "server.burst_p50_ms"], burst)

    async def unbatched_burst():
        out = (await _session(single, single_requests, burst=burst_n,
                              batching=False)).total()
        return (out.good / out.wall_s,)

    await probes.take_async(["server.unbatched_ops_per_s"], unbatched_burst)

    # -- open loop at the workload's rate: batched, then unbatched
    open_s = 0.2 * seconds

    async def open_batched():
        phase = await _session(mixed, mixed_requests, rng=rng,
                               open_rate=workloads.OPEN_RATE, open_s=open_s,
                               tracer=probes.tracer)
        late = phase.extra["late_ms"]
        out = phase.total()
        return (statistics.median(out.latencies_ms),
                percentile(out.latencies_ms, 99),
                out.good / out.attempted,
                statistics.median(late), percentile(late, 99))

    await probes.take_async(
        ["server.open_p50_ms", "server.op_p99_ms",
         "server.within_limit_share", "loadgen.late_p50_ms",
         "loadgen.late_p99_ms"], open_batched)

    async def open_unbatched():
        out = (await _session(mixed, mixed_requests, rng=rng,
                              open_rate=workloads.OPEN_RATE, open_s=open_s,
                              batching=False)).total()
        return (statistics.median(out.latencies_ms),)

    await probes.take_async(["server.unbatched_p50_ms"], open_unbatched)

    # -- the engine alone, and what the server adds around it
    def engine_forward():
        rows = max(1, round(probes.values["server.rows_per_batch"]))
        batch = coalesce([(r[1],) for r in single_requests[:rows]])
        engine = fx.compile(chain, batch, executor="vm")
        engine(*batch)
        forward = _median_ms(lambda: engine(*batch), 500)
        return forward, probes.values["server.burst_p50_ms"] - forward

    probes.take(["server.engine_forward_ms", "server.overhead_ms"],
                engine_forward)

    # -- rate ladder: latency at fixed rates, and the highest that holds
    rung_s = 0.2 * seconds
    holding = [0.0]
    for rate in LADDER_RATES:
        async def rung(rate=rate):
            phase = await _session(mixed, mixed_requests, rng=rng,
                                   open_rate=rate, open_s=rung_s)
            out = phase.total()
            p90 = percentile(out.latencies_ms, 90)
            # A backlog still draining long after the last due time was
            # growing while the schedule ran.
            if p90 <= workloads.LIMIT_MS and not out.failed and \
                    phase.extra["backlog_s"] < 0.1 * rung_s:
                holding.append(float(rate))
            return (p90,)

        await probes.take_async([f"server.ladder_r{rate}_p90_ms"], rung)
    probes.values["server.max_rate_in_limit"] = max(holding)
