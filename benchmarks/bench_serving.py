"""Benchmark — ``repro.serve``: dynamic batching and engine-cache cold start.

Two claims, both written to ``results/serving.txt``:

* **Batching pays under load.**  A closed-loop sweep (N concurrent
  clients, each issuing requests back to back) over the 16-op pointwise
  chain, served batched vs unbatched.  At concurrency 16 the batched
  server must clear **>= 2x** the unbatched throughput: sixteen 1-row
  forwards collapse into one 16-row forward, so the per-forward python
  dispatch (VM entry, kernel launch) is paid once per batch instead of
  once per request.  Unbatched, every request also pays an executor
  handoff; batched, only a batch that goes to a worker does (a cheap
  batch alone on an idle server runs on the event loop).  At
  concurrency 1 there is nothing to coalesce and the scheduler
  dispatches at once, so the batched row shows what the batching path
  itself costs a lone request (one loop turn and the batch
  bookkeeping, and no handoff).
* **Cold start is a load, not a compile.**  Restarting a server over a
  warm engine-cache directory deserializes + verifies the pickled
  VMProgram instead of re-running trace -> fuse -> plan -> flatten.
  The warm path must be **>= 5x** faster than the cold compile.

Latency is reported as p50/p99 over per-request wall times, the
inference-serving SLO currency (mean hides the tail queueing creates).
"""

import asyncio
import time

import numpy as np
import pytest

import repro
import repro.fx as fx
from repro.bench import format_table, measure
from repro.fx import clear_caches, symbolic_trace
from repro.serve import (
    EngineCache,
    EngineKey,
    InferenceServer,
    ServeConfig,
    input_signature,
)
from repro.serve.smoke import ChainModel

from conftest import bench_scale, write_results

FEATURES = 256
SECTIONS = []


def _emit():
    write_results("serving", "\n\n".join(SECTIONS))


# -- throughput / latency sweep -------------------------------------------------


async def _closed_loop(server, concurrency, per_client):
    """*concurrency* clients, each firing *per_client* back-to-back
    requests; returns (per-request latencies, requests/sec)."""
    latencies = []

    async def client():
        for _ in range(per_client):
            x = repro.randn(1, FEATURES)
            t0 = time.perf_counter()
            await server.infer("chain", x)
            latencies.append(time.perf_counter() - t0)

    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(concurrency)))
    elapsed = time.perf_counter() - start
    return latencies, concurrency * per_client / elapsed


def _serve_sweep(batching, concurrency, per_client):
    async def go():
        config = ServeConfig(workers=4, batching=batching,
                             max_batch_size=max(concurrency, 2))
        async with InferenceServer(config) as server:
            server.register("chain", ChainModel().eval())
            # Warmup pass: compile every batch-size bucket this traffic
            # pattern can produce, then measure steady state.
            await _closed_loop(server, concurrency, 4)
            latencies, throughput = await _closed_loop(
                server, concurrency, per_client)
            return latencies, throughput, server.stats()

    return asyncio.run(go())


def test_batching_throughput_sweep():
    per_client = 120 if bench_scale() == "paper" else 48
    sweep = [1, 4, 16]
    rows = []
    by_key = {}
    for concurrency in sweep:
        for batching in (False, True):
            latencies, throughput, stats = _serve_sweep(
                batching, concurrency, per_client)
            by_key[(concurrency, batching)] = throughput
            rows.append([
                concurrency,
                "batched" if batching else "unbatched",
                throughput,
                float(np.percentile(latencies, 50) * 1e3),
                float(np.percentile(latencies, 99) * 1e3),
                f"{stats['mean_rows_per_batch']:.1f}" if batching else "-",
            ])

    speedup = by_key[(16, True)] / by_key[(16, False)]
    table = format_table(
        ["concurrency", "mode", "req/s", "p50 ms", "p99 ms",
         "rows/batch"],
        rows,
        title=(f"Dynamic batching: 16-op chain (1x{FEATURES} requests), "
               f"4 workers, {per_client} req/client"),
        floatfmt=".2f")
    SECTIONS.append(
        table + f"\n\nbatched vs unbatched @ concurrency 16: "
        f"{speedup:.1f}x throughput")
    _emit()
    # The acceptance bar: batching must at least double throughput at
    # concurrency 16 (in practice the margin is much larger).
    assert speedup >= 2.0, (
        f"batched throughput only {speedup:.2f}x unbatched at "
        f"concurrency 16")


# -- cold start vs warm start ---------------------------------------------------


def test_cold_start_loads_instead_of_recompiling(tmp_path):
    gm = symbolic_trace(ChainModel().eval())
    example = (repro.randn(16, FEATURES),)

    def cold():
        # A genuinely cold process: no cached generated source.
        clear_caches("codegen")
        return fx.compile(gm, example, executor="vm").program

    key = EngineKey.for_graph(gm, "numpy", "vm", input_signature(example))
    EngineCache(directory=str(tmp_path)).get_or_build(key, cold)

    def warm():
        # A fresh EngineCache per call models a restarted server: the
        # engine must come from disk (load + verify), never the builder.
        cache = EngineCache(directory=str(tmp_path))
        engine = cache.get_or_build(key, _must_not_build)
        assert cache.info()["disk_hits"] == 1
        return engine

    def _must_not_build():
        raise AssertionError("warm start invoked the compiler")

    trials = 30 if bench_scale() == "paper" else 10
    cold_t = measure(cold, trials=trials, warmup=1)
    warm_t = measure(warm, trials=trials, warmup=1)
    speedup = cold_t.best / warm_t.best

    out = warm()
    x = repro.randn(16, FEATURES)
    assert np.allclose(out.run(x).data, gm(x).data, atol=1e-6)

    table = format_table(
        ["path", "best ms", "mean ms"],
        [["cold compile (trace->fuse->plan->flatten)",
          cold_t.best * 1e3, cold_t.mean * 1e3],
         ["warm start (disk load + verify)",
          warm_t.best * 1e3, warm_t.mean * 1e3]],
        title="Engine cache: cold compile vs warm disk load (16-op chain)",
        floatfmt=".3f")
    SECTIONS.append(
        table + f"\n\nwarm start is {speedup:.1f}x faster than cold "
        f"compile")
    _emit()
    assert speedup >= 5.0, (
        f"warm start only {speedup:.2f}x faster than cold compile")
