"""Tests for ``repro.serve`` (PR 7).

Covers the tentpole guarantees end to end:

* **work-conserving scheduling** — same-turn requests coalesce into one
  batched forward; a lone request on an idle server never waits;
  requests arriving while every worker is busy leave as one batch when
  one frees; groups leave oldest first; the size cap closes a group;
  only batches several requests share are paced (``server.PACE_S``),
  and a closed loop of clients keeps forming full batches;
* **forwards on the event loop** — a cheap batch alone on an idle
  server runs on the loop with no thread handoff (``stats()["handoffs"]``
  counts the others); a build, a key's first forward, a forward above
  ``server.INLINE_S``, a backlog and a batch beside a busy worker go to
  a worker; inline replies are a worker's bits, and ``close()`` drains
  both kinds;
* **failure isolation** — a batch that fails as a whole is re-run per
  request; a cancelled request gets no forward;
* **mixed-shape traffic never cross-batches** — the pending queue is
  keyed by the full per-sample signature, so every executed batch is
  shape/dtype-uniform;
* **worker-pool exactness** — responses equal per-request eager
  execution under 8-way concurrency, including over the fuzz
  generator's randomized programs;
* **cold-start load-not-recompile** — a fresh server over a warm cache
  directory serves from disk (``disk_hits``) with zero builds, and a
  stale or corrupted artifact is a counted miss that rebuilds, never
  wrong code;
* **one engine per per-sample signature** — an engine is keyed on its
  inputs' shapes without the batch dim, so one build serves every batch
  size, bit for bit (a model whose batch dim is not polymorphic gets
  eager's bits or eager's error); a request with no batch dim is keyed
  on its exact signature (``guard_violations``); an engine the cache
  evicts is not kept alive.
"""

import asyncio
import gc
import os
import pickle
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx.testing.generator import generate_program, spec_for_iteration
from repro.serve import (
    ENGINE_FORMAT_VERSION,
    BatchError,
    EngineCache,
    EngineKey,
    InferenceServer,
    ServeConfig,
    coalesce,
    sample_signature,
    split_results,
)
from repro.serve import server as serve_server
from repro.tensor import Tensor


def run(coro):
    return asyncio.run(coro)


class Pointwise(nn.Module):
    def forward(self, x):
        return F.sigmoid(F.relu(x) * 1.01 + 0.1)


class SmallMLP(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 16)
        self.fc2 = nn.Linear(16, 4)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


def make_server(**overrides):
    defaults = dict(workers=4, max_batch_size=64)
    defaults.update(overrides)
    return InferenceServer(ServeConfig(**defaults))


# -- batching primitives --------------------------------------------------------


class TestBatchingPrimitives:
    # A request's batch key is its model plus its per-sample signature.
    def test_batch_key_signature_drops_leading_dim(self):
        signature, rows = sample_signature((repro.randn(3, 4, 5),))
        assert rows == 3
        assert signature == (((4, 5), "float32"),)

    def test_batch_key_rejects_scalar_and_non_tensor(self):
        with pytest.raises(BatchError):
            sample_signature((Tensor._wrap(np.float32(1.0).reshape(())),))
        with pytest.raises(BatchError):
            sample_signature((3.5,))
        with pytest.raises(BatchError):
            sample_signature(())

    def test_batch_key_rejects_row_disagreement(self):
        with pytest.raises(BatchError):
            sample_signature((repro.randn(2, 4), repro.randn(3, 4)))

    def test_coalesce_split_roundtrip_zero_copy(self):
        xs = [repro.randn(r, 6) for r in (1, 3, 2)]
        (batched,) = coalesce([(x,) for x in xs])
        assert batched.data.shape == (6, 6)
        parts = split_results(batched, [1, 3, 2])
        for x, part in zip(xs, parts):
            assert np.array_equal(part.data, x.data)
            # Zero-copy contract: each part views the batched buffer.
            assert part.data.base is batched.data

    def test_split_nested_outputs(self):
        a, b = repro.randn(5, 2), repro.randn(5, 3)
        parts = split_results((a, [b]), [2, 3])
        assert isinstance(parts[0], tuple) and isinstance(parts[0][1], list)
        assert np.array_equal(parts[1][0].data, a.data[2:])
        assert np.array_equal(parts[1][1][0].data, b.data[2:])

    def test_split_rejects_unsplittable_output(self):
        with pytest.raises(BatchError):
            split_results(repro.randn(4, 2), [2, 3])  # 5 rows expected
        with pytest.raises(BatchError):
            split_results("not a tensor", [1, 1])


# -- the work-conserving scheduler ----------------------------------------------


class GatedEngine:
    """Stands in for a compiled engine: every call blocks until ``gate``
    is set, so a test decides when a worker frees up.  ``seen`` records,
    per call, how many batches the server had in flight."""

    instructions = ()                   # no fused kernel, for stats()

    def __init__(self, server, model):
        self.server, self.model = server, model
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.seen = []
        self.loop_thread = threading.get_ident()   # built on the loop
        server._build_engine = lambda handle, example_inputs: self

    def __call__(self, *inputs):
        # A shut gate on the loop thread would hang the loop for 30 s.
        assert self.gate.is_set() or \
            threading.get_ident() != self.loop_thread, \
            "a gated forward ran on the event loop"
        self.seen.append(self.server._inflight)
        self.entered.set()
        assert self.gate.wait(30), "test never opened the gate"
        return self.model(*inputs)

    async def wait_entered(self):
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.entered.wait, 30)


async def enqueue(server, *requests):
    """Start one ``infer`` task per (name, x) and let each reach the
    scheduler's queue."""
    tasks = [asyncio.ensure_future(server.infer(name, x))
             for name, x in requests]
    await asyncio.sleep(0)
    return tasks


class TestScheduler:
    def test_same_turn_requests_coalesce(self):
        async def go():
            async with make_server() as server:
                model = Pointwise().eval()
                server.register("pw", model)
                xs = [repro.randn(1, 8) for _ in range(6)]
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert np.allclose(out.data, model(x).data, atol=1e-6)
                return server.batch_log()

        log = run(go())
        assert len(log) == 1
        assert log[0].n_requests == 6 and log[0].rows == 6

    def test_lone_request_on_idle_server_does_not_wait(self):
        async def go():
            async with make_server() as server:
                server.register("pw", Pointwise().eval())
                await server.infer("pw", repro.randn(1, 8))  # builds
                times = []
                for _ in range(10):
                    t0 = time.perf_counter()
                    await server.infer("pw", repro.randn(1, 8))
                    times.append(time.perf_counter() - t0)
                return times, server.batch_log()

        times, log = run(go())
        assert [r.n_requests for r in log] == [1] * 11
        # One forward of a 3-op model.  The quickest of ten is what the
        # server costs when the host leaves it alone, and a wait for
        # co-batchable traffic is paid by every one of them.
        assert min(times) < 0.005

    def test_requests_arriving_while_busy_leave_as_one_batch(self):
        async def go():
            async with make_server(workers=1) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                engine = GatedEngine(server, model)
                xs = [repro.randn(1, 8) for _ in range(5)]
                first = await enqueue(server, ("pw", xs[0]))
                await engine.wait_entered()        # the only worker is busy
                rest = []
                for x in xs[1:]:                   # four separate turns
                    rest += await enqueue(server, ("pw", x))
                assert server._inflight == 1 and len(server._queue) == 1
                engine.gate.set()
                outs = await asyncio.wait_for(
                    asyncio.gather(*first, *rest), timeout=30)
                for x, out in zip(xs, outs):
                    assert np.array_equal(out.data, model(x).data)
                return server.batch_log()

        assert [r.n_requests for r in run(go())] == [1, 4]

    def test_full_group_closes_and_waits_its_turn(self):
        async def go():
            async with make_server(workers=1, max_batch_size=8) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                xs = [repro.randn(r, 8) for r in (3, 5, 2)]
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert out.data.shape == x.data.shape
                    assert np.allclose(out.data, model(x).data, atol=1e-6)
                return server.batch_log()

        log = run(go())
        # 3+5 hits the cap of 8; the 2-row request lands in a second batch.
        assert [r.rows for r in log] == [8, 2]

    def test_oldest_group_first(self):
        """A rare signature queued before a hot one is not overtaken,
        however many hot requests pile up behind it."""
        async def go():
            async with make_server(workers=1, max_batch_size=4) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                engine = GatedEngine(server, model)
                tasks = await enqueue(server, ("pw", repro.randn(1, 8)))
                await engine.wait_entered()
                tasks += await enqueue(server, ("pw", repro.randn(1, 16)))
                for _ in range(3):                 # 12 hot rows: 3 groups
                    tasks += await enqueue(
                        server, *[("pw", repro.randn(1, 8))] * 4)
                tasks += await enqueue(server, ("pw", repro.randn(1, 16)))
                engine.gate.set()
                await asyncio.wait_for(asyncio.gather(*tasks), timeout=30)
                return server.batch_log()

        log = run(go())
        rare, hot = (((16,), "float32"),), (((8,), "float32"),)
        assert [(r.signature, r.rows) for r in log] == [
            (hot, 1), (rare, 2), (hot, 4), (hot, 4), (hot, 4)]

    def test_inflight_bounded_by_workers_and_drained_by_close(
            self, monkeypatch):
        # Unpaced, so that both workers are taken in the same turn.
        monkeypatch.setattr(serve_server, "PACE_S", 0.0)

        async def go():
            server = make_server(workers=2)
            model = Pointwise().eval()
            server.register("pw", model)
            engine = GatedEngine(server, model)
            tasks = await enqueue(
                server, *[("pw", repro.randn(1, 4 + i % 6))
                          for i in range(24)])      # six groups of four
            await engine.wait_entered()
            assert server._inflight == 2 and len(server._queue) == 4
            engine.gate.set()
            await asyncio.wait_for(server.close(), timeout=30)
            assert all(t.done() for t in tasks)     # close() drained them
            assert not server._queue and not server._open
            assert server._inflight == 0
            return engine.seen, server.batch_log()

        seen, log = run(go())
        assert len(log) == 6 and all(r.n_requests == 4 for r in log)
        assert len(seen) == 6 and max(seen) <= 2

    def test_cancelled_request_gets_no_forward(self):
        async def go():
            async with make_server(workers=1) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                engine = GatedEngine(server, model)
                busy = await enqueue(server, ("pw", repro.randn(1, 8)))
                await engine.wait_entered()
                kept, dropped, alone = await enqueue(
                    server, ("pw", repro.randn(1, 8)),
                    ("pw", repro.randn(2, 8)), ("pw", repro.randn(1, 16)))
                dropped.cancel()
                alone.cancel()
                engine.gate.set()
                await asyncio.wait_for(asyncio.gather(*busy, kept),
                                       timeout=30)
            return server.batch_log()

        # The cancelled 2-row request left its group; the (1, 16) group,
        # holding nothing else, never ran.
        log = run(go())
        assert [(r.signature[0][0], r.rows) for r in log] == [
            ((8,), 1), ((8,), 1)]

    def test_pace_holds_only_shared_batches_with_room(self, monkeypatch):
        """Batches of several callers with room left leave ``PACE_S``
        apart; a lone request and a full group overtake a held one."""
        async def go(pace_s):
            monkeypatch.setattr(serve_server, "PACE_S", pace_s)
            async with make_server(workers=1, max_batch_size=4) as server:
                server.register("pw", Pointwise().eval())

                def burst(n):
                    return asyncio.gather(*(
                        server.infer("pw", repro.randn(1, 8))
                        for _ in range(n)))

                # Engines first (neither a lone request nor a full group
                # sets the pace), so nothing below waits on a compile.
                await server.infer("pw", repro.randn(1, 16))
                await burst(4)
                t0 = time.perf_counter()
                await burst(2)                  # the first pair leaves at once
                pair = asyncio.ensure_future(burst(2))
                await asyncio.sleep(0)
                await server.infer("pw", repro.randn(1, 16))
                await burst(4)
                await pair
                return (time.perf_counter() - t0,
                        [r.n_requests for r in server.batch_log()[2:]])

        elapsed, sizes = run(go(pace_s=0.5))
        assert sizes == [2, 1, 4, 2] and elapsed >= 0.5
        elapsed, sizes = run(go(pace_s=0.0))    # unpaced: in arrival order
        assert sizes == [2, 2, 1, 4]

    @pytest.mark.parametrize("pace_s", [serve_server.PACE_S, 0.0])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_closed_loop_keeps_forming_full_batches(
            self, workers, pace_s, monkeypatch):
        """Eight clients that each send again as soon as their reply
        lands: all eight replies resolve in one ``_batch_done``, so all
        eight resends join one group before the next ``_dispatch`` runs,
        paced or not, and no batch ever leaves with fewer than eight
        rows."""
        monkeypatch.setattr(serve_server, "PACE_S", pace_s)
        clients, rounds = 8, 50

        async def go():
            async with make_server(workers=workers) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                xs = [repro.randn(1, 8) for _ in range(clients)]
                wants = [model(x).data for x in xs]

                async def client(x, want):
                    for _ in range(rounds):
                        out = await server.infer("pw", x)
                        assert np.array_equal(out.data, want)

                await asyncio.wait_for(asyncio.gather(
                    *(client(x, w) for x, w in zip(xs, wants))), timeout=60)
                return server.stats(), server.batch_log()

        stats, log = run(go())
        assert stats["requests"] == clients * rounds
        assert stats["batches"] == rounds
        assert [r.rows for r in log] == [clients] * rounds

    def test_batching_disabled_runs_requests_alone(self):
        async def go():
            async with make_server(batching=False) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                xs = [repro.randn(1, 8) for _ in range(5)]
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert np.allclose(out.data, model(x).data, atol=1e-6)
                return server.batch_log()

        assert run(go()) == []  # unbatched path records no batches


# -- forwards on the event loop -------------------------------------------------


class Threads:
    """Wraps a server's engines: ``on`` records, per engine call, whether
    it ran on the event loop's thread.  Calls with at least ``heavy_rows``
    rows burn ``2 * INLINE_S`` of CPU first."""

    def __init__(self, server, heavy_rows=None):
        self.loop_thread = threading.get_ident()
        self.on, self.built_on = [], []
        build = server._build_engine

        def build_engine(handle, example_inputs):
            self.built_on.append(self.where())
            engine = build(handle, example_inputs)
            recorded = lambda *inputs: self.call(engine, heavy_rows, inputs)
            recorded.instructions = engine.instructions     # for stats()
            return recorded

        server._build_engine = build_engine

    def where(self):
        return "loop" if threading.get_ident() == self.loop_thread \
            else "worker"

    def call(self, engine, heavy_rows, inputs):
        self.on.append(self.where())
        if heavy_rows and inputs[0].data.shape[0] >= heavy_rows:
            end = time.thread_time() + 2 * serve_server.INLINE_S
            while time.thread_time() < end:
                pass
        return engine(*inputs)


class TestInlineForwards:
    """A batch alone on an idle server runs on the event loop when its
    key's latest forward took under ``server.INLINE_S``; everything else
    is handed to a worker, and ``stats()["handoffs"]`` counts those."""

    def test_lone_requests_to_a_warm_cheap_engine_take_no_handoff(self):
        async def go():
            async with make_server(workers=1) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                threads = Threads(server)
                x = repro.randn(1, 8)
                await server.infer("pw", x)
                building = server.stats()["handoffs"]
                for _ in range(20):
                    out = await server.infer("pw", x)
                    assert out.data.tobytes() == model(x).data.tobytes()
                return building, server.stats(), threads

        building, stats, threads = run(go())
        assert building == 1 and stats["handoffs"] == 1
        assert stats["requests"] == stats["batches"] == 21
        assert threads.on == ["worker"] + ["loop"] * 20

    def test_a_build_never_runs_on_the_loop(self):
        """Not for a new key, and not for a key whose engine the cache
        dropped while its cost still reads cheap."""
        async def go():
            async with make_server(workers=1) as server:
                server.register("pw", Pointwise().eval())
                threads = Threads(server)
                for width in (8, 8, 16, 8, 16):
                    await server.infer("pw", repro.randn(1, width))
                server.engine_cache._mem.clear()
                for _ in range(2):
                    await server.infer("pw", repro.randn(1, 8))
                return threads

        threads = run(go())
        assert threads.built_on == ["worker"] * 3
        assert threads.on == ["worker", "loop", "worker", "loop", "loop",
                              "worker", "loop"]

    def test_a_cheap_batch_goes_to_a_worker_while_another_runs(self):
        """A warm, cheap key takes the idle worker while a batch is in
        flight: on the loop, its forward would hold up the busy one's
        reply."""
        async def go():
            async with make_server(workers=2) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                engine = GatedEngine(server, model)
                engine.gate.set()
                await server.infer("pw", repro.randn(1, 8))    # warm
                engine.gate.clear()
                engine.entered.clear()
                busy = await enqueue(server, ("pw", repro.randn(1, 16)))
                await engine.wait_entered()
                x = repro.randn(1, 8)
                (lone,) = await enqueue(server, ("pw", x))
                for _ in range(3):
                    await asyncio.sleep(0)
                assert not lone.done()      # gated on the second worker
                engine.gate.set()
                await asyncio.wait_for(asyncio.gather(*busy, lone), 30)
                assert lone.result().data.tobytes() \
                    == model(x).data.tobytes()
                return server.stats()

        assert run(go())["handoffs"] == 3

    def test_a_backlog_goes_to_the_workers(self):
        """Groups pending together on an idle server are handed to the
        workers; only the last one left runs on the loop."""
        async def go():
            async with make_server(workers=1) as server:
                server.register("pw", Pointwise().eval())
                threads = Threads(server)
                for width in (8, 16):
                    await server.infer("pw", repro.randn(1, width))
                await asyncio.wait_for(asyncio.gather(
                    server.infer("pw", repro.randn(1, 8)),
                    server.infer("pw", repro.randn(1, 16))), timeout=30)
                return threads, server.stats()

        threads, stats = run(go())
        assert threads.on == ["worker", "worker", "worker", "loop"]
        assert stats["handoffs"] == 3

    def test_a_forward_above_the_bound_goes_to_a_worker(self):
        """Each forward is timed where it runs: a key whose batch grew
        past the bound goes back to a worker after one forward, and comes
        back to the loop after one cheap one."""
        async def go():
            async with make_server(workers=1) as server:
                model = Pointwise().eval()
                server.register("pw", model)
                threads = Threads(server, heavy_rows=4)
                for rows in (1, 1, 4, 4, 4, 1, 1):
                    x = repro.randn(rows, 8)
                    out = await server.infer("pw", x)
                    assert out.data.tobytes() == model(x).data.tobytes()
                return threads, server.stats()

        threads, stats = run(go())
        assert threads.on == ["worker", "loop", "loop", "worker", "worker",
                              "worker", "loop"]
        assert stats["handoffs"] == 4

    def test_an_inline_batch_answers_the_mates_of_a_failing_request(self):
        class Poisoned(RuntimeError):
            pass

        async def go():
            async with make_server(workers=1) as server:
                model = Pointwise().eval()
                server.register("pw", model)

                def engine(x):             # any batch holding a NaN raises
                    if np.isnan(x.data).any():
                        raise Poisoned("NaN input")
                    return model(x)

                engine.instructions = ()   # no fused kernel for stats()
                server._build_engine = lambda handle, example: engine
                await server.infer("pw", repro.randn(1, 8))
                xs = [repro.randn(1, 8) for _ in range(4)]
                xs[2] = Tensor._wrap(np.full((1, 8), np.nan, np.float32))
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs),
                    return_exceptions=True)
                return xs, outs, model, server.stats(), server.batch_log()

        xs, outs, model, stats, log = run(go())
        assert stats["handoffs"] == 1       # the retries ran on the loop too
        assert isinstance(outs[2], Poisoned)
        for i in (0, 1, 3):
            assert outs[i].data.tobytes() == model(xs[i]).data.tobytes()
        assert [r.n_requests for r in log] == [1, 1, 1, 1]

    def test_an_inline_reply_is_a_worker_reply(self, monkeypatch):
        """The same lone request and the same 3-request batch, answered
        on the loop and (with a bound no forward meets) on a worker."""
        xs = [repro.randn(1, 24) for _ in range(4)]

        async def go():
            async with make_server(workers=1) as server:
                server.register("pw", Pointwise().eval())
                await server.infer("pw", xs[0])
                lone = await server.infer("pw", xs[0])
                batch = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs[1:]))
                return [o.data.tobytes() for o in [lone] + batch], \
                    server.stats()["handoffs"]

        inline, inline_handoffs = run(go())
        monkeypatch.setattr(serve_server, "INLINE_S", 0.0)
        worker, worker_handoffs = run(go())
        assert (inline_handoffs, worker_handoffs) == (1, 3)
        assert inline == worker

    def test_close_drains_inline_and_worker_batches(self):
        async def go():
            server = make_server(workers=1)
            model = Pointwise().eval()
            server.register("pw", model)
            threads = Threads(server)
            await server.infer("pw", repro.randn(1, 8))
            xs = [repro.randn(1, 16)] + [repro.randn(1, 8) for _ in range(3)]
            tasks = await enqueue(server, *[("pw", x) for x in xs])
            await asyncio.wait_for(server.close(), timeout=30)
            assert all(t.done() for t in tasks)
            for x, t in zip(xs, tasks):
                assert t.result().data.tobytes() == model(x).data.tobytes()
            return threads, server.stats(), server.batch_log()

        threads, stats, log = run(go())
        # The new key's first forward takes the worker; the warm group
        # behind it is alone on an idle server when it finishes.
        assert threads.on == ["worker", "worker", "loop"]
        assert stats["handoffs"] == 2
        assert [r.n_requests for r in log] == [1, 1, 3]


# -- failure isolation -----------------------------------------------------------


class TestFailureIsolation:
    def test_unsplittable_output_is_served_per_request(self):
        class RowSum(nn.Module):           # (rows, 8) -> (8,): no batch dim
            def forward(self, x):
                return x.sum(0)

        async def go():
            async with make_server() as server:
                model = RowSum().eval()
                server.register("sum", model)
                xs = [repro.randn(2, 8) for _ in range(5)]
                outs = await asyncio.gather(
                    *(server.infer("sum", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert np.allclose(out.data, model(x).data, atol=1e-6)
                return server.batch_log()

        # The shared forward produced nothing: five forwards of one request.
        assert [r.n_requests for r in run(go())] == [1] * 5

    def test_failing_request_does_not_fail_its_batch_mates(self):
        class Poisoned(RuntimeError):
            pass

        async def go():
            async with make_server() as server:
                model = Pointwise().eval()
                server.register("pw", model)

                def engine(x):             # any batch holding a NaN raises
                    if np.isnan(x.data).any():
                        raise Poisoned("NaN input")
                    return model(x)

                server._build_engine = lambda handle, example: engine
                xs = [repro.randn(1, 8) for _ in range(4)]
                xs[2] = Tensor._wrap(np.full((1, 8), np.nan, np.float32))
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs),
                    return_exceptions=True)
                return xs, outs, model

        xs, outs, model = run(go())
        assert isinstance(outs[2], Poisoned)
        for i in (0, 1, 3):
            assert np.array_equal(outs[i].data, model(xs[i]).data)


# -- mixed traffic --------------------------------------------------------------


class TestMixedTraffic:
    def test_mixed_shapes_never_cross_batch(self):
        async def go():
            async with make_server() as server:
                model = Pointwise().eval()
                server.register("pw", model)
                xs = [repro.randn(1, 8) for _ in range(4)] \
                    + [repro.randn(1, 16) for _ in range(3)]
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert np.allclose(out.data, model(x).data, atol=1e-6)
                return server.batch_log()

        log = run(go())
        by_sig = {rec.signature: rec.n_requests for rec in log}
        assert by_sig == {(((8,), "float32"),): 4,
                          (((16,), "float32"),): 3}

    def test_mixed_dtypes_never_cross_batch(self):
        async def go():
            async with make_server() as server:
                model = Pointwise().eval()
                server.register("pw", model)
                a = repro.randn(1, 8)
                b = Tensor._wrap(a.data.astype(np.float64))
                outs = await asyncio.gather(server.infer("pw", a),
                                            server.infer("pw", b))
                return server.batch_log(), outs

        log, _ = run(go())
        assert len(log) == 2  # one single-request batch per dtype

    def test_mixed_models_never_cross_batch(self):
        async def go():
            async with make_server() as server:
                server.register("a", Pointwise().eval())
                server.register("b", Pointwise().eval())
                await asyncio.gather(
                    *(server.infer(name, repro.randn(1, 8))
                      for name in ("a", "b", "a", "b")))
                return server.batch_log()

        log = run(go())
        assert {(r.model, r.n_requests) for r in log} == {("a", 2), ("b", 2)}

    def test_unbatchable_request_falls_back_to_single(self):
        class TakesScalar(nn.Module):
            def forward(self, x, alpha):
                return x * alpha

        async def go():
            async with make_server() as server:
                model = TakesScalar().eval()
                server.register("sc", model)
                x = repro.randn(2, 4)
                out = await server.infer("sc", x, 2.5)  # float arg: no batch
                assert np.allclose(out.data, model(x, 2.5).data, atol=1e-6)
                return server.batch_log()

        assert run(go()) == []

    def test_unknown_model_raises(self):
        async def go():
            async with make_server() as server:
                with pytest.raises(KeyError):
                    await server.infer("nope", repro.randn(1, 4))

        run(go())


# -- worker-pool exactness ------------------------------------------------------


class TestWorkerPoolExactness:
    def test_8way_concurrency_batched_mlp(self):
        repro.manual_seed(5)
        model = SmallMLP().eval()
        xs = [repro.randn(1 + i % 3, 8) for i in range(32)]
        expected = [model(x).data for x in xs]

        async def go():
            async with make_server(workers=8,
                                   max_batch_size=8) as server:
                server.register("mlp", model)
                return await asyncio.gather(
                    *(server.infer("mlp", x) for x in xs))

        outs = run(go())
        for out, exp in zip(outs, expected):
            assert np.allclose(out.data, exp, atol=1e-6)

    def test_8way_concurrency_fuzz_generator_programs(self):
        """The PR-6 fuzz generator's randomized programs, served through
        the worker pool with batching off (generated graphs are not
        guaranteed batch-independent): every response must equal eager."""

        def assert_same(got, exp):
            if isinstance(exp, Tensor):
                assert np.allclose(got.data, exp.data, atol=1e-5)
            elif isinstance(exp, dict):
                assert set(got) == set(exp)
                for k in exp:
                    assert_same(got[k], exp[k])
            elif isinstance(exp, (tuple, list)):
                assert len(got) == len(exp)
                for g, e in zip(got, exp):
                    assert_same(g, e)
            else:
                assert got == exp

        programs = [generate_program(spec_for_iteration(2022, i))
                    for i in range(6)]
        expected = [p.gm(*p.inputs) for p in programs]

        async def go():
            async with make_server(workers=8, batching=False) as server:
                for i, p in enumerate(programs):
                    server.register(f"fuzz{i}", p.gm)
                jobs = [server.infer(f"fuzz{i}", *p.inputs)
                        for i, p in enumerate(programs)
                        for _ in range(4)]
                return await asyncio.gather(*jobs)

        outs = run(go())
        assert len(outs) == len(programs) * 4
        for j, out in enumerate(outs):
            assert_same(out, expected[j // 4])


# -- engine cache: cold start + integrity ---------------------------------------


def _serve_once(cache_dir, seed=3):
    """One server lifetime over *cache_dir*; returns the engine-cache
    counters after a single request."""
    async def go():
        repro.manual_seed(seed)
        model = SmallMLP().eval()
        async with InferenceServer(ServeConfig(
                workers=2, cache_dir=str(cache_dir))) as server:
            server.register("mlp", model)
            repro.manual_seed(99)
            x = repro.randn(4, 8)
            out = await server.infer("mlp", x)
            assert np.allclose(out.data, model(x).data, atol=1e-6)
            return server.stats()["engine_cache"]

    return run(go())


class TestColdStart:
    def test_cold_start_loads_instead_of_recompiling(self, tmp_path):
        first = _serve_once(tmp_path)
        assert first["builds"] == 1 and first["stores"] == 1
        assert first["disk_hits"] == 0

        # Same checkpoint (same seed -> same weights -> same structural
        # hash), fresh process-equivalent: must load, not recompile.
        second = _serve_once(tmp_path)
        assert second["builds"] == 0
        assert second["disk_hits"] == 1
        assert second["stale"] == second["corrupt"] == 0

    def test_different_weights_do_not_share_engines(self, tmp_path):
        _serve_once(tmp_path, seed=3)
        other = _serve_once(tmp_path, seed=4)  # different state bytes
        assert other["builds"] == 1  # hash differs -> no disk hit
        assert other["disk_hits"] == 0

    def test_memory_hits_after_first_request(self, tmp_path):
        async def go():
            repro.manual_seed(3)
            model = SmallMLP().eval()
            async with InferenceServer(ServeConfig(
                    workers=2, batching=False,
                    cache_dir=str(tmp_path))) as server:
                server.register("mlp", model)
                x = repro.randn(4, 8)
                for _ in range(3):
                    await server.infer("mlp", x)
                return server.stats()["engine_cache"]

        info = run(go())
        assert info["builds"] == 1 and info["hits"] == 2


def _one_artifact(directory):
    files = [f for f in os.listdir(directory) if f.endswith(".engine")]
    assert len(files) == 1
    return os.path.join(directory, files[0])


class TestEngineCacheIntegrity:
    KEY = EngineKey(graph_hash="00" * 32, backend="numpy", executor="vm",
                    signature=(((4, 8), "float32"),))

    def _build_counter(self):
        calls = []

        def builder():
            calls.append(1)
            return {"engine": len(calls)}

        return builder, calls

    def test_roundtrip_and_disk_reload(self, tmp_path):
        builder, calls = self._build_counter()
        cache = EngineCache(directory=str(tmp_path))
        assert cache.get_or_build(self.KEY, builder) == {"engine": 1}
        assert cache.get_or_build(self.KEY, builder) == {"engine": 1}
        assert len(calls) == 1

        fresh = EngineCache(directory=str(tmp_path))
        assert fresh.get_or_build(self.KEY, builder) == {"engine": 1}
        assert len(calls) == 1
        assert fresh.info()["disk_hits"] == 1

    def test_truncated_file_is_corrupt_miss_then_rebuild(self, tmp_path):
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        path = _one_artifact(tmp_path)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[: len(blob) // 2])

        fresh = EngineCache(directory=str(tmp_path))
        assert fresh.get_or_build(self.KEY, builder) == {"engine": 2}
        info = fresh.info()
        assert info["corrupt"] == 1 and info["builds"] == 1
        # The rebuild overwrote the bad file: next cold cache loads fine.
        again = EngineCache(directory=str(tmp_path))
        assert again.get_or_build(self.KEY, builder) == {"engine": 2}
        assert again.info()["disk_hits"] == 1

    def test_garbage_bytes_are_corrupt_miss(self, tmp_path):
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        with open(_one_artifact(tmp_path), "wb") as f:
            f.write(b"\x00not a pickle\xff" * 16)
        fresh = EngineCache(directory=str(tmp_path))
        fresh.get_or_build(self.KEY, builder)
        assert fresh.info()["corrupt"] == 1

    def test_checksum_mismatch_is_corrupt_miss(self, tmp_path):
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        path = _one_artifact(tmp_path)
        wrapper = pickle.load(open(path, "rb"))
        wrapper["payload"] = wrapper["payload"] + b"tamper"
        pickle.dump(wrapper, open(path, "wb"))
        fresh = EngineCache(directory=str(tmp_path))
        assert fresh.get_or_build(self.KEY, builder) == {"engine": 2}
        assert fresh.info()["corrupt"] == 1

    def test_stale_key_under_right_filename_is_stale_miss(self, tmp_path):
        """A file whose embedded key disagrees with the requested key
        (hand-renamed artifact, or a token-space collision) must never be
        served: key echo catches it as ``stale`` and the engine is
        rebuilt."""
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        path = _one_artifact(tmp_path)
        wrapper = pickle.load(open(path, "rb"))
        wrapper["key"] = EngineKey(graph_hash="ff" * 32, backend="numpy",
                                   executor="vm",
                                   signature=self.KEY.signature)
        pickle.dump(wrapper, open(path, "wb"))
        fresh = EngineCache(directory=str(tmp_path))
        assert fresh.get_or_build(self.KEY, builder) == {"engine": 2}
        info = fresh.info()
        assert info["stale"] == 1 and info["disk_hits"] == 0

    def test_version_skew_is_stale_miss(self, tmp_path):
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        path = _one_artifact(tmp_path)
        wrapper = pickle.load(open(path, "rb"))
        assert wrapper["version"] == ENGINE_FORMAT_VERSION
        wrapper["version"] = ENGINE_FORMAT_VERSION + 1
        pickle.dump(wrapper, open(path, "wb"))
        fresh = EngineCache(directory=str(tmp_path))
        fresh.get_or_build(self.KEY, builder)
        assert fresh.info()["stale"] == 1

    def test_v2_file_goes_stale_on_its_version_and_is_overwritten(self, tmp_path):
        """What a format-2 cache left behind: wrapper version 2 and a key
        object that still carries a fifth field.  The version check
        retires it before anything is compared against that key."""
        builder, calls = self._build_counter()
        EngineCache(directory=str(tmp_path)).get_or_build(self.KEY, builder)
        path = _one_artifact(tmp_path)
        wrapper = pickle.load(open(path, "rb"))
        object.__setattr__(wrapper["key"], "fifth_field", 1)
        wrapper["version"] = 2
        pickle.dump(wrapper, open(path, "wb"))

        fresh = EngineCache(directory=str(tmp_path))
        assert fresh.get_or_build(self.KEY, builder) == {"engine": 2}
        info = fresh.info()
        assert (info["stale"], info["corrupt"], info["builds"],
                info["stores"]) == (1, 0, 1, 1)
        again = EngineCache(directory=str(tmp_path))
        assert again.get_or_build(self.KEY, builder) == {"engine": 2}
        assert again.info()["disk_hits"] == 1 and again.info()["stale"] == 0

    def test_memory_lru_bound(self):
        cache = EngineCache()
        for i in range(65):
            key = EngineKey(graph_hash=f"{i:02x}" * 32, backend="numpy",
                            executor="vm", signature=())
            cache.get_or_build(key, lambda i=i: i)
        assert cache.info()["size"] == 64


# -- server stats ----------------------------------------------------------------


class TestStats:
    def test_stats_shape(self):
        async def go():
            async with make_server() as server:
                server.register("pw", Pointwise().eval())
                await asyncio.gather(
                    *(server.infer("pw", repro.randn(1, 8))
                      for _ in range(4)))
                return server.stats()

        stats = run(go())
        assert stats["requests"] == 4
        assert stats["handoffs"] == 1       # the building batch
        assert stats["batches"] == 1
        assert stats["batched_rows"] == 4
        assert stats["mean_rows_per_batch"] == 4.0
        assert stats["engine_cache"]["builds"] == 1

    def test_counters_do_not_saturate_or_lose_updates(self):
        """5 000 single-request batches over more workers than cores with
        a short switch interval: the counters are exact (they used to be
        read off the 4 096-entry audit log)."""
        async def go():
            async with make_server(workers=8, max_batch_size=1) as server:
                server.register("pw", Pointwise().eval())
                x = repro.randn(1, 8)
                await server.infer("pw", x)
                await asyncio.wait_for(asyncio.gather(
                    *(server.infer("pw", x) for _ in range(4999))),
                    timeout=120)
                return server.stats(), server.batch_log()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            stats, log = run(go())
        finally:
            sys.setswitchinterval(interval)
        assert stats["requests"] == stats["batches"] == 5000
        assert stats["batched_rows"] == stats["guard_hits"] == 5000
        assert stats["max_batch_rows"] == 1
        assert len(log) == 4096             # the audit trail stays bounded

    def test_register_twice_rejected(self):
        async def go():
            async with make_server() as server:
                server.register("pw", Pointwise().eval())
                with pytest.raises(ValueError):
                    server.register("pw", Pointwise().eval())
                assert server.registered() == ["pw"]

        run(go())

    def test_closed_server_rejects_requests(self):
        async def go():
            server = make_server()
            server.register("pw", Pointwise().eval())
            await server.close()
            with pytest.raises(RuntimeError):
                await server.infer("pw", repro.randn(1, 8))

        run(go())


class TestGuardKeyedEngines:
    """Engines are keyed on the per-sample signature: one engine serves
    every batch size, and a request with no batch dim gets its own."""

    def test_many_batch_sizes_one_engine_build(self):
        async def go():
            model = SmallMLP().eval()
            async with make_server(batching=False, workers=2) as server:
                server.register("mlp", model)
                for b in (4, 1, 7, 16):
                    x = repro.randn(b, 8)
                    out = await server.infer("mlp", x)
                    exp = model(x)
                    assert out.data.shape == exp.data.shape
                    assert float(np.abs(out.data - exp.data).max()) == 0.0
                return server.stats()

        stats = run(go())
        assert stats["engine_cache"]["builds"] == 1
        assert stats["guard_hits"] == 4
        assert stats["guard_violations"] == 0

    def test_a_model_whose_batch_dim_is_not_polymorphic_gets_one_engine(self):
        """``reshape(4, -1)`` moves rows into features: the engine built
        at 4 rows meets other shapes after it at 8 and 2 rows, and answers
        with eager's bits, and at 3 rows raises what eager raises."""
        class Fold(nn.Module):
            def forward(self, x):
                return F.sigmoid(x.reshape(4, -1) * 1.5 + 0.5)

        model = Fold().eval()

        async def go():
            async with make_server(batching=False, workers=2) as server:
                server.register("fold", model)
                for b in (4, 8, 2, 3):
                    x = repro.randn(b, 6)
                    try:
                        want = model(x).data
                    except Exception as exc:
                        # the VM raises eager's own error
                        with pytest.raises(Exception) as got:
                            await server.infer("fold", x)
                        assert type(got.value) is type(exc)
                        continue
                    got = (await server.infer("fold", x)).data
                    assert got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
                return server.stats()

        stats = run(go())
        assert stats["engine_cache"]["builds"] == 1
        assert stats["guard_hits"] == 3     # the 3-row request raised

    def test_an_engine_built_at_one_row_runs_eight_rows_fused(self):
        """The engine the first, 1-row request builds serves the 8-row
        batch that follows with every fused kernel on its fast path."""
        async def go():
            model = Pointwise().eval()
            async with make_server(workers=2) as server:
                server.register("pw", model)
                x = repro.randn(1, 24)
                assert (await server.infer("pw", x)).data.tobytes() \
                    == model(x).data.tobytes()
                xs = [repro.randn(1, 24) for _ in range(8)]
                outs = await asyncio.gather(
                    *(server.infer("pw", x) for x in xs))
                for x, out in zip(xs, outs):
                    assert out.data.tobytes() == model(x).data.tobytes()
                return server.stats()

        stats = run(go())
        assert stats["max_batch_rows"] == 8
        assert stats["engine_cache"]["builds"] == 1
        assert stats["off_guard_calls"] == 0

    def test_guard_violation_falls_back_to_correct_rebuild(self):
        """A 0-d request has no batch dim: it is keyed on its exact
        signature, and so never shares the engine of a 1-D batch, whose
        per-sample signature is also ``()``.  A new width is a new
        per-sample signature."""
        async def go():
            model = Pointwise().eval()
            async with make_server(workers=2) as server:
                server.register("pw", model)
                for x in (repro.randn(4, 8), repro.randn(4, 16),
                          repro.randn(9, 8),
                          Tensor._wrap(np.float32(0.5).reshape(())),
                          repro.randn(3), repro.randn(5)):
                    out = await server.infer("pw", x)
                    assert out.data.shape == x.data.shape
                    assert out.data.tobytes() == model(x).data.tobytes()
                return server.stats()

        stats = run(go())
        assert stats["guard_violations"] == 1
        assert stats["guard_hits"] == 5
        # (8,), (16,), the 0-d request's exact signature and ()
        assert stats["engine_cache"]["builds"] == 4

    def test_an_evicted_engine_is_not_kept_alive(self):
        """The server holds its engines through its caches only: past the
        64 the engine cache keeps, the first engine is garbage, and
        ``off_guard_calls`` sums over the live ones.  The forward costs the
        server keeps per key never outnumber those 64 either."""
        async def go():
            model = Pointwise().eval()
            async with make_server(batching=False, workers=2) as server:
                server.register("pw", model)
                await server.infer("pw", repro.randn(2, 1))
                (first,) = server.engine_cache.engines()
                first = weakref.ref(first)
                costs = []                  # the per-key forward costs kept
                for width in range(2, 71):
                    await server.infer("pw", repro.randn(2, width))
                    costs.append(len(server._costs))
                gc.collect()
                return server.stats(), first(), max(costs)

        stats, first, costs = run(go())
        assert first is None                # while the server was alive
        assert costs == 64                  # bounded as the engines are
        assert stats["engine_cache"]["size"] == 64
        assert stats["engine_cache"]["builds"] == 70
        assert stats["off_guard_calls"] == 0

    def test_guarded_engine_shared_across_cold_start(self, tmp_path):
        """The canonicalized signature is the disk key too: a cold process
        serving a *different* batch size loads the warm engine."""
        async def go(batch):
            repro.manual_seed(3)
            model = SmallMLP().eval()
            async with InferenceServer(ServeConfig(
                    workers=2, batching=False,
                    cache_dir=str(tmp_path))) as server:
                server.register("mlp", model)
                x = repro.randn(batch, 8)
                out = await server.infer("mlp", x)
                assert float(np.abs(out.data - model(x).data).max()) == 0.0
                return server.stats()["engine_cache"]

        first = run(go(4))
        assert first["builds"] == 1
        second = run(go(7))  # new process ⇒ same canonical key, from disk
        assert second["builds"] == 0
        assert second["disk_hits"] == 1
