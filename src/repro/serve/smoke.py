"""Serving smoke test: N concurrent requests, exactness, no deadlock.

``python -m repro.serve.smoke`` (equivalently ``python -m repro.serve``)
spins an :class:`~repro.serve.InferenceServer` up in-process, fires a
burst of concurrent requests at a 16-op pointwise-chain model, and
verifies every response against per-request eager execution; then 20
sequential lone requests must match eager bitwise with no thread handoff.  The whole
run sits under one ``asyncio.wait_for`` deadline, so a lost future, a
stalled scheduler, or a deadlocked cache shows up as a nonzero exit
instead of a hung CI job.

Exit status: 0 on success; 1 on mismatch, deadlock (timeout), or any
server error.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import tempfile
import time

import numpy as np

import repro
import repro.functional as F
from repro import nn
from repro.serve import InferenceServer, ServeConfig


class ChainModel(nn.Module):
    """16 elementwise ops — the compile.txt/vm.txt headline workload."""

    def forward(self, x):
        t = x
        for _ in range(4):
            t = F.relu(t)
            t = t * 1.01
            t = t + 0.1
            t = F.sigmoid(t)
        return t


async def _batch_sizes_smoke(features: int, cache_dir: str) -> dict:
    """Engine sharing across batch sizes: one engine build, bit-exact
    replies, every fused-kernel call on its fast path.

    Batching is off so every request's own batch size reaches the engine,
    which is keyed on the per-sample signature alone.
    """
    repro.manual_seed(0)
    model = ChainModel().eval()
    config = ServeConfig(workers=2, batching=False, cache_dir=cache_dir)
    batch_sizes = (4, 1, 7, 16, 2)
    async with InferenceServer(config) as server:
        server.register("chain", model)
        for b in batch_sizes:
            x = repro.randn(b, features)
            expected = model(x).data
            got = (await server.infer("chain", x)).data
            if got.shape != expected.shape or \
                    float(np.max(np.abs(got - expected))) != 0.0:
                raise AssertionError(
                    f"engine diverged from eager at batch {b}")
        stats = server.stats()
    ec = stats["engine_cache"]
    if ec["builds"] != 1:
        raise AssertionError(
            f"expected 1 engine build for {len(batch_sizes)} batch sizes, "
            f"got {ec['builds']}")
    if stats["off_guard_calls"]:
        raise AssertionError(f"{stats['off_guard_calls']} off-guard calls")
    return {"stats": stats, "batch_sizes": batch_sizes}


async def _smoke(n_requests: int, concurrency: int, features: int,
                 cache_dir: str) -> dict:
    repro.manual_seed(0)
    model = ChainModel().eval()
    config = ServeConfig(workers=4, max_batch_size=concurrency,
                         cache_dir=cache_dir)
    async with InferenceServer(config) as server:
        server.register("chain", model)
        sem = asyncio.Semaphore(concurrency)
        failures = []

        async def one(i: int) -> None:
            x = repro.randn(1, features)
            expected = model(x).data
            async with sem:
                got = (await server.infer("chain", x)).data
            if not np.allclose(got, expected, atol=1e-6):
                failures.append(
                    (i, float(np.max(np.abs(got - expected)))))

        start = time.perf_counter()
        await asyncio.gather(*(one(i) for i in range(n_requests)))
        elapsed = time.perf_counter() - start
        stats = server.stats()
        for i in range(20):                 # lone: on the event loop
            x = repro.randn(1, features)
            if (await server.infer("chain", x)).data.tobytes() \
                    != model(x).data.tobytes():
                raise AssertionError(f"lone request {i} diverged from eager")
        lone_handoffs = server.stats()["handoffs"] - stats["handoffs"]
    if failures:
        raise AssertionError(
            f"{len(failures)} of {n_requests} responses diverged from "
            f"eager (worst |diff| {max(d for _, d in failures):.3e})")
    if lone_handoffs:
        raise AssertionError(f"20 lone requests took {lone_handoffs} handoffs")
    return {"elapsed": elapsed, "stats": stats}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="repro.serve smoke: concurrent exactness + liveness")
    ap.add_argument("--requests", type=int, default=100)
    ap.add_argument("--concurrency", type=int, default=16)
    ap.add_argument("--features", type=int, default=64)
    ap.add_argument("--timeout", type=float, default=120.0,
                    help="hard deadline in seconds (deadlock guard)")
    ap.add_argument("--batch-sizes", action="store_true",
                    help="run the engine sharing smoke instead (five batch "
                         "sizes, exactly one engine build)")
    args = ap.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as d:
        try:
            run = _batch_sizes_smoke(args.features, d) if args.batch_sizes \
                else _smoke(args.requests, args.concurrency, args.features, d)
            out = asyncio.run(asyncio.wait_for(run, timeout=args.timeout))
        except asyncio.TimeoutError:
            print(f"serve smoke: DEADLOCK — no completion within "
                  f"{args.timeout:.0f}s", file=sys.stderr)
            return 1
        except Exception as exc:
            print(f"serve smoke: FAILED — {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return 1
    if args.batch_sizes:
        stats = out["stats"]
        print(f"serve smoke (batch sizes): OK — batch sizes "
              f"{list(out['batch_sizes'])} served bit-exactly by "
              f"{stats['engine_cache']['builds']} engine build "
              f"({stats['off_guard_calls']} off-guard kernel call(s))")
        return 0
    stats = out["stats"]
    ec = stats["engine_cache"]
    print(f"serve smoke: OK — {args.requests} requests "
          f"(concurrency {args.concurrency}) in {out['elapsed']:.3f}s; "
          f"{stats['batches']} batches, mean "
          f"{stats['mean_rows_per_batch']:.1f} rows/batch, "
          f"{ec['builds']} engine build(s), {ec['hits']} memory hit(s); "
          f"20 lone requests bit-exact on the event loop")
    return 0


if __name__ == "__main__":
    sys.exit(main())
