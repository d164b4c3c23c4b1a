"""Load generators for the served journey: coroutine clients on the one
event-loop thread (no sockets, no client threads), so the loop plus the
server's workers never exceed the host's cores.

A closed loop models callers that wait for replies: each client sends its
next request only after the previous reply, so a slow server receives less
load.  An open loop models independent users: requests are due on a seeded
schedule whatever the server is doing, each is timed **from its due
time** (so a stall is charged to every request it delays), and how late
the generator itself ran is reported beside the latencies.
"""

from __future__ import annotations

import asyncio
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from spans import NullTracer

#: One request the generator may send: (model name, input, eager reference).
Request = Tuple[str, object, object]


#: A run is cut into at most this many equal blocks, by completion order
#: (see :class:`Recorder`).
MAX_BLOCKS = 40


@dataclass
class Block:
    """What one stretch of consecutive ops observed.  Every time is already
    divided by the block's *slowdown* (see :mod:`hostref`): multiply by it
    to get what the clock read."""

    latencies_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0      # raised, timed out, refused, unanswered or wrong
    good: int = 0        # the ops ``ops_per_s`` counts
    wall_s: float = 0.0  # the denominator of ``ops_per_s``
    cpu_s: float = 0.0
    slowdown: float = 1.0


@dataclass
class Samples:
    """What one timed phase of a workload observed, block by block."""

    blocks: List[Block] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    referenced: bool = False   # were the times divided by a host reference?
    #: A served phase's reading of ``hostref.Sampler``: the slowdown its CPU
    #: time is divided by, and the sampling's own CPU time, not the program's.
    cpu_slowdown: float = 1.0
    sampler_cpu_s: float = 0.0

    def total(self) -> Block:
        """Every block as one (its ``slowdown`` means nothing)."""
        out = Block()
        for block in self.blocks:
            out.latencies_ms += block.latencies_ms
            for name in ("attempted", "failed", "good", "wall_s", "cpu_s"):
                setattr(out, name, getattr(out, name) + getattr(block, name))
        return out


class Recorder:
    """Cuts a phase of *ops* operations into blocks as they complete, and
    takes the host's speed out of each block's times.

    *reference* is :func:`hostref.slowdown` for the workloads whose op is
    computation (cold, warm, steady): it is called between blocks, outside
    every clock, and a block's latencies, wall and CPU time are divided by
    the mean of the readings on its two sides.  Every end-to-end figure of
    those workloads is then taken over all blocks.

    The served workloads pass none.  Their latency is mostly a timer,
    which no host slows down, and reading the reference would stall the
    event loop the server runs on.  Their ``op_p50_ms`` is read from the
    quietest block instead, the stretch the host left alone, the way
    ``timeit`` keeps the minimum of its repeats: a slower op moves every
    block, the quietest included.  Their CPU time is all computation, and
    a spell of the host lasts longer than a run, so no block escapes it:
    ``cpu_ms_per_op`` is over the whole run, divided by what
    ``hostref.Sampler`` read beside the traffic (see ``Samples``).

    ``ops_per_s`` is over all blocks everywhere: a tail, a stall, a failed
    op or a reply past the limit costs what it cost, in whichever block it
    fell, and one clean block must not hide it.
    """

    def __init__(self, ops: int, cpu_clock: Callable[[], float] =
                 time.process_time, wall_per_op: Optional[float] = None,
                 reference: Optional[Callable[[], float]] = None):
        self.size = max(1, -(-ops // MAX_BLOCKS))
        self.samples = Samples(referenced=reference is not None)
        self.cpu_clock = cpu_clock
        self.wall_per_op = wall_per_op   # open loop: the schedule's time
        self.reference = reference
        self.open = Block()
        self.speed = reference() if reference else 1.0
        self.mark = (time.perf_counter(), cpu_clock())

    def op(self, latency_ms: Optional[float], ok: bool,
           good: Optional[bool] = None) -> None:
        """One op completed: its latency (``None`` if it never answered),
        whether the oracle passed it, and whether throughput counts it
        (by default, whenever it is correct)."""
        block = self.open
        block.attempted += 1
        if latency_ms is not None:
            block.latencies_ms.append(latency_ms)
        block.failed += not ok
        block.good += ok if good is None else good
        if block.attempted == self.size:
            self.close()

    def untimed(self, fn: Callable[[], object]) -> None:
        """Run *fn* outside the books: its wall and CPU time are charged
        to no block."""
        t0, c0 = time.perf_counter(), self.cpu_clock()
        fn()
        self.mark = (self.mark[0] + time.perf_counter() - t0,
                     self.mark[1] + self.cpu_clock() - c0)

    def close(self) -> None:
        now = (time.perf_counter(), self.cpu_clock())
        block, self.open = self.open, Block()
        if not block.attempted:
            return
        wall_s = now[0] - self.mark[0] if self.wall_per_op is None \
            else block.attempted * self.wall_per_op
        before, self.speed = self.speed, \
            self.reference() if self.reference else 1.0
        block.slowdown = (before + self.speed) / 2
        block.latencies_ms = [ms / block.slowdown
                              for ms in block.latencies_ms]
        block.wall_s = wall_s / block.slowdown
        block.cpu_s = (now[1] - self.mark[1]) / block.slowdown
        self.samples.blocks.append(block)
        self.mark = (time.perf_counter(), self.cpu_clock())

    def finish(self) -> Samples:
        self.close()
        return self.samples


def serve_workers() -> int:
    """Worker threads for the server: event loop + workers <= cores."""
    return max(1, min(os.cpu_count() or 1, 4) - 1)


def exponential_schedule(rng: random.Random, rate: float,
                         count: int) -> List[float]:
    """*count* due times (seconds from the start) with exponential
    inter-arrival gaps of mean ``1 / rate``."""
    due, now = [], 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        due.append(now)
    return due


async def closed_loop(infer: Callable, requests: Sequence[Request],
                      check: Callable, clients: int, per_client: int,
                      tracer=None, corrupt: Callable = None,
                      first_op: int = 0) -> Samples:
    """*clients* coroutines, each sending *per_client* requests back to
    back.  ``infer(name, x)`` is awaited; ``check(name, reply, expected)``
    is the oracle; ``corrupt(op, reply)`` (self-check only) may swap a
    reply for a damaged one before the oracle sees it."""
    tracer = tracer or NullTracer()
    recorder = Recorder(clients * per_client)

    async def client(cid: int) -> None:
        for i in range(per_client):
            op = first_op + cid * per_client + i
            name, x, expected = requests[op % len(requests)]
            t0 = time.perf_counter()
            try:
                reply = await infer(name, x)
            except Exception:
                reply = None
            t1 = time.perf_counter()
            if corrupt is not None:
                reply = corrupt(op, reply)
            ok = reply is not None and check(name, reply, expected)
            recorder.op(None if reply is None else (t1 - t0) * 1e3, ok)
            if tracer.enabled:
                t2 = time.perf_counter()
                rid = tracer.add("request", t0, t2, op=op)
                tracer.add("server.infer", t0, t1, parent=rid, op=op)
                tracer.add("oracle.check", t1, t2, parent=rid, op=op)

    tasks = [asyncio.ensure_future(client(c)) for c in range(clients)]
    await asyncio.gather(*tasks)
    out = recorder.finish()
    out.extra["clients"] = clients
    return out


async def open_loop(infer: Callable, requests: Sequence[Request],
                    check: Callable, due: Sequence[float], limit_ms: float,
                    tracer=None, corrupt: Callable = None,
                    drain_s: float = 10.0, first_op: int = 0) -> Samples:
    """Send ``requests[i % len]`` at ``due[i]`` seconds after the start,
    whatever the server is doing.  Latency runs from the due time.  A
    request that fails, is refused, or is still unanswered *drain_s*
    after the last due time misses the limit; ``good`` counts correct
    replies within *limit_ms* and a block's ``wall_s`` is the schedule time
    its requests stand for, so ``good / wall_s`` is goodput."""
    tracer = tracer or NullTracer()
    rate = len(due) / due[-1]
    recorder = Recorder(len(due), wall_per_op=1.0 / rate)
    late_ms: List[float] = []

    async def one(i: int, due_at: float) -> None:
        op = first_op + i
        name, x, expected = requests[i % len(requests)]
        sent = time.perf_counter()
        try:
            reply = await infer(name, x)
        except Exception:
            reply = None
        done = time.perf_counter()
        if corrupt is not None:
            reply = corrupt(op, reply)
        latency = (done - due_at) * 1e3
        late_ms.append((sent - due_at) * 1e3)
        ok = reply is not None and check(name, reply, expected)
        recorder.op(None if reply is None else latency, ok,
                    good=ok and latency <= limit_ms)
        if tracer.enabled:
            end = time.perf_counter()
            rid = tracer.add("request", due_at, end, op=op)
            tracer.add("loadgen.late", due_at, sent, parent=rid, op=op)
            tracer.add("server.infer", sent, done, parent=rid, op=op)
            tracer.add("oracle.check", done, end, parent=rid, op=op)

    start = time.perf_counter() + 0.01
    tasks = []
    for i, offset in enumerate(due):
        delay = start + offset - time.perf_counter()
        # Always yield, even when behind: the server's callbacks run on
        # this same loop and must not be starved by a late generator.
        await asyncio.sleep(delay if delay > 0 else 0)
        tasks.append(asyncio.ensure_future(one(i, start + offset)))
    _, pending = await asyncio.wait(tasks, timeout=drain_s)
    backlog_s = time.perf_counter() - (start + due[-1])
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.gather(*pending, return_exceptions=True)
    for _ in pending:                    # unanswered: failed, no latency
        recorder.op(None, False)
    out = recorder.finish()
    out.extra.update(late_ms=late_ms, backlog_s=backlog_s, rate=rate)
    return out
