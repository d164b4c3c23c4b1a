"""The seven workloads.  Each is ``run(ctx, phases) -> (setup_s, [Samples])``:
set-up happens once, then one timed phase per entry of *phases* — a
``(share, tracer)`` pair giving that phase's share of the workload's op
count and the tracer it records into.  An untraced run has one phase; a
traced run has an untraced and a traced half so their difference is the
tracing overhead.

End-to-end metrics touch only ``symbolic_trace``, ``fx.compile`` and
``InferenceServer``/``ServeConfig``.  The correctness reference is always
the eager ``Module.forward`` on the same input.
"""

from __future__ import annotations

import asyncio
import base64
import gc
import json
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import bootstrap
import hostref
import models
import repro
from loadgen import (Recorder, closed_loop, exponential_schedule, open_loop,
                     serve_workers)
from repro import fx
from repro.serve import InferenceServer, ServeConfig

LIMIT_MS = 5.0          # the served journey's latency limit
OPEN_RATE = 600.0       # served_open: requests per second of schedule
BURST_CLIENTS = 8       # served_burst: closed-loop clients
CHILD_TIMEOUT_S = 60.0  # a cold child still running after this has hung


@dataclass
class Ctx:
    """One run's parameters.  *faults* is the self-check's hook: op index
    -> ``corrupt`` (any workload) or ``crash`` / ``hang`` (child ops)."""

    seed: int
    seconds: float
    import_s: float = 0.0
    quick: bool = False
    faults: Dict[int, str] = field(default_factory=dict)
    child_timeout_s: float = CHILD_TIMEOUT_S

    def count(self, per_second: float, floor: int) -> int:
        """Ops to time: fixed by ``--seconds``, not by a clock, so both
        sides of a comparison do identical work; the floor keeps enough
        samples for the statistic reported (dropped under ``--quick``)."""
        n = max(1, round(per_second * self.seconds))
        return n if self.quick else max(floor, n)


def op_counts(name: str, ctx: Ctx) -> dict:
    """Timed ops and warm-up ops of workload *name* under *ctx*."""
    per_second, floor, warmup = {
        "cold_resnet50": (0.5, 5, 1),
        "warm_resnet50": (1.2, 5, 2),
        "cold_many_ops": (1.2, 5, 1),
        "steady_resnet50": (20, 100, 20),
        "steady_many_ops": (1000, 1000, 200),
        "served_burst": (350, 125, 200),     # per client, 8 clients
        "served_open": (OPEN_RATE, 1000, 200),
    }[name]
    return {"ops": ctx.count(per_second, floor),
            "warmup": min(warmup, 2) if ctx.quick else warmup}


def _share(n: int, share: float) -> int:
    return max(1, int(n * share))


def reference(name: str) -> Callable[[], float]:
    """The host-speed reference of workload *name*: the parts of
    :mod:`hostref` its op is made of.  The ResNet-50 compiles hash, pickle
    and unpickle 100 MB of weights around their Python, so they are slowed
    like the loop and the copy; everything else like the loop and the
    matmuls.  (Measured, ten runs each: ``warm_resnet50`` spread 11% over
    ``py, np`` and 3% over ``py, mem``, ``cold_resnet50`` 21% and 8%.)"""
    parts = ("py", "mem") if name in ("cold_resnet50", "warm_resnet50") \
        else ("py", "np")
    hostref.slowdown(parts)   # pays for BLAS start-up and the copy's pages
    return lambda: hostref.slowdown(parts)


class SetupClock:
    """Times set-up: what the process has spent since it started
    (``ctx.import_s`` up to here), with the host's speed taken out by
    *reference* read now and at :meth:`stop`."""

    def __init__(self, ctx: Ctx, reference: Callable[[], float]):
        self.reference = reference
        self.speed = reference()
        self.start = time.perf_counter() - ctx.import_s

    def stop(self) -> float:
        wall_s = time.perf_counter() - self.start
        return wall_s / ((self.speed + self.reference()) / 2)


# -- cold journey: fresh child processes


def spawn_child(mode: str, model: str, seed: int, *, verify: bool = True,
                fault: str = "", timeout_s: float = CHILD_TIMEOUT_S
                ) -> Tuple[Optional[dict], float, float]:
    """Run ``child.py`` to completion; returns (its result or ``None`` if
    it crashed, hung or printed garbage, spawn time, exit time).  The
    child is always waited for: a hung one is killed first."""
    cmd = [sys.executable, os.path.join(bootstrap.LEDGER_DIR, "child.py"),
           "--mode", mode, "--model", model, "--seed", str(seed),
           "--verify", str(int(verify))]
    if fault:
        cmd += ["--fault", fault]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, cwd=bootstrap.REPO_ROOT)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, t0, time.perf_counter()
    t1 = time.perf_counter()
    if proc.returncode != 0:
        return None, t0, t1
    try:
        return json.loads(stdout.decode().strip().splitlines()[-1]), t0, t1
    except (ValueError, IndexError):
        return None, t0, t1


def child_output(result: dict):
    """The tensor a child op sent back."""
    raw = base64.b64decode(result["output"])
    array = np.frombuffer(raw, dtype=result["dtype"]).reshape(result["shape"])
    return repro.tensor(array)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def add_child_spans(tracer, result: dict, t0: float, t1: float,
                    op: int) -> None:
    """Place a child's reported stages under one ``child`` span."""
    if not tracer.enabled:
        return
    root = tracer.add("child", t0, t1, op=op)
    parents = {"tracer.trace": "op", "compile": "op", "first_forward": "op"}
    ids = {}
    for name, start, end in result.get("spans", ()):
        parent = ids.get(parents.get(name), root)
        ids[name] = tracer.add(name, start, end, parent=parent, op=op)


def run_cold(model: str, name: str, ctx: Ctx, phases) -> Tuple[float, list]:
    host = reference(name)
    clock = SetupClock(ctx, host)
    counts = op_counts(name, ctx)
    module = models.build(model, ctx.seed)
    x = models.make_inputs(model, ctx.seed, 1)[0]
    expected = module(x)
    del module
    gc.collect()
    # Discarded children: byte-compile the program and fill the page cache.
    for _ in range(counts["warmup"]):
        spawn_child("op", "chain16", ctx.seed)
    setup_s = clock.stop()

    results, op = [], 0
    for share, tracer in phases:
        n = _share(counts["ops"], share)
        recorder = Recorder(n, cpu_clock=_children_cpu_s, reference=host)
        stages: List[dict] = []
        for _ in range(n):
            result, c0, c1 = spawn_child(
                "op", model, ctx.seed, fault=ctx.faults.get(op, ""),
                timeout_s=ctx.child_timeout_s)
            if result is None:
                recorder.op(None, False)
            else:
                stages.append(result)
                add_child_spans(tracer, result, c0, c1, op)
                t_check = time.perf_counter()
                ok = models.same(model, child_output(result), expected)
                if tracer.enabled:
                    tracer.add("oracle.check", t_check, time.perf_counter(),
                               op=op)
                recorder.op(result["op_ms"], ok)
            op += 1
        out = recorder.finish()
        out.extra["children"] = stages
        results.append(out)
    return setup_s, results


# -- warm and steady journeys: one process


def _steady_subject(model: str, ctx: Ctx, pool: int):
    """(module, inputs, eager references) for an in-process workload."""
    module = models.build(model, ctx.seed)
    inputs = models.make_inputs(model, ctx.seed, pool)
    return module, inputs, [module(x) for x in inputs]


def _corrupted(reply):
    """A reply damaged the way the self-check damages one."""
    if reply is None:
        return None
    return reply + 1.0


def run_warm(model: str, name: str, ctx: Ctx, phases) -> Tuple[float, list]:
    host = reference(name)
    clock = SetupClock(ctx, host)
    counts = op_counts(name, ctx)
    module, inputs, expected = _steady_subject(model, ctx, 1)
    x, want = inputs[0], expected[0]

    def op_once():
        gm = fx.symbolic_trace(module)
        compiled = fx.compile(gm, (x,))
        return compiled(x)

    op_once()                           # the compile that fills the caches
    for _ in range(counts["warmup"]):   # and the first warm replays
        op_once()
    setup_s = clock.stop()

    results, op = [], 0
    for share, tracer in phases:
        n = _share(counts["ops"], share)
        recorder = Recorder(n, reference=host)
        for _ in range(n):
            # Collect between ops, untimed: compile garbage is cyclic and
            # each cycle pins ~100 MB of unpickled weights.  Left to the
            # collector, the op is bimodal (about 2 s until the first full
            # collection, about 0.6 s after) and its median depends on how
            # many ops ran.
            recorder.untimed(gc.collect)
            t_op = time.perf_counter()
            with tracer.span("op", op):
                with tracer.span("tracer.trace"):
                    gm = fx.symbolic_trace(module)
                with tracer.span("compile"):
                    compiled = fx.compile(gm, (x,))
                with tracer.span("forward"):
                    y = compiled(x)
            latency = (time.perf_counter() - t_op) * 1e3
            if ctx.faults.get(op) == "corrupt":
                y = _corrupted(y)
            with tracer.span("oracle.check", op):
                ok = models.same(model, y, want)
            recorder.op(latency, ok)
            del gm, compiled, y
            op += 1
        results.append(recorder.finish())
    return setup_s, results


def run_steady(model: str, name: str, ctx: Ctx, phases) -> Tuple[float, list]:
    host = reference(name)
    clock = SetupClock(ctx, host)
    counts = op_counts(name, ctx)
    module, inputs, expected = _steady_subject(model, ctx, 4)
    compiled = fx.compile(module, (inputs[0],))
    for i in range(counts["warmup"]):
        compiled(inputs[i % len(inputs)])
    setup_s = clock.stop()

    results, op = [], 0
    for share, tracer in phases:
        n = _share(counts["ops"], share)
        gc.collect()
        recorder = Recorder(n, reference=host)
        for _ in range(n):
            x = inputs[op % len(inputs)]
            t_op = time.perf_counter()
            with tracer.span("forward", op):
                y = compiled(x)
            latency = (time.perf_counter() - t_op) * 1e3
            if op in ctx.faults:
                y = _corrupted(y)
            with tracer.span("oracle.check", op):
                ok = models.same(model, y, expected[op % len(inputs)])
            recorder.op(latency, ok)
            op += 1
        results.append(recorder.finish())
    return setup_s, results


# -- served journey


def served_requests(seed: int, mixed: bool,
                    pool: int = 64) -> Tuple[dict, list]:
    """(models to register, request pool with eager references).  Mixed
    traffic is 70% ``chain16`` single rows and 30% ``small_mlp`` with 1, 2
    or 4 rows, drawn from the seed."""
    rng = random.Random(seed)
    served = {"chain16": models.build("chain16", seed)}
    names = ["chain16"] * pool
    if mixed:
        served["small_mlp"] = models.build("small_mlp", seed)
        names = [("chain16" if rng.random() < 0.7 else "small_mlp")
                 for _ in range(pool)]
    rows = [rng.choice((1, 2, 4)) if n == "small_mlp" else 1 for n in names]
    inputs = {model: iter(models.make_inputs(
        model, seed, names.count(model),
        [r for n, r in zip(names, rows) if n == model])) for model in served}
    return served, [(n, x, served[n](x))
                    for n in names for x in (next(inputs[n]),)]


def serve_config(**overrides) -> ServeConfig:
    """Every field at its default except the worker count."""
    return ServeConfig(workers=serve_workers(), **overrides)


async def start_server(served: dict, requests: list, warmup: int,
                       **config) -> InferenceServer:
    """A registered server that has answered *warmup* closed-loop requests
    per client (every engine built, every batch size seen)."""
    server = InferenceServer(serve_config(**config))
    for model, module in served.items():
        server.register(model, module)
    await closed_loop(server.infer, requests, models.same, BURST_CLIENTS,
                      warmup)
    return server


def _reply_faults(ctx: Ctx) -> Optional[Callable]:
    if not ctx.faults:
        return None
    return lambda op, reply: _corrupted(reply) if op in ctx.faults else reply


def run_served(kind: str, name: str, ctx: Ctx, phases) -> Tuple[float, list]:
    return asyncio.run(_run_served(kind, name, ctx, phases))


async def _run_served(kind: str, name: str, ctx: Ctx, phases):
    clock = SetupClock(ctx, reference(name))
    counts = op_counts(name, ctx)
    served, requests = served_requests(ctx.seed, mixed=(kind == "open"))
    server = await start_server(served, requests, counts["warmup"])
    rng = random.Random(ctx.seed + 1)
    setup_s = clock.stop()

    results, op = [], 0
    try:
        for share, tracer in phases:
            n = _share(counts["ops"], share)
            gc.collect()
            before = server.stats()
            sampler = hostref.Sampler()
            sampling = asyncio.ensure_future(sampler.run())
            try:
                if kind == "burst":
                    out = await closed_loop(
                        server.infer, requests, models.same, BURST_CLIENTS,
                        n, tracer=tracer, corrupt=_reply_faults(ctx),
                        first_op=op)
                    op += n * BURST_CLIENTS
                else:
                    due = exponential_schedule(rng, OPEN_RATE, n)
                    out = await open_loop(
                        server.infer, requests, models.same, due, LIMIT_MS,
                        tracer=tracer, corrupt=_reply_faults(ctx),
                        first_op=op)
                    op += n
            finally:
                sampling.cancel()
                await asyncio.gather(sampling, return_exceptions=True)
            out.cpu_slowdown = sampler.slowdown
            out.sampler_cpu_s = sampler.cpu_s
            out.extra["stats_before"] = before
            out.extra["stats"] = server.stats()
            results.append(out)
    finally:
        await server.close()
    return setup_s, results


#: name -> (runner, its first argument, why the workload exists)
WORKLOADS = {
    "cold_resnet50": (run_cold, "resnet50"),
    "warm_resnet50": (run_warm, "resnet50"),
    "cold_many_ops": (run_cold, "many_ops"),
    "steady_resnet50": (run_steady, "resnet50"),
    "steady_many_ops": (run_steady, "many_ops"),
    "served_burst": (run_served, "burst"),
    "served_open": (run_served, "open"),
}

#: the model whose layers the per-layer probes measure on each workload
PROBE_MODEL = {
    "cold_resnet50": "resnet50", "warm_resnet50": "resnet50",
    "steady_resnet50": "resnet50", "cold_many_ops": "many_ops",
    "steady_many_ops": "many_ops", "served_burst": "chain16",
    "served_open": "chain16",
}

CHILD_WORKLOADS = ("cold_resnet50", "cold_many_ops")


def run(name: str, ctx: Ctx, phases) -> Tuple[float, list]:
    runner, arg = WORKLOADS[name]
    return runner(arg, name, ctx, phases)
