"""Concurrency-safety tests for the compile stack.

Three bug classes are covered:

* **cache races** — every memoised stage (``codegen``, ``transform``)
  goes through one :class:`repro.fx.cache.ArtifactCache`, so its
  guarantees are checked once, parametrised over stages: N
  barrier-synchronised threads asking for one key produce exactly one
  miss, N-1 hits and one shared artifact (without the single-flight all N
  miss and build; before ArtifactCache, codegen and transform documented
  a double compile), and counters add up under a mixed-key hammer (racing
  ``hits += 1`` loses updates without the lock).  No cache pins a
  compiled program.

* **tracing races** — the tracer's module-call interceptor and its
  ``fx.wrap`` stack are per thread: with them process-wide, threads
  tracing at once recorded each other's module calls (a leaked Proxy, or
  a wrong trace and no error).

* **shared scratch state** — two threads running one compiled module
  (generated ``forward`` or ``VMProgram``) must not see each other's
  intermediates: every buffer a run writes is its own.
"""

import gc
import os
import signal
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import ArtifactCache, Graph, cache_info, clear_caches, \
    symbolic_trace
from repro.fx import compile as fx_compile
from repro.fx.backends import to_backend
from repro.fx.concurrency import KeyedMutex
from repro.fx.passes import PassManager, eliminate_dead_code
from repro.fx.state import copy_module
from repro.fx.vm import compile_to_vm

N_THREADS = 8


def _run_threads(n, fn):
    """Start *n* threads on *fn(i)* behind one barrier; re-raise the
    first worker exception in the caller."""
    barrier = threading.Barrier(n)
    errors = []

    def wrapped(i):
        try:
            barrier.wait(timeout=30)
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surface to caller
            errors.append(exc)

    threads = [threading.Thread(target=wrapped, args=(i,))
               for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    if errors:
        raise errors[0]


class MLP(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc1 = nn.Linear(8, 16)
        self.fc2 = nn.Linear(16, 4)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


class TestKeyedMutex:
    def test_serializes_equal_keys(self):
        mutex = KeyedMutex()
        active = []
        overlap = []

        def worker(i):
            with mutex.acquire("k"):
                active.append(i)
                if len(active) > 1:
                    overlap.append(tuple(active))
                active.remove(i)

        _run_threads(N_THREADS, worker)
        assert overlap == []
        assert mutex.in_flight() == 0

    def test_distinct_keys_do_not_serialize(self):
        mutex = KeyedMutex()
        inside = threading.Barrier(2)

        def worker(i):
            with mutex.acquire(i):
                # Both threads must be inside their regions at once; a
                # global lock would deadlock this barrier.
                inside.wait(timeout=10)

        _run_threads(2, worker)


#: How long a test-injected build takes: long enough that every other
#: barrier-released thread reaches its own lookup while the first builds,
#: so a stage without single-flight deterministically builds N times.
BUILD_S = 0.05


#: One call = exactly one lookup of one key in the named stage.
STAGE_OPS = {
    # code is generated on first use, once per module: a fresh copy each call
    "codegen": lambda gm: copy_module(gm).code,
    "transform": lambda gm: PassManager([eliminate_dead_code]).run(gm),
}


@pytest.fixture
def slow_builds(monkeypatch):
    """Make each stage's build take ``BUILD_S``."""
    from repro.fx.passes import pass_manager

    def slowed(fn):
        def slow(*args, **kwargs):
            time.sleep(BUILD_S)
            return fn(*args, **kwargs)
        return slow

    monkeypatch.setattr(Graph, "python_code", slowed(Graph.python_code))
    monkeypatch.setattr(pass_manager, "recipe", slowed(pass_manager.recipe))


def _chain(depth):
    """Structurally distinct per *depth* (codegen's key ignores weights)."""
    layers = []
    for _ in range(depth):
        layers += [nn.Linear(8, 8), nn.ReLU()]
    return symbolic_trace(nn.Sequential(*layers).eval())


@pytest.mark.usefixtures("slow_builds")
@pytest.mark.parametrize("stage", sorted(STAGE_OPS))
class TestStageCaches:
    def test_concurrent_same_key_builds_once(self, stage):
        op = STAGE_OPS[stage]
        gm = symbolic_trace(MLP().eval())
        clear_caches(stage)

        _run_threads(N_THREADS, lambda i: op(gm))
        info = cache_info()[stage]
        assert info["misses"] == 1
        assert info["hits"] == N_THREADS - 1
        assert info["size"] == 1

    def test_counters_consistent_across_mixed_keys(self, stage):
        op = STAGE_OPS[stage]
        gms = [_chain(depth) for depth in range(1, 5)]
        clear_caches(stage)
        calls_per_thread = 8

        def worker(i):
            for j in range(calls_per_thread):
                op(gms[(i + j) % len(gms)])

        _run_threads(N_THREADS, worker)
        info = cache_info()[stage]
        # Every call counted exactly once, one insert per distinct key.
        assert info["hits"] + info["misses"] == N_THREADS * calls_per_thread
        assert info["misses"] == info["size"] == len(gms)


class TestSharedArtifacts:
    def test_concurrent_lowerings_stay_exact(self):
        gm = symbolic_trace(MLP().eval())
        results = [None] * N_THREADS

        def worker(i):
            results[i] = to_backend(gm, "trt")

        _run_threads(N_THREADS, worker)
        x = repro.randn(2, 8)
        expected = gm(x).data
        for r in results:
            assert np.allclose(r(x).data, expected, rtol=1e-3, atol=1e-5)

    def test_concurrent_recompile_still_executes(self):
        gm = symbolic_trace(MLP().eval())
        x = repro.randn(2, 8)
        expected = gm(x).data

        def worker(i):
            for _ in range(10):
                gm.recompile()
                assert np.allclose(gm(x).data, expected, atol=1e-6)

        _run_threads(4, worker)

    def test_concurrent_pipelines_stay_exact(self):
        gm = symbolic_trace(MLP().eval())
        x = repro.randn(2, 8)
        expected = gm(x).data

        def worker(i):
            pm = PassManager([eliminate_dead_code])
            for _ in range(4):
                out = pm.run(gm).graph_module
                assert np.allclose(out(x).data, expected, atol=1e-6)

        _run_threads(N_THREADS, worker)


class TestParallelDigests:
    """A structural hash reads large tensors on a private thread pool."""

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_after_a_parallel_hash_hashes_again(self):
        """The child has none of the pool's threads, and may inherit its
        submit lock held by a parent thread: it must build a pool of its
        own.  SIGALRM turns a child deadlock into a non-zero exit status."""
        from repro.fx import state

        gm = symbolic_trace(nn.Sequential(nn.Linear(256, 256), nn.ReLU(),
                                          nn.Linear(256, 256)).eval())
        key = gm.graph.structural_hash()   # 256 KiB weights: on the pool
        pool = state._pool()
        held, release = threading.Event(), threading.Event()

        def hold_the_submit_lock():
            with pool._shutdown_lock:
                held.set()
                release.wait(timeout=30)

        holder = threading.Thread(target=hold_the_submit_lock)
        if pool is not None:   # more than one CPU
            holder.start()
            assert held.wait(timeout=10)
        pid = os.fork()
        if pid == 0:
            signal.alarm(20)
            ok = gm.graph.structural_hash() == key
            os._exit(0 if ok else 1)
        release.set()
        if holder.is_alive():
            holder.join(timeout=10)
        assert os.waitpid(pid, 0)[1] == 0

    def test_concurrent_resnet_compiles_stay_exact(self):
        """More compiling threads than cores, switching often, share the
        pool: each result and the read counters are those of one compile."""
        from repro.models import resnet18

        def reads():
            return cache_info()["transform"].get("state_reads", 0)

        repro.manual_seed(0)
        model = resnet18(num_classes=10).eval()
        gm, x = symbolic_trace(model), repro.randn(1, 3, 32, 32)
        before = reads()
        # conv-bn folding moves the last bits: compare with one compile
        expected = fx_compile(gm, (x,), cache=False)(x).data
        one = reads() - before
        assert np.allclose(expected, model(x).data, atol=1e-5)
        results = [None] * 4

        def worker(i):   # one trace: tracing one model in two threads races
            results[i] = fx_compile(gm, (x,), cache=False)(x).data

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            _run_threads(4, worker)
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(r, expected) for r in results)
        assert reads() - before == 5 * one


@pytest.mark.parametrize("compile_program", [
    compile_to_vm, lambda gm: to_backend(gm, "trt").program],
    ids=["vm", "partition"])
def test_no_cache_pins_a_compiled_program(compile_program):
    """The VM and partition memos kept every program they compiled (with
    the weights it binds) until evicted; with them gone a program lives as
    long as its caller holds it, and ``cache_info`` lists no such stage."""
    program = weakref.ref(compile_program(
        symbolic_trace(nn.Sequential(nn.Linear(2, 2)).eval())))
    gc.collect()
    assert program() is None
    assert set(cache_info()) == {"codegen", "transform"}


def test_threads_tracing_at_once_get_the_single_threaded_trace():
    """4 threads × 3 traces of one ResNet-18 under a tiny switch interval,
    10 times: with the interceptor process-wide, about 3 of 12 raised
    "Proxy from a different trace leaked" and 1 returned another trace."""
    from repro.models import resnet18

    model = resnet18(num_classes=10)
    want = symbolic_trace(model).code
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(10):
            codes = [[] for _ in range(4)]

            def worker(i):
                for _ in range(3):
                    codes[i].append(symbolic_trace(model).code)

            _run_threads(4, worker)
            assert [c for per in codes for c in per] == [want] * 12
    finally:
        sys.setswitchinterval(interval)


class TestArtifactCache:
    def test_lru_eviction_order_and_on_evict(self):
        evicted = []
        cache = ArtifactCache(maxsize=2, on_evict=evicted.append)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1      # refreshes "a"
        cache.put("c", 3)               # evicts "b", the least recent
        assert evicted == [2]
        assert cache.get("b") is None
        cache.put("a", 10)              # replacement disposes the old value
        assert evicted == [2, 1]
        cache.clear()
        assert sorted(evicted) == [1, 2, 3, 10]
        assert cache.info() == {"hits": 0, "misses": 0, "size": 0,
                                "maxsize": 2}

    def test_none_is_a_cacheable_value(self):
        cache = ArtifactCache()
        builds = []
        for _ in range(3):
            assert cache.get_or_build("k", lambda: builds.append(1)) is None
        assert len(builds) == 1
        assert cache.info()["hits"] == 2

    def test_failed_build_stores_nothing_and_releases_the_key(self):
        cache = ArtifactCache()

        def boom():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError):
            cache.get_or_build("k", boom)
        assert len(cache) == 0
        assert cache.get_or_build("k", lambda: "ok") == "ok"  # no deadlock
        assert cache.info()["misses"] == 2

    def test_distinct_keys_build_concurrently(self):
        cache = ArtifactCache()
        inside = threading.Barrier(2)

        def worker(i):
            # Both builders must be running at once; a cache-wide build
            # lock would deadlock this barrier.
            cache.get_or_build(i, lambda: inside.wait(timeout=10))

        _run_threads(2, worker)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_child_forked_mid_build_with_a_held_lock_does_not_deadlock(self):
        """A process may be forked while other threads use the caches: a
        child must never inherit the bookkeeping lock or a key's flight
        lock in its locked state.  SIGALRM turns a child deadlock into a non-zero
        exit status instead of a hung test."""
        cache = ArtifactCache()
        held, release = threading.Event(), threading.Event()

        def hold_the_lock():
            with cache._lock:
                held.set()
                release.wait(timeout=30)

        def build_and_fork():
            holder = threading.Thread(target=hold_the_lock)
            holder.start()
            assert held.wait(timeout=10)
            pid = os.fork()     # another thread holds the bookkeeping lock
            if pid == 0:
                signal.alarm(20)
                ok = cache.get_or_build("k", lambda: "child") == "child"
                os._exit(0 if ok else 1)
            release.set()
            holder.join(timeout=10)
            return os.waitpid(pid, 0)[1]

        assert cache.get_or_build("k", build_and_fork) == 0

    def test_unknown_stage_is_an_error(self):
        with pytest.raises(KeyError):
            clear_caches("no-such-stage")


# -- reentrancy, through both code generators -----------------------------------


@pytest.mark.parametrize("executor", ["codegen", "vm"])
class TestCompiledReentrancy:
    def test_compiled_model_concurrent_exactness(self, executor):
        """End-to-end: a fused compiled model stays exact under an 8-way
        hammer (probabilistically corrupt with buffers shared across
        calls)."""

        class Mix(nn.Module):
            def __init__(self):
                super().__init__()
                self.l1 = nn.Linear(8, 8)
                self.l2 = nn.Linear(8, 8)

            def forward(self, x):
                t = F.sigmoid(F.relu(x * 1.1 + 0.2) * 0.9)
                t = self.l1(t)
                t = F.tanh(F.relu(t * 1.2 + 0.1) + 0.3)
                t = self.l2(t)
                return F.relu(t) * 1.01 + 0.01

        repro.manual_seed(3)
        model = Mix().eval()
        x0 = repro.randn(4, 8)
        compiled = fx_compile(model, (x0,), executor=executor)
        assert compiled.compile_report.fused_regions >= 2

        def worker(i):
            repro.manual_seed(100 + i)
            x = repro.randn(4, 8)
            expected = model(x).data
            for _ in range(100):
                assert np.allclose(compiled(x).data, expected, atol=1e-6)

        _run_threads(N_THREADS, worker)
