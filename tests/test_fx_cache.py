"""Cache traffic of a fixed script, stage by stage, against recorded numbers.

The expected values were measured at commit 511d1c2 — the last one with
seven hand-rolled caches — through its per-cache ``*_cache_info()``
functions, then the caches were folded into one
:class:`repro.fx.cache.ArtifactCache`.  Same keys, same hit pattern: a
stage whose numbers move here changed what it caches, not just where
(``EXPECTED`` says which rows have been re-recorded since, and why).

The script runs in a fresh interpreter because the counts include
once-per-process work (the rule library traces itself on first use).
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SCRIPT = r"""
import asyncio, json
import numpy as np
from repro import fx
from repro.models import resnet18
from repro.serve import InferenceServer, ServeConfig
from repro.tensor import Tensor


def snap():
    return {stage: [info["hits"], info["misses"]]
            for stage, info in fx.cache_info().items()}


np.random.seed(0)
model = resnet18().eval()
x = Tensor(np.random.randn(1, 3, 32, 32).astype(np.float32))
out = {}
for _ in range(2):
    fx.compile(fx.symbolic_trace(model), (x,))
out["compile"] = snap()
for _ in range(2):
    fx.compile_to_vm(fx.symbolic_trace(model))
out["compile_to_vm"] = snap()
for _ in range(2):
    fx.to_backend(fx.symbolic_trace(model), "numpy")
out["to_backend_numpy"] = snap()
for _ in range(2):
    fx.to_backend(fx.symbolic_trace(model), "trt")
out["to_backend_trt"] = snap()


async def serve():
    config = ServeConfig(batching=False)
    async with InferenceServer(config) as server:
        server.register("m", model)
        for batch in (1, 2, 4):
            xb = Tensor(np.random.randn(batch, 3, 32, 32).astype(np.float32))
            await server.infer("m", xb)
        return server.stats()["engine_cache"]

out["engine_cache"] = asyncio.run(serve())
out["serve"] = snap()
print(json.dumps(out))
"""

#: Cumulative ``[hits, misses]`` per stage after each step.
#: ``engine_cache`` is as recorded at 511d1c2.  The ``vm`` and
#: ``partition`` stages are gone (at 511d1c2 they read 1/1 and 1/1 after
#: ``serve``): their keys read the weights to save a compile that cost
#: less than the key.
#: ``codegen`` was re-recorded when its work became demand-driven (at
#: 511d1c2: 6/49 -> 8/49 -> 16/49 -> 22/49 -> 26/51): code is generated when
#: a ``forward`` or ``code`` is first used, and nothing in this script runs
#: a generated forward (serving replays VM programs), so the 51 sources
#: every ``recompile()`` used to build are never built.
#:
#: ``transform`` was re-recorded when the transform cache went from one
#: entry per pass to one per *run* of cacheable passes (every pipeline in
#: this script is one run), row by row:
#:
#: * ``compile`` — 4/6 -> 1/1: the first compile is one miss that stores
#:   one entry (it used to be six misses — five cacheable stages plus a
#:   warm rule-library stage that certified itself unchanged and was never
#:   stored; that stage is gone), the second is one hit (it used to hit
#:   four of nine stages).
#: * ``compile_to_vm`` — no pass pipeline: unchanged deltas.
#: * ``to_backend_numpy`` (no example inputs: five stages) — +8/+2 ->
#:   +1/+1: the first lowering used to replay ``dce``/``cse``/
#:   ``const_fold``/``fuse_conv_bn`` from the entries ``fx.compile`` left
#:   behind; prefix sharing between *different* pipelines is what the
#:   per-run key gave up, so it executes once, and the second lowering is
#:   one hit.
#: * ``to_backend_trt`` — +3/+1 -> +1/+1.
#: * ``serve`` — +4/+1 -> +1/+0: the server's one engine is
#:   ``fx.compile`` of the same model for the signature the ``compile``
#:   step stored: one hit.
#:
#: The ``analysis`` stage is gone (its last row read 10/3 after ``serve``):
#: an analysis is a plain function its caller runs once per graph state.
#:
#: ``codegen`` was re-recorded when fused kernels began sharing generated
#: code by body through this stage: the first compile fuses ResNet-18's
#: eight residual add+ReLU regions, four bodies (one per stage width), so
#: four misses and four hits; every later step restores or replays those
#: kernels and generates nothing (0/0 on every row before).  It was
#: re-recorded again when a ``Linear`` that no pointwise region takes became
#: a one-step kernel: ResNet-18's ``fc`` is a fifth body, one more miss
#: (4/4 on every row before).
EXPECTED = {
    "compile": {"codegen": [4, 5], "transform": [1, 1]},
    "compile_to_vm": {"codegen": [4, 5], "transform": [1, 1]},
    "to_backend_numpy": {"codegen": [4, 5], "transform": [2, 2]},
    "to_backend_trt": {"codegen": [4, 5], "transform": [3, 3]},
    "serve": {"codegen": [4, 5], "transform": [4, 3]},
    # three batch sizes, one engine: one build, two memory hits
    "engine_cache": {"hits": 2, "disk_hits": 0, "builds": 1, "stores": 0,
                     "stale": 0, "corrupt": 0, "size": 1},
}


def _run(script, *argv):
    """Run *script* in a fresh interpreter; its last stdout line as JSON."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traffic_matches_the_seven_cache_baseline():
    assert _run(SCRIPT) == EXPECTED


# -- weight traffic of a compile, counted ---------------------------------------

STATE_SCRIPT = r"""
import dataclasses, json
import numpy as np
from repro import fx
from repro.fx.state import TRANSFORM_CACHE
from repro.models import resnet18, resnet50
from repro.tensor import Tensor


def state(module):
    return [t.data for t in list(module.parameters()) + list(module.buffers())]


def reachable(obj):
    # what is reachable through an entry's fields
    yield obj
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.items())
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from reachable(item)


np.random.seed(0)
x = Tensor(np.random.randn(1, 3, 32, 32).astype(np.float32))
out = {}

model = resnet18().eval()
gm = fx.symbolic_trace(model)
out["state_tensors"] = len(state(gm))
compiled = fx.compile(gm, (x,))
out["cold"] = fx.cache_info()["transform"]
fx.compile(fx.symbolic_trace(model), (x,))
out["warm"] = fx.cache_info()["transform"]


def read_bytes(lower):
    before = fx.cache_info()["transform"].get("state_read_bytes", 0)
    lower()
    return fx.cache_info()["transform"].get("state_read_bytes", 0) - before


for name, lower in (("trt", lambda: fx.to_backend(model, "trt")),
                    ("vm", lambda: fx.compile(model, (x,), executor="vm"))):
    read_bytes(lower)
    out[f"warm_{name}_read_bytes"] = read_bytes(lower)

fx.clear_caches("transform")
model = resnet50().eval()
gm = fx.symbolic_trace(model)
before = fx.cache_info()["transform"]
compiled = fx.compile(gm, (x,))
after = fx.cache_info()["transform"]
out["cold_trace_bytes"] = sum(a.nbytes for a in state(gm))
out["cold_read_bytes"] = \
    after.get("state_read_bytes", 0) - before.get("state_read_bytes", 0)
out["cold_copied_bytes"] = \
    after["state_copied_bytes"] - before.get("state_copied_bytes", 0)
out["survivor_bytes"] = model.fc.weight.data.nbytes + model.fc.bias.data.nbytes
entries = list(TRANSFORM_CACHE._entries.values())
out["entries"] = len(entries)
out["state_mb"] = sum(a.nbytes for a in state(compiled)) / 2 ** 20
out["largest_bytes"] = max(len(o) for o in reachable(entries)
                          if isinstance(o, (bytes, bytearray)))
out["entry_arrays"] = sum(isinstance(o, np.ndarray) for o in reachable(entries))
# the compiled module's arrays are its own, frozen: none is the model's
out["result_owns_state"] = all(not a.flags.writeable for a in state(compiled)) \
    and not any(np.shares_memory(a, b)
                for a in state(compiled) for b in state(model))

gm = fx.symbolic_trace(model)
before = fx.cache_info()["transform"]
fx.compile(gm, (x,))
after = fx.cache_info()["transform"]
out["trace_bytes"] = sum(a.nbytes for a in state(gm))
out["warm_read_bytes"] = \
    after.get("state_read_bytes", 0) - before.get("state_read_bytes", 0)
out["warm_copied_bytes"] = \
    after.get("state_copied_bytes", 0) - before.get("state_copied_bytes", 0)
out["resnet50_vm_read_bytes"] = read_bytes(
    lambda: fx.compile(model, (x,), executor="vm"))
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def state_traffic():
    return _run(STATE_SCRIPT)


def test_compile_reads_each_tensor_once_and_stores_no_weights(state_traffic):
    out = state_traffic
    # The numpy pipeline's key is the graph's structure: no tensor is read,
    # cold or warm.  (One read per tensor of the trace, plus the exit check
    # of the two ``fc`` arrays, while the key hashed the bytes; 15 reads
    # per tensor at 580e887.)
    assert "state_reads" not in out["cold"]
    assert "state_reads" not in out["warm"]
    assert out["warm"]["hits"] > 0

    # ResNet-50: ~90 MB of state.  The eight stages are one run, so one
    # entry (four at 517a305: one per cacheable stage, pinning the 97.7 MB
    # private copy as well as the 94 MB of fused arrays); it holds no
    # weights, as bytes or as arrays: the structure, and where each array
    # of the end state comes from.  The compiled module owns its arrays.
    assert out["entries"] == 1 and out["state_mb"] > 80
    assert out["largest_bytes"] < 2 ** 20
    assert out["entry_arrays"] == 0
    assert out["result_owns_state"]
    # A warm compile reads no weight byte; it copies the ``fc`` arrays no
    # pass replaced, as the cold one did.
    assert out["warm_read_bytes"] == 0
    assert out["warm_copied_bytes"] == out["survivor_bytes"]


def test_cold_compile_reads_its_input_once_and_copies_only_survivors(
        state_traffic):
    # A cold ResNet-50 ``fx.compile(trace)`` reads no byte of its input:
    # the key is the structure, the passes read the arrays through
    # read-only views, the fold's arrays are frozen unread.  The result
    # copies the two ``fc`` arrays no pass replaced (7.8 MiB); the exit
    # check compares them with their sources, unhashed.  (187.6 MiB read
    # and 97.7 MiB copied before the snapshot shared what it could; 105.5
    # MiB read while the key hashed the bytes.)
    out = state_traffic
    assert out["cold_copied_bytes"] == out["survivor_bytes"] == 8_196_000
    assert out["cold_read_bytes"] == 0
    # Warm lowerings of ResNet-18 read no byte either: no VM or partition
    # memo keys its compile on the weights (the partition key read each
    # array of the rebuilt end state while it did), and neither does
    # ``fx.compile(resnet50, executor="vm")``.
    assert out["warm_vm_read_bytes"] == 0
    assert out["warm_trt_read_bytes"] == 0
    assert out["resnet50_vm_read_bytes"] == 0


MODEL_SCRIPT = r"""
import json
import numpy as np
from repro import fx
from repro.fx import Graph
from repro.models import resnet50
from repro.tensor import Tensor

hashes = []
structural_hash = Graph.structural_hash


def counted_hash(self, *args, **kwargs):
    hashes.append(1)
    return structural_hash(self, *args, **kwargs)


Graph.structural_hash = counted_hash
np.random.seed(0)
model = resnet50().eval()
x = Tensor(np.random.randn(1, 3, 32, 32).astype(np.float32))
fx.compile(model, (x,))
print(json.dumps({
    "hashes": len(hashes),
    "read_bytes": fx.cache_info()["transform"].get("state_read_bytes", 0),
    "model_bytes": sum(t.data.nbytes for t in model.state_dict().values()),
    "survivor_bytes": model.fc.weight.data.nbytes + model.fc.bias.data.nbytes,
}))
"""


def test_cold_compile_of_a_model_reads_its_weights_once():
    # ``fx.compile(model)`` gives its trace up: the passes run on it in
    # place, over the model's own writeable arrays.  The key is the
    # graph's structure, so no digest is handed out, and none is checked
    # on exit: the compile reads no weight byte.  (195.4 MiB while the
    # analysis cache hashed the graph twice more to key its lookups; the
    # model's bytes plus the ``fc`` exit check while the key hashed them.)
    out = _run(MODEL_SCRIPT)
    assert out["read_bytes"] == 0
    assert out["hashes"] == 1


# -- bookkeeping of a structure-heavy compile, counted ---------------------------

WORK_SCRIPT = r"""
import json, sys
import repro
import repro.functional as F
from repro import fx, nn
from repro.fx import Graph
from repro.fx.analysis import PassVerifier

EXTRA = int(sys.argv[1])


class Block(nn.Module):
    # One of each thing a cleanup pass exists for; *extra* adds two ops
    # no pass removes (relu(relu(t)), t * 1).
    def __init__(self, width, extra):
        super().__init__()
        self.fc = nn.Linear(width, width)
        self.register_buffer("scale", repro.randn(width))
        self.extra = extra

    def forward(self, x):
        h = self.fc(x)
        a = F.relu(h) * 1.01 + 0.1
        b = F.relu(h) * 1.01 + 0.1
        dead = F.sigmoid(h) * 2.0  # noqa: F841
        k = F.tanh(self.scale) * 0.5 + 1.0
        t = F.maximum(a, b * 0.5)
        if self.extra:
            t = F.relu(F.relu(t)) * 1
        return F.tanh(t * k) + x


counts = {"structural_hash": 0, "stages": 0}
structural_hash, after_pass = Graph.structural_hash, PassVerifier.after_pass


def counted_hash(self, *args, **kwargs):
    counts["structural_hash"] += 1
    return structural_hash(self, *args, **kwargs)


def counted_after_pass(self, name, *args, **kwargs):
    counts["stages"] += 1
    return after_pass(self, name, *args, **kwargs)


Graph.structural_hash = counted_hash
PassVerifier.after_pass = counted_after_pass


def traffic():
    return {stage: info["hits"] + info["misses"]
            for stage, info in fx.cache_info().items()}


repro.manual_seed(0)
model = nn.Sequential(
    *[Block(16, extra=i < EXTRA) for i in range(32)]).eval()
x = repro.randn(4, 16)
gm = fx.symbolic_trace(model)
before = traffic()
compiled = fx.compile(gm, (x,))
compiled_at, compile_hashes = traffic(), counts["structural_hash"]
y = compiled(x)
called_at = traffic()
out = dict(counts)
out["compile_hashes"] = compile_hashes
out["nodes"] = [len(gm.graph), len(compiled.graph)]
out["compile"] = {s: compiled_at[s] - before[s] for s in before}
out["first_call"] = {s: called_at[s] - compiled_at[s] for s in before}
out["codegen_misses"] = fx.cache_info()["codegen"]["misses"]
out["exact"] = bool(repro.equal(y, model(x)))
print(json.dumps(out))
"""


def test_a_compile_is_one_hash_and_generates_no_code():
    few, many = _run(WORK_SCRIPT, "4"), _run(WORK_SCRIPT, "8")
    assert few["exact"] and many["exact"]
    # every stage is verified on its own (six stages: the ``shape_refresh``
    # that made nine re-stamped metadata every node-creating pass now
    # carries forward itself, and the rule-library and memory-planning
    # stages are gone) ...
    assert few["stages"] == many["stages"] == 6
    # ... and the graph states the stages leave behind are analysed
    # directly, never hashed, however big the graph (76 hashes with 4
    # extra blocks and 84 with 8 when an analysis cache keyed every
    # state).  The one hash is the transform key: the analysis cache's
    # lookups cost two more until it went.
    assert few["compile_hashes"] == many["compile_hashes"] == 1
    # and the first call one more, the codegen key of the forward it runs
    assert few["structural_hash"] == many["structural_hash"] == 2
    # one lookup: the stages are one run of the transform cache (five at
    # 517a305, one per cacheable stage)
    assert few["compile"]["transform"] == many["compile"]["transform"] == 1
    for run in (few, many):
        # ~500 -> 130 nodes through six stages (98 before each fused
        # Linear's weight and bias became get_attr nodes) without generating
        # a forward; the first call generates the one forward that runs.
        # The 32 fused kernels look their code up in the codegen stage by
        # body: a block with the extra ops and one without are two bodies,
        # so two compiles of kernel source (32 before kernels shared them).
        assert run["nodes"][0] > 450 and run["nodes"][1] < 140
        assert run["compile"]["codegen"] == 32
        assert run["first_call"]["codegen"] == 1
        assert run["codegen_misses"] == 1 + 2
