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
for _ in range(2):   # numpy is not cacheable; trt exercises the partition memo
    fx.to_backend(fx.symbolic_trace(model), "trt")
out["to_backend_trt"] = snap()


async def serve():
    config = ServeConfig(guards=True, batching=False)
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

#: Cumulative ``[hits, misses]`` per stage after each step.  ``vm``,
#: ``partition`` and ``engine_cache`` are as recorded at 511d1c2.
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
#:   warm ``rules`` that returned ``Unchanged`` and was never stored), the
#:   second is one hit (it used to hit four of nine stages).
#: * ``compile_to_vm`` — no pass pipeline: unchanged deltas.
#: * ``to_backend_numpy`` (no example inputs: five stages) — +8/+2 ->
#:   +1/+1: the first lowering used to replay ``dce``/``cse``/
#:   ``const_fold``/``fuse_conv_bn`` from the entries ``fx.compile`` left
#:   behind; prefix sharing between *different* pipelines is what the
#:   per-run key gave up, so it executes once, and the second lowering is
#:   one hit.
#: * ``to_backend_trt`` — +3/+1 -> +1/+1.
#: * ``serve`` — +4/+1 -> +1/+0: the server's one guarded engine is
#:   ``fx.compile`` of the same model for the signature the ``compile``
#:   step stored: one hit.
#:
#: The ``analysis`` stage is gone (its last row read 10/3 after ``serve``):
#: analyses are memoised per module by their ``AnalysisContext``.
EXPECTED = {
    "compile": {"codegen": [0, 0], "transform": [1, 1],
                "vm": [0, 0], "partition": [0, 0]},
    "compile_to_vm": {"codegen": [0, 0], "transform": [1, 1],
                      "vm": [1, 1], "partition": [0, 0]},
    "to_backend_numpy": {"codegen": [0, 0], "transform": [2, 2],
                         "vm": [1, 1], "partition": [0, 0]},
    "to_backend_trt": {"codegen": [0, 0], "transform": [3, 3],
                       "vm": [1, 1], "partition": [1, 1]},
    "serve": {"codegen": [0, 0], "transform": [4, 3],
              "vm": [1, 1], "partition": [1, 1]},
    # three batch sizes, one guarded engine: one build, two memory hits
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


def largest_bytes(obj):
    # the biggest ``bytes`` object reachable through an entry's fields
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if dataclasses.is_dataclass(obj):
        obj = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    if isinstance(obj, dict):
        obj = list(obj.items())
    if isinstance(obj, (tuple, list)):
        return max(map(largest_bytes, obj), default=0)
    return 0


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
    before = fx.cache_info()["transform"]["state_read_bytes"]
    lower()
    return fx.cache_info()["transform"]["state_read_bytes"] - before


out["model_bytes"] = sum(a.nbytes for a in state(model))
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
out["cold_read_bytes"] = after["state_read_bytes"] - before["state_read_bytes"]
out["cold_copied_bytes"] = \
    after["state_copied_bytes"] - before.get("state_copied_bytes", 0)
out["survivor_bytes"] = model.fc.weight.data.nbytes + model.fc.bias.data.nbytes
entries = list(TRANSFORM_CACHE._entries.values())
out["entries"] = len(entries)
out["state_mb"] = sum(a.nbytes for a in state(compiled)) / 2 ** 20
out["pinned_mb"] = fx.cache_info()["transform"]["pinned_mb"]
out["largest_bytes"] = max(map(largest_bytes, entries))
# digests: the two ``fc`` copies carry the trace's; what the passes created
# has none until something asks (nothing in a compile does)
out["digests_read"] = sum(k.digest is not None for k in entries[0].snapshot.known)
# the compiled module's arrays are read-only views of the entry's own
out["entry_owns_state"] = all(not a.flags.writeable for a in state(compiled)) \
    and {id(a.base) for a in state(compiled)} \
    == {id(a) for a in entries[0].snapshot.arrays}

gm = fx.symbolic_trace(model)
before = fx.cache_info()["transform"]
fx.compile(gm, (x,))
after = fx.cache_info()["transform"]
out["trace_bytes"] = sum(a.nbytes for a in state(gm))
out["warm_read_bytes"] = after["state_read_bytes"] - before["state_read_bytes"]
out["warm_copied_bytes"] = \
    after.get("state_copied_bytes", 0) - before.get("state_copied_bytes", 0)
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def state_traffic():
    return _run(STATE_SCRIPT)


def test_compile_reads_each_tensor_once_and_stores_no_weights(state_traffic):
    out = state_traffic
    # One read per tensor of the trace, for the key, plus the exit check of
    # the two ``fc`` arrays no pass replaced; nothing else hashes the graph,
    # so the scope never hands a digest out twice.  (15 reads per tensor at
    # 580e887; more reuses than reads while the analysis cache re-hashed
    # the graph to key its lookups.)
    assert out["cold"]["state_reads"] == out["state_tensors"] + 2
    assert "state_reuses" not in out["cold"]
    assert out["warm"]["hits"] > 0

    # ResNet-50: ~90 MB of state.  The eight stages are one run, so one
    # entry (four at 517a305: one per cacheable stage, pinning the 97.7 MB
    # private copy as well as the 94 MB of fused arrays); it holds no
    # weights as bytes, only the end state's arrays, frozen, which are all
    # the cache keeps alive and what every compiled module reads.
    assert out["entries"] == 1 and out["state_mb"] > 80
    assert out["largest_bytes"] < 2 ** 20
    assert out["digests_read"] == 2
    assert out["entry_owns_state"]
    assert abs(out["pinned_mb"] - out["state_mb"]) < 0.1
    # A warm compile hashes the trace to key its lookup and does nothing
    # else with weight bytes: the restore neither copies nor re-hashes.
    assert out["warm_read_bytes"] == out["trace_bytes"]
    assert out["warm_copied_bytes"] == 0


def test_cold_compile_reads_its_input_once_and_copies_only_survivors(
        state_traffic):
    # A cold ResNet-50 ``fx.compile(trace)``: the key reads the trace's
    # bytes; the passes read them through read-only views and need no exit
    # check; the end state is frozen unhashed.  The only other bytes read
    # are the exit check of the two ``fc`` arrays no pass replaced, which
    # the entry copied (7.8 MiB) and the caller could have written
    # meanwhile.  (187.6 MiB read and 97.7 MiB copied before this was so.)
    out = state_traffic
    assert out["cold_copied_bytes"] == out["survivor_bytes"] == 8_196_000
    assert out["cold_read_bytes"] \
        == out["cold_trace_bytes"] + out["survivor_bytes"]
    # Warm lowerings of ResNet-18 read the input hash and nothing else:
    # digests of the restored arrays the partition or VM key asks for were
    # read on first demand and are kept with the entry's frozen arrays.
    assert out["warm_trt_read_bytes"] == out["model_bytes"]
    assert out["warm_vm_read_bytes"] == out["model_bytes"]


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
    "read_bytes": fx.cache_info()["transform"]["state_read_bytes"],
    "model_bytes": sum(t.data.nbytes for t in model.state_dict().values()),
    "survivor_bytes": model.fc.weight.data.nbytes + model.fc.bias.data.nbytes,
}))
"""


def test_cold_compile_of_a_model_reads_its_weights_once():
    # ``fx.compile(model)`` gives its trace up: the passes run on it in
    # place, over the model's own writeable arrays, so the state scope
    # re-reads on exit every digest it handed out twice.  Only the
    # transform key hashes the graph, so the only such digests are the two
    # ``fc`` arrays the entry copied: the compile reads what
    # ``fx.compile(trace)`` reads.  (195.4 MiB while the analysis cache
    # hashed the graph twice more to key its lookups, which made every
    # weight's digest a served one.)
    out = _run(MODEL_SCRIPT)
    assert out["read_bytes"] <= 106 * 2 ** 20
    assert out["read_bytes"] == out["model_bytes"] + out["survivor_bytes"]
    assert out["hashes"] == 1


# -- bookkeeping of a structure-heavy compile, counted ---------------------------

WORK_SCRIPT = r"""
import json, sys
import repro
import repro.functional as F
from repro import fx, nn
from repro.fx import Graph
from repro.fx.analysis import PassVerifier

BAITED = int(sys.argv[1])


class Block(nn.Module):
    # One of each thing a cleanup pass exists for; *bait* adds two rule
    # firings (relu(relu(t)), t * 1).
    def __init__(self, width, bait):
        super().__init__()
        self.fc = nn.Linear(width, width)
        self.register_buffer("scale", repro.randn(width))
        self.bait = bait

    def forward(self, x):
        h = self.fc(x)
        a = F.relu(h) * 1.01 + 0.1
        b = F.relu(h) * 1.01 + 0.1
        dead = F.sigmoid(h) * 2.0  # noqa: F841
        k = F.tanh(self.scale) * 0.5 + 1.0
        t = F.maximum(a, b * 0.5)
        if self.bait:
            t = F.relu(F.relu(t)) * 1
        return F.tanh(t * k) + x


counts = {"structural_hash": 0, "firings": 0, "stages": 0}
structural_hash, after_pass = Graph.structural_hash, PassVerifier.after_pass


def counted_hash(self, *args, **kwargs):
    counts["structural_hash"] += 1
    return structural_hash(self, *args, **kwargs)


def counted_after_pass(self, name, *args, **kwargs):
    counts["firings" if name.startswith("rule:") else "stages"] += 1
    return after_pass(self, name, *args, **kwargs)


Graph.structural_hash = counted_hash
PassVerifier.after_pass = counted_after_pass


def traffic():
    return {stage: info["hits"] + info["misses"]
            for stage, info in fx.cache_info().items()}


repro.manual_seed(0)
model = nn.Sequential(
    *[Block(16, bait=i < BAITED) for i in range(32)]).eval()
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


def test_firings_buy_no_hashes_and_compile_generates_no_code():
    few, many = _run(WORK_SCRIPT, "4"), _run(WORK_SCRIPT, "8")
    assert few["exact"] and many["exact"]
    # every firing is still verified on its own ... (eight stages: the
    # ``shape_refresh`` that made nine re-stamped metadata every node-
    # creating pass now carries forward itself)
    assert (few["firings"], many["firings"]) == (8, 16)
    assert few["stages"] == many["stages"] == 8
    # ... but a firing costs what it touches: the graph states it leaves
    # behind are analysed directly, never hashed (76 hashes with 4 baited
    # blocks and 84 with 8 when an analysis cache keyed every state).  The
    # one hash is the transform key: the analysis cache's lookups cost two
    # more until it went.
    assert few["compile_hashes"] == many["compile_hashes"] == 1
    # and the first call one more, the codegen key of the forward it runs
    assert few["structural_hash"] == many["structural_hash"] == 2
    # one lookup: the stages are one run of the transform cache (five at
    # 517a305, one per cacheable stage)
    assert few["compile"]["transform"] == many["compile"]["transform"] == 1
    for run in (few, many):
        # ~500 -> 98 nodes through nine stages without generating source
        # once; the first call generates the one forward that runs.
        assert run["nodes"][0] > 450 and run["nodes"][1] < 120
        assert run["compile"]["codegen"] == 0
        assert run["first_call"]["codegen"] == 1
        assert run["codegen_misses"] == 1
