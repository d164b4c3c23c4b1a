"""Cache traffic of a fixed script, stage by stage, against recorded numbers.

The expected values were measured at commit 511d1c2 — the last one with
seven hand-rolled caches — through its per-cache ``*_cache_info()``
functions, then the caches were folded into one
:class:`repro.fx.cache.ArtifactCache`.  Same keys, same hit pattern: a
stage whose numbers move here changed what it caches, not just where.

The script runs in a fresh interpreter because the counts include
once-per-process work (the rule library traces itself on first use).
"""

import json
import os
import subprocess
import sys

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

#: Cumulative ``[hits, misses]`` per stage after each step, at 511d1c2.
EXPECTED = {
    "compile": {"codegen": [6, 49], "transform": [4, 6],
                "analysis": [33, 9], "vm": [0, 0], "partition": [0, 0]},
    "compile_to_vm": {"codegen": [8, 49], "transform": [4, 6],
                      "analysis": [33, 9], "vm": [1, 1], "partition": [0, 0]},
    "to_backend_numpy": {"codegen": [16, 49], "transform": [12, 8],
                         "analysis": [41, 9], "vm": [1, 1],
                         "partition": [0, 0]},
    "to_backend_trt": {"codegen": [22, 49], "transform": [15, 9],
                       "analysis": [56, 9], "vm": [1, 1],
                       "partition": [1, 1]},
    "serve": {"codegen": [26, 51], "transform": [19, 10],
              "analysis": [68, 9], "vm": [1, 1], "partition": [1, 1]},
    # three batch sizes, one guarded engine: one build, two memory hits
    "engine_cache": {"hits": 2, "disk_hits": 0, "builds": 1, "stores": 0,
                     "stale": 0, "corrupt": 0, "size": 1},
}


def test_traffic_matches_the_seven_cache_baseline():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == EXPECTED
