"""What ``import repro`` loads, each check in a fresh interpreter.

The packages import eagerly only what trace -> compile -> forward calls;
every other public name loads on first access (``repro._lazy.attach``).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: Modules a cold trace -> compile -> forward never calls, so ``import repro``
#: leaves them (and every module under them) unloaded.
DEFERRED = [
    "repro.bench",
    "repro.jit",
    "repro.quant",
    "repro.trt",
    "repro.models.deep_recommender",
    "repro.models.learning_to_paint",
    "repro.models.simple",
    "repro.models.transformer",
    "repro.fx.interpreter",
    "repro.fx.subgraph_rewriter",
    "repro.fx.testing",
    "repro.fx.vm",
    "repro.fx.analysis.breaks",
    "repro.fx.backends.eager",
    "repro.fx.passes.cost_model",
    "repro.fx.passes.graph_drawer",
    "repro.fx.passes.net_min",
    "repro.fx.passes.profiler",
    "repro.fx.passes.scheduler",
    "repro.fx.passes.split_module",
]

PACKAGES = ["repro", "repro.fx", "repro.fx.passes", "repro.fx.analysis",
            "repro.fx.backends", "repro.models"]


def _run(script: str, *argv: str):
    """Run *script* in a fresh interpreter; its last stdout line as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _loaded_under(loaded, names):
    return sorted(m for m in loaded
                  if any(m == d or m.startswith(d + ".") for d in names))


def test_import_repro_loads_no_deferred_module():
    loaded = _run(
        "import json, sys\n"
        "import repro\n"
        "from repro import fx\n"
        "from repro.models import resnet50\n"
        "print(json.dumps(sorted(sys.modules)))\n")
    assert _loaded_under(loaded, DEFERRED) == []
    assert "repro.models.resnet" in loaded


def test_every_deferred_module_exists():
    loaded = _run(
        "import importlib, json, sys\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(sys.modules)))\n", *DEFERRED)
    assert set(DEFERRED) <= set(loaded)


COLD_JOURNEY = r"""
import json, sys
import numpy as np
import repro, repro.functional as F
from repro import fx, nn

class M(nn.Module):
    def __init__(self):
        super().__init__()
        self.conv = nn.Conv2d(3, 4, 3, padding=1)
        self.bn = nn.BatchNorm2d(4)
        self.fc = nn.Linear(4 * 6 * 6, 5)

    def forward(self, x):
        y = F.relu(self.bn(self.conv(x)))
        return F.sigmoid(self.fc(F.flatten(y, 1)) * 2.0 + 1.0)

repro.manual_seed(0)
model, x = M().eval(), repro.randn(2, 3, 6, 6)
expected = model(x).data
before = set(sys.modules)
compiled = fx.compile(fx.symbolic_trace(model), (x,), verify=True)
out = compiled(x).data
new = sorted(m for m in set(sys.modules) - before if m.startswith("repro"))
fused = sum(type(n.target).__name__ == "FusedKernel"
            for n in compiled.graph.nodes)
print(json.dumps({"new": new, "close": bool(np.allclose(out, expected, atol=1e-5)),
                  "fused": fused}))
"""


def test_a_cold_compile_imports_no_repro_module():
    """Nothing the timed window of a cold op calls is loaded inside it."""
    result = _run(COLD_JOURNEY)
    assert result["close"] and result["fused"] >= 1
    assert result["new"] == []


SURFACE = r"""
import importlib, json, sys, types
import repro
unlisted = []
for package in sys.argv[1:]:
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", ["bench", "jit", "models", "quant", "trt"])
    listed = set(dir(module))
    for name in exported:
        getattr(module, name)
        if name not in listed:
            unlisted.append(f"{package}.{name}")
# A submodule imported by its full name (as an unpickler does) must not hide
# the package's export of the same name.
import repro.fx.passes.split_module, repro.models.deep_recommender
from repro.fx.passes import split_module
from repro.models import deep_recommender
shadowed = [isinstance(f, types.ModuleType) for f in (split_module, deep_recommender)]
print(json.dumps({"unlisted": unlisted, "shadowed": shadowed}))
"""


def test_every_exported_name_resolves_and_is_listed():
    result = _run(SURFACE, *PACKAGES)
    assert result["unlisted"] == []
    assert result["shadowed"] == [False, False]


def test_an_unknown_name_is_an_attribute_error():
    result = _run(
        "import json\n"
        "import repro.fx.passes as passes\n"
        "try:\n"
        "    passes.no_such_pass\n"
        "except AttributeError as exc:\n"
        "    print(json.dumps(str(exc)))\n")
    assert result == "module 'repro.fx.passes' has no attribute 'no_such_pass'"


PICKLE = r"""
import pickle, sys
import numpy as np
import repro
from repro import fx, nn

repro.manual_seed(0)
model = nn.Sequential(nn.Linear(6, 8), nn.ReLU(), nn.Linear(8, 3)).eval()
x = repro.randn(4, 6)
gm = fx.symbolic_trace(model)
with open(sys.argv[1], "wb") as f:
    pickle.dump((gm, fx.compile_to_vm(gm), x), f)
np.save(sys.argv[2], model(x).data)
print("{}")
"""

UNPICKLE = r"""
import json, pickle, sys
import numpy as np
with open(sys.argv[1], "rb") as f:
    gm, program, x = pickle.load(f)
expected = np.load(sys.argv[2])
print(json.dumps([bool(np.allclose(gm(x).data, expected)),
                  bool(np.allclose(program.run(x).data, expected))]))
"""


def test_pickles_load_in_a_fresh_interpreter(tmp_path):
    """A GraphModule and a VMProgram pickled in one process load in one that
    has imported nothing of ``repro`` before the unpickler asks for it."""
    blob, expected = tmp_path / "blob.pkl", tmp_path / "expected.npy"
    _run(PICKLE, str(blob), str(expected))
    assert _run(UNPICKLE, str(blob), str(expected)) == [True, True]
