"""The committed BENCHMARK.json, the driver's limits on it, and the
harness's import discipline."""

import ast
import json
import os
import re

import bootstrap
import spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_committed_benchmark_json_is_what_spec_defines():
    with open(os.path.join(bootstrap.REPO_ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == spec.benchmark_json()


def test_spec_is_within_the_drivers_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/ledger"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [w["name"] for w in doc["workloads"]] + \
        [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in doc["end_to_end"])}]
    assert len(json.dumps(doc)) < 64 * 1024
    # 4 + 22 runs per workload must fit the driver's 3420 s
    assert len(doc["workloads"]) == 7


def harness_sources():
    for name in sorted(os.listdir(bootstrap.LEDGER_DIR)):
        if name.endswith(".py"):
            path = os.path.join(bootstrap.LEDGER_DIR, name)
            with open(path) as f:
                yield name, f.read()


def test_harness_uses_only_public_names_of_the_program():
    forbidden_modules = ("repro.bench", "repro.serve.smoke",
                         "repro.fx.testing")
    for name, source in harness_sources():
        assert not re.search(r"clear_\w*cache", source), name
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module:
                modules = [node.module]
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
                imported = []
            elif isinstance(node, ast.Attribute):
                # a private attribute may be touched on ``self`` only
                # (dunders are public protocol; os._exit is the stdlib's)
                attr = node.attr
                if attr.startswith("_") and not attr.startswith("__"):
                    base = node.value
                    owner = base.id if isinstance(base, ast.Name) else None
                    assert owner == "self" or (owner, attr) == \
                        ("os", "_exit"), f"{name}: .{attr}"
                continue
            else:
                continue
            for module in modules:
                assert not module.startswith(forbidden_modules), \
                    f"{name}: imports {module}"
                if module.split(".")[0] == "repro":
                    assert not any(part.startswith("_")
                                   for part in module.split(".")), name
                    assert not any(i.startswith("_") for i in imported), \
                        f"{name}: imports a private name from {module}"


def test_end_to_end_metrics_use_only_the_front_door():
    """workloads.py — the only file end-to-end numbers come from — may
    import nothing of the program beyond capture, compile and serve."""
    with open(os.path.join(bootstrap.LEDGER_DIR, "workloads.py")) as f:
        tree = ast.parse(f.read())
    seen = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("repro"):
            seen.update((node.module, a.name) for a in node.names)
    assert seen == {("repro", "fx"), ("repro.serve", "InferenceServer"),
                    ("repro.serve", "ServeConfig")}


def test_readme_names_every_workload_and_metric():
    with open(os.path.join(bootstrap.LEDGER_DIR, "README.md")) as f:
        readme = f.read()
    doc = spec.benchmark_json()
    for row in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]:
        assert f"`{row['name']}`" in readme, row["name"]
    for metric in doc["end_to_end"]:
        assert f"| `{metric['name']}` | {metric['unit']} | " \
            f"{metric['better']} | {metric['bound']:.2f} |" in readme
