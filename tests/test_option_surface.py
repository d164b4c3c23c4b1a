"""The options each compile and serving entry point takes, pinned.

An option is a branch every caller pays for; one that only a test sets
keeps alive code no product path runs.  These lists are the whole
surface: adding an option means editing this file on purpose, and an
option that was taken away raises ``TypeError`` rather than being
swallowed by a catch-all.
"""

import dataclasses
import inspect

import pytest

import repro
from repro import fx
from repro.fx import Tracer, compile_to_vm
from repro.fx.passes import eliminate_common_subexpressions
from repro.fx.passes.pointwise_fuser import fuse_pointwise
from repro.serve import EngineCache, ServeConfig

SURFACE = {
    fx.compile: ["module", "example_inputs", "lint", "cache", "verify",
                 "executor"],
    fx.to_backend: ["model", "backend", "allow_fallback", "lint", "cache",
                    "verify", "executor"],
    compile_to_vm: ["gm"],
    eliminate_common_subexpressions: ["gm"],
    fuse_pointwise: ["gm"],
    Tracer.__init__: ["self"],
    EngineCache.__init__: ["self", "directory"],
}


@pytest.mark.parametrize("fn", list(SURFACE), ids=lambda fn: fn.__qualname__)
def test_parameters_are_pinned(fn):
    assert list(inspect.signature(fn).parameters) == SURFACE[fn]


def test_serve_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ServeConfig)] == [
        "batching", "max_batch_size", "workers", "cache_dir"]


class _Net(repro.nn.Module):
    def forward(self, x):
        return repro.relu(x) + 1.0


@pytest.mark.parametrize("call", [
    lambda m, x: fx.compile(m, (x,), fuse=False),
    lambda m, x: fx.compile(m, (x,), memory_planning=False),
    lambda m, x: fx.to_backend(m, "numpy", example_inputs=(x,)),
    lambda m, x: compile_to_vm(fx.symbolic_trace(m), validate_plan=False),
    lambda m, x: eliminate_common_subexpressions(fx.symbolic_trace(m),
                                                 dedupe_modules=True),
    lambda m, x: fuse_pointwise(fx.symbolic_trace(m), min_region_size=1),
    lambda m, x: Tracer(autowrap_functions=()),
    lambda m, x: EngineCache(max_memory_entries=2),
    lambda m, x: ServeConfig(backend="trt"),
    lambda m, x: ServeConfig(executor="codegen"),
    lambda m, x: ServeConfig(guards=False),
    lambda m, x: ServeConfig(record_batches=False),
], ids=["compile-fuse", "compile-memory_planning", "to_backend-example_inputs",
        "compile_to_vm-validate_plan", "cse-dedupe_modules",
        "fuse_pointwise-min_region_size", "Tracer-autowrap_functions",
        "EngineCache-max_memory_entries", "ServeConfig-backend",
        "ServeConfig-executor", "ServeConfig-guards", "ServeConfig-record_batches"])
def test_a_removed_option_is_a_type_error(call):
    with pytest.raises(TypeError):
        call(_Net(), repro.randn(2, 4))
