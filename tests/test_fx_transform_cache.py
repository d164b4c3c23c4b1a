"""The transform cache at run granularity.

One entry per run of consecutive cacheable passes, keyed by everything the
run read and never holding an array; a run that cannot be keyed on
structure executes uncached and says why; a replayed compile is one hash
and one restore; the caller's module is never touched; a replay is
indistinguishable from a build.  The work tests count calls, reads and
bytes — never time.
"""

import dataclasses
import operator
import re
import sys
import threading

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import fx, nn
from repro.fx import (ArtifactCache, UnstableHashError, cache_info,
                      clear_caches, symbolic_trace)
from repro.fx.backends import NumpyBackend, to_backend
from repro.fx.backends.numpy_backend import _shape_prop
from repro.fx.passes import (FusedKernel, PassError, PassManager, ShapeProp,
                             Specialized, eliminate_common_subexpressions,
                             eliminate_dead_code, fold_constants,
                             fuse_pointwise)
from repro.fx.passes import pass_manager as pm_module
from repro.fx.passes.pass_manager import RunKey, _pass_identity
from repro.fx.state import TRANSFORM_CACHE
from repro.models import (DeepRecommender, LearningToPaintActor, MLP,
                          SimpleCNN, resnet18)
from repro.tensor import Tensor


def same_bits(a: Tensor, b: Tensor) -> bool:
    return a.data.dtype == b.data.dtype and a.data.shape == b.data.shape \
        and a.data.tobytes() == b.data.tobytes()


def arrays(module):
    return [t.data for t in list(module.parameters()) + list(module.buffers())]


class Net(nn.Module):
    """conv-bn folding, two fused regions, and
    a weight big enough (2 MB) that arrays, not Python objects, are what a
    compile allocates."""

    def __init__(self):
        super().__init__()
        self.conv = nn.Conv2d(3, 8, 3, padding=1)
        self.bn = nn.BatchNorm2d(8)
        self.fc = nn.Linear(8 * 16 * 16, 256)

    def forward(self, x):
        h = F.relu(self.bn(self.conv(x)))
        h = F.sigmoid(h * 2.0) + 0.5
        h = self.fc(h.flatten(1))
        return F.tanh(h * 0.5) + 1.0


@pytest.fixture
def net():
    repro.manual_seed(0)
    clear_caches("transform")
    return Net().eval(), repro.randn(2, 3, 16, 16)


# -- a key covers everything its run read ---------------------------------------

class DivByOne(nn.Module):
    def forward(self, x):
        return F.relu(x / 1)


class WhereSame(nn.Module):
    def forward(self, c, x):
        return F.where(c, x, x) + 1.0


def _ones(shape, dtype):
    return Tensor(np.ones(shape, dtype=dtype))


def drop_identities(gm):
    """``x / 1 -> x`` and ``where(c, x, x) -> x``, each only where the
    ``tensor_meta`` on the call says its result is ``x``'s: int64 / 1 is
    float64, and a ``c`` that broadcasts ``x`` makes the result bigger.  A
    user pass: a run with it in executes uncached, so no replay of it can
    be stale."""
    for node in list(gm.graph.nodes):
        if node.target is operator.truediv and node.args[1:] == (1,) \
                and type(node.args[1]) is int:
            x = node.args[0]
        elif node.target is F.where and node.args[1] is node.args[2]:
            x = node.args[1]
        else:
            continue
        have, want = x.meta["tensor_meta"], node.meta["tensor_meta"]
        if (have.shape, have.dtype) == (want.shape, want.dtype):
            node.replace_all_uses_with(x)
            gm.graph.erase_node(node)
    gm.recompile()
    return gm


class DropsIdentities(NumpyBackend):
    """The ``"numpy"`` pipeline with :func:`drop_identities` after its
    shape stage."""

    def preferred_passes(self, gm):
        shape_stage, *rest = super().preferred_passes(gm)
        return [shape_stage, ("drop_identities", drop_identities), *rest]


def compile_dropping_identities(model, inputs, cache=True):
    return to_backend(model, DropsIdentities(inputs), cache=cache)


#: model, first signature, second signature: the second makes
#: :func:`drop_identities` keep what the first let it drop.
STALE = {
    "dtype": (DivByOne,
              (Tensor(np.array([[3., -2.]], dtype=np.float32)),),
              (Tensor(np.array([[3, -2]], dtype=np.int64)),)),
    "shape": (WhereSame,
              (_ones((1, 4), bool), _ones((1, 4), np.float32)),
              (_ones((3, 4), bool), _ones((1, 4), np.float32))),
}


@pytest.mark.parametrize("case", sorted(STALE))
def test_second_signature_is_not_served_the_first_ones_rewrites(case):
    cls, first, second = STALE[case]
    model = cls().eval()
    clear_caches("transform")
    dropped = compile_dropping_identities(model, first)
    assert len(dropped.graph) < len(symbolic_trace(model).graph)
    compiled = compile_dropping_identities(model, second)
    assert compiled.backend_report.transform_misses == [
        ("uncached", "user pass tests.test_fx_transform_cache.drop_identities")]
    assert cache_info()["transform"]["size"] == 0
    got, want = compiled(*second), model(*second)
    assert same_bits(got, want)
    assert same_bits(got, compile_dropping_identities(model, second, cache=False)(*second))
    if case == "dtype":
        assert got.data.dtype == np.float64 and got.data.tolist() == [[3., 0.]]
    else:
        assert tuple(got.shape) == (3, 4)


class FusedIntermediate(nn.Module):
    """A fused region whose value only a matmul reads: fusion specialises
    its kernel on the shape and dtype ``tensor_meta`` says."""

    def forward(self, x):
        return F.matmul(F.relu(x * 2.0 + 1.0), x.T)


#: first and second signature of :class:`FusedIntermediate`: a replay
#: of the first's fusion would serve the second a kernel built for another
#: signature.
SIGNATURES = {
    "dtype": ((repro.randn(2, 4),), (repro.randn(2, 4).double(),)),
    "shape": ((repro.randn(2, 4),), (repro.randn(3, 4),)),
}


@pytest.mark.parametrize("case", sorted(SIGNATURES))
def test_hand_built_pipeline_is_protected_by_the_meta_in_the_hash(case):
    # The direct-user path: a closure over the inputs stamps shapes (and
    # executes every time), the fusion after it is cached — and keyed by a
    # hash that includes what the closure stamped.
    first, second = SIGNATURES[case]
    model = FusedIntermediate()
    cache = ArtifactCache()

    def run(inputs):
        def shape_stage(gm):
            ShapeProp(gm).propagate(*inputs)

        return PassManager([shape_stage, fuse_pointwise],
                           cache=cache).run(symbolic_trace(model))

    built = run(first)
    assert built.misses == [("cold",)]
    assert any(isinstance(n.target, FusedKernel)
               for n in built.graph_module.graph.nodes)
    result = run(second)
    assert result.misses == [("state",)]
    assert same_bits(result.graph_module(*second), model(*second))
    again = run(second)
    assert [r.cache_hit for r in again.records] == [False, True]
    assert same_bits(again.graph_module(*second), model(*second))


@pytest.mark.parametrize("case", sorted(STALE))
def test_a_then_b_then_a_ends_in_a_hit_equal_to_the_first_a(case):
    cls, a, b = STALE[case]
    model = cls().eval()
    clear_caches("transform")
    first = fx.compile(model, a)
    fx.compile(model, b)
    last = fx.compile(model, a)
    assert all(r.cache_hit for r in last.backend_report.records)
    assert same_bits(first(*a), last(*a)) and same_bits(last(*a), model(*a))


def test_module_hyperparameters_and_the_root_training_flag_are_in_the_hash():
    class Pooled(nn.Module):
        def __init__(self, k):
            super().__init__()
            self.pool = nn.MaxPool2d(k)   # no tensors: only ``k`` differs

        def forward(self, x):
            return F.relu(self.pool(x)) + 1.0

    x = repro.randn(1, 2, 12, 12)
    two, three = symbolic_trace(Pooled(2).eval()), symbolic_trace(Pooled(3).eval())
    assert two.graph.structural_hash() != three.graph.structural_hash()
    clear_caches("transform")
    fx.compile(two, (x,))
    compiled = fx.compile(three, (x,))
    assert compiled.backend_report.transform_misses == [("state",)]
    assert same_bits(compiled(x), three(x))

    # conv-bn folding asks the *root* whether it is training
    before = two.graph.structural_hash()
    object.__setattr__(two, "training", True)
    assert two.graph.structural_hash() != before


def test_no_transform_key_or_stage_token_is_derived_from_an_id(net):
    model, x = net
    gm = symbolic_trace(model)
    compiled = fx.compile(gm, (x,))
    fx.compile(symbolic_trace(WhereSame().eval()),
               (_ones((1, 4), bool), _ones((1, 4), np.float32)))
    keys = TRANSFORM_CACHE.keys()
    assert len(keys) == 2 and all(isinstance(k, RunKey) for k in keys)
    for key in keys:
        assert all(token.startswith("f:") for token in key.pipeline)
        assert re.fullmatch(r"[0-9a-f]{64}", key.state)
        assert "obj:" not in repr(key) and "0x" not in repr(key)
    for _, stage in NumpyBackend((x,)).preferred_passes(gm):
        token, signature = _pass_identity(stage)
        assert token.startswith("f:") and "0x" not in signature
    # an input whose only identity is its address makes the stage execute
    # every time; it is never keyed by that address
    assert Specialized(_shape_prop, (object(),)).signature is None
    assert _pass_identity(Specialized(_shape_prop, (object(),))) is None

    # a fused graph hashes by content in the mode the transform
    # cache asks for (and keeps refusing to in the mode the VM memo uses)
    replayed = fx.compile(symbolic_trace(model), (x,))
    assert all(r.cache_hit for r in replayed.compile_report.records)
    hashes = {m.graph.structural_hash(require_stable=True, include_meta=True)
              for m in (compiled, replayed)}
    assert len(hashes) == 1
    with pytest.raises(UnstableHashError):
        compiled.graph.structural_hash(require_stable=True)


# -- observability --------------------------------------------------------------

def test_a_miss_says_which_part_of_its_key_differed():
    cache = ArtifactCache()
    gm = symbolic_trace(nn.Sequential(nn.Linear(4, 4), nn.ReLU()).eval())
    x, wider = repro.randn(2, 4), repro.randn(5, 4)

    def manager(inputs=(x,), lint=False, extra=()):
        return PassManager([Specialized(_shape_prop, inputs),
                            eliminate_dead_code, *extra],
                           lint_after_each=lint, cache=cache)

    assert manager().run(gm).misses == [("cold",)]
    assert manager().run(gm).misses == []
    assert manager(inputs=(wider,)).run(gm).misses == [("inputs",)]
    assert manager(lint=True).run(gm).misses == [("checks",)]
    assert manager(extra=[eliminate_common_subexpressions]).run(gm).misses \
        == [("pipeline",)]
    # weights are inputs, not key bytes: new values are a hit, replayed on them
    gm.get_submodule("0").bias.data[0] += 1.0
    assert manager().run(gm).misses == []
    gm.get_submodule("1").training = True
    result = manager().run(gm)
    assert result.misses == [("state",)]
    assert "missed on state" in result.format()
    # An entry cannot go stale: the result's arrays are its own, frozen, so
    # writing them fails, and the same key is a plain hit afterwards.
    for arr in arrays(result.graph_module):
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
    assert manager().run(gm).misses == []


def test_replayed_compile_reports_what_the_built_one_did(net):
    model, x = net
    built = fx.compile(symbolic_trace(model), (x,))
    replayed = fx.compile(symbolic_trace(model), (x,))
    a, b = built.compile_report, replayed.compile_report
    assert not any(r.cache_hit for r in a.records)
    assert all(r.cache_hit for r in b.records)
    for f in dataclasses.fields(a):
        if f.name not in ("records", "total_time"):
            assert getattr(a, f.name) == getattr(b, f.name), f.name
    assert a.fused_regions == 2
    for ra, rb in zip(a.records, b.records, strict=True):
        assert dataclasses.replace(ra, wall_time=0.0, cache_hit=False) \
            == dataclasses.replace(rb, wall_time=0.0, cache_hit=False)
    assert "replayed 0 of 6 stages from 0 cache entries" in a.format()
    assert "replayed 6 of 6 stages from 1 cache entry" in b.format()
    assert same_bits(built(x), replayed(x))


# -- work, not time -------------------------------------------------------------

def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_warm_compile_is_one_hash_and_one_restore(net, monkeypatch):
    model, x = net
    rebuilds = _counting(monkeypatch, pm_module, "rebuild")
    propagates = _counting(monkeypatch, ShapeProp, "propagate")
    fx.compile(symbolic_trace(model), (x,))
    # cold: executed once, and its result is the entry's, as a hit's is
    assert (len(rebuilds), len(propagates)) == (1, 1)

    gm = symbolic_trace(model)
    before = cache_info()["transform"]
    compiled = fx.compile(gm, (x,))
    after = cache_info()["transform"]
    assert (len(rebuilds), len(propagates)) == (2, 1)
    assert all(r.cache_hit for r in compiled.compile_report.records)
    # The key reads no byte.  The rebuild replays the conv-bn fold on the
    # caller's arrays and copies the ``fc`` ones no pass replaced.
    assert after.get("state_read_bytes", 0) == before.get("state_read_bytes", 0)
    fc = [model.fc.weight.data, model.fc.bias.data]
    conv = [compiled.conv.weight.data, compiled.conv.bias.data]
    assert after["state_copied_bytes"] - before["state_copied_bytes"] \
        == sum(a.nbytes for a in fc)
    assert after["state_derived_bytes"] - before["state_derived_bytes"] \
        == sum(a.nbytes for a in conv)
    assert all(not a.flags.writeable for a in arrays(compiled))
    assert not any(np.shares_memory(mine, theirs)
                   for mine in arrays(compiled) for theirs in arrays(gm))
    # A second warm compile, while the first one's result is alive, owns
    # its arrays too: it copies and folds again, and shares none.
    before = cache_info()["transform"]
    again = fx.compile(symbolic_trace(model), (x,))
    after = cache_info()["transform"]
    assert after["state_copied_bytes"] - before["state_copied_bytes"] \
        == sum(a.nbytes for a in fc)
    assert not any(np.shares_memory(a, b)
                   for a in arrays(compiled) for b in arrays(again))


def test_cold_compile_pickles_one_copy_and_one_snapshot(net, monkeypatch):
    from repro.fx import state

    model, x = net
    dumps = _counting(monkeypatch, state, "_dump")
    gm = symbolic_trace(model)
    before = cache_info()["transform"]
    fx.compile(gm, (x,))
    after = cache_info()["transform"]
    # five at 517a305: the copy + one per stored stage; now the borrowed
    # structure the passes transform + the recipe
    assert len(dumps) == 2
    # No array is read: the key is the graph's structure, and the exit
    # check compares the two arrays the result copied (``fc``: no pass
    # replaced them), which the caller could have written meanwhile, with
    # their sources.  (Every array was hashed for the key, and ``fc``
    # again at exit, while keys read bytes.)
    fc = [model.fc.weight.data, model.fc.bias.data]
    assert after.get("state_reads", 0) == before.get("state_reads", 0)
    assert after["state_copied_bytes"] - before.get("state_copied_bytes", 0) \
        == sum(a.nbytes for a in fc)


def test_a_compile_never_freezes_or_writes_the_callers_arrays(net):
    # The passes' views, and the entry's copies, are of the caller's
    # arrays: freezing "the copy's" arrays through ``_owner`` would freeze
    # the caller's.  Cold, warm and uncached, they stay writeable and
    # bit-identical.
    model, x = net
    gm = symbolic_trace(model)
    before = [a.copy() for a in arrays(gm)]
    for cache in (True, True, False):
        fx.compile(gm, (x,), cache=cache)
        assert all(a.flags.writeable and np.array_equal(a, b)
                   for a, b in zip(arrays(gm), before, strict=True))


def test_fused_kernels_are_compiled_once_cold_and_never_on_restore(monkeypatch):
    # A snapshot keeps its fused kernels out of band, as it keeps its
    # arrays: a restore shares them instead of compiling their source again.
    import builtins
    import importlib.util
    from pathlib import Path

    from repro.fx.passes import pointwise_fuser

    spec = importlib.util.spec_from_file_location(
        "ledger_models",
        Path(__file__).parents[1] / "benchmarks" / "ledger" / "models.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    model, x = ledger.build("many_ops", 1), ledger.make_inputs("many_ops", 1, 1)[0]
    compiles = []

    def counted(*args, **kwargs):
        compiles.append(1)
        return builtins.compile(*args, **kwargs)

    monkeypatch.setattr(pointwise_fuser, "compile", counted, raising=False)
    clear_caches("transform")
    clear_caches("codegen")
    cold = fx.compile(symbolic_trace(model), (x,))
    assert cold.compile_report.fused_regions >= 30
    # kernels with one body share one function: ManyOps' 32 regions are
    # two bodies, a baited block's and a plain one's (one compile per
    # region before they shared)
    bodies = {n.target.source for n in cold.graph.nodes
              if isinstance(n.target, pointwise_fuser.FusedKernel)}
    assert len(compiles) == len(bodies) == 2
    compiles.clear()
    warm = fx.compile(symbolic_trace(model), (x,))
    assert all(r.cache_hit for r in warm.compile_report.records)
    assert not compiles
    kernels = [n.target for n in warm.graph.nodes
               if isinstance(n.target, pointwise_fuser.FusedKernel)]
    assert kernels == [n.target for n in cold.graph.nodes
                       if isinstance(n.target, pointwise_fuser.FusedKernel)]
    assert same_bits(warm(x), cold(x))


def test_a_plain_module_is_traced_and_transformed_in_place_not_copied(
        net, monkeypatch):
    # The trace is nobody else's, so no private copy is made of it (one
    # would be a second copy of every weight at the compile's peak); the
    # model it shares tensors with is left alone all the same.  The cache
    # entry copies, once, only what the model still holds: the ``fc``
    # tensors, which no pass replaced.  It freezes its copies, never the
    # model's arrays.
    model, x = net
    borrows = _counting(monkeypatch, pm_module, "_borrow")
    before = [a.copy() for a in arrays(model)]
    copied = cache_info()["transform"].get("state_copied_bytes", 0)
    compiled = fx.compile(model, (x,))
    assert not borrows
    assert cache_info()["transform"]["state_copied_bytes"] - copied \
        == model.fc.weight.data.nbytes + model.fc.bias.data.nbytes
    assert not np.shares_memory(compiled.fc.weight.data, model.fc.weight.data)
    assert compiled.conv.weight.data is not model.conv.weight.data   # folded
    assert all(a.flags.writeable for a in arrays(model))
    assert all(np.array_equal(a, b)
               for a, b in zip(arrays(model), before, strict=True))
    assert np.allclose(compiled(x).data, model(x).data, atol=1e-5)
    # a GraphModule, which the caller holds, is borrowed when passes
    # execute: its structure is copied, its arrays only viewed read-only,
    # and an uncached result goes on viewing those no pass replaced
    copied = cache_info()["transform"]["state_copied_bytes"]
    gm = symbolic_trace(model)
    uncached = fx.compile(gm, (x,), cache=False)
    assert len(borrows) == 1
    assert cache_info()["transform"]["state_copied_bytes"] == copied
    assert np.shares_memory(uncached.fc.weight.data, gm.fc.weight.data)
    assert not uncached.fc.weight.data.flags.writeable
    assert gm.fc.weight.data.flags.writeable


def _double_first_weight_in_place(gm):
    """A deliberately bad pass: writes module state instead of replacing it
    (``fc``'s weight: the conv's is the fold's fresh array by now)."""
    gm.fc.weight.data *= 2


class _WritesInPlace(NumpyBackend):
    def preferred_passes(self, gm):
        return super().preferred_passes(gm) + [
            ("bad", _double_first_weight_in_place)]


def test_in_place_write_leaves_the_callers_module_bit_identical(net):
    model, x = net
    gm = symbolic_trace(model)
    ShapeProp(gm).propagate(x)
    code = gm.code
    meta = [dict(n.meta) for n in gm.graph.nodes]
    assert all("tensor_meta" in m for m in meta[:-1])
    state = [a.copy() for a in arrays(gm)]

    # The passes see the caller's arrays through read-only views: the bad
    # pass fails at its write, named, before anything is stored.
    with pytest.raises(PassError, match=r"\('bad'\).*read-only"):
        to_backend(gm, _WritesInPlace((x,)))
    assert cache_info()["transform"]["size"] == 0
    assert gm.code == code
    assert [dict(n.meta) for n in gm.graph.nodes] == meta
    assert all(a.flags.writeable for a in arrays(gm))
    assert all(np.array_equal(a, b) for a, b in zip(arrays(gm), state, strict=True))

    # a sound compile of the same module is untouched by the failed one,
    # and leaves the module as untouched as the failed one did
    compiled = fx.compile(gm, (x,))
    assert np.allclose(compiled(x).data, model(x).data, atol=1e-5)
    assert gm.code == code
    assert [dict(n.meta) for n in gm.graph.nodes] == meta
    assert all(np.array_equal(a, b) for a, b in zip(arrays(gm), state, strict=True))


def test_write_to_the_callers_module_between_compiles_is_a_miss(net):
    # A pipeline with a user pass, which may read the bytes, is never
    # replayed: each compile executes it and says why.
    model, x = net
    gm = symbolic_trace(model)
    compile_dropping_identities(gm, (x,))
    gm.conv.weight.data[0, 0, 0, 0] += 1.0
    compiled = compile_dropping_identities(gm, (x,))
    assert not any(r.cache_hit for r in compiled.backend_report.records)
    assert compiled.backend_report.transform_misses == [
        ("uncached", "user pass tests.test_fx_transform_cache.drop_identities")]
    assert np.allclose(compiled(x).data, gm(x).data, atol=1e-5)


def test_eight_threads_compiling_one_model_build_its_run_once(net, monkeypatch):
    model, x = net
    gm = symbolic_trace(model)   # one module, borrowed by all eight
    lock = threading.Lock()
    propagate, propagates = ShapeProp.propagate, []

    def counted(self, *args):
        with lock:
            propagates.append(1)
        return propagate(self, *args)

    monkeypatch.setattr(ShapeProp, "propagate", counted)
    outputs, errors = [None] * 8, []
    barrier = threading.Barrier(8)

    def work(i):
        try:
            barrier.wait(timeout=30)
            outputs[i] = fx.compile(gm, (x,))(x)
        except Exception as exc:   # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    info = cache_info()["transform"]
    assert (info["misses"], info["hits"], info["size"]) == (1, 7, 1)
    assert len(propagates) == 1
    assert all(same_bits(out, outputs[0]) for out in outputs)


def test_eight_threads_replaying_one_entry_are_exact(net):
    # Every replay is read-only views of the one entry's arrays: eight
    # threads compiling warm and running what they get read the same
    # bytes at once, and each gets what the compile that built it got.
    model, x = net
    want = fx.compile(symbolic_trace(model), (x,))(x)
    # tracing is one at a time (the tracer intercepts module calls globally)
    traces = [[symbolic_trace(model) for _ in range(3)] for _ in range(8)]
    outputs, errors = [[] for _ in range(8)], []
    barrier = threading.Barrier(8)

    def work(i):
        try:
            barrier.wait(timeout=30)
            for gm in traces[i]:
                compiled = fx.compile(gm, (x,))
                assert all(r.cache_hit for r in compiled.compile_report.records)
                outputs[i].append(compiled(x))
        except Exception as exc:   # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert all(len(outs) == 3 for outs in outputs)
    assert all(same_bits(out, want) for outs in outputs for out in outs)
    assert cache_info()["transform"]["size"] == 1


def test_a_training_compile_is_not_stored_and_moves_the_callers_statistics():
    # A training-mode batch norm writes its running statistics when it
    # runs.  A stored end state is frozen and could not take that write,
    # so such a run executes uncached and its result shares the model's
    # buffers: each forward moves the model's statistics as eager does.
    def conv_bn():
        repro.manual_seed(0)
        return nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4)).train()

    model, eager, x = conv_bn(), conv_bn(), repro.randn(2, 3, 8, 8)
    clear_caches("transform")
    for _ in range(2):
        compiled = fx.compile(model, (x,))
        assert same_bits(compiled(x), eager(x))
        assert all(same_bits(a, b) for a, b in zip(
            model.state_dict().values(), eager.state_dict().values(),
            strict=True))
    assert eager.get_submodule("1").running_mean.data.any()
    assert cache_info()["transform"]["size"] == 0


def test_load_state_dict_rebinds_a_compiled_modules_frozen_tensors(net):
    # A compiled module's tensors are read-only views of the entry's
    # arrays, so loading weights cannot write into them: each tensor is
    # rebound to a private copy of its new value, the same ``Parameter``
    # object throughout.  The module computes with the new weights, and
    # the entry is untouched: the next compile is an exact, all-hit replay.
    model, x = net
    first = fx.compile(symbolic_trace(model), (x,))
    compiled = fx.compile(symbolic_trace(model), (x,))
    expected = first(x)
    params = list(compiled.parameters())
    state = {name: Tensor(t.data * 0.5)
             for name, t in compiled.state_dict().items()}
    compiled.load_state_dict(state)
    assert all(a is b for a, b in zip(compiled.parameters(), params, strict=True))
    assert all(t.data.flags.writeable for t in compiled.state_dict().values())
    unfrozen = fx.compile(symbolic_trace(model), (x,), cache=False)
    unfrozen.load_state_dict(state)
    assert same_bits(compiled(x), unfrozen(x))
    assert not same_bits(compiled(x), expected)

    again = fx.compile(symbolic_trace(model), (x,))
    assert all(r.cache_hit for r in again.compile_report.records)
    assert same_bits(again(x), expected)


# -- nothing refreshes tensor_meta mid-pipeline ---------------------------------

ZOO = {
    "mlp": (lambda: MLP(4, (8,), 2), (2, 4)),
    "simple_cnn": (SimpleCNN, (1, 3, 32, 32)),
    "deep_recommender": (lambda: DeepRecommender(n_items=32, layer_sizes=(8,)),
                         (2, 32)),
    "resnet18": (lambda: resnet18(num_classes=2), (1, 3, 32, 32)),
    "learning_to_paint": (LearningToPaintActor, (1, 9, 32, 32)),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_meta_entering_pointwise_fuse_is_what_shape_prop_stamps(name):
    from repro.fx.testing.oracle import stale_meta

    build, shape = ZOO[name]
    repro.manual_seed(0)
    assert stale_meta(symbolic_trace(build().eval()), (repro.randn(*shape),)) == []


def test_fold_constants_says_what_the_constant_it_creates_holds():
    def scaled():
        root = nn.Module()
        root.register_buffer("scale", repro.randn(4))
        g = fx.Graph()
        x = g.placeholder("x")
        k = g.call_function(F.tanh, (g.get_attr("scale"),))
        k = g.call_function(F.add, (g.call_function(F.mul, (k, 0.5)), 1.0))
        g.output(g.call_function(F.mul, (g.call_function(F.relu, (x,)), k)))
        return fx.GraphModule(root, g).eval()

    gm, x = scaled(), repro.randn(2, 4)
    ShapeProp(gm).propagate(x)
    assert fold_constants(gm) > 0
    (const,) = gm.graph.find_nodes(op="get_attr")
    assert tuple(const.meta["tensor_meta"].shape) == (4,)
    # ... so the region around it fuses as one kernel, not two halves
    fresh = scaled()
    compiled = fx.compile(fresh, (x,))
    assert compiled.compile_report.fused_regions == 1
    assert compiled.compile_report.fused_ops == 2
    assert same_bits(compiled(x), fresh(x))


# -- weights are inputs, not key bytes -------------------------------------------

def _fresh_resnet18(seed):
    repro.manual_seed(seed)
    return resnet18(num_classes=10).eval()


def test_a_model_with_fresh_weights_is_a_hit_that_reads_no_byte():
    # Same architecture, new weights: the numpy pipeline's key is the
    # structure, so the second compile is replayed whole — its conv-bn
    # folds derived again from *its* weights — and reads no weight byte.
    x = repro.randn(1, 3, 32, 32)
    clear_caches("transform")
    fx.compile(_fresh_resnet18(0), (x,))
    model = _fresh_resnet18(1)
    before = cache_info()["transform"].get("state_read_bytes", 0)
    compiled = fx.compile(model, (x,))
    assert all(r.cache_hit for r in compiled.compile_report.records)
    assert cache_info()["transform"].get("state_read_bytes", 0) == before
    assert cache_info()["transform"]["size"] == 1
    assert same_bits(compiled(x), fx.compile(model, (x,), cache=False)(x))


def _scaled(x, w):
    """A call with no op-table entry: ``ShapeProp`` has to execute it."""
    return x * w.data.sum()


def _graph_with_an_unknown_call():
    root = nn.Module()
    root.w = nn.Parameter(np.ones((4,), np.float32))
    g = fx.Graph()
    x = g.placeholder("x")
    g.output(g.call_function(F.relu, (g.call_function(
        _scaled, (x, g.get_attr("w"))),)))
    return fx.GraphModule(root, g).eval()


@pytest.mark.parametrize("case", ["user_pass", "unknown_call"])
def test_a_run_that_may_read_values_runs_uncached(case):
    # A user pass, or a call ShapeProp executes, may read a weight's value:
    # such a run is not keyed at all.  It executes on every compile, reads
    # no weight byte, stores nothing, and its misses name the pass or the
    # node.  (It used to be keyed on the bytes it fed.)
    x = repro.randn(2, 4)
    if case == "user_pass":
        gm = symbolic_trace(nn.Sequential(nn.Linear(4, 4), nn.ReLU()).eval())
        weight = gm.get_submodule("0").weight.data
        why = "user pass tests.test_fx_transform_cache.drop_identities"

        def lower(cache=True):
            return compile_dropping_identities(gm, (x,), cache=cache)
    else:
        gm = _graph_with_an_unknown_call()
        weight = gm.w.data
        why = "no op-table entry for _scaled at _scaled"

        def lower(cache=True):
            return fx.compile(gm, (x,), cache=cache)
    clear_caches("transform")
    lower()
    weight[0] += 1.0
    again = lower()
    assert again.backend_report.transform_misses == [("uncached", why)]
    assert f"uncached: {why}" in again.backend_report.format()
    assert not any(r.cache_hit for r in again.backend_report.records)
    assert same_bits(again(x), lower(cache=False)(x))
    info = cache_info()["transform"]
    assert info["size"] == info["hits"] == info["misses"] == 0
    assert info.get("state_reads", 0) == 0


class _Masked(nn.Module):
    # ``x[:, mask]``: the result's shape hangs on the mask's values, so the
    # index rule declines the call and ShapeProp executes it
    def __init__(self):
        super().__init__()
        self.register_buffer("mask", Tensor(np.array([True, False, True, True])))

    def forward(self, x):
        return F.relu(x[:, self.mask] * 2.0)


def test_a_call_shape_prop_executes_runs_uncached():
    # The shapes ShapeProp found by executing a call may hang on values:
    # the run is not stored, and each compile executes it and finds the
    # shapes of the mask it is given.  (It used to be stored under the
    # bytes of its input, behind a marker under the structure key.)
    model = _Masked().eval()
    x = repro.randn(2, 4)
    clear_caches("transform")
    first = fx.compile(model, (x,))
    (name, target, _), = first.compile_report.shape_fallbacks
    why = ("uncached", f"ShapeProp executed {target} at {name}")
    assert first.backend_report.transform_misses == [why]
    again = fx.compile(model, (x,))
    assert not any(r.cache_hit for r in again.compile_report.records)
    assert again.backend_report.transform_misses == [why]
    assert same_bits(again(x), first(x))
    assert cache_info()["transform"]["size"] == 0
    model.mask.data[1] = True
    moved = fx.compile(model, (x,))
    assert tuple(moved(x).shape) == (2, 4)
    assert same_bits(moved(x), fx.compile(model, (x,), cache=False)(x))


def test_an_array_a_stage_makes_without_derive_is_never_stored(monkeypatch):
    # Soundness by construction: an end-state array that is neither the
    # caller's nor the output of a recorded derivation has no provenance
    # a hit could rebuild it from, so the run executes uncached.
    from repro.fx.passes import fuser

    monkeypatch.setattr(fuser, "derive", lambda fn, *arrays: fn(*arrays))
    model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4)).eval()
    x = repro.randn(1, 3, 8, 8)
    clear_caches("transform")
    first = fx.compile(model, (x,))
    assert cache_info()["transform"]["size"] == 0
    again = fx.compile(model, (x,))
    assert not any(r.cache_hit for r in again.compile_report.records)
    assert same_bits(first(x), again(x))


def test_an_error_in_the_key_is_raised_not_taken_for_no_key(monkeypatch):
    # Only ``UnstableHashError`` means "no stable key: run uncached"; any
    # other error computing a key is a bug and surfaces.
    def broken(self, *args, **kwargs):
        raise RuntimeError("a bug in the key")

    monkeypatch.setattr(fx.Graph, "structural_hash", broken)
    gm = symbolic_trace(nn.Sequential(nn.Linear(4, 4)).eval())
    with pytest.raises(RuntimeError, match="a bug in the key"):
        PassManager([eliminate_dead_code], cache=ArtifactCache()).run(gm)


def test_an_error_storing_the_end_state_is_raised_not_taken_for_no_pickle(
        monkeypatch):
    # Only what pickling raises means "this end state does not pickle: run
    # uncached"; any other error building a recipe is a bug and surfaces.
    def broken(*args, **kwargs):
        raise RuntimeError("a bug in the recipe")

    monkeypatch.setattr(pm_module, "recipe", broken)
    model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4)).eval()
    clear_caches("transform")
    with pytest.raises(RuntimeError, match="a bug in the recipe"):
        fx.compile(model, (repro.randn(1, 3, 8, 8),))
