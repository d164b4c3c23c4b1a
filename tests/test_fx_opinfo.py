"""The op table (``repro.fx.opinfo``): one set of per-op rules behind
``ShapeProp``, ``SymbolicShapeProp``, the cost model and the rewriter's
metadata inference — and a shape stage that runs no kernel."""

import dataclasses
import json
import operator
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import fx, kernels, nn
from repro.fx import Graph, GraphModule, interpreter, opinfo, symbolic_trace
from repro.fx.backends import NumpyBackend, to_backend
from repro.fx.passes import ShapeProp, estimate
from repro.fx.passes.symbolic_shape_prop import ShapeInferenceError, \
    SymbolicShapeProp, SymDim, SymShape
from repro.fx.subgraph_rewriter import replace_pattern
from repro.fx.testing.oracle import reference_meta
from repro.models import (
    MLP, ConvBNReLU, DeepRecommender, LearningToPaintActor, NeuralRenderer, SimpleCNN,
    TransformerEncoder, resnet18, resnet50,
)

N = SymDim("N")


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the calls that mean "a model was run": the convolution
    kernel and numpy's matmul (what ``F.linear`` / ``F.matmul`` reach)."""
    calls = {"conv2d": 0, "matmul": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(kernels, "conv2d", counting("conv2d", kernels.conv2d))
    monkeypatch.setattr(np, "matmul", counting("matmul", np.matmul))
    return calls


# -- the table is honest: every entry against eager ------------------------------

def test_selftest_is_clean():
    assert opinfo.selftest() == []


def test_selftest_catches_a_conv_rule_that_drops_the_stride(monkeypatch):
    monkeypatch.setattr(
        opinfo, "_conv_out", lambda size, kernel, stride, padding, dilation=1:
        size + 2 * padding - dilation * (kernel - 1))
    failures = opinfo.selftest(["conv2d", "max_pool2d"])
    assert any("conv2d" in line and "eager returns" in line for line in failures)
    assert any("max_pool2d" in line for line in failures)


def test_selftest_catches_a_broadcast_rule_that_ignores_an_operand(monkeypatch):
    monkeypatch.setattr(opinfo, "_broadcast", lambda d, first, *rest: list(first))
    failures = opinfo.selftest(["add", "where", "gt"])
    assert {line.split()[0] for line in failures} == {"add", "where", "gt"}


def test_every_public_op_has_an_entry_or_a_reason(monkeypatch):
    # the coverage half of the self-test, shown to bite: a function with
    # neither an entry nor a NO_ENTRY line fails it by name
    monkeypatch.delitem(opinfo.NO_ENTRY, "topk")
    assert any(line.startswith("topk: has neither") for line in opinfo.selftest())


def test_a_stale_no_entry_line_fails_the_selftest(monkeypatch):
    # a reason left behind for a name that is gone is a failure, not a pass
    monkeypatch.setitem(opinfo.NO_ENTRY, "deleted_loss", "a training-side scalar")
    assert "deleted_loss: a NO_ENTRY line names no public function or nn leaf" \
        in opinfo.selftest()


EAGER_REJECTS = Path(__file__).with_name("opinfo_eager_rejects.json")


def _call_label(gm: GraphModule, inputs: tuple) -> str:
    """The one call of a selftest graph, its tensor operands as their
    shapes, and the dtype it was fed: ``"repro.functional.relu((7, 3),) {} float32"``."""
    *placeholders, call, _ = gm.graph.nodes
    shapes = {p: tuple(x.shape) for p, x in zip(placeholders, inputs, strict=True)}
    if call.op == "call_module":
        name = f"nn.{type(gm.get_submodule(call.target)).__name__}"
    elif call.op == "call_method":
        name = f".{call.target}"
    else:
        name = getattr(call.target, "__qualname__", type(call.target).__name__)
        name = f"{getattr(call.target, '__module__', '')}.{name}"
    args, kwargs = (fx.map_arg(a, shapes.__getitem__) for a in (call.args, call.kwargs))
    return f"{name}{args!r} {kwargs!r} {inputs[0].dtype.name}"


def observed_eager_rejects(monkeypatch) -> set:
    """Every call the selftest skipped because eager raised on it."""
    seen = set()

    class Recording(interpreter.Interpreter):
        def run(self, *inputs, **kwargs):
            try:
                return super().run(*inputs, **kwargs)
            except Exception:
                seen.add(_call_label(self.module, inputs))
                raise

    monkeypatch.setattr(interpreter, "Interpreter", Recording)
    opinfo.selftest()
    return seen


def test_eager_rejects_exactly_the_recorded_calls(monkeypatch):
    """The selftest skips each sample × dtype eager raises on, so a kernel
    that starts raising on one sample would go unseen while another sample
    still runs: the calls eager rejects are pinned.  After a deliberate
    change, re-record with ``PYTHONPATH=src python tests/test_fx_opinfo.py``."""
    recorded = set(json.loads(EAGER_REJECTS.read_text()))
    seen = observed_eager_rejects(monkeypatch)
    assert (sorted(seen - recorded), sorted(recorded - seen)) == ([], [])


# -- the caller's module is not written -------------------------------------------

class ConvBN(nn.Module):
    def __init__(self):
        super().__init__()
        self.conv = nn.Conv2d(3, 4, 3)
        self.bn = nn.BatchNorm2d(4)

    def forward(self, x):
        return F.relu(self.bn(self.conv(x)))


@pytest.mark.parametrize("traced", [False, True], ids=["Module", "GraphModule"])
@pytest.mark.parametrize("entry", ["compile", "to_backend"])
def test_compiling_a_training_model_leaves_its_statistics_alone(entry, traced):
    repro.manual_seed(0)
    model, x = ConvBN().train(), repro.randn(2, 3, 8, 8)
    subject = symbolic_trace(model) if traced else model
    before = {k: v.data.copy() for k, v in subject.state_dict().items()}
    if entry == "compile":
        compiled = fx.compile(subject, (x,))
    else:
        compiled = to_backend(subject, NumpyBackend((x,)))
    after = subject.state_dict()
    assert before.keys() == after.keys()
    for name, array in before.items():
        assert array.tobytes() == after[name].data.tobytes(), name
    # ... and the compiled module has not seen the example batch either
    stats = {k: v for k, v in compiled.state_dict().items() if "running" in k}
    assert len(stats) == 2
    for name, value in stats.items():
        assert np.array_equal(value.data, before[name]), name


# -- a constraint that pins the free dim fails symbolic inference ------------------
# ("static guards" in the names below: the verdict the server's guard sets
# once drew from this failure, that no one shape holds for every N)

class WithWeight(nn.Module):
    def __init__(self, fn, *shape):
        super().__init__()
        self.fn = fn
        self.w = nn.Parameter(repro.randn(*shape))

    def forward(self, x):
        return self.fn(x, self.w)


class LinearOfTranspose(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(8, 4)

    def forward(self, x):
        return self.fc(x.t())


@pytest.mark.parametrize("model, shape, clause", [
    (lambda: (lambda x: F.matmul(x, x)), (8, 8), "matmul contraction"),
    (lambda: WithWeight(lambda x, w: F.cat([x, w], 1), 8, 4), (8, 4), "cat off-axis"),
    (lambda: WithWeight(lambda x, w: x.abs().pow(w), 8, 4), (8, 4), "broadcast"),
    (LinearOfTranspose, (8, 8), "linear in_features"),
], ids=["matmul(x,x)", "cat([x,w],1)", "abs.pow(w)", "Linear(x.t())"])
def test_a_program_eager_rejects_at_another_batch_size_gets_static_guards(
        model, shape, clause):
    model = model()
    # the error says why, in one clause: which constraint pinned which dim
    with pytest.raises(ShapeInferenceError, match=rf"{clause}.*N|N.*{clause}"):
        SymbolicShapeProp(symbolic_trace(model)).infer(
            SymShape((N,) + shape[1:]))
    with pytest.raises(Exception):   # ... and eager agrees: N = 4 is no program
        model(repro.randn(4, *shape[1:]))


@pytest.mark.parametrize("squeeze", [lambda x: F.relu(x).squeeze(),
                                     lambda x: F.relu(x).squeeze(0)],
                         ids=["squeeze()", "squeeze(0)"])
def test_a_squeeze_that_may_drop_the_free_dim_gets_static_guards(squeeze):
    # eager drops the batch dim at N = 1 only: no one shape is right for every N
    assert len(squeeze(repro.randn(1, 1, 3)).shape) != len(squeeze(repro.randn(4, 1, 3)).shape)
    shape = SymShape((N, 1, 3))
    with pytest.raises(ShapeInferenceError, match="squeeze of a dim that may be 1"):
        SymbolicShapeProp(symbolic_trace(squeeze)).infer(shape)
    # a squeeze of a dim that is 1 for every N is batch generic
    _, out = SymbolicShapeProp(symbolic_trace(
        lambda x: F.relu(x).squeeze(1))).infer(shape)
    assert out == SymShape((N, 3))


def test_programs_that_are_batch_generic_stay_dynamic():
    for model, shape in [(resnet18(num_classes=4).eval(), (2, 3, 32, 32)),
                         (MLP(16, (32,), 8), (1, 16)),
                         (WithWeight(lambda x, w: F.linear(w, x), 3, 8), (5, 8))]:
        _, out = SymbolicShapeProp(symbolic_trace(model)).infer(
            SymShape((N,) + shape[1:]))
        assert N in out, out


def test_static_guards_name_the_target_without_an_entry():
    with pytest.raises(ShapeInferenceError, match="no entry for topk at node 'topk'"):
        SymbolicShapeProp(symbolic_trace(lambda x: repro.topk(x, 2)[0])).infer(
            SymShape((N, 8)))


# -- shapes agree with eager in both domains --------------------------------

def test_matrix_times_vector_in_both_domains():
    gm = symbolic_trace(lambda a, b: a @ b)
    assert tuple(F.matmul(repro.randn(3, 4), repro.randn(4)).shape) == (3,)
    assert ShapeProp(gm).propagate(repro.randn(3, 4), repro.randn(4)).shape == (3,)
    assert SymbolicShapeProp(gm).infer(SymShape((N, 4)), SymShape((4,)))[1] == \
        SymShape((N,))


def test_indexing_a_tensor_is_not_indexing_its_shape():
    row = symbolic_trace(lambda x: F.relu(x[0]))
    dim = symbolic_trace(lambda x: x.shape[0])
    x = repro.randn(5, 4)
    assert tuple(row(x).shape) == (4,) and dim(x) == 5
    assert ShapeProp(row).propagate(x).shape == (4,)
    assert ShapeProp(dim).propagate(x) == 5
    assert SymbolicShapeProp(row).infer(SymShape((N, 4)))[1] == SymShape((4,))
    assert SymbolicShapeProp(dim).infer(SymShape((N, 4)))[1] == N


def test_a_value_dependent_index_is_executed_not_guessed():
    gm = symbolic_trace(lambda x: x[x > 0])
    x = repro.Tensor(np.array([[1.0, -1.0], [2.0, 3.0]], np.float32))
    prop = ShapeProp(gm)
    assert prop.propagate(x).shape == (3,)
    assert [name for name, _, _ in prop.fallbacks] == ["getitem"]


# -- cost is a property of the op, not of its spelling -----------------------------

def _flops(fn, *inputs):
    return estimate(symbolic_trace(fn), *inputs).total_flops


def test_every_spelling_of_an_op_costs_the_same():
    x, w = repro.randn(32, 64), repro.randn(64, 64)
    assert _flops(lambda x, w: F.matmul(x, w), x, w) == _flops(
        lambda x, w: x.matmul(w), x, w) == _flops(
        lambda x, w: x @ w, x, w) == 2 * 32 * 64 * 64
    for fn, method, module in [(F.gelu, "gelu", nn.GELU()), (F.relu, "relu", nn.ReLU()),
                               (F.exp, "exp", None), (F.hardswish, None, nn.Hardswish())]:
        costs = {_flops(fn, x)}
        if method:
            costs.add(_flops(lambda x: getattr(x, method)(), x))
        if module:
            costs.add(_flops(nn.Sequential(module), x))
        assert len(costs) == 1 and costs.pop() > 0, fn.__name__
    for view in (lambda x: x.reshape(64, 32), lambda x: F.reshape(x, (64, 32)),
                 lambda x: x.flatten(), lambda x: F.flatten(x)):
        assert _flops(view, x) == 0


def test_a_fused_region_costs_the_sum_of_its_steps(kernel_calls):
    model = lambda x: F.tanh(F.gelu(F.relu(x) * 2.0) + 1.0)     # noqa: E731
    x = repro.randn(16, 16)
    unfused = estimate(symbolic_trace(model), x)
    compiled = fx.compile(symbolic_trace(model), (x,))
    assert compiled.compile_report.fused_regions == 1
    assert estimate(compiled, x).total_flops == unfused.total_flops


def test_estimate_does_not_run_the_model(kernel_calls):
    gm = symbolic_trace(SimpleCNN().eval())
    report = estimate(gm, repro.randn(2, 3, 16, 16))
    assert report.total_flops > 0 and kernel_calls == {"conv2d": 0, "matmul": 0}


# -- work, not time: what the shape stage executes -----------------------------------

def test_the_shape_stage_of_a_compile_runs_no_kernel(kernel_calls):
    model, x = resnet18(num_classes=4).eval(), repro.randn(1, 3, 32, 32)
    gm = symbolic_trace(model)
    prop = ShapeProp(gm)
    prop.propagate(x)
    assert prop.fallbacks == [] and kernel_calls == {"conv2d": 0, "matmul": 0}
    compiled = fx.compile(model, (x,), cache=False)
    assert compiled.compile_report.shape_fallbacks == ()
    assert kernel_calls == {"conv2d": 0, "matmul": 0}
    assert "shapes:" not in compiled.compile_report.format()


def test_a_rule_firing_infers_the_metadata_a_fresh_propagation_would(kernel_calls):
    def bait(x, w, b):
        return F.relu(F.relu(F.matmul(x * 1, w) + b)).transpose(0, 1).transpose(0, 1)

    gm = symbolic_trace(bait)
    inputs = (repro.randn(4, 8), repro.randn(8, 3), repro.randn(3))
    ShapeProp(gm).propagate(*inputs)
    for pattern, replacement in [
            (lambda x: x * 1, lambda x: x),
            (lambda x, w, b: F.matmul(x, w) + b, lambda x, w, b: F.addmm(b, x, w)),
            (lambda x: F.relu(F.relu(x)), lambda x: F.relu(x)),
            (lambda x: x.transpose(0, 1).transpose(0, 1), lambda x: x)]:
        assert len(replace_pattern(gm, pattern, replacement)) == 1
    assert kernel_calls["matmul"] == 0
    carried = [n.meta.get("tensor_meta") for n in gm.graph.nodes]
    assert any(n.target is F.addmm for n in gm.graph.nodes)
    ShapeProp(gm).propagate(*inputs)
    assert [n.meta.get("tensor_meta") for n in gm.graph.nodes] == carried
    assert carried == reference_meta(gm, inputs)


class Counting(nn.Module):
    """A user leaf module the table has no entry for, which writes a buffer."""

    def __init__(self):
        super().__init__()
        self.register_buffer("calls", repro.zeros(1))

    def forward(self, x):
        self.calls.data += 1
        return x[:, ::2]


def test_a_leaf_without_an_entry_is_the_only_thing_executed(kernel_calls):
    class LeafTracer(fx.Tracer):
        def is_leaf_module(self, m, name):
            return isinstance(m, Counting) or super().is_leaf_module(m, name)

    class Net(nn.Module):
        def __init__(self):
            super().__init__()
            self.before, self.leaf, self.after = nn.Linear(8, 8), Counting(), nn.Linear(4, 2)
            self.side = nn.Linear(8, 2)

        def forward(self, x):
            return self.after(self.leaf(self.before(x))) + self.side(x)

    model = Net()
    gm = GraphModule(model, LeafTracer().trace(model))
    x = repro.randn(3, 8)
    prop = ShapeProp(gm)
    assert prop.propagate(x).shape == (3, 2)
    assert [(name, target) for name, target, _ in prop.fallbacks] == [("leaf", "Counting")]
    assert "no entry for Counting at node 'leaf'" in prop.fallbacks[0][2]
    # exactly the node and its cone ran: `before` yes, `after` and `side` no
    assert kernel_calls["matmul"] == 1
    # ... on a private copy: the buffer the caller can see has not moved
    assert model.leaf.calls.data[0] == 0
    assert [n.meta["tensor_meta"] for n in gm.graph.nodes] == reference_meta(gm, (x,))
    compiled = fx.compile(gm, (x,))
    assert "shapes: executed 1 node(s) with no op-table entry: leaf (Counting)" \
        in compiled.compile_report.format()
    assert model.leaf.calls.data[0] == 0
    # A module the op table cannot vouch for may write its state (this one
    # does), so the run is not stored: compiled again, it executes again
    # and prints the same
    again = fx.compile(gm, (x,))
    assert not any(r.cache_hit for r in again.compile_report.records)
    assert again.compile_report.shape_fallbacks == compiled.compile_report.shape_fallbacks


# -- the model zoo: identical metadata, fallbacks named -----------------------------

ZOO = {
    "mlp": (lambda: MLP(4, (8,), 2), lambda: (repro.randn(2, 4),), []),
    "conv_bn_relu": (lambda: ConvBNReLU(3, 4), lambda: (repro.randn(1, 3, 8, 8),), []),
    "simple_cnn": (SimpleCNN, lambda: (repro.randn(1, 3, 32, 32),), []),
    "deep_recommender": (lambda: DeepRecommender(n_items=32, layer_sizes=(8,)),
                         lambda: (repro.randn(2, 32),), []),
    "learning_to_paint": (LearningToPaintActor, lambda: (repro.randn(1, 9, 32, 32),), []),
    "neural_renderer": (NeuralRenderer, lambda: (repro.randn(2, 10),), []),
    "resnet18": (lambda: resnet18(num_classes=2), lambda: (repro.randn(1, 3, 32, 32),), []),
    "resnet50": (lambda: resnet50(num_classes=2), lambda: (repro.randn(1, 3, 32, 32),), []),
    "transformer": (lambda: TransformerEncoder(50, d_model=16, nhead=2, num_layers=2,
                                               dim_feedforward=32),
                    lambda: (repro.Tensor(np.arange(12, dtype=np.int64).reshape(3, 4)),),
                    ["MultiheadAttention", "MultiheadAttention"]),
}


@pytest.mark.parametrize("name", sorted(ZOO))
def test_zoo_metadata_is_what_execution_records(name):
    build, make_inputs, fallbacks = ZOO[name]
    repro.manual_seed(0)
    gm, inputs = symbolic_trace(build().eval()), make_inputs()
    prop = ShapeProp(gm)
    prop.propagate(*inputs)
    assert [n.meta.get("tensor_meta") for n in gm.graph.nodes] == \
        reference_meta(gm, inputs)
    assert [target for _, target, _ in prop.fallbacks] == fallbacks


# -- spellings are resolved once ---------------------------------------------------

def test_one_key_for_every_spelling():
    g = Graph()
    x = g.placeholder("x")
    nodes = [g.call_function(F.relu, (x,)), g.call_method("relu", (x,)),
             g.call_module("act", (x,)), g.call_function(operator.add, (x, x))]
    modules = {"act": nn.ReLU()}
    assert [opinfo.key_of(n, modules) for n in nodes] == ["relu", "relu", "relu", "add"]
    assert opinfo.key_of(g.call_function(print, (x,)), modules) is None


def test_every_fusible_entry_declares_an_emit_and_no_step_copies_from_ref():
    """A fused step writes its kernel buffer itself: ``emit`` has no default,
    and no fallback calls eager and copies the result into the buffer."""
    fusible = {key: e.kernel for key, e in opinfo.TABLE.items() if e.kernel is not None}
    assert len(fusible) >= 38
    assert [key for key, k in fusible.items() if not callable(k.emit)] == []
    emit = {f.name: f for f in dataclasses.fields(opinfo.OpDef)}["emit"]
    assert emit.default is dataclasses.MISSING and not hasattr(opinfo.OpDef, "emit_fn")
    # eager and the fused step run one kernel: the activations' emits are
    # the functions repro.functional calls
    for key in ("sigmoid", "silu", "gelu", "elu", "selu", "mish", "softplus", "leaky_relu",
                "hardsigmoid", "hardswish", "erf", "where"):
        assert fusible[key].emit is getattr(kernels, key)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        EAGER_REJECTS.write_text(json.dumps(sorted(observed_eager_rejects(patch)), indent=0) + "\n")
