"""A generated forward binds its module state once, and sees every rebind.

The ``get_attr`` / ``call_module`` targets are resolved at a module's first
call and kept with the process-wide epoch of ``repro.nn.module``; each
funnel that can change what a path resolves to moves the epoch.  After
every rebind below, the compiled output must be what ``fx.Interpreter``
— which walks every target on every node — computes from the same module.
"""

import copy
import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import fx, nn
from repro.nn import Module, Parameter
from repro.tensor import Tensor


class Block(nn.Module):
    """A ManyOps block: a Linear, a pointwise tail reading its result
    twice, a buffer-only constant, a residual add."""

    def __init__(self, width=16):
        super().__init__()
        self.fc = nn.Linear(width, width)
        self.register_buffer("scale", repro.randn(width))

    def forward(self, x):
        h = self.fc(x)
        t = F.maximum(F.relu(h) * 1.01 + 0.1, F.relu(h) * 0.5)
        return F.tanh(t * (F.tanh(self.scale) * 0.5 + 1.0)) + x


class Heads(nn.Module):
    """Leaf modules left as ``call_module``, a Parameter read as
    ``get_attr`` and a buffer lifted to a ``get_attr`` by the tracer."""

    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(16, 16)
        self.acts = nn.ModuleDict({"out": nn.Tanh()})
        self.gain = Parameter(repro.randn(16))
        self.register_buffer("shift", repro.randn(16))

    def forward(self, x):
        return self.acts["out"](self.fc(x) * self.gain + self.shift) + x


def many_ops():
    """``fx.compile`` output: fused kernels reading get_attr targets only."""
    repro.manual_seed(0)
    model = nn.Sequential(*[Block() for _ in range(4)]).eval()
    return fx.compile(model, (repro.randn(4, 16),))


def call_module():
    """A traced module: the generated forward calls bound submodules."""
    repro.manual_seed(1)
    return fx.symbolic_trace(Heads().eval())


SUBJECTS = {"many_ops": many_ops, "call_module": call_module}


def _x():
    repro.manual_seed(2)
    return repro.randn(4, 16)


def _owner(gm, target):
    prefix, _, leaf = target.rpartition(".")
    return gm.get_submodule(prefix), leaf


def _attr_target(gm, table):
    """The first get_attr target registered in *table* of its owner."""
    for node in gm.graph.nodes:
        if node.op == "get_attr":
            owner, leaf = _owner(gm, node.target)
            if leaf in getattr(owner, table):
                return node.target
    raise AssertionError(f"no get_attr target in {table}")


def _linear_path(gm):
    return next(name for name, m in gm.named_modules() if isinstance(m, nn.Linear))


def _perturbed(t):
    return Tensor(t.data + 0.5)


def set_parameter(gm, fresh):
    owner, leaf = _owner(gm, _attr_target(gm, "_parameters"))
    setattr(owner, leaf, Parameter(_perturbed(getattr(owner, leaf)).data))


def set_buffer(gm, fresh):
    owner, leaf = _owner(gm, _attr_target(gm, "_buffers"))
    setattr(owner, leaf, _perturbed(getattr(owner, leaf)))
    assert leaf in owner._buffers   # a tensor stays in its table


def set_submodule(gm, fresh):
    parent, leaf = _owner(gm, _linear_path(gm))
    setattr(parent, leaf, fresh)


def register_buffer(gm, fresh):
    owner, leaf = _owner(gm, _attr_target(gm, "_buffers"))
    owner.register_buffer(leaf, _perturbed(getattr(owner, leaf)))


def register_parameter(gm, fresh):
    owner, leaf = _owner(gm, _attr_target(gm, "_parameters"))
    owner.register_parameter(leaf, Parameter(_perturbed(getattr(owner, leaf)).data))


def add_module(gm, fresh):
    parent, leaf = _owner(gm, _linear_path(gm))
    parent.add_module(leaf, fresh)


def load_state_dict(gm, fresh):
    gm.load_state_dict({k: _perturbed(v) for k, v in gm.state_dict().items()})


def write_in_place(gm, fresh):
    weight = gm.get_submodule(_linear_path(gm)).weight
    if not weight.data.flags.writeable:   # compiled: load_state_dict's rebind
        weight.data = weight.data.copy()
    weight.data += 0.5


REBINDS = [set_parameter, set_buffer, set_submodule, register_buffer,
           register_parameter, add_module, load_state_dict, write_in_place]


@pytest.mark.parametrize("rebind", REBINDS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_rebind_is_seen_by_the_next_call(subject, rebind):
    gm, x = SUBJECTS[subject](), _x()
    fresh = nn.Linear(16, 16)   # built first: its own setattrs move the epoch
    before = gm(x).data.copy()
    assert "_fx_bound" in vars(gm)
    rebind(gm, fresh)
    got = gm(x).data
    assert not np.array_equal(got, before)
    np.testing.assert_array_equal(got, fx.Interpreter(gm).run(x).data)


def test_module_dict_setitem_is_seen():
    gm, x = call_module(), _x()
    # the traced copy holds ``acts`` as a plain container: make it a dict
    gm.acts = nn.ModuleDict(dict(gm.acts.named_children()))
    fresh = nn.ReLU()
    before = gm(x).data.copy()
    gm.acts["out"] = fresh
    got = gm(x).data
    assert not np.array_equal(got, before)
    np.testing.assert_array_equal(got, fx.Interpreter(gm).run(x).data)


def delete_attribute(gm):
    parent, leaf = _owner(gm, _linear_path(gm))
    delattr(parent, leaf)


def delete_submodule(gm):
    assert gm.delete_submodule(_linear_path(gm))


def delete_unused_submodules(gm):
    path = _linear_path(gm)
    readers = {node: node.target for node in gm.graph.nodes
               if node.op in ("call_module", "get_attr")
               and node.target.startswith(path)}
    for node in readers:   # the graph stops reading the Linear ...
        node.target = "elsewhere"
    gm.delete_all_unused_submodules()
    for node, target in readers.items():   # ... and reads it again
        node.target = target


@pytest.mark.parametrize("remove", [delete_attribute, delete_submodule,
                                    delete_unused_submodules],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_removed_target_fails_like_the_interpreter(subject, remove):
    gm, x = SUBJECTS[subject](), _x()
    gm(x)
    remove(gm)
    with pytest.raises(AttributeError):
        fx.Interpreter(gm).run(x)
    with pytest.raises(AttributeError):
        gm(x)


DUPLICATES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
              "pickle": lambda gm: pickle.loads(pickle.dumps(gm))}


@pytest.mark.parametrize("duplicate", DUPLICATES)
@pytest.mark.parametrize("subject", SUBJECTS)
def test_a_rebind_on_a_copy_is_not_seen_by_the_original(subject, duplicate):
    gm, x = SUBJECTS[subject](), _x()
    before = gm(x).data.copy()
    dup = DUPLICATES[duplicate](gm)
    assert "_fx_bound" not in vars(dup)   # bound state is never shared
    # a root attribute: the one thing a shallow copy does not share
    name = next(n.target for n in gm.graph.nodes
                if n.op == "get_attr" and "." not in n.target)
    setattr(dup, name, _perturbed(getattr(dup, name)))
    got = dup(x).data
    assert not np.array_equal(got, before)
    np.testing.assert_array_equal(got, fx.Interpreter(dup).run(x).data)
    np.testing.assert_array_equal(gm(x).data, before)


def test_recompile_drops_the_bound_state():
    gm, x = many_ops(), _x()
    gm(x)
    gm.recompile()
    assert "_fx_bound" not in vars(gm)


@pytest.fixture
def getattr_calls(monkeypatch):
    calls = []
    walk = Module.__getattr__

    def counting(self, name):
        calls.append(name)
        return walk(self, name)

    monkeypatch.setattr(Module, "__getattr__", counting)
    return calls


def test_a_steady_compiled_forward_reads_no_module_attribute(getattr_calls):
    gm, x = many_ops(), _x()
    gm(x)
    getattr_calls.clear()
    gm(x)
    assert getattr_calls == []
    set_parameter(gm, None)   # a rebind walks every target once, then none again
    gm(x)
    assert len(getattr_calls) >= len(list(gm.parameters()))
    getattr_calls.clear()
    gm(x)
    assert getattr_calls == []


def test_rebinds_racing_in_threads_are_each_seen():
    """Eight threads rebind and call their own modules while eight more
    call one module another thread keeps rebinding: the epoch is the
    state they share.  A lost bump, or a binder keeping an epoch read
    after it resolved, leaves a module running on a value it replaced."""
    import sys
    import threading

    graph = fx.Graph()
    x = graph.placeholder("x")
    graph.output(graph.call_function(F.mul, (x, graph.get_attr("w"))))
    inputs, wrong, rounds = repro.ones(4), [], 200

    def module():
        return fx.GraphModule({"w": Parameter(repro.zeros(4))}, graph)

    def rebind(gm, check):
        for k in range(rounds):
            gm.w = Parameter(np.full(4, float(k), np.float32))
            if check and not np.array_equal(gm(inputs).data, np.full(4, float(k))):
                wrong.append(k)

    def call(gm):
        for _ in range(rounds):
            gm(inputs)

    shared = module()
    threads = [threading.Thread(target=rebind, args=(module(), True))
               for _ in range(8)]
    threads += [threading.Thread(target=call, args=(shared,)) for _ in range(8)]
    threads.append(threading.Thread(target=rebind, args=(shared, False)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert np.array_equal(shared(inputs).data, np.full(4, rounds - 1.0))
