"""Tests for the Module base class: registration, traversal, state."""

import numpy as np
import pytest

import repro
from repro import nn
from repro.nn import Module, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(repro.ones(2, 2))
        self.register_buffer("buf", repro.zeros(2))

    def forward(self, x):
        return x


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.a = Leaf()
        self.b = nn.Sequential(Leaf(), Leaf())
        self.top = Parameter(repro.zeros(1))

    def forward(self, x):
        return self.b(self.a(x))


class TestRegistration:
    def test_parameter_registered(self):
        leaf = Leaf()
        assert "weight" in leaf._parameters
        assert leaf.weight is leaf._parameters["weight"]

    def test_buffer_registered(self):
        leaf = Leaf()
        assert "buf" in leaf._buffers

    def test_submodule_registered(self):
        t = Tree()
        assert "a" in t._modules

    def test_plain_attr_not_registered(self):
        leaf = Leaf()
        leaf.some_int = 5
        assert "some_int" not in leaf._parameters
        assert leaf.some_int == 5

    def test_setattr_before_init_raises(self):
        class Bad(Module):
            def __init__(self):
                self.x = 1  # no super().__init__()

        with pytest.raises(AttributeError):
            Bad()

    def test_reassignment_moves_between_tables(self):
        leaf = Leaf()
        leaf.buf = Parameter(repro.ones(2))     # a Parameter registers as one
        assert "buf" in leaf._parameters and "buf" not in leaf._buffers
        leaf.weight = nn.ReLU()                 # a Module as a submodule
        assert "weight" in leaf._modules and "weight" not in leaf._parameters
        leaf.weight = 3                         # anything else is plain
        assert "weight" not in leaf._modules and leaf.weight == 3

    def test_tensor_reassigned_to_a_parameter_stays_a_parameter_entry(self):
        lin = nn.Linear(3, 3)
        lin.weight = repro.zeros(3, 3)
        assert lin._parameters["weight"] is lin.weight
        assert list(lin.state_dict()) == ["weight", "bias"]
        assert "weight" not in vars(lin)

    def test_tensor_reassigned_to_a_buffer_stays_a_buffer(self):
        bn = nn.BatchNorm2d(4)
        before = list(bn.state_dict())
        bn.running_mean = repro.zeros(4)
        assert bn._buffers["running_mean"] is bn.running_mean
        assert list(bn.state_dict()) == before

    def test_delattr(self):
        leaf = Leaf()
        del leaf.weight
        with pytest.raises(AttributeError):
            _ = leaf.weight

    def test_register_buffer_type_check(self):
        m = Module()
        with pytest.raises(TypeError):
            m.register_buffer("x", 42)

    def test_register_parameter_type_check(self):
        m = Module()
        with pytest.raises(TypeError):
            m.register_parameter("p", repro.ones(1))  # Tensor, not Parameter

    def test_none_parameter_allowed(self):
        m = Module()
        m.register_parameter("bias", None)
        assert m._parameters["bias"] is None

    def test_missing_attribute_raises(self):
        with pytest.raises(AttributeError):
            _ = Module().nothing_here


class TestEpoch:
    """Every funnel that can change what a dotted path resolves to moves
    the epoch a generated forward binds its state under."""

    @pytest.mark.parametrize("change", [
        lambda t: setattr(t.a, "weight", Parameter(repro.ones(2, 2))),
        lambda t: setattr(t.a, "buf", repro.ones(2)),
        lambda t: setattr(t, "a", t.top_leaf),
        lambda t: setattr(t, "plain", 1),
        lambda t: delattr(t.a, "buf"),
        lambda t: t.a.register_buffer("buf", None),
        lambda t: t.a.register_parameter("weight", None),
        lambda t: t.add_module("a", None),
        lambda t: t.eval(),
    ])
    def test_a_change_moves_the_epoch(self, change):
        from repro.nn import module
        tree = Tree()
        object.__setattr__(tree, "top_leaf", Leaf())   # built, then read
        before = module._EPOCH[0]
        change(tree)
        assert module._EPOCH[0] != before

    def test_reads_leave_the_epoch_alone(self):
        from repro.nn import module
        tree = Tree()
        before = module._EPOCH[0]
        tree(repro.ones(2))
        _ = tree.a.weight, tree.state_dict(), list(tree.named_modules())
        assert module._EPOCH[0] == before


class TestTraversal:
    def test_named_modules_paths(self):
        t = Tree()
        names = dict(t.named_modules())
        assert "" in names and names[""] is t
        assert "a" in names
        assert "b.0" in names and "b.1" in names

    def test_named_parameters_paths(self):
        t = Tree()
        names = [n for n, _ in t.named_parameters()]
        assert "top" in names
        assert "a.weight" in names
        assert "b.0.weight" in names

    def test_shared_parameter_deduped(self):
        t = Tree()
        t.b[1].weight = t.a.weight  # share
        names = [n for n, _ in t.named_parameters()]
        assert names.count("a.weight") == 1
        assert "b.1.weight" not in names  # deduped by identity

    def test_named_buffers(self):
        t = Tree()
        names = [n for n, _ in t.named_buffers()]
        assert "a.buf" in names and "b.0.buf" in names

    def test_children_vs_modules(self):
        t = Tree()
        assert len(list(t.children())) == 2
        assert len(list(t.modules())) == 5  # tree, a, b, b.0, b.1

    def test_get_submodule(self):
        t = Tree()
        assert t.get_submodule("b.0") is t.b[0]
        assert t.get_submodule("") is t
        with pytest.raises(AttributeError):
            t.get_submodule("b.7")

    def test_get_parameter_and_buffer(self):
        t = Tree()
        assert t.get_parameter("a.weight") is t.a.weight
        assert t.get_buffer("a.buf") is t.a.buf
        with pytest.raises(AttributeError):
            t.get_parameter("a.nope")


class TestStateDict:
    def test_roundtrip(self):
        t1, t2 = Tree(), Tree()
        t1.a.weight.fill_(5.0)
        t2.load_state_dict(t1.state_dict())
        assert np.array_equal(t2.a.weight.data, t1.a.weight.data)

    def test_contains_params_and_buffers(self):
        sd = Tree().state_dict()
        assert "a.weight" in sd and "a.buf" in sd and "top" in sd

    def test_strict_mismatch_raises(self):
        t = Tree()
        with pytest.raises(KeyError):
            t.load_state_dict({"bogus": repro.ones(1)})

    def test_non_strict_reports(self):
        t = Tree()
        missing, unexpected = t.load_state_dict({"bogus": repro.ones(1)}, strict=False)
        assert "bogus" in unexpected
        assert "top" in missing


class TestModes:
    def test_train_eval_recursive(self):
        t = Tree()
        assert t.training
        t.eval()
        assert not t.training and not t.a.training and not t.b[1].training
        t.train()
        assert t.b[0].training

    def test_apply(self):
        t = Tree()
        seen = []
        t.apply(lambda m: seen.append(type(m).__name__))
        assert "Tree" in seen and seen.count("Leaf") == 3

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(repro.ones(1))

    def test_repr_contains_children(self):
        r = repr(Tree())
        assert "Sequential" in r and "Leaf" in r
