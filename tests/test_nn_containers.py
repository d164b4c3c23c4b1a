"""Tests for Sequential / ModuleList / ModuleDict and attention/rnn layers."""

from collections import OrderedDict

import numpy as np
import pytest

import repro
from repro import nn


class TestSequential:
    def test_applies_in_order(self):
        seq = nn.Sequential(nn.Linear(4, 8), nn.ReLU(), nn.Linear(8, 2))
        assert seq(repro.randn(3, 4)).shape == (3, 2)

    def test_ordered_dict_construction(self):
        seq = nn.Sequential(OrderedDict([("fc", nn.Linear(2, 2)), ("act", nn.ReLU())]))
        assert seq.get_submodule("fc") is seq[0]

    def test_len_iter_getitem(self):
        seq = nn.Sequential(nn.ReLU(), nn.Tanh())
        assert len(seq) == 2
        assert isinstance(seq[1], nn.Tanh)
        assert isinstance(seq[-1], nn.Tanh)
        assert [type(m).__name__ for m in seq] == ["ReLU", "Tanh"]

    def test_slice_returns_sequential(self):
        seq = nn.Sequential(nn.ReLU(), nn.Tanh(), nn.Sigmoid())
        sub = seq[1:]
        assert isinstance(sub, nn.Sequential)
        assert len(sub) == 2

    def test_append(self):
        seq = nn.Sequential(nn.ReLU())
        seq.append(nn.Tanh())
        assert len(seq) == 2


class TestModuleList:
    def test_registration(self):
        ml = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(ml) == 3
        assert len(list(ml[0].parameters())) == 2
        names = [n for n, _ in ml.named_parameters()]
        assert "0.weight" in names and "2.bias" in names

    def test_append_extend(self):
        ml = nn.ModuleList()
        ml.append(nn.ReLU())
        ml.extend([nn.Tanh(), nn.Sigmoid()])
        assert len(ml) == 3

    def test_slice(self):
        ml = nn.ModuleList([nn.ReLU(), nn.Tanh(), nn.Sigmoid()])
        assert len(ml[:2]) == 2


class TestModuleDict:
    def test_mapping_interface(self):
        md = nn.ModuleDict({"a": nn.ReLU()})
        md["b"] = nn.Tanh()
        assert "a" in md and "b" in md
        assert len(md) == 2
        assert set(md.keys()) == {"a", "b"}
        assert isinstance(md["b"], nn.Tanh)


class TestAttention:
    def test_output_shape(self):
        mha = nn.MultiheadAttention(16, 4)
        x = repro.randn(2, 5, 16)
        out, weights = mha(x, x, x)
        assert out.shape == (2, 5, 16)
        assert weights.shape == (2, 4, 5, 5)

    def test_weights_are_distributions(self):
        mha = nn.MultiheadAttention(8, 2)
        x = repro.randn(1, 4, 8)
        _, weights = mha(x, x, x)
        assert np.allclose(weights.data.sum(axis=-1), 1.0, atol=1e-5)

    def test_mask(self):
        mha = nn.MultiheadAttention(8, 2)
        x = repro.randn(1, 3, 8)
        mask = repro.tensor(np.triu(np.full((3, 3), -1e9, dtype=np.float32), k=1))
        _, weights = mha(x, x, x, attn_mask=mask)
        # causal: upper triangle must be ~0
        assert float(weights.data[0, 0, 0, 1]) < 1e-6

    def test_cross_attention_lengths(self):
        mha = nn.MultiheadAttention(8, 2)
        q = repro.randn(2, 3, 8)
        kv = repro.randn(2, 7, 8)
        out, weights = mha(q, kv, kv)
        assert out.shape == (2, 3, 8)
        assert weights.shape == (2, 2, 3, 7)

    def test_indivisible_heads_raise(self):
        with pytest.raises(ValueError):
            nn.MultiheadAttention(10, 3)
