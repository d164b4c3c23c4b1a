"""Tests for structural ops (cat/stack/pad/...) and losses."""

import numpy as np
import pytest

import repro
import repro.functional as F


class TestStructural:
    def test_cat_dim0(self):
        a, b = repro.ones(2, 3), repro.zeros(1, 3)
        assert F.cat([a, b]).shape == (3, 3)

    def test_cat_dim1(self):
        a, b = repro.ones(2, 3), repro.zeros(2, 2)
        assert F.cat([a, b], dim=1).shape == (2, 5)

    def test_stack(self):
        a, b = repro.ones(3), repro.zeros(3)
        out = F.stack([a, b])
        assert out.shape == (2, 3)
        assert F.stack([a, b], dim=1).shape == (3, 2)

    def test_flatten_function(self):
        assert F.flatten(repro.zeros(2, 3, 4), 1).shape == (2, 12)

    def test_reshape_transpose_permute(self):
        x = repro.randn(2, 3, 4)
        assert F.reshape(x, (6, 4)).shape == (6, 4)
        assert F.transpose(x, 0, 2).shape == (4, 3, 2)
        assert F.permute(x, (1, 2, 0)).shape == (3, 4, 2)

    def test_squeeze_unsqueeze_functions(self):
        x = repro.zeros(1, 3)
        assert F.squeeze(x).shape == (3,)
        assert F.unsqueeze(x, 0).shape == (1, 1, 3)

    def test_pad_last_dim(self):
        x = repro.ones(2, 3)
        out = F.pad(x, (1, 2))
        assert out.shape == (2, 6)
        assert out.data[0, 0] == 0.0 and out.data[0, -1] == 0.0

    def test_pad_two_dims(self):
        x = repro.ones(2, 3)
        out = F.pad(x, (1, 1, 2, 0))  # last dim (1,1), first dim (2,0)
        assert out.shape == (4, 5)

    def test_pad_value(self):
        out = F.pad(repro.zeros(1, 1), (1, 0), value=9.0)
        assert out.data[0, 0] == 9.0

    def test_pad_odd_length_raises(self):
        with pytest.raises(ValueError):
            F.pad(repro.zeros(2), (1,))

    def test_chunk_split_functions(self):
        x = repro.arange(10).float()
        assert len(F.chunk(x, 3)) == 3
        parts = F.split(x, 4)
        assert [p.shape[0] for p in parts] == [4, 4, 2]


class TestComparators:
    def test_allclose(self):
        a = repro.ones(3)
        assert F.allclose(a, a + 1e-8)
        assert not F.allclose(a, a + 1.0)

    def test_equal(self):
        assert F.equal(repro.ones(2), repro.ones(2))
        assert not F.equal(repro.ones(2), repro.zeros(2))
        assert not F.equal(repro.ones(2), repro.ones(3))
