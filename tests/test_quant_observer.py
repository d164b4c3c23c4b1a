"""Tests for observers."""

import numpy as np
import pytest

import repro
from repro.quant import (
    HistogramObserver,
    MinMaxObserver,
    MovingAverageMinMaxObserver,
)
from repro.tensor import qint8, quint8


class TestMinMaxObserver:
    def test_forward_is_identity(self):
        obs = MinMaxObserver()
        x = repro.randn(10)
        assert obs(x) is x

    def test_tracks_extremes_across_batches(self):
        obs = MinMaxObserver()
        obs(repro.tensor([0.0, 1.0]))
        obs(repro.tensor([-3.0, 0.5]))
        assert obs.min_val == -3.0
        assert obs.max_val == 1.0

    def test_calculate_qparams(self):
        obs = MinMaxObserver()
        obs(repro.tensor([-1.0, 1.0]))
        scale, zp = obs.calculate_qparams()
        assert scale > 0 and 0 <= zp <= 255

    def test_unobserved_raises(self):
        with pytest.raises(RuntimeError, match="calibration"):
            MinMaxObserver().calculate_qparams()

    def test_symmetric_weight_observer(self):
        obs = MinMaxObserver(dtype=qint8, symmetric=True)
        obs(repro.tensor([-2.0, 1.0]))
        scale, zp = obs.calculate_qparams()
        assert zp == 0

    def test_extra_repr(self):
        obs = MinMaxObserver()
        obs(repro.ones(2))
        assert "min=" in repr(obs)


class TestMovingAverageObserver:
    def test_first_batch_initializes(self):
        obs = MovingAverageMinMaxObserver()
        obs(repro.tensor([-1.0, 1.0]))
        assert obs.min_val == -1.0 and obs.max_val == 1.0

    def test_moves_slowly_toward_outliers(self):
        obs = MovingAverageMinMaxObserver(averaging_constant=0.1)
        obs(repro.tensor([-1.0, 1.0]))
        obs(repro.tensor([-100.0, 100.0]))
        assert obs.max_val < 50  # smoothed, not jumped


class TestHistogramObserver:
    def test_qparams_from_distribution(self):
        obs = HistogramObserver(bins=128)
        for _ in range(5):
            obs(repro.randn(1000))
        scale, zp = obs.calculate_qparams()
        assert 0 < scale < 1.0

    def test_clips_outliers_tighter_than_minmax(self):
        data = np.concatenate([np.random.default_rng(0).normal(size=10000),
                               [1000.0]]).astype(np.float32)
        x = repro.tensor(data)
        mm = MinMaxObserver()
        mm(x)
        hist = HistogramObserver(bins=512)
        hist(x)
        s_mm, _ = mm.calculate_qparams()
        s_h, _ = hist.calculate_qparams()
        assert s_h < s_mm  # histogram ignores the single outlier

    def test_range_widening_across_batches(self):
        obs = HistogramObserver(bins=64)
        obs(repro.tensor([0.0, 1.0]))
        obs(repro.tensor([-5.0, 5.0]))
        assert obs.hist_min <= -5.0 and obs.hist_max >= 5.0

    def test_unobserved_raises(self):
        with pytest.raises(RuntimeError):
            HistogramObserver().calculate_qparams()


@pytest.mark.parametrize("observer", [MinMaxObserver, MovingAverageMinMaxObserver,
                                      HistogramObserver])
def test_a_non_finite_value_is_not_an_observation(observer):
    """Each observer reports what it reports for the same batches with the
    NaN and inf removed; a batch with nothing finite changes nothing."""
    batches = [[1.0, float("nan"), 5.0], [float("inf")], [-2.0, 3.0, 4.0]]
    with_nan, without = observer(), observer()
    for batch in batches:
        with_nan(repro.tensor(batch))
        finite = [v for v in batch if np.isfinite(v)]
        if finite:
            without(repro.tensor(finite))
    assert with_nan.calculate_qparams() == without.calculate_qparams()
