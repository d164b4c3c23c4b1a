"""Observers (§6.2.1, phase 1): modules that record activation statistics.

"A preparation phase ... instruments the program with 'observer' objects
that record statistical information about the floating-point values
contained in Tensor values at various points in the program."  Observers
are ordinary modules inserted as ``call_module`` nodes by
:func:`repro.quant.quantize_fx.prepare_fx`; their ``forward`` is the
identity, so the prepared model computes exactly what the original did.
"""

from __future__ import annotations

import numpy as np

from ..nn import Module
from ..tensor import Tensor, quint8
from ..tensor.dtype import DType
from .kernels import choose_qparams

__all__ = [
    "ObserverBase",
    "MinMaxObserver",
    "MovingAverageMinMaxObserver",
    "HistogramObserver",
]


class ObserverBase(Module):
    """Base observer: identity forward + qparam calculation interface."""

    def __init__(self, dtype: DType = quint8, symmetric: bool = False):
        super().__init__()
        self.dtype = dtype
        self.symmetric = symmetric

    def observe(self, x: Tensor) -> None:
        raise NotImplementedError

    def forward(self, x):
        # a NaN or inf says nothing about the range: observe the finite elements
        finite = x.data[np.isfinite(x.data)] if isinstance(x, Tensor) else ()
        if len(finite):
            self.observe(Tensor._wrap(finite))
        return x

    def calculate_qparams(self) -> tuple[float, int]:
        raise NotImplementedError


class MinMaxObserver(ObserverBase):
    """Tracks the running global min/max of everything it sees."""

    def __init__(self, dtype: DType = quint8, symmetric: bool = False):
        super().__init__(dtype, symmetric)
        self.min_val = float("inf")
        self.max_val = float("-inf")

    def observe(self, x: Tensor) -> None:
        self.min_val = min(self.min_val, float(x.data.min()))
        self.max_val = max(self.max_val, float(x.data.max()))

    @property
    def has_stats(self) -> bool:
        return self.min_val <= self.max_val

    def calculate_qparams(self) -> tuple[float, int]:
        if not self.has_stats:
            raise RuntimeError(
                "observer has not seen any data; run calibration batches "
                "through the prepared model first"
            )
        return choose_qparams(self.min_val, self.max_val, self.dtype, self.symmetric)

    def extra_repr(self) -> str:
        return f"min={self.min_val:.4g}, max={self.max_val:.4g}, dtype={self.dtype.name}"


class MovingAverageMinMaxObserver(MinMaxObserver):
    """Exponential moving average of per-batch min/max — smoother under
    outlier batches, the default for quantization-aware training."""

    def __init__(self, dtype: DType = quint8, symmetric: bool = False,
                 averaging_constant: float = 0.01):
        super().__init__(dtype, symmetric)
        self.averaging_constant = averaging_constant
        self._initialized = False

    def observe(self, x: Tensor) -> None:
        mn, mx = float(x.data.min()), float(x.data.max())
        if not self._initialized:
            self.min_val, self.max_val = mn, mx
            self._initialized = True
            return
        c = self.averaging_constant
        self.min_val += c * (mn - self.min_val)
        self.max_val += c * (mx - self.max_val)


class HistogramObserver(ObserverBase):
    """Histogram-based range selection: chooses the clip range that
    minimizes expected quantization squared error over the observed
    distribution (a simplified version of FBGEMM's histogram observer).
    """

    def __init__(self, dtype: DType = quint8, symmetric: bool = False,
                 bins: int = 512):
        super().__init__(dtype, symmetric)
        self.bins = bins
        self.histogram: np.ndarray | None = None
        self.hist_min = 0.0
        self.hist_max = 0.0

    def observe(self, x: Tensor) -> None:
        data = x.data.reshape(-1)
        mn, mx = float(data.min()), float(data.max())
        if self.histogram is None:
            self.hist_min, self.hist_max = mn, mx
            if self.hist_min == self.hist_max:
                self.hist_max = self.hist_min + 1e-6
            self.histogram, _ = np.histogram(
                data, bins=self.bins, range=(self.hist_min, self.hist_max)
            )
            return
        # widen range if needed, rebinning the existing histogram
        new_min, new_max = min(mn, self.hist_min), max(mx, self.hist_max)
        if new_min < self.hist_min or new_max > self.hist_max:
            old_edges = np.linspace(self.hist_min, self.hist_max, self.bins + 1)
            centers = (old_edges[:-1] + old_edges[1:]) / 2
            combined = np.repeat(centers, np.maximum(self.histogram, 0))
            self.hist_min, self.hist_max = new_min, new_max
            self.histogram, _ = np.histogram(
                combined, bins=self.bins, range=(new_min, new_max)
            ) if combined.size else (np.zeros(self.bins, dtype=np.int64), None)
        new_hist, _ = np.histogram(data, bins=self.bins,
                                   range=(self.hist_min, self.hist_max))
        self.histogram = self.histogram + new_hist

    @property
    def has_stats(self) -> bool:
        return self.histogram is not None

    def calculate_qparams(self) -> tuple[float, int]:
        if self.histogram is None:
            raise RuntimeError("observer has not seen any data")
        edges = np.linspace(self.hist_min, self.hist_max, self.bins + 1)
        centers = (edges[:-1] + edges[1:]) / 2
        weights = self.histogram.astype(np.float64)
        total = weights.sum()
        if total == 0:
            return choose_qparams(self.hist_min, self.hist_max, self.dtype, self.symmetric)

        best = None
        # search over candidate clip fractions; expected squared error =
        # uniform rounding error (scale^2 / 12) on in-range mass plus the
        # squared clipping distance on out-of-range mass
        for keep in (1.0, 0.9999, 0.999, 0.995, 0.99, 0.97, 0.95, 0.90):
            lo, hi = _clip_range(centers, weights, keep)
            scale, zp = choose_qparams(lo, hi, self.dtype, self.symmetric)
            in_range = (centers >= lo) & (centers <= hi)
            rounding = weights[in_range].sum() * (scale ** 2) / 12.0
            clip_dist = np.where(
                centers < lo, lo - centers, np.where(centers > hi, centers - hi, 0.0)
            )
            clipping = float(((clip_dist ** 2) * weights).sum())
            err = (rounding + clipping) / total
            if best is None or err < best[0]:
                best = (err, scale, zp)
        assert best is not None
        return best[1], best[2]


def _clip_range(centers: np.ndarray, weights: np.ndarray, keep: float):
    """Smallest interval containing *keep* of the histogram mass."""
    if keep >= 1.0:
        return float(centers[0]), float(centers[-1])
    cdf = np.cumsum(weights) / weights.sum()
    tail = (1.0 - keep) / 2
    lo_i = int(np.searchsorted(cdf, tail))
    hi_i = int(np.searchsorted(cdf, 1.0 - tail))
    hi_i = min(max(hi_i, lo_i + 1), len(centers) - 1)
    return float(centers[lo_i]), float(centers[hi_i])
