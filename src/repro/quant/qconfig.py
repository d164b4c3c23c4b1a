"""Quantization configuration: which observers to use where."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..tensor import qint8, quint8
from .observer import HistogramObserver, MinMaxObserver, ObserverBase

__all__ = ["QConfig", "default_qconfig", "histogram_qconfig"]


@dataclass(frozen=True)
class QConfig:
    """Factories for the observers attached to activations and weights.

    Activations are observed with affine ``quint8`` parameters; weights
    are quantized symmetrically to ``qint8`` (FBGEMM convention).
    """

    activation: Callable[[], ObserverBase]
    weight: Callable[[], ObserverBase]


default_qconfig = QConfig(
    activation=lambda: MinMaxObserver(dtype=quint8, symmetric=False),
    weight=lambda: MinMaxObserver(dtype=qint8, symmetric=True),
)

histogram_qconfig = QConfig(
    activation=lambda: HistogramObserver(dtype=quint8, symmetric=False),
    weight=lambda: MinMaxObserver(dtype=qint8, symmetric=True),
)
