"""Measurement utilities shared by the benchmark harness."""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable

__all__ = ["TimingResult", "measure"]


@dataclass
class TimingResult:
    """Wall-clock statistics over repeated runs of one callable."""

    times: list[float]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.times)

    @property
    def stdev(self) -> float:
        return statistics.stdev(self.times) if len(self.times) > 1 else 0.0

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def best(self) -> float:
        return min(self.times)

    def __repr__(self) -> str:
        return f"TimingResult(mean={self.mean:.6f}s, stdev={self.stdev:.6f}s, n={len(self.times)})"


def measure(fn: Callable[[], object], *, trials: int = 10, warmup: int = 2,
            disable_gc: bool = True) -> TimingResult:
    """Time *fn* over several trials (after warmup), GC paused per trial.

    Mirrors the paper's methodology of reporting mean and standard
    deviation over repeated inference runs (Appendices B–D use 30 trials).
    """
    for _ in range(warmup):
        fn()
    times: list[float] = []
    gc_was_enabled = gc.isenabled()
    if disable_gc:
        gc.disable()
    try:
        for _ in range(trials):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
    finally:
        if disable_gc and gc_was_enabled:
            gc.enable()
    return TimingResult(times)
