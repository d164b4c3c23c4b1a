"""Sample statistics and the compare rule of the ledger (no numpy: the
thread-count environment must be set before numpy is first imported)."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence


def percentile(samples: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between
    order statistics — the same rule as ``numpy.percentile``'s default."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def supported_percentile(n: int,
                         candidates: Iterable[float] = (50, 90, 99, 99.9),
                         beyond: int = 10) -> float:
    """Highest candidate percentile with at least *beyond* of *n* samples
    lying beyond it; a tail read from fewer is one slow sample's value."""
    best = 50.0
    for q in candidates:
        if n * (100.0 - q) / 100.0 >= beyond:
            best = max(best, float(q))
    return best


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def worsening(reference: float, candidate: float, better: str) -> float:
    """By what share of *reference* is *candidate* worse (negative: better)."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    if reference == 0:
        return 0.0 if candidate == reference else math.inf
    delta = (candidate - reference) / abs(reference)
    return delta if better == "lower" else -delta


def verdict(reference: Sequence[float], candidate: Sequence[float],
            better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one (workload, metric).

    A reference set whose own quartile spread is wider than the bound
    cannot resolve a difference of the bound's size, so the pair is
    ``unresolved`` whatever the medians say.  A single reference run has
    no spread to judge and is compared on its value alone.
    """
    if len(reference) >= 2 and spread(reference) > bound:
        return "unresolved"
    worse = worsening(statistics.median(reference),
                      statistics.median(candidate), better)
    return "regressed" if worse > bound else "ok"


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation (average ranks on ties); ``None`` when
    either side is constant or fewer than three points are given."""
    if len(xs) != len(ys) or len(xs) < 3:
        return None

    def ranks(values):
        order = sorted(range(len(values)), key=values.__getitem__)
        out = [0.0] * len(values)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and \
                    values[order[j + 1]] == values[order[i]]:
                j += 1
            for k in range(i, j + 1):
                out[order[k]] = (i + j) / 2.0
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    return sum((a - mx) * (b - my) for a, b in zip(rx, ry)) / \
        math.sqrt(sxx * syy)
