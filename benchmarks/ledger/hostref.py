"""The host-speed reference.

This host's speed moves in spells of seconds to minutes, by a factor of up
to two and always downwards (no steal is reported; pinning changes
nothing).  Timing the same compiled forward in ten fresh processes gave a
whole-run median that spread 8-19% and a quietest-block median that spread
8-17%.  Dividing each block's times by what a fixed reference computation
took just before and just after the block brought the same ten runs to
1.4-2.8%: the reference slows down when the host does and not when the
program does.

The reference has three parts, one per kind of work the program's ops are
made of: a pure-Python loop (``py``), a chain of small matmuls (``np``)
and a 16 MB copy (``mem``).  What slows this host slows the first two by
up to 2x and the third much less (1.15-1.17 at the median where ``py``
read 1.34-1.43), and an op is slowed as its own mix is: a compiled forward
like ``py`` and ``np``, but re-compiling ResNet-50 (hashing and unpickling
100 MB of weights) only half as much.  So a workload names the parts its
op is made of, and :func:`slowdown` is the geometric mean of how much
longer than nominal each of them took.  The nominal times are the fastest
this host was seen to run them; they only fix the unit ("milliseconds on
this host when it is left alone").

A served workload cannot be read this way: its cores idle between batches,
and a reference run flat out between two stretches of traffic reads
anything from 1.0 to 2.0 while CPU time per request stays put.  Its
reference is :class:`Sampler`: short bursts of the same two kinds of work,
taken on the event loop all through the traffic, each after an idle wait
as a batch is.
"""

import asyncio
import math
import statistics
import time

import numpy as np

NOMINAL_MS = {"py": 0.70, "np": 2.25, "mem": 1.45}

_A = np.random.default_rng(0).standard_normal((256, 256)).astype(np.float32)
_SMALL = np.ascontiguousarray(_A[:64, :64])
_COPY = []    # the 16 MB source and destination, once a workload asks


def _py(n: int = 20000) -> None:
    total = 0
    for i in range(n):
        total += i * i


def _np() -> None:
    b = _A
    for _ in range(10):
        b = b @ _A * 1e-2


def _mem() -> None:
    if not _COPY:
        _COPY.extend((np.ones(4 << 20, np.float32),
                      np.zeros(4 << 20, np.float32)))
    np.copyto(_COPY[1], _COPY[0])


_PARTS = {"py": _py, "np": _np, "mem": _mem}


def _py_burst() -> None:
    _py(8000)


def _np_burst() -> None:
    b = _SMALL
    for _ in range(20):
        b = b @ _SMALL * 1e-2


def slowdown(parts) -> float:
    """How many times slower than nominal the host runs *parts* right now
    (3-4 ms of work on one core)."""
    log = 0.0
    for part in parts:
        t0 = time.perf_counter()
        _PARTS[part]()
        log += math.log((time.perf_counter() - t0) * 1e3 / NOMINAL_MS[part])
    return math.exp(log / len(parts))



class Sampler:
    """The host-speed reference of a workload served from an event loop.

    :meth:`run` is a coroutine to keep beside the traffic: every
    ``PERIOD_S`` it times a burst of Python and a burst of small matmuls
    (0.4 ms together) by the loop thread's own CPU clock, so waiting for
    the interpreter lock is not counted.  :attr:`slowdown` is the geometric
    mean of how much longer than nominal the two kinds took on average, and
    :attr:`cpu_s` what the sampling itself cost, to be taken off the
    process's CPU time.

    Measured over 80 runs each of ``served_burst`` and ``served_open``
    while the host drifted by 40%: CPU time per request followed the
    slowdown with a correlation of 0.96, and divided by it spread 4% and 6%
    (quartile distance over median) where the raw figure spread 25% and
    24%.  Latency and throughput follow it too, but weakly (exponents of
    0.15-0.4: most of a request's latency is the batch window, a timer), so
    they are left as the clock read them.
    """

    PERIOD_S = 0.05
    BURSTS = ((_py_burst, 0.25), (_np_burst, 0.11))   # (burst, nominal ms)

    def __init__(self):
        self.ms = [[] for _ in self.BURSTS]

    async def run(self) -> None:
        while True:
            await asyncio.sleep(self.PERIOD_S)
            for (burst, _), ms in zip(self.BURSTS, self.ms):
                c0 = time.thread_time()
                burst()
                ms.append((time.thread_time() - c0) * 1e3)

    @property
    def cpu_s(self) -> float:
        return sum(map(sum, self.ms)) / 1e3

    @property
    def slowdown(self) -> float:
        if not self.ms[0]:     # a phase shorter than one period
            return 1.0
        return math.exp(statistics.fmean(
            math.log(statistics.fmean(ms) / nominal)
            for (_, nominal), ms in zip(self.BURSTS, self.ms)))
