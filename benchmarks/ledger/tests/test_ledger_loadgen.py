import asyncio
import random
import statistics

import pytest

from loadgen import Recorder, closed_loop, exponential_schedule, open_loop
from spans import Tracer

REQUESTS = [("m", i, i) for i in range(4)]     # input == expected reply


def same(name, got, expected):
    return got == expected


def test_closed_loop_keeps_exactly_its_clients_in_flight():
    in_flight = peak = 0

    async def infer(name, x):
        nonlocal in_flight, peak
        in_flight += 1
        peak = max(peak, in_flight)
        await asyncio.sleep(0.001)
        in_flight -= 1
        return x

    phase = asyncio.run(closed_loop(infer, REQUESTS, same, clients=3,
                                    per_client=5))
    out = phase.total()
    assert peak == 3                     # a client waits for its reply
    assert (out.attempted, out.good, out.failed) == (15, 15, 0)
    assert len(out.latencies_ms) == 15 and min(out.latencies_ms) >= 1.0
    assert phase.extra["clients"] == 3


def test_closed_loop_counts_wrong_refused_and_corrupted_replies():
    async def infer(name, x):
        if x == 1:
            raise RuntimeError("refused")
        return x + 100 if x == 2 else x

    out = asyncio.run(closed_loop(
        infer, REQUESTS, same, clients=1, per_client=8,
        corrupt=lambda op, reply: -1 if op == 0 else reply)).total()
    # ops 1, 5 refused; 2, 6 wrong; op 0 corrupted by the self-check
    assert (out.attempted, out.failed, out.good) == (8, 5, 3)
    assert len(out.latencies_ms) == 6    # refused ops have no latency


def test_open_loop_times_from_due_time_and_reports_lateness():
    due = [0.0, 0.001, 0.002, 0.003]
    stall = 0.05

    async def infer(name, x):
        if x == 0:
            # A blocking stall on the loop: the generator cannot send the
            # later requests on time, and they must be charged for it.
            import time
            time.sleep(stall)
        return x

    phase = asyncio.run(open_loop(infer, REQUESTS, same, due, limit_ms=20.0))
    late = phase.extra["late_ms"]
    out = phase.total()
    assert out.attempted == 4 and out.failed == 0
    assert max(late) >= (stall - 0.004) * 1e3        # generator ran late
    # latency runs from the due time, so it includes the lateness
    assert max(out.latencies_ms) >= max(late)
    assert out.good < 4                               # stalled ones miss 20 ms
    assert out.wall_s == pytest.approx(due[-1])       # the schedule's length


def test_open_loop_unanswered_and_refused_requests_miss_the_limit():
    async def infer(name, x):
        if x == 1:
            await asyncio.sleep(3600)     # never answered
        if x == 2:
            raise RuntimeError("refused")
        return x

    due = [0.001 * i for i in range(8)]
    out = asyncio.run(open_loop(infer, REQUESTS, same, due, limit_ms=50.0,
                                drain_s=0.2)).total()
    assert out.attempted == 8
    assert out.failed == 4                # 2 unanswered + 2 refused
    assert out.good == 4
    assert len(out.latencies_ms) == 4


def test_open_loop_spans_share_the_request_id():
    tracer = Tracer()

    async def infer(name, x):
        return x

    asyncio.run(open_loop(infer, REQUESTS, same, [0.0, 0.001], 5.0,
                          tracer=tracer, first_op=40))
    by_op = {}
    for _, name, _, _, parent, op in tracer.spans:
        by_op.setdefault(op, []).append((name, parent))
    assert sorted(by_op) == [40, 41]
    names = [n for n, _ in by_op[40]]
    assert names == ["request", "loadgen.late", "server.infer", "oracle.check"]


def test_schedule_is_seeded_and_has_the_asked_rate():
    a = exponential_schedule(random.Random(5), 500.0, 4000)
    b = exponential_schedule(random.Random(5), 500.0, 4000)
    c = exponential_schedule(random.Random(6), 500.0, 4000)
    assert a == b and a != c
    assert a == sorted(a)
    gaps = [y - x for x, y in zip(a, a[1:])]
    assert statistics.fmean(gaps) == pytest.approx(1 / 500.0, rel=0.1)


def test_recorder_cuts_equal_blocks():
    recorder = Recorder(90)            # 40 blocks at most, so 3 ops each
    assert recorder.size == 3
    for i in range(88):
        recorder.op(float(i), ok=(i != 7))
    blocks = recorder.finish().blocks
    assert [b.attempted for b in blocks] == [3] * 29 + [1]
    assert blocks[2].failed == 1 and blocks[2].good == 2
    assert blocks[0].latencies_ms == [0.0, 1.0, 2.0]
    assert all(b.wall_s > 0 and b.slowdown == 1.0 for b in blocks)
    assert Recorder(5).size == 1 and Recorder(28000).size == 700


def test_recorder_takes_the_hosts_speed_out_of_each_block():
    """The reference is read on both sides of a block; a block's times are
    divided by the mean of the two readings, and reading it costs no block
    anything."""
    import time
    readings = iter([1.0, 1.0, 3.0, 3.0])    # the host slows down 3x

    def reference():
        time.sleep(0.02)
        return next(readings)

    recorder = Recorder(6, reference=reference)      # 6 blocks of one op
    for latency in (10.0, 20.0, 30.0):
        recorder.op(latency, True)
    samples = recorder.finish()
    assert [b.slowdown for b in samples.blocks] == [1.0, 2.0, 3.0]
    assert samples.total().latencies_ms == [10.0, 10.0, 10.0]
    assert samples.total().wall_s < 0.02


def test_recorder_charges_untimed_work_to_no_block():
    import time
    recorder = Recorder(4)
    recorder.untimed(lambda: time.sleep(0.05))
    for _ in range(4):
        recorder.op(1.0, True)
    assert recorder.finish().total().wall_s < 0.04
