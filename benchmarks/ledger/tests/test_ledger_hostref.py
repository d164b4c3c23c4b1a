import asyncio
import math

import hostref


def test_slowdown_is_a_ratio_to_nominal_for_any_mix_of_parts():
    # No upper limit: under pytest numpy may already be loaded with two BLAS
    # threads, which this host runs 70x slower than one.
    for parts in (("py",), ("np",), ("mem",), ("py", "np"), ("py", "mem")):
        reading = hostref.slowdown(parts)
        assert math.isfinite(reading) and reading > 0.2, parts
    assert set(hostref.NOMINAL_MS) == {"py", "np", "mem"}


def test_sampler_reads_beside_the_traffic_and_knows_its_own_cost():
    async def traffic(sampler):
        task = asyncio.ensure_future(sampler.run())
        await asyncio.sleep(4.5 * sampler.PERIOD_S)
        task.cancel()
        await asyncio.gather(task, return_exceptions=True)

    sampler = hostref.Sampler()
    assert sampler.slowdown == 1.0 and sampler.cpu_s == 0.0   # no sample yet
    asyncio.run(traffic(sampler))
    assert 2 <= len(sampler.ms[0]) == len(sampler.ms[1]) <= 4
    assert math.isfinite(sampler.slowdown) and sampler.slowdown > 0.2
    assert sampler.cpu_s == sum(sampler.ms[0] + sampler.ms[1]) / 1e3 > 0
