import asyncio

from probes import Probes
from spans import NullTracer, Tracer


def test_failed_probe_is_missing_with_its_reason_and_the_run_goes_on():
    probes = Probes(NullTracer())

    def gone():
        from repro.fx.passes import no_such_pass  # noqa: F401

    probes.take(["layer.gone_ms", "layer.gone_count"], gone)
    probes.take(["layer.fine_ms"], lambda: (1.5,))
    assert probes.values == {"layer.fine_ms": 1.5}
    assert set(probes.missing) == {"layer.gone_ms", "layer.gone_count"}
    assert "ImportError" in probes.missing["layer.gone_ms"]
    assert "no_such_pass" in probes.missing["layer.gone_ms"]


def test_probe_returning_the_wrong_number_of_values_is_missing():
    probes = Probes(NullTracer())
    probes.take(["a", "b"], lambda: (1.0,))
    assert "b" in probes.missing and "ValueError" in probes.missing["b"]


def test_async_probe_follows_the_same_rule_and_is_spanned():
    tracer = Tracer()
    probes = Probes(tracer)

    async def fine():
        return (2.0,)

    async def broken():
        raise KeyError("stats")

    async def main():
        await probes.take_async(["ok"], fine)
        await probes.take_async(["bad"], broken)

    asyncio.run(main())
    assert probes.values == {"ok": 2.0}
    assert probes.missing["bad"].startswith("KeyError")
    assert [s[1] for s in tracer.spans] == ["probe.ok", "probe.bad"]
