import json

import pytest

import run
import spec
from loadgen import Recorder


def run_set(values, failed=0):
    """A run-set document whose untraced runs carry *values*:
    {workload: {metric: [one value per run]}}; each run attempted 10 000
    ops and the first run of each workload failed *failed* of them."""
    runs = []
    for workload, metrics in values.items():
        n = len(next(iter(metrics.values())))
        for i in range(n):
            runs.append({"workload": workload, "trace": 0,
                         "attempted": 10_000, "failed": 0 if i else failed,
                         "metrics": {m: {"value": v[i], "unit": "x"}
                                     for m, v in metrics.items()}})
    return {"spec": spec.benchmark_json(), "runs": runs,
            "summary": run.summarise(runs), "failures": run.failures(runs)}


REFERENCE = run_set({
    "steady_many_ops": {"op_p50_ms": [1.00, 1.01, 0.99, 1.00, 1.02],
                        "ops_per_s": [1000, 1010, 990, 1005, 995]},
    "cold_resnet50": {"op_p50_ms": [3000, 4200, 3100, 3900, 3500]},
})


def test_verdict_per_pair():
    candidate = run_set({
        "steady_many_ops": {"op_p50_ms": [1.30, 1.31, 1.29],     # +30%
                            "ops_per_s": [1100, 1090, 1110]},     # a gain
        "cold_resnet50": {"op_p50_ms": [9000, 9100, 9050]},
    })
    rows = {(w, m): v for w, m, v, _, _ in
            run.compare_docs(REFERENCE, candidate)}
    assert rows[("steady_many_ops", "op_p50_ms")] == "regressed"
    assert rows[("steady_many_ops", "ops_per_s")] == "ok"
    # the reference's own spread (≈23%) is wider than the 15% bound
    assert rows[("cold_resnet50", "op_p50_ms")] == "unresolved"


def test_any_increase_in_failed_share_is_a_regression(tmp_path):
    """One wrong output in 50 000 moves no median; it must still show."""
    steady = {"steady_many_ops": {"op_p50_ms": [1.0] * 5,
                                  "ops_per_s": [1000.0] * 5}}
    clean, one_wrong = run_set(steady), run_set(steady, failed=1)
    assert one_wrong["failures"]["steady_many_ops"] == {
        "attempted": 50_000, "failed": 1, "failed_share": 1 / 50_000}

    def failed_share(a, b):
        rows = {(w, m): v for w, m, v, _, _ in run.compare_docs(a, b)}
        assert rows[("steady_many_ops", "op_p50_ms")] == "ok"
        return rows[("steady_many_ops", "failed_share")]

    assert failed_share(clean, clean) == "ok"
    assert failed_share(clean, one_wrong) == "regressed"
    assert failed_share(one_wrong, clean) == "ok"          # fewer: a gain
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(clean))
    b.write_text(json.dumps(one_wrong))
    assert run.compare(str(a), str(b)) == 1


def test_one_clean_block_does_not_hide_replies_past_the_limit():
    """Open loop at 100 req/s: the first block is clean, then one reply in
    three is past the limit.  Goodput is 67/s, not the schedule's 100/s;
    the op's cost is read where the host (here: the lateness) left it
    alone."""
    recorder = Recorder(100, wall_per_op=0.01)       # blocks of 3 ops
    for i in range(100):
        late = i >= 3 and i % 3 == 0
        recorder.op(9.0 if late else 1.0, True, good=not late)
    values = run.end_to_end(0.0, recorder.finish(), 1.0)
    assert values["ops_per_s"] == pytest.approx(67.0)
    assert values["op_p50_ms"] == 1.0


def test_served_cpu_time_is_whole_run_less_the_sampler_over_its_slowdown():
    """No block is preferred for CPU time: a spell of the host outlasts a
    run.  The sampling's own CPU time is not the program's."""
    cpu = iter([0.0, 1.0, 1.0, 3.0, 3.0, 3.0])     # two blocks: 1 s, 2 s
    recorder = Recorder(2, cpu_clock=lambda: next(cpu))
    recorder.op(1.0, True)
    recorder.op(1.0, True)
    samples = recorder.finish()
    samples.cpu_slowdown, samples.sampler_cpu_s = 2.0, 0.5
    values = run.end_to_end(0.0, samples, 1.0)
    assert values["cpu_ms_per_op"] == \
        pytest.approx((3.0 - 0.5) / 2.0 / 2 * 1e3)
    assert run.whole_run(samples)["raw_cpu_ms_per_op"] == \
        pytest.approx((3.0 - 0.5) / 2 * 1e3)


def test_referenced_workloads_are_read_over_every_op():
    """With the host's speed taken out there is no quietest block to
    prefer: the median is over all ops, CPU time over the whole run."""
    slow = iter([1.0, 1.0, 2.0, 2.0, 2.0])
    recorder = Recorder(4, reference=lambda: next(slow))
    for latency in (4.0, 6.0, 8.0, 10.0):
        recorder.op(latency, True)
    samples = recorder.finish()
    assert samples.referenced
    assert [b.slowdown for b in samples.blocks] == [1.0, 1.5, 2.0, 2.0]
    values = run.end_to_end(0.0, samples, 1.0)
    assert values["op_p50_ms"] == pytest.approx(4.0)   # 4, 4, 4, 5
    assert run.whole_run(samples)["raw_op_p50_ms"] == pytest.approx(7.0)


def test_a_run_whose_every_op_fails_still_reports():
    """Crashed children have no latency; the run must end in a result
    (correct: false), not in a harness error."""
    recorder = Recorder(5)
    for _ in range(5):
        recorder.op(None, False)
    samples = recorder.finish()
    values = run.end_to_end(1.5, samples, 40.0)
    assert set(values) == {m[0] for m in spec.END_TO_END}
    assert values["op_p50_ms"] == spec.MISSING_VALUE
    assert values["ops_per_s"] == 0.0
    assert values["setup_s"] == 1.5 and values["peak_rss_mb"] == 40.0
    assert run.whole_run(samples)["raw_op_p50_ms"] is None


def test_exit_status_is_nonzero_only_on_a_regression(tmp_path, capsys):
    def path(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    a = path("a.json", REFERENCE)
    assert run.compare(a, a) == 0
    worse = run_set({"steady_many_ops": {"op_p50_ms": [2.0, 2.0, 2.0],
                                         "ops_per_s": [1000, 1000, 1000]}})
    assert run.compare(a, path("b.json", worse)) == 1
    assert "regressed" in capsys.readouterr().out


def test_summary_has_median_quartiles_and_spread():
    row = REFERENCE["summary"]["steady_many_ops"]["op_p50_ms"]
    assert row["n"] == 5 and row["median"] == 1.00
    assert row["q1"] <= row["median"] <= row["q3"]
    assert row["spread"] == (row["q3"] - row["q1"]) / row["median"]
