"""PassManager caching: cold vs. cached pipeline runs, and cold vs. cached
``GraphModule.recompile()``.

Not a paper figure — this tracks the instrumented pass driver added on top
of §4.4's "passes are ordinary Python functions" model.  Two claims are
asserted:

* a pipeline re-run over a structurally identical module replays every
  pass from the transform cache and is **≥ 2× faster** than the cold run;
* recompiling an already-seen graph hits the structural-hash codegen
  cache instead of re-exec'ing the generated source.

The per-pass timing/node-delta report of the cold run is written into the
results snapshot so report-format regressions are visible in review.
"""

import pickle
import time

from repro.bench import format_table
from repro.fx import ArtifactCache, cache_info, clear_caches, symbolic_trace
from repro.fx.passes import (
    PassManager,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
    normalize_args,
)
from repro.models import SimpleCNN

from conftest import bench_scale, write_results

PIPELINE = [
    eliminate_dead_code,
    eliminate_common_subexpressions,
    fold_constants,
    normalize_args,
    fuse_conv_bn,
]


def _best(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_pass_manager_cached_rerun():
    repeats = 10 if bench_scale() == "paper" else 5
    gm = symbolic_trace(SimpleCNN().eval())
    payload = pickle.dumps(gm)

    cold_times, warm_times, cold_result = [], [], None
    for _ in range(repeats):
        # A cold run means *no* caches: fresh transform cache, and the
        # codegen cache cleared so recompiles inside passes are real.
        clear_caches("codegen")
        manager = PassManager(PIPELINE, lint_after_each=True, cache=ArtifactCache())
        cold_times.append(_timed(lambda: manager.run(pickle.loads(payload))))
        if cold_result is None:
            cold_result = manager.last_result
        warm_times.append(_timed(lambda: manager.run(pickle.loads(payload))))
        warm_result = manager.last_result

    cold, warm = min(cold_times), min(warm_times)
    speedup = cold / warm

    # Every pass of the re-run must have been replayed from the cache.
    assert warm_result.cache_hits == len(PIPELINE), warm_result.format()
    assert cold_result.cache_hits == 0

    # Codegen cache: recompiling an unchanged graph reuses the compiled
    # forward instead of re-exec'ing the source.
    gm2 = pickle.loads(payload)

    def regenerate():  # code is generated on first use after recompile()
        gm2.recompile()
        return gm2.code

    def cold_recompile():
        clear_caches("codegen")  # negligible next to compile+exec
        regenerate()

    recompile_cold = _best(cold_recompile, repeats)
    regenerate()  # prime the cache
    hits_before = cache_info()["codegen"]["hits"]
    recompile_warm = _best(regenerate, repeats)
    assert cache_info()["codegen"]["hits"] >= hits_before + repeats

    rows = [
        ["pipeline cold (5 passes + lint)", f"{cold * 1e3:.2f}", "1.0x"],
        ["pipeline cached re-run", f"{warm * 1e3:.2f}", f"{speedup:.1f}x"],
        ["recompile cold", f"{recompile_cold * 1e3:.3f}", "1.0x"],
        ["recompile cached",
         f"{recompile_warm * 1e3:.3f}",
         f"{recompile_cold / recompile_warm:.1f}x"],
    ]
    table = format_table(["stage", "time (ms)", "speedup"], rows)
    report = (
        f"{table}\n\nper-pass report (cold run, SimpleCNN, lint after each):\n"
        f"{cold_result.format()}"
    )
    write_results("pass_manager", report)

    # Acceptance: a cached pipeline re-run is at least 2x faster than cold.
    assert speedup >= 2.0, f"cached re-run only {speedup:.2f}x faster\n{report}"
    assert recompile_warm < recompile_cold
