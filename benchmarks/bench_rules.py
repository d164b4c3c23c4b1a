"""Declarative rewrite-rule engine: full-library cost on real and fuzz graphs.

Not a paper figure — this tracks the ``repro.fx.rules`` engine added on top
of §4.4's pass-library model.  Three claims are asserted:

* running the default rule library inside a cold ``fx.compile`` of
  ResNet-50 adds **< 10 %** wall-clock over the identical compile with
  ``rules=False`` — the anchor-op index (and the lazily-snapshotted
  per-firing verifier) means a library of 40+ rules is nearly free on
  graphs that bait none of them;
* on generator output rich in rule bait (64-op fuzz chains) the library
  actually fires, and every firing is bit-exact (checked continuously by
  the fuzz oracle's ``rules`` check; here we snapshot firing counts);
* re-applying the library to a structurally identical bait-heavy module
  through a :class:`~repro.fx.ArtifactCache` transform cache replays
  from cache and is **≥ 5×** faster than the cold application (which
  pays matching, rewriting, and per-firing verification).
"""

import pickle
import time

import numpy as np

import repro
import repro.functional as F
from repro import nn
from repro.bench import format_table
from repro.fx import ArtifactCache, clear_caches, compile as fx_compile, \
    symbolic_trace
from repro.fx.passes import PassManager, ShapeProp
from repro.fx.rules import apply_default_rules, default_ruleset
from repro.fx.testing.generator import ProgramSpec, generate_program
from repro.fx.testing.oracle import max_abs_diff
from repro.models import resnet50

from conftest import bench_scale, write_results


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best(fn, repeats: int) -> float:
    return min(_timed(fn) for _ in range(repeats))


class _BaitChain(nn.Module):
    """Every block bakes in four firings: mul_one, add_zero, relu_relu,
    double_neg — a worst case for the batch engine, not a realistic model."""

    def __init__(self, blocks: int):
        super().__init__()
        self.blocks = blocks

    def forward(self, x):
        for _ in range(self.blocks):
            x = F.neg(F.neg(F.relu(F.relu((x * 1) + 0))))
        return x


def test_rule_library_cost():
    paper = bench_scale() == "paper"
    repeats = 3 if paper else 2
    shape = (1, 3, 224, 224) if paper else (1, 3, 64, 64)

    model = resnet50().eval()
    x = repro.randn(*shape)
    payload = pickle.dumps(symbolic_trace(model))

    def compile_with(rules: bool):
        clear_caches("codegen")
        return fx_compile(pickle.loads(payload), (x,),
                          rules=rules, cache=False)

    # One-time costs (registering/tracing the 40+ stdlib rules, lazy
    # imports on both paths) are not per-compile overhead: warm up first.
    default_ruleset()
    compile_with(True)
    compile_with(False)

    # -- claim 1: rules stage is <10% of a cold ResNet-50 compile --------
    base = _best(lambda: compile_with(False), repeats)
    with_rules = _best(lambda: compile_with(True), repeats)
    overhead = (with_rules - base) / base * 100.0

    compiled = compile_with(True)
    assert np.allclose(compiled(x).data, model(x).data, atol=1e-4)
    rule_recs = [r for r in compiled.compile_report.records
                 if "rules" in r.name]
    assert rule_recs, "rules stage missing from the compile report"

    # -- claim 2: the library fires on rule-bait fuzz chains -------------
    ruleset = default_ruleset()
    n_programs = 20 if paper else 8
    firings = rounds = bait_nodes = 0
    apply_times = []
    for i in range(n_programs):
        prog = generate_program(ProgramSpec(seed=9000 + i, n_ops=64))
        ShapeProp(prog.gm).propagate(*prog.inputs)
        ref = prog.gm(*prog.inputs)
        start = time.perf_counter()
        report = ruleset.apply(prog.gm, verify=False)
        apply_times.append(time.perf_counter() - start)
        firings += report.total_firings
        rounds += report.rounds
        bait_nodes += len(prog.gm.graph)
        out = prog.gm(*prog.inputs)
        assert max_abs_diff(ref, out) == 0.0, (
            f"rule library moved numerics on fuzz seed {9000 + i}")
    assert firings > 0, "64-op fuzz chains baited zero rule firings"

    # -- claim 3: cached re-apply is >=5x faster -------------------------
    bait = symbolic_trace(_BaitChain(16 if paper else 12))
    xb = repro.randn(8, 8)
    ShapeProp(bait).propagate(xb)
    ref_bait = bait(xb)
    bait_payload = pickle.dumps(bait)
    copies = [pickle.loads(bait_payload) for _ in range(2 * repeats + 1)]
    manager = PassManager([apply_default_rules], cache=ArtifactCache())

    cold = min(_timed(lambda: PassManager([apply_default_rules],
                                          cache=ArtifactCache()).run(c))
               for c in copies[:repeats])
    primed = manager.run(copies[repeats]).graph_module
    warm = min(_timed(lambda: manager.run(c))
               for c in copies[repeats + 1:])
    assert manager.last_result.cache_hits == 1, manager.last_result.format()
    assert np.array_equal(primed(xb).data, ref_bait.data)
    speedup = cold / warm

    rows = [
        ["ResNet-50 cold compile, rules=False", f"{base * 1e3:.1f}", "-"],
        ["ResNet-50 cold compile, rules=True", f"{with_rules * 1e3:.1f}",
         f"{overhead:+.1f}%"],
        [f"fuzz chains x{n_programs} (64 ops, bait-rich)",
         f"{sum(apply_times) * 1e3:.1f}",
         f"{firings} firings / {rounds} rounds"],
        ["rule library cold apply (bait chain)", f"{cold * 1e3:.2f}", "1.0x"],
        ["rule library cached re-apply", f"{warm * 1e3:.2f}",
         f"{speedup:.1f}x"],
    ]
    table = format_table(["stage", "time (ms)", "delta"], rows)
    report_txt = (
        f"{table}\n\nlibrary: {len(ruleset)} rules, "
        f"{bait_nodes} fuzz nodes scanned, shape={shape}"
    )
    write_results("rules", report_txt)

    assert overhead < 10.0, (
        f"rule stage adds {overhead:.1f}% to a cold compile\n{report_txt}")
    assert speedup >= 5.0, (
        f"cached re-apply only {speedup:.2f}x faster\n{report_txt}")
