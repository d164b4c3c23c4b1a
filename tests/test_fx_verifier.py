"""Tests for the analysis-backed PassVerifier: snapshot/adopt semantics,
PassManager integration (including the cached-snapshot fast path and a
rejected pass's output never being stored), and demand-driven linting
deciding what exhaustive linting decided."""

import hashlib
import importlib.util
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import GraphModule, cache_info, clear_caches, symbolic_trace
from repro.fx.analysis import (
    Effect,
    PassVerifier,
    PolyvariantModule,
    VerificationError,
    alias,
    classify_effect,
    hazards,
    impure_fingerprints,
    lint_graph,
    may_alias_input,
    purity,
)
from repro.fx.passes import PassManager, ShapeProp
from repro.fx.passes.pointwise_fuser import fuse_pointwise
from repro.fx.state import copy_module
from repro.fx.testing.generator import generate_program, spec_for_iteration
from tests.test_fx_analysis import count_analysis_calls


class TailReadModel(nn.Module):
    """x is read again *after* two more fusable chains have run."""

    def forward(self, a, c):
        x = F.exp(a) * F.sin(a)
        y = F.matmul(x, x)
        w = F.mul(F.sin(F.exp(c)), x)
        return F.matmul(y, w)


class InplaceModel(nn.Module):
    def forward(self, x):
        y = x + 1.0
        y.add_(1.0)
        return y * 2.0


def _prepare(module, *inputs):
    gm = symbolic_trace(module)
    ShapeProp(gm).propagate(*inputs)
    fuse_pointwise(gm)
    ShapeProp(gm).propagate(*inputs)
    return gm


def clobbering_pass(gm: GraphModule) -> None:
    """A bad pass: writes in place into a value later nodes still read."""
    n = next(n for n in gm.graph.nodes
             if n.op == "call_function" and len(n.users) > 1)
    with gm.graph.inserting_after(n):
        gm.graph.call_method("add_", (n, 1.0))
    gm.recompile()


# ---------------------------------------------------------------------------
# snapshot / adopt semantics
# ---------------------------------------------------------------------------


class TestSnapshotSemantics:
    def test_clean_pipeline_rolls_baseline_forward(self):
        gm = symbolic_trace(InplaceModel())
        v = PassVerifier()
        first = v.before_pipeline(gm)
        assert v.baseline == first
        second = v.after_pass("noop", gm)
        assert v.baseline == second == first

    def test_preexisting_errors_are_tolerated(self):
        # The verifier gates passes, not user code: a graph that already
        # has a hazard passes through unchanged.
        class Hazard(nn.Module):
            def forward(self, x):
                v = F.reshape(x, (-1,))
                x.add_(1.0)
                return F.sum(v)

        gm = symbolic_trace(Hazard())
        v = PassVerifier()
        v.before_pipeline(gm)
        v.after_pass("noop", gm)  # same errors before and after: fine

    def test_introduced_hazard_names_the_pass(self):
        class Clean(nn.Module):
            def forward(self, x):
                y = x + 1.0
                return F.sum(F.reshape(y, (-1,))) * 2.0

        v = PassVerifier()
        v.before_pipeline(symbolic_trace(Clean()))

        # "Optimize" into an in-place write that clobbers a still-read
        # view — a hazard the input graph did not have.
        class Evil(nn.Module):
            def forward(self, x):
                y = x + 1.0
                v = F.reshape(y, (-1,))
                y.add_(1.0)
                return F.sum(v) * 2.0

        with pytest.raises(VerificationError) as exc_info:
            v.after_pass("evil_rewrite", symbolic_trace(Evil()))
        err = exc_info.value
        assert err.pass_name == "evil_rewrite"
        assert any(d.rule == "mutation-hazard" for d in err.diagnostics)
        assert "evil_rewrite" in str(err)

    def test_vanished_effect_detected(self):
        gm = symbolic_trace(InplaceModel())
        v = PassVerifier()
        v.before_pipeline(gm)

        class Pruned(nn.Module):
            def forward(self, x):
                y = x + 1.0
                return y * 2.0  # the add_ was "dead", so it got deleted

        with pytest.raises(VerificationError, match="effectful"):
            v.after_pass("bad_dce", symbolic_trace(Pruned()))


# ---------------------------------------------------------------------------
# PassManager integration
# ---------------------------------------------------------------------------


class TestPassManagerIntegration:
    def test_verified_column_in_report(self):
        gm = symbolic_trace(InplaceModel())
        pm = PassManager([("noop", lambda g: None)], cache=False,
                         verifier=PassVerifier())
        result = pm.run(gm)
        assert result.records[0].verified
        assert "verify" in result.format()

    def test_rejected_output_is_not_cached(self):
        clear_caches("transform")
        a, c = repro.randn(6, 6), repro.randn(6, 6)

        def run_once():
            gm = _prepare(TailReadModel(), a, c)
            pm = PassManager([("clobbering_pass", clobbering_pass)],
                             cache=True, verifier=PassVerifier())
            with pytest.raises(VerificationError) as exc_info:
                pm.run(gm)
            assert exc_info.value.pass_name == "clobbering_pass"

        run_once()
        # A rejected output is never stored, so a second run must fail
        # again from a live re-execution, never a poisoned replay.
        assert cache_info()["transform"]["size"] == 0
        hits_before = cache_info()["transform"]["hits"]
        run_once()
        assert cache_info()["transform"]["hits"] == hits_before

    def test_cache_hit_adopts_stored_snapshot(self):
        clear_caches("transform")
        x = repro.randn(4, 4)

        class M(nn.Module):
            def __init__(self, in_place):
                super().__init__()
                self.in_place = in_place

            def forward(self, x):
                y = x + 1.0
                if self.in_place:
                    y.add_(1.0)
                _ = F.relu(x)  # dead and pure: DCE has work to do
                return y * 2.0

        from repro.fx.passes.dce import eliminate_dead_code

        def run(in_place):
            gm = symbolic_trace(M(in_place))
            ShapeProp(gm).propagate(x)
            pm = PassManager([("dce", eliminate_dead_code)],
                             cache=True, verifier=PassVerifier())
            return pm.run(gm)

        first = run(False)
        assert not first.records[0].cache_hit and first.records[0].verified
        second = run(False)
        assert second.records[0].cache_hit and second.records[0].verified
        # A graph with an in-place op may write state, so its run is never
        # stored: it executes and is verified every time, and DCE keeps the
        # effectful add_ each time.
        for _ in range(2):
            result = run(True)
            assert not result.records[0].cache_hit and result.records[0].verified
            assert any(n.target == "add_"
                       for n in result.graph_module.graph.nodes)

    def test_compile_verify_flag(self):
        x = repro.randn(4, 8)
        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU())
        model.eval()
        ref = model(x)
        fast = repro.fx.compile(model, (x,), verify=True, cache=False)
        assert np.allclose(fast(x).data, ref.data)
        verified = [r for r in fast.compile_report.records if r.verified]
        assert verified  # the verifier actually ran


# ---------------------------------------------------------------------------
# demand-driven linting decides exactly what exhaustive linting decided
# ---------------------------------------------------------------------------


def _exhaustive_snapshot(gm):
    """The snapshot as it was built before linting became demand-driven:
    ``alias`` resolved up front and the hazards computed from it whatever
    the graph holds, every rule run, the findings below error filtered out
    afterwards."""
    errors = Counter(d.fingerprint for d in lint_graph(gm).errors)
    return (tuple(sorted(errors.items())), impure_fingerprints(purity(gm)))


def _graph_modules(program):
    gm = program.gm
    if isinstance(gm, PolyvariantModule):
        return [gm.variant(i) for i in range(gm.num_variants)
                if gm.variant(i) is not None]
    return [gm]


def _with_writers(gm):
    """*gm* made mutation-heavy: an in-place method on every third call
    (a hazard wherever the value is read again) and an ``out=`` overwrite
    of the first call's result by the last (its later readers see the new
    value).  Only analysed, never run."""
    gm = copy_module(gm)
    calls = [n for n in gm.graph.nodes
             if n.op in ("call_function", "call_method", "call_module")]
    for n in calls[::3]:
        with gm.graph.inserting_after(n):
            gm.graph.call_method("add_", (n, 1.0))
    if len(calls) > 1 and calls[-1].op == "call_function":
        calls[-1].kwargs = {**calls[-1].kwargs, "out": calls[0]}
    gm.graph.lint()
    return gm


def _fused(program):
    """*program* fused, or None where nothing fuses."""
    gm = copy_module(program.gm)
    ShapeProp(gm).propagate(*program.inputs)
    if not fuse_pointwise(gm):
        return None
    ShapeProp(gm).propagate(*program.inputs)
    return gm


def _corpus():
    """(label, GraphModule) over the fuzz generator's three families —
    as generated, made mutation-heavy, and fused — plus this
    file's bad-pass fixtures."""
    out = []
    for i in range(48):
        program = generate_program(spec_for_iteration(0, i))
        family = program.spec.family
        for gm in _graph_modules(program):
            out.append((f"{family}:{i}", gm))
            out.append((f"{family}:{i}:writers", _with_writers(gm)))
        if family != "control_flow":
            fused = _fused(program)
            if fused is not None:
                out.append((f"{family}:{i}:fused", fused))
    a, c = repro.randn(6, 6), repro.randn(6, 6)
    out += [("fused_tail_read", _prepare(TailReadModel(), a, c)),
            ("inplace", symbolic_trace(InplaceModel()))]
    return out


VERDICTS = Path(__file__).with_name("op_list_verdicts.json")


class Casts(nn.Module):
    """Explicit casts beside an implicit one (the mean of an integer)."""

    def forward(self, x):
        return x.double() + 1, x.to(repro.float64), F.mean(x.long(), 1), x.float() * 2


def _verdict_corpus():
    """``(label, module, example inputs or None)``: :func:`_corpus`, the op
    table's model zoo and the perf ledger's subjects (shape-propagated),
    and :class:`Casts`."""
    from tests.test_fx_opinfo import ZOO

    spec = importlib.util.spec_from_file_location(
        "ledger_models", Path(__file__).parents[1] / "benchmarks" / "ledger" / "models.py")
    ledger = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ledger)
    out = [(label, gm, None) for label, gm in _corpus()]
    for name, (build, make_inputs, _) in sorted(ZOO.items()):
        repro.manual_seed(0)
        out.append((f"zoo:{name}", symbolic_trace(build().eval()), make_inputs()))
    for name in sorted(ledger.SUBJECTS):
        out.append((f"ledger:{name}", symbolic_trace(ledger.build(name, 1)),
                    ledger.make_inputs(name, 1, 1)))
    return out + [("casts", symbolic_trace(Casts()), (repro.randn(3, 4),))]


def _verdicts(gm, inputs) -> str:
    """Per node, may-alias (``a`` / ``f``) then effect (its index in
    ``Effect``)."""
    if inputs is not None:
        ShapeProp(gm).propagate(*inputs)
    nodes = list(gm.graph.nodes)
    return "".join("a" if may_alias_input(n, gm) else "f" for n in nodes) + "|" \
        + "".join(str(list(Effect).index(classify_effect(n, gm))) for n in nodes)


class TestDemandDrivenVerdicts:
    def test_snapshot_equals_exhaustive_lint_then_filter(self):
        corpus = _corpus()
        labels = {label.split(":")[0] for label, _ in corpus}
        assert {"graph", "module", "control_flow"} <= labels
        assert sum(label.endswith(":fused") for label, _ in corpus) >= 5
        findings = 0
        verifier = PassVerifier()
        for label, gm in corpus:
            snap = verifier.snapshot(gm)
            assert snap == _exhaustive_snapshot(gm), label
            findings += bool(snap[0])
        assert findings > 20  # the corpus does exercise the error rules

    def test_mutation_result_equals_eager_alias_result(self, monkeypatch):
        calls = count_analysis_calls(monkeypatch)
        hazardous = gated = 0
        for label, gm in _corpus():
            eager = hazards(gm, alias(gm))
            before = calls["alias"]
            assert hazards(gm) == eager, label
            hazardous += bool(eager.hazards)
            if calls["alias"] == before:   # the gate skipped alias
                gated += 1
                assert not eager.hazards
        assert hazardous > 20 and gated > 20

    def test_op_table_verdicts_are_the_hand_kept_lists_verdicts(self):
        """``may_alias_input`` and ``classify_effect`` read the op table's
        ``view`` / ``writes``.  ``VERDICTS`` was recorded over this corpus
        with the per-analysis op lists they replaced (re-recorded without
        the deleted upcast check's part, from the tree whose digests
        matched; when a ``Linear`` no region takes became a one-step kernel,
        the eight ``:fused`` graphs that gained one and four new ones were
        recorded, every node kept from before keeping its verdict).  One node kind moves, in the conservative direction:
        ``MultiheadAttention`` has no entry, so its result may alias."""
        recorded = json.loads(VERDICTS.read_text())
        got, attention = {}, 0
        for label, gm, inputs in _verdict_corpus():
            verdict = list(_verdicts(gm, inputs))
            for i, n in enumerate(gm.graph.nodes):
                if n.op == "call_module" and \
                        isinstance(gm.get_submodule(n.target), nn.MultiheadAttention):
                    assert verdict[i] == "a"
                    verdict[i], attention = "f", attention + 1
            got[label] = hashlib.sha256("".join(verdict).encode()).hexdigest()[:16]
        assert got == recorded
        assert attention == 2   # the zoo's TransformerEncoder, two layers

    def test_alias_not_computed_without_writer_or_slot(self, monkeypatch):
        gm = symbolic_trace(TailReadModel())
        calls = count_analysis_calls(monkeypatch)
        PassVerifier().snapshot(gm)
        assert calls == {"purity": 1}
