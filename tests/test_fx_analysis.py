"""Tests for the dataflow analyses (repro.fx.analysis): the reverse sweep,
the three analyses and how often their callers compute them, golden
diagnostics per lint rule (with stack-trace provenance), the model zoo
linting clean, and the purity-aware DCE/CSE regressions."""

import sys
from collections import Counter

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import fx, nn
from repro.fx import GraphModule, Graph, symbolic_trace
from repro.fx.analysis import (
    Effect,
    PassVerifier,
    Severity,
    alias,
    classify_effect,
    lint_graph,
    may_alias_input,
    purity,
)
from repro.fx.analysis.alias import _sweep
from repro.fx.passes import ShapeProp
from repro.fx.passes.cse import eliminate_common_subexpressions
from repro.fx.passes.dce import eliminate_dead_code


class Linear2(nn.Module):
    def __init__(self):
        super().__init__()
        self.fc = nn.Linear(8, 8)

    def forward(self, x):
        return self.fc(x).relu()


class InplaceUnused(nn.Module):
    """The DCE bug shape: a dead in-place write whose buffer is read."""

    def forward(self, x):
        y = x + 1.0
        y.add_(1.0)     # result unused, but mutates y
        return y * 2.0


def count_analysis_calls(monkeypatch) -> Counter:
    """Count the calls of ``alias`` and ``purity`` made from now on, however
    their callers bound them: every ``repro`` module's binding of either
    function is replaced by a counting wrapper."""
    calls = Counter()
    for fn in (alias, purity):
        def counted(gm, fn=fn):
            calls[fn.__name__] += 1
            return fn(gm)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    return calls


# ---------------------------------------------------------------------------
# the reverse sweep
# ---------------------------------------------------------------------------


class TestFixpoint:
    """On the DAG IR the fixpoint is one reverse sweep: every node once."""

    def _nodes(self):
        gm = symbolic_trace(Linear2())
        return gm, list(gm.graph.nodes)

    def test_backward_users_count(self):
        _, nodes = self._nodes()
        facts = _sweep(
            nodes,
            lambda n, fact: len(n.users) + sum(fact(u) for u in n.users))
        assert facts[nodes[-1]] == 0  # output has no users
        assert facts[nodes[0]] >= 1

    def test_one_round_convergence_on_dag(self):
        _, nodes = self._nodes()
        visited = []
        _sweep(nodes, lambda n, fact: visited.append(n))
        assert visited == nodes[::-1]

    def test_reading_an_unswept_fact_raises(self):
        _, nodes = self._nodes()
        with pytest.raises(RuntimeError, match="the sweep read"):
            _sweep(nodes, lambda n, fact: [fact(m) for m in n.all_input_nodes])


# ---------------------------------------------------------------------------
# each analysis computed once per caller
# ---------------------------------------------------------------------------


class TestEachAnalysisOnce:
    """Callers keep an analysis result in a local: one call of a consumer
    computes each analysis at most once."""

    def test_lint_graph_computes_each_analysis_once(self, monkeypatch):
        gm = symbolic_trace(InplaceUnused())
        calls = count_analysis_calls(monkeypatch)
        report = lint_graph(gm)
        assert report.by_rule("mutation-hazard") and report.by_rule("impure-unused")
        assert calls == {"alias": 1, "purity": 1}

    def test_verifier_snapshot_computes_each_analysis_once(self, monkeypatch):
        gm = symbolic_trace(InplaceUnused())
        calls = count_analysis_calls(monkeypatch)
        errors, impure = PassVerifier().snapshot(gm)
        assert errors and impure
        assert calls == {"alias": 1, "purity": 1}


# ---------------------------------------------------------------------------
# alias analysis
# ---------------------------------------------------------------------------


class TestAliasAnalysis:
    def test_fresh_vs_view_classification(self):
        class M(nn.Module):
            def forward(self, x):
                a = F.relu(x)                 # fresh
                v = F.reshape(a, (-1,))       # view
                return F.sum(v)

        gm = symbolic_trace(M())
        by_name = {n.name: n for n in gm.graph.nodes}
        assert not may_alias_input(by_name["relu"], gm)
        assert may_alias_input(by_name["reshape"], gm)

    def test_inplace_method_aliases(self):
        gm = symbolic_trace(InplaceUnused())
        node = next(n for n in gm.graph.nodes if n.target == "add_")
        assert may_alias_input(node, gm)

    @pytest.mark.parametrize("cast", ["to", "float", "long", "int", "bool"])
    def test_casts_may_return_self(self, cast):
        """A cast to the dtype a tensor already has returns the tensor."""
        graph = Graph()
        args = (repro.float32,) if cast == "to" else ()
        node = graph.call_method(cast, (graph.placeholder("x"), *args))
        graph.output(node)
        assert may_alias_input(node, GraphModule(nn.Module(), graph))

    def test_escape_through_view_chain(self):
        class M(nn.Module):
            def forward(self, x):
                t = F.sigmoid(x) + 1.0
                return F.reshape(t, (-1,))

        gm = symbolic_trace(M())
        add = next(n for n in gm.graph.nodes if n.name == "add")
        assert add in alias(gm).escapes  # escapes through the reshape view

    def test_extended_liveness_through_live_view(self):
        class M(nn.Module):
            def forward(self, x):
                a = F.relu(x)
                v = F.reshape(a, (8, 8))      # view of a
                b = F.sigmoid(x)
                s = F.matmul(v, v)            # v (hence a) read here
                return F.sum(s) + F.sum(b)

        gm = symbolic_trace(M())
        by_name = {n.name: n for n in gm.graph.nodes}
        order = {n: i for i, n in enumerate(gm.graph.nodes)}
        # a's buffer must stay live until the matmul that reads its view.
        assert alias(gm).extended_last[by_name["relu"]] == order[by_name["matmul"]]


# ---------------------------------------------------------------------------
# purity / is_impure / DCE / CSE
# ---------------------------------------------------------------------------


class TestPurity:
    def test_classification_table(self):
        gm = symbolic_trace(InplaceUnused())
        effects = {n.name: classify_effect(n) for n in gm.graph.nodes}
        assert effects["x"] is Effect.STRUCTURAL
        assert effects["add"] is Effect.PURE
        assert effects["add_"] is Effect.MUTATES_ARG
        assert effects["output"] is Effect.STRUCTURAL

    def test_out_kwarg_is_mutation(self):
        g = Graph()
        x = g.placeholder("x")
        dst = g.call_function(F.relu, (x,))
        y = g.call_function(F.add, (x, 1.0), {"out": dst})
        g.output(y)
        gm = GraphModule(nn.Module(), g)
        assert classify_effect(y) is Effect.MUTATES_ARG
        assert y.is_impure()

    def test_setitem_is_mutation(self):
        import operator

        g = Graph()
        x = g.placeholder("x")
        s = g.call_function(operator.setitem, (x, 0, 1.0))
        g.output(x)
        GraphModule(nn.Module(), g)
        assert classify_effect(s) is Effect.MUTATES_ARG

    def test_training_batchnorm_mutates_state(self):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.bn = nn.BatchNorm1d(4)

            def forward(self, x):
                return self.bn(x)

        gm = symbolic_trace(M().train())
        bn = next(n for n in gm.graph.nodes if n.op == "call_module")
        assert classify_effect(bn, gm) is Effect.MUTATES_STATE
        gm.eval()
        assert classify_effect(bn, gm) is Effect.PURE

    def test_dunder_method_not_inplace(self):
        from repro.fx.analysis import is_inplace_method

        assert is_inplace_method("add_")
        assert not is_inplace_method("__add__")
        assert not is_inplace_method("_")

    def test_dce_keeps_dead_inplace_write(self):
        m = InplaceUnused()
        x = repro.randn(4)
        ref = m(x)
        gm = symbolic_trace(m)
        removed = eliminate_dead_code(gm)
        assert removed == 0  # the dead add_ must survive
        assert any(n.target == "add_" for n in gm.graph.nodes)
        assert np.array_equal(gm(x).data, ref.data)

    def test_dce_still_removes_dead_pure_nodes(self):
        class M(nn.Module):
            def forward(self, x):
                _ = F.relu(x)  # dead and pure
                return x + 1.0

        gm = symbolic_trace(M())
        assert eliminate_dead_code(gm) == 1

    def test_cse_does_not_merge_inplace_updates(self):
        class M(nn.Module):
            def forward(self, x):
                y = x + 0.0
                y.add_(1.0)
                y.add_(1.0)   # identical call, distinct effect
                return y

        m = M()
        x = repro.randn(4)
        ref = m(repro.tensor(x.data.copy()))
        gm = symbolic_trace(m)
        assert eliminate_common_subexpressions(gm) == 0
        assert sum(1 for n in gm.graph.nodes if n.target == "add_") == 2
        assert np.array_equal(gm(repro.tensor(x.data.copy())).data, ref.data)

    def test_cse_still_merges_pure_duplicates(self):
        class M(nn.Module):
            def forward(self, x):
                return F.relu(x) + F.relu(x)

        gm = symbolic_trace(M())
        assert eliminate_common_subexpressions(gm) == 1

    def test_compiled_unused_functional_training_batch_norm_moves_the_statistics(self):
        """The function spelling of a training batch norm writes the running
        statistics as the module spelling does: DCE used to delete it."""
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.register_buffer("rm", repro.zeros(3))
                self.register_buffer("rv", repro.ones(3))

            def forward(self, x):
                F.batch_norm(x, self.rm, self.rv, training=True)
                return x + 1.0

        repro.manual_seed(0)
        x, eager = repro.randn(4, 3), M()
        compiled = fx.compile(M(), (x,))
        eager(x)
        compiled(x)
        stats = sorted(v.data.tobytes() for v in compiled.state_dict().values())
        assert stats == sorted([eager.rm.data.tobytes(), eager.rv.data.tobytes()])
        assert np.any(eager.rm.data != 0)

    def test_compiled_duplicated_training_dropout_draws_two_masks(self):
        """Each training dropout advances the global RNG: CSE used to merge
        the two into one mask, so ``a - b`` was all zeros."""
        class M(nn.Module):
            def forward(self, x):
                return F.dropout(x, 0.5, training=True) - F.dropout(x, 0.5, training=True)

        x = repro.randn(4, 8) + 5.0
        compiled = fx.compile(M(), (x,))
        repro.manual_seed(1)
        eager = M()(x)
        repro.manual_seed(1)
        got = compiled(x)
        assert np.count_nonzero(got.data) == np.count_nonzero(eager.data) > 0
        assert np.array_equal(got.data, eager.data)

    @pytest.mark.parametrize("spelling", ["function", "module"])
    @pytest.mark.parametrize("op", ["batch_norm", "dropout"])
    def test_effects_follow_the_training_flag_in_every_spelling(self, op, spelling):
        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.bn, self.drop = nn.BatchNorm2d(3), nn.Dropout(0.5)

            def forward(self, x):
                if spelling == "module":
                    return self.bn(x) if op == "batch_norm" else self.drop(x)
                if op == "batch_norm":
                    return F.batch_norm(x, self.bn.running_mean, self.bn.running_var,
                                        training=self.training)
                return F.dropout(x, 0.5, training=self.training)

        for training, effect in ((True, Effect.MUTATES_STATE), (False, Effect.PURE)):
            gm = symbolic_trace(M().train(training))
            node = [n for n in gm.graph.nodes if n.op.startswith("call")][-1]
            assert classify_effect(node, gm) is effect
            # a dropout returns its operand when not training; a norm never
            assert may_alias_input(node, gm) is (op == "dropout")


# ---------------------------------------------------------------------------
# diagnostics: one golden test per rule
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_mutation_hazard_golden(self):
        class M(nn.Module):
            def forward(self, x):
                v = F.reshape(x, (-1,))
                x.add_(1.0)            # clobbers v's storage
                return F.sum(v)

        report = lint_graph(symbolic_trace(M()))
        errs = report.by_rule("mutation-hazard")
        assert len(errs) == 1
        d = errs[0]
        assert d.severity is Severity.ERROR
        assert d.node_name == "add_" and d.op == "call_method"
        assert "still read" in d.message
        assert not report.ok

    def test_caller_visible_write_golden(self):
        class M(nn.Module):
            def forward(self, x):
                return x.mul_(2.0)

        report = lint_graph(symbolic_trace(M()))
        warns = report.by_rule("caller-visible-write")
        assert len(warns) == 1
        assert warns[0].severity is Severity.WARNING
        assert "function input" in warns[0].message

    def test_impure_unused_golden(self):
        report = lint_graph(symbolic_trace(InplaceUnused()))
        notes = report.by_rule("impure-unused")
        assert len(notes) == 1
        assert notes[0].severity is Severity.NOTE
        assert notes[0].node_name == "add_"

    def test_aliased_output_golden(self):
        class M(nn.Module):
            def forward(self, x):
                return F.reshape(x, (-1,))

        report = lint_graph(symbolic_trace(M()))
        notes = report.by_rule("aliased-output")
        assert len(notes) == 1
        assert notes[0].op == "placeholder"

    def test_stack_trace_provenance(self):
        class M(nn.Module):
            def forward(self, x):
                return x.mul_(2.0)

        report = lint_graph(symbolic_trace(M()))
        d = report.by_rule("caller-visible-write")[0]
        assert d.stack_trace and "in forward" in d.stack_trace
        assert d.stack_trace in d.format()

    def test_report_format_and_severity_filter(self):
        report = lint_graph(symbolic_trace(InplaceUnused()))
        full = report.format()
        assert "error[mutation-hazard]" in full
        assert "note[impure-unused]" in full
        assert "1 error(s), 0 warning(s), 1 note(s)" in full
        assert {d.rule for d in report.errors} == {"mutation-hazard"}
        assert {d.rule for d in report.notes} == {"impure-unused"}


# ---------------------------------------------------------------------------
# smoke: the model zoo and examples lint clean
# ---------------------------------------------------------------------------


class TestLintCleanSmoke:
    @pytest.mark.parametrize("factory,kwargs,shape", [
        ("MLP", {"in_features": 784, "hidden": (128,), "out_features": 10},
         (2, 784)),
        ("SimpleCNN", {}, (1, 3, 32, 32)),
        ("resnet18", {}, (1, 3, 64, 64)),
        ("deep_recommender", {}, (2, 17768)),
        ("learning_to_paint_actor", {}, (1, 9, 64, 64)),
    ])
    def test_models_lint_clean(self, factory, kwargs, shape):
        import repro.models as models

        model = getattr(models, factory)(**kwargs)
        model.eval()
        gm = symbolic_trace(model)
        ShapeProp(gm).propagate(repro.randn(*shape))
        report = lint_graph(gm)
        assert report.ok, report.format()
        assert not report.warnings, report.format()

    def test_example_module_lints_clean(self):
        from tests import load_spec

        gm = symbolic_trace(load_spec("examples/analyze_and_schedule.py:TwoTower")())
        ShapeProp(gm).propagate(repro.randn(2, 256), repro.randn(2, 256))
        report = lint_graph(gm)
        assert report.ok, report.format()
