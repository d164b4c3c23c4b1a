"""Tests for the unified dataflow analysis framework (repro.fx.analysis):
the sweep engine, the four shipped analyses and their per-context memo,
golden diagnostics per lint rule (with stack-trace provenance), the
graph-lint CLI, and the purity-aware DCE/CSE regressions."""

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import fx, nn
from repro.fx import GraphModule, Graph, symbolic_trace
from repro.fx.analysis import (
    Analysis,
    AnalysisContext,
    AnalysisError,
    Effect,
    Severity,
    analyze,
    classify_effect,
    get_analysis,
    lint_graph,
    may_alias_input,
    register_analysis,
    register_rule,
    registered_analyses,
    registered_rules,
    sweep,
)
from repro.fx.analysis import engine as engine_mod
from repro.fx.analysis import diagnostics as diagnostics_mod
from repro.fx.analysis.__main__ import main as lint_cli
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


# ---------------------------------------------------------------------------
# fixpoint engine
# ---------------------------------------------------------------------------


class TestFixpoint:
    """On the DAG IR the fixpoint is one ordered sweep: every node once."""

    def _nodes(self):
        gm = symbolic_trace(Linear2())
        return gm, list(gm.graph.nodes)

    def test_forward_depth(self):
        _, nodes = self._nodes()
        facts = sweep(
            nodes,
            lambda n, fact: 1 + max((fact(a) for a in n.all_input_nodes),
                                    default=-1),
            direction="forward")
        assert facts[nodes[0]] == 0          # placeholder
        assert facts[nodes[-1]] == len(nodes) - 1  # straight-line chain

    def test_backward_users_count(self):
        _, nodes = self._nodes()
        facts = sweep(
            nodes,
            lambda n, fact: len(n.users) + sum(fact(u) for u in n.users),
            direction="backward")
        assert facts[nodes[-1]] == 0  # output has no users
        assert facts[nodes[0]] >= 1

    def test_one_round_convergence_on_dag(self):
        _, nodes = self._nodes()
        for direction, order in (("forward", nodes), ("backward", nodes[::-1])):
            visited = []
            sweep(nodes, lambda n, fact: visited.append(n), direction=direction)
            assert visited == order

    @pytest.mark.parametrize("direction,neighbours", [
        ("forward", lambda n: n.users),
        ("backward", lambda n: n.all_input_nodes)])
    def test_reading_an_unswept_fact_raises(self, direction, neighbours):
        _, nodes = self._nodes()
        with pytest.raises(AnalysisError, match=f"the {direction} sweep read"):
            sweep(nodes, lambda n, fact: [fact(m) for m in neighbours(n)],
                  direction=direction)

    def test_bad_direction_rejected(self):
        _, nodes = self._nodes()
        with pytest.raises(ValueError):
            sweep(nodes, lambda n, fact: None, direction="sideways")


# ---------------------------------------------------------------------------
# registry + context
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_shipped_analyses_registered(self):
        assert {"alias", "purity", "dtype", "mutation"} <= set(registered_analyses())

    def test_unknown_analysis_raises(self):
        with pytest.raises(AnalysisError, match="no analysis registered"):
            get_analysis("does-not-exist")

    def test_custom_analysis_with_dependency(self):
        @register_analysis
        class CountEscaping(Analysis):
            name = "test-count-escaping"

            def compute(self, gm, ctx):
                return len(ctx.get("alias").escapes)

        try:
            gm = symbolic_trace(Linear2())
            assert analyze(gm, ["test-count-escaping"]).get(
                "test-count-escaping") >= 1
        finally:
            engine_mod._REGISTRY.pop("test-count-escaping")

    def test_circular_dependency_detected(self):
        @register_analysis
        class A(Analysis):
            name = "test-cyc-a"

            def compute(self, gm, ctx):
                return ctx.get("test-cyc-b")

        @register_analysis
        class B(Analysis):
            name = "test-cyc-b"

            def compute(self, gm, ctx):
                return ctx.get("test-cyc-a")

        try:
            with pytest.raises(AnalysisError, match="circular"):
                analyze(symbolic_trace(Linear2()), ["test-cyc-a"])
        finally:
            engine_mod._REGISTRY.pop("test-cyc-a")
            engine_mod._REGISTRY.pop("test-cyc-b")

    def test_context_requires_graph_module(self):
        with pytest.raises(TypeError):
            AnalysisContext(object())

    def test_context_computes_each_analysis_once(self):
        calls = []

        @register_analysis
        class Counted(Analysis):
            name = "test-counted"

            def compute(self, gm, ctx):
                calls.append(gm)
                return ctx.get("purity")

        try:
            gm = symbolic_trace(Linear2())
            ctx = AnalysisContext(gm)
            assert ctx.get("test-counted") is ctx.get("test-counted") \
                is ctx.get("purity")
            assert calls == [gm]
            # results describe the module's own nodes
            assert set(ctx.get("purity").effects) == set(gm.graph.nodes)
            # a new context (a new graph state) computes afresh
            AnalysisContext(gm).get("test-counted")
            assert len(calls) == 2
        finally:
            engine_mod._REGISTRY.pop("test-counted")


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
        alias = analyze(gm, ["alias"]).get("alias")
        add = next(n for n in gm.graph.nodes if n.name == "add")
        assert add in alias.escapes  # escapes through the reshape view

    def test_extended_liveness_through_live_view(self):
        class M(nn.Module):
            def forward(self, x):
                a = F.relu(x)
                v = F.reshape(a, (8, 8))      # view of a
                b = F.sigmoid(x)
                s = F.matmul(v, v)            # v (hence a) read here
                return F.sum(s) + F.sum(b)

        gm = symbolic_trace(M())
        alias = analyze(gm, ["alias"]).get("alias")
        by_name = {n.name: n for n in gm.graph.nodes}
        order = {n: i for i, n in enumerate(gm.graph.nodes)}
        # a's buffer must stay live until the matmul that reads its view.
        assert alias.extended_last[by_name["relu"]] == order[by_name["matmul"]]


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
# dtype promotion
# ---------------------------------------------------------------------------


class TestDtypePromotion:
    def _lint(self, module, *inputs):
        gm = symbolic_trace(module)
        ShapeProp(gm).propagate(*inputs)
        return gm, analyze(gm, ["dtype"]).get("dtype")

    def test_silent_upcast_flagged(self):
        class M(nn.Module):
            def forward(self, x):
                return x + np.float64(2.0)

        _, res = self._lint(M(), repro.randn(4, 4))
        assert len(res.upcasts) == 1
        assert res.upcasts[0].input_dtypes == ("float32",)
        assert res.upcasts[0].result_dtype == "float64"

    def test_downstream_of_upcast_blames_producer_only(self):
        class M(nn.Module):
            def forward(self, x):
                y = x + np.float64(2.0)   # the silent widening
                return y * 2.0            # float64 in, float64 out: quiet

        gm, res = self._lint(M(), repro.randn(4, 4))
        assert len(res.upcasts) == 1
        assert res.upcasts[0].node_name == "add"

    def test_float32_program_is_quiet(self):
        _, res = self._lint(Linear2(), repro.randn(2, 8))
        assert res.upcasts == ()

    def test_no_metadata_no_reports(self):
        gm = symbolic_trace(Linear2())  # no ShapeProp
        res = analyze(gm, ["dtype"]).get("dtype")
        assert res.upcasts == ()


# ---------------------------------------------------------------------------
# diagnostics: one golden test per rule
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_rule_registry_complete(self):
        assert {"mutation-hazard", "arena-hazard", "caller-visible-write",
                "float64-upcast", "impure-unused",
                "aliased-output"} <= set(registered_rules())

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

    def test_float64_upcast_golden(self):
        class M(nn.Module):
            def forward(self, x):
                return x * np.float64(3.0)

        gm = symbolic_trace(M())
        ShapeProp(gm).propagate(repro.randn(2, 2))
        report = lint_graph(gm)
        ups = report.by_rule("float64-upcast")
        assert len(ups) == 1 and ups[0].severity is Severity.WARNING
        assert "float64" in ups[0].message

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
        errors_only = report.format(min_severity=Severity.ERROR)
        assert "impure-unused" not in errors_only
        assert "error(s)" in errors_only

    def test_custom_rule_participates(self):
        from repro.fx.analysis import Diagnostic

        @register_rule("test-no-matmul", Severity.NOTE)
        def no_matmul(gm, ctx):
            for i, n in enumerate(gm.graph.nodes):
                if getattr(n.target, "__name__", "") == "matmul":
                    yield Diagnostic.for_node(
                        "test-no-matmul", Severity.NOTE, "matmul found", n, i)

        try:
            class M(nn.Module):
                def forward(self, x):
                    return F.matmul(x, x)

            report = lint_graph(symbolic_trace(M()))
            assert len(report.by_rule("test-no-matmul")) == 1
        finally:
            diagnostics_mod._RULES.pop("test-no-matmul")

    def test_rule_subset_selection(self):
        report = lint_graph(symbolic_trace(InplaceUnused()),
                            rules=["impure-unused"])
        assert {d.rule for d in report.diagnostics} == {"impure-unused"}


# ---------------------------------------------------------------------------
# the CLI
# ---------------------------------------------------------------------------


class TestCLI:
    def test_clean_module_exits_zero(self, capsys):
        rc = lint_cli(["repro.models:resnet18"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_error_finding_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad_model.py"
        bad.write_text(
            "import repro.functional as F\n"
            "from repro import nn\n\n"
            "class Bad(nn.Module):\n"
            "    def forward(self, x):\n"
            "        v = F.reshape(x, (-1,))\n"
            "        x.add_(1.0)\n"
            "        return F.sum(v)\n")
        rc = lint_cli([f"{bad}:Bad"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "error[mutation-hazard]" in out
        assert "in forward" in out  # source provenance printed

    def test_shapes_enable_dtype_rules(self, tmp_path, capsys):
        up = tmp_path / "upcast_model.py"
        up.write_text(
            "import numpy as np\n"
            "from repro import nn\n\n"
            "class Up(nn.Module):\n"
            "    def forward(self, x):\n"
            "        return x + np.float64(1.0)\n")
        rc = lint_cli([f"{up}:Up", "--shapes", "2,3"])
        out = capsys.readouterr().out
        assert rc == 0  # warnings never fail the run
        assert "float64-upcast" in out

    def test_list_rules(self, capsys):
        assert lint_cli(["--list-rules", "ignored:ignored"]) == 0
        out = capsys.readouterr().out
        assert "mutation-hazard" in out and "arena-hazard" in out

    def test_bad_spec_rejected(self):
        with pytest.raises(SystemExit):
            lint_cli(["no-colon-here"])


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

    def test_example_module_lints_clean_via_cli(self, capsys):
        rc = lint_cli(["examples/analyze_and_schedule.py:TwoTower",
                       "--shapes", "2,256", "--shapes", "2,256"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 error(s)" in out
