"""Tests for repro.fx.rules — the declarative rewrite-rule engine.

Covers the paired-trace DSL, the batch engine (anchor index, fixpoint
re-triggering, firing budget, per-rule stats, per-firing verification),
precondition gating, module-pattern rules (conv-bn, quantized
linear+relu) with numeric parity against the pre-rule implementations,
PolyvariantModule application, the self-testing registry, and the
PassManager transform-cache integration of the pipeline stage.
"""

import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import GraphModule, Graph, symbolic_trace
from repro.fx.passes.shape_prop import ShapeProp
from repro.fx.rules import (
    Rule,
    RuleSet,
    all_rules,
    apply_default_rules,
    default_ruleset,
    get_rule,
    register_rule,
    rules_with_tag,
    selftest_all,
    selftest_rule,
)
from repro.fx.rules.preconditions import anchor_shape_matches, no_mutation_anywhere
from repro.fx.rules.rule import _split_paired


def copy_gm(gm):
    return pickle.loads(pickle.dumps(gm))


def prop(gm, *inputs):
    ShapeProp(gm).propagate(*inputs)
    return gm


class TestRuleDSL:
    def test_paired_split_shares_placeholders(self):
        def relu_twice(x):
            return F.relu(F.relu(x)), F.relu(x)

        pattern, replacement = _split_paired(relu_twice)
        p_ph = [n for n in pattern.nodes if n.op == "placeholder"]
        r_ph = [n for n in replacement.nodes if n.op == "placeholder"]
        assert [n.target for n in p_ph] == [n.target for n in r_ph] == ["x"]
        assert sum(1 for n in pattern.nodes if n.op == "call_function") == 2
        assert sum(1 for n in replacement.nodes if n.op == "call_function") == 1

    def test_split_rejects_non_pair(self):
        with pytest.raises(ValueError, match="2-tuple"):
            _split_paired(lambda x: F.relu(x))

    def test_rule_requires_exactly_one_body(self):
        pattern, replacement = _split_paired(lambda x: (x * 1, x))
        with pytest.raises(ValueError, match="exactly one"):
            Rule(name="both", pattern=pattern, replacement=replacement,
                 rewrite=lambda gm, m: None)
        with pytest.raises(ValueError, match="exactly one"):
            Rule(name="neither", pattern=pattern)

    def test_register_rule_decorator_registers_and_selftests(self):
        rule = register_rule(
            name="test_sqrt_square",
            example=lambda: (repro.rand(4, 4) + 1.0,),
            exact=False,
            tags=("testonly",),
        )(lambda x: (F.sqrt(x) * F.sqrt(x), x))
        assert isinstance(rule, Rule)
        assert get_rule("test_sqrt_square") is rule
        assert rule in rules_with_tag("testonly")
        assert rule not in default_ruleset().rules  # non-default tag
        res = selftest_rule(rule)
        assert res.ok, res.error

    def test_unused_placeholder_rejected(self):
        g = Graph()
        g.placeholder("x")
        y = g.placeholder("y")
        g.output(g.call_function(F.relu, (y,)))
        with pytest.raises(ValueError, match="never uses"):
            Rule(name="dangling", pattern=g, replacement=g)


class TestEngine:
    def test_single_firing_rewrites(self):
        gm = symbolic_trace(lambda x: F.relu(x * 1))
        x = repro.randn(4, 4)
        ref = gm(x)
        report = default_ruleset().apply(prop(gm, x), verify=True)
        assert report.stats["mul_one"].firings == 1
        assert np.array_equal(gm(x).data, ref.data)
        assert not any(n.target is F.mul for n in gm.graph.nodes
                       if n.op == "call_function")

    def test_fixpoint_one_rule_feeds_another(self):
        # relu6(relu(x)) -> relu6(x) (relu6_relu); the emitted relu6 then
        # completes relu(relu6(x)) -> relu6(x) (relu_relu6): the second
        # rule's match only exists because the first fired.
        gm = symbolic_trace(lambda x: F.relu(F.relu6(F.relu(x))))
        x = repro.randn(4, 4)
        ref = gm(x)
        report = default_ruleset().apply(prop(gm, x), verify=True)
        assert report.stats["relu6_relu"].firings == 1
        assert report.stats["relu_relu6"].firings == 1
        calls = [n for n in gm.graph.nodes if n.op == "call_function"]
        assert len(calls) == 1 and calls[0].target is F.relu6
        assert np.array_equal(gm(x).data, ref.data)

    def test_retrigger_across_rounds(self):
        # relu(relu(relu(x))): the first firing's replacement node seeds
        # the second match, which only a later fixpoint round can see.
        gm = symbolic_trace(lambda x: F.relu(F.relu(F.relu(x))))
        x = repro.randn(4, 4)
        ref = gm(x)
        report = default_ruleset().apply(prop(gm, x), verify=True)
        assert report.stats["relu_relu"].firings == 2
        assert report.rounds >= 2
        calls = [n for n in gm.graph.nodes if n.op == "call_function"]
        assert len(calls) == 1
        assert np.array_equal(gm(x).data, ref.data)

    def test_budget_terminates_cyclic_ruleset(self):
        # x + y -> y + x re-triggers itself forever; the firing budget is
        # the only thing standing between this rule and an infinite loop.
        pattern, replacement = _split_paired(lambda x, y: (x + y, y + x))
        commute = Rule(name="commute", pattern=pattern, replacement=replacement)
        gm = symbolic_trace(lambda a, b: a + b)
        a, b = repro.randn(3), repro.randn(3)
        ref = gm(a, b)
        report = RuleSet([commute]).apply(gm, verify=False, max_firings=7)
        assert report.budget_exhausted
        assert report.total_firings == 7
        gm.graph.lint()
        assert np.array_equal(gm(a, b).data, ref.data)

    def test_precondition_rejection_counted(self):
        pattern, replacement = _split_paired(lambda x: (F.relu(x), F.abs(x)))
        gated = Rule(name="gated", pattern=pattern, replacement=replacement,
                     preconditions=(lambda gm, match, ctx: False,))
        gm = symbolic_trace(lambda x: F.relu(x))
        report = RuleSet([gated]).apply(gm, verify=False)
        assert report.total_firings == 0
        assert report.stats["gated"].rejected == 1
        assert any(n.target is F.relu for n in gm.graph.nodes
                   if n.op == "call_function")

    def test_shape_precondition_blocks_broadcasting_where(self):
        # where(c, x, x) -> x is only sound when x already has the
        # broadcast result shape; a (4,) x against a (4, 4) mask must not
        # be rewritten.
        def model(c, x):
            return F.where(c, x, x)

        c = repro.randn(4, 4) > 0
        bad = repro.randn(4)
        gm = symbolic_trace(model)
        ref = gm(c, bad)
        report = default_ruleset().apply(prop(gm, c, bad), verify=True)
        assert report.stats["where_same"].firings == 0
        assert report.stats["where_same"].rejected == 1
        assert np.array_equal(gm(c, bad).data, ref.data)

        good = repro.randn(4, 4)
        gm2 = symbolic_trace(model)
        report2 = default_ruleset().apply(prop(gm2, c, good), verify=True)
        assert report2.stats["where_same"].firings == 1

    def test_mutation_precondition_blocks_cat_single(self):
        # cat([x]) -> x turns a copy into an alias; with a mutation in the
        # graph the no_mutation_anywhere precondition must refuse.
        def model(x):
            y = F.cat([x], 0)
            x.add_(1.0)
            return y

        gm = symbolic_trace(model)
        report = default_ruleset().apply(gm, verify=False)
        assert report.stats["cat_single"].firings == 0
        assert report.stats["cat_single"].rejected == 1

    def test_per_rule_stats_and_summary(self):
        gm = symbolic_trace(lambda x: (x * 1) + 0)
        x = repro.randn(4)
        report = default_ruleset().apply(prop(gm, x), verify=True)
        assert report.total_firings == 2
        assert report.stats["mul_one"].firings == 1
        assert report.stats["add_zero"].firings == 1
        text = report.summary()
        assert "mul_one" in text and "add_zero" in text
        assert report.wall_time >= 0.0

    def test_empty_ruleset_is_noop(self):
        gm = symbolic_trace(lambda x: F.relu(x))
        code_before = gm.code
        report = RuleSet([]).apply(gm, verify=False)
        assert report.total_firings == 0
        assert gm.code == code_before

    def test_polyvariant_module_rewritten_per_variant(self):
        class ShapeIf(nn.Module):
            def forward(self, x):
                if x.shape[-1] >= 4:
                    return F.relu(F.relu(x))
                return F.abs(F.abs(x))

        from repro.fx.analysis import polyvariant_trace

        poly = polyvariant_trace(ShapeIf().eval())
        wide, narrow = repro.randn(2, 5), repro.randn(2, 3)
        ref_w, ref_n = poly(wide), poly(narrow)
        report = default_ruleset().apply(poly, verify=False)
        # One firing per variant: relu_relu in the wide arm, abs_abs in
        # the narrow arm.
        assert report.stats["relu_relu"].firings == 1
        assert report.stats["abs_abs"].firings == 1
        assert np.array_equal(poly(wide).data, ref_w.data)
        assert np.array_equal(poly(narrow).data, ref_n.data)


class TestPortedPasses:
    def test_conv_bn_rule_matches_hand_fold(self):
        from repro.fx.passes.fuser import fuse_conv_bn, fuse_conv_bn_weights
        from repro.fx.rules.library import conv_bn_ruleset

        class ConvBN(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(3, 8, 3, padding=1)
                self.bn = nn.BatchNorm2d(8)

            def forward(self, x):
                return self.bn(self.conv(x))

        m = ConvBN().eval()
        m.bn.running_mean.data[:] = np.linspace(-0.5, 0.5, 8, dtype=np.float32)
        m.bn.running_var.data[:] = np.linspace(0.5, 2.0, 8, dtype=np.float32)
        x = repro.randn(2, 3, 8, 8)
        expected = fuse_conv_bn_weights(m.conv, m.bn)(x)

        gm = symbolic_trace(m)
        report = conv_bn_ruleset().apply(gm, verify=False)
        assert report.stats["conv_bn_fuse"].firings == 1
        modules = dict(gm.named_modules())
        assert not any(isinstance(mod, nn.BatchNorm2d) for mod in modules.values())
        assert np.allclose(gm(x).data, expected.data, atol=1e-6)
        # The public pass is a thin wrapper over the same rule.
        m2 = ConvBN().eval()
        ref2 = m2(x)
        assert np.allclose(fuse_conv_bn(m2)(x).data, ref2.data, atol=1e-5)

    def test_conv_bn_rule_refuses_training_mode(self):
        from repro.fx.rules.library import conv_bn_ruleset

        class ConvBN(nn.Module):
            def __init__(self):
                super().__init__()
                self.conv = nn.Conv2d(3, 4, 3)
                self.bn = nn.BatchNorm2d(4)

            def forward(self, x):
                return self.bn(self.conv(x))

        gm = symbolic_trace(ConvBN())  # training mode
        report = conv_bn_ruleset().apply(gm, verify=False)
        assert report.total_firings == 0
        assert report.stats["conv_bn_fuse"].rejected == 1

    def test_quant_linear_relu_fused_by_rule(self):
        from repro.quant import quantize_static
        from repro.quant.qmodules import QuantizedLinearReLU

        class M(nn.Module):
            def __init__(self):
                super().__init__()
                self.lin = nn.Linear(6, 4)
                self.relu = nn.ReLU()

            def forward(self, x):
                return self.relu(self.lin(x))

        m = M().eval()
        x = repro.randn(8, 6)
        ref = m(x)
        q = quantize_static(m, [(x,)])
        fused = [mod for mod in dict(q.named_modules()).values()
                 if isinstance(mod, QuantizedLinearReLU)]
        assert len(fused) == 1
        assert float(np.abs(q(x).data - ref.data).max()) < 0.25


class TestSelftestRegistry:
    def test_registry_meets_size_floor(self):
        from repro.fx.rules import library, stdlib  # noqa: F401
        from repro.quant import quantize_fx  # noqa: F401

        assert len(all_rules()) >= 25

    def test_every_registered_rule_passes_selftest(self):
        results = selftest_all()
        failed = [r for r in results if not r.ok]
        assert not failed, "\n".join(str(r) for r in failed)

    def test_cli_selftest_exit_code(self):
        from repro.fx.rules.__main__ import main

        assert main(["selftest", "mul_one", "double_neg"]) == 0
        assert main(["selftest", "no_such_rule"]) == 2
        assert main(["list"]) == 0


class TestPipelineIntegration:
    def test_rules_stage_in_compile(self):
        gm = symbolic_trace(lambda x: F.relu((x * 1) + 0))
        x = repro.randn(4, 4)
        ref = gm(x)
        compiled = repro.fx.compile(copy_gm(gm), (x,))
        assert np.array_equal(compiled(x).data, ref.data)
        report = compiled.compile_report
        assert any("rules" in r.name for r in report.records)

    def test_compile_rules_off(self):
        gm = symbolic_trace(lambda x: F.relu(x * 1))
        x = repro.randn(4, 4)
        compiled = repro.fx.compile(copy_gm(gm), (x,), rules=False)
        assert not any("rules" in r.name
                       for r in compiled.compile_report.records)

    def test_rules_stage_warm_cache_hit(self):
        from repro.fx import ArtifactCache
        from repro.fx.passes import PassManager

        cache = ArtifactCache()
        gm = symbolic_trace(lambda x: F.relu((x * 1) + 0))
        x = repro.randn(4)
        prop(gm, x)
        pm = PassManager([apply_default_rules], cache=cache)
        cold = pm.run(copy_gm(gm))
        assert cold.cache_hits == 0
        warm = pm.run(copy_gm(gm))
        assert warm.cache_hits == 1
        assert np.array_equal(warm.graph_module(x).data,
                              cold.graph_module(x).data)

    def test_verifier_rejects_corrupting_rewrite(self):
        # A rewrite callback that leaves a dangling use must be caught by
        # the per-firing verifier (lint), not shipped.
        from repro.fx.analysis import VerificationError

        def corrupt(gm, match):
            node = match.anchors[0]
            bad = gm.graph.call_function(F.relu, (node.args[0],))
            # Duplicate the name of a node that survives the rewrite:
            # the graph no longer lints.
            bad.name = node.args[0].name
            return bad

        g = Graph()
        xp = g.placeholder("x")
        g.output(g.call_function(F.tanh, (g.call_function(F.relu, (xp,)),)))
        pat = Graph()
        pp = pat.placeholder("x")
        pat.output(pat.call_function(F.tanh, (pp,)))
        bad_rule = Rule(name="corruptor", pattern=pat, rewrite=corrupt)
        gm = GraphModule(nn.Module(), g)
        with pytest.raises(VerificationError):
            RuleSet([bad_rule]).apply(gm, verify=True)

    @staticmethod
    def _tanh_rule(name, third):
        """Rewrites ``tanh(v)`` to ``sigmoid(v)``, except that its third
        firing does *third(gm, v)* instead."""
        pat = Graph()
        pat.output(pat.call_function(F.tanh, (pat.placeholder("x"),)))
        fired = []

        def rewrite(gm, match):
            v = match.anchors[0].args[0]
            fired.append(v)
            if len(fired) == 3:
                return third(gm, v)
            return gm.graph.call_function(F.sigmoid, (v,))

        return Rule(name=name, pattern=pat, rewrite=rewrite), fired

    @staticmethod
    def _count(gm, target):
        return sum(1 for n in gm.graph.nodes if n.target == target)

    def test_verification_stays_per_firing_out_overwrite(self):
        # Five matches; the third firing writes through out= into a value
        # the last add still reads.  Verified per firing: the error names
        # the rule and firings four and five never happen.
        from repro.fx.analysis import VerificationError

        def five_tanh(x):
            keep = F.relu(x)
            t = x
            for _ in range(5):
                t = F.tanh(F.relu(t))
            return t + keep

        gm = symbolic_trace(five_tanh)
        keep = gm.graph.find_nodes(op="call_function", target=F.relu)[0]

        def overwrite(gm, v):
            return gm.graph.call_function(F.add, (v, v), {"out": keep})

        rule, fired = self._tanh_rule("overwriter", overwrite)
        with pytest.raises(VerificationError) as exc_info:
            RuleSet([rule]).apply(gm, verify=True)
        err = exc_info.value
        assert err.pass_name == "rule:overwriter"
        assert [d.rule for d in err.diagnostics] == ["mutation-hazard"]
        assert len(fired) == 3
        assert self._count(gm, F.sigmoid) == 2
        assert self._count(gm, F.tanh) == 2

    def test_verification_stays_per_firing_deleted_effect(self):
        from repro.fx.analysis import VerificationError

        def five_tanh(x):
            t = x + 1.0
            t.add_(1.0)  # effectful, result unused
            for _ in range(5):
                t = F.tanh(F.relu(t))
            return t

        gm = symbolic_trace(five_tanh)
        (effect,) = gm.graph.find_nodes(op="call_method", target="add_")

        def delete_effect(gm, v):
            gm.graph.erase_node(effect)
            return gm.graph.call_function(F.sigmoid, (v,))

        rule, fired = self._tanh_rule("effect_eater", delete_effect)
        with pytest.raises(VerificationError, match="effectful") as exc_info:
            RuleSet([rule]).apply(gm, verify=True)
        assert exc_info.value.pass_name == "rule:effect_eater"
        assert len(fired) == 3
        assert self._count(gm, F.sigmoid) == 3
        assert self._count(gm, F.tanh) == 2

    def test_noop_stage_reports_unchanged(self):
        # A run that fires nothing certifies Unchanged, and the manager
        # skips post-stage lint/verification for it.
        from repro.fx import ArtifactCache
        from repro.fx.passes import PassManager, Unchanged

        gm = symbolic_trace(lambda x: F.matmul(x, x))
        out = apply_default_rules(copy_gm(gm))
        assert isinstance(out, Unchanged)

        cache = ArtifactCache()
        pm = PassManager([apply_default_rules], cache=cache)
        res = pm.run(copy_gm(gm))
        (rec,) = res.records
        assert rec.nodes_after == rec.nodes_before
        assert not rec.cache_hit and not rec.verified
        # ... but the run it belongs to is stored like any other: a warm
        # compile used to execute this stage (and restore a module for it)
        # every time because nothing was
        assert len(cache) == 1
        (again,) = pm.run(copy_gm(gm)).records
        assert again.cache_hit and not again.verified
        x = repro.randn(3, 3)
        assert np.array_equal(res.graph_module(x).data,
                              F.matmul(x, x).data)
