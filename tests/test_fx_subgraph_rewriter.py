"""Tests for replace_pattern."""

import operator

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import symbolic_trace, replace_pattern


class TestBasicRewrites:
    def test_single_match(self):
        def model(x):
            return repro.relu(x.neg())

        def pattern(a):
            return repro.relu(a.neg())

        def replacement(a):
            return repro.gelu(a)

        gm = symbolic_trace(model)
        matches = replace_pattern(gm, pattern, replacement)
        assert len(matches) == 1
        x = repro.randn(5)
        assert np.allclose(gm(x).data, F.gelu(x).data, atol=1e-6)

    def test_multiple_nonoverlapping_matches(self):
        def model(x):
            a = repro.relu(x) + 1
            b = repro.relu(a) + 1
            return b

        def pattern(v):
            return repro.relu(v) + 1

        def replacement(v):
            return repro.gelu(v) - 1

        gm = symbolic_trace(model)
        matches = replace_pattern(gm, pattern, replacement)
        assert len(matches) == 2
        x = repro.randn(3)
        expected = F.gelu(F.gelu(x) - 1) - 1
        assert np.allclose(gm(x).data, expected.data, atol=1e-6)

    def test_no_match_leaves_graph_untouched(self):
        def model(x):
            return repro.tanh(x)

        gm = symbolic_trace(model)
        before = len(gm.graph)
        matches = replace_pattern(gm, lambda v: repro.relu(v), lambda v: repro.gelu(v))
        assert matches == []
        assert len(gm.graph) == before

    def test_immediate_values_must_match(self):
        def model(x):
            return x + 2

        gm = symbolic_trace(model)
        # pattern with a different constant must not match
        assert replace_pattern(gm, lambda v: v + 3, lambda v: v - 3) == []
        # with the right constant it must
        gm2 = symbolic_trace(model)
        assert len(replace_pattern(gm2, lambda v: v + 2, lambda v: v - 2)) == 1

    def test_multi_input_pattern(self):
        def model(x, y):
            return repro.relu(x + y)

        def pattern(a, b):
            return repro.relu(a + b)

        def replacement(a, b):
            return repro.gelu(a - b)

        gm = symbolic_trace(model)
        assert len(replace_pattern(gm, pattern, replacement)) == 1
        x, y = repro.randn(4), repro.randn(4)
        assert np.allclose(gm(x, y).data, F.gelu(x - y).data, atol=1e-6)

    def test_wildcard_binds_subexpression(self):
        def model(x):
            return repro.relu(repro.tanh(x) * 2)

        def pattern(v):
            return repro.relu(v)  # v binds tanh(x)*2

        def replacement(v):
            return v

        gm = symbolic_trace(model)
        assert len(replace_pattern(gm, pattern, replacement)) == 1
        x = repro.randn(3)
        assert np.allclose(gm(x).data, np.tanh(x.data) * 2, atol=1e-6)


class TestMatchSafety:
    def test_escaping_interior_value_blocks_match(self):
        def model(x):
            t = x.neg()
            return repro.relu(t) + t  # t escapes the pattern region

        def pattern(v):
            return repro.relu(v.neg())

        def replacement(v):
            return repro.gelu(v)

        gm = symbolic_trace(model)
        before = [(n.op, str(n.target)) for n in gm.graph.nodes]
        assert replace_pattern(gm, pattern, replacement) == []
        assert [(n.op, str(n.target)) for n in gm.graph.nodes] == before

    def test_overlapping_matches_claimed_once(self):
        def model(x):
            return repro.relu(repro.relu(x))

        def pattern(v):
            return repro.relu(v)

        def replacement(v):
            return repro.tanh(v)

        gm = symbolic_trace(model)
        matches = replace_pattern(gm, pattern, replacement)
        assert len(matches) == 2  # both relus, disjoint single-node matches
        x = repro.randn(3)
        assert np.allclose(gm(x).data, np.tanh(np.tanh(x.data)), atol=1e-6)

    def test_argument_count_mismatch_raises(self):
        gm = symbolic_trace(lambda x: repro.relu(x))
        with pytest.raises(ValueError, match="same number"):
            replace_pattern(gm, lambda v: repro.relu(v), lambda a, b: a + b)

    def test_graph_stays_valid_after_rewrite(self):
        def model(x):
            return repro.relu(x.neg()) * 3

        gm = symbolic_trace(model)
        replace_pattern(gm, lambda v: repro.relu(v.neg()), lambda v: repro.gelu(v))
        gm.graph.lint()


class TestMethodAndKwargPatterns:
    def test_method_pattern(self):
        def model(x):
            return x.neg().neg()

        gm = symbolic_trace(model)
        matches = replace_pattern(gm, lambda v: v.neg().neg(), lambda v: v)
        assert len(matches) == 1
        x = repro.randn(3)
        assert np.allclose(gm(x).data, x.data)

    def test_kwargs_must_match(self):
        def model(x):
            return F.softmax(x, dim=1)

        gm = symbolic_trace(model)
        # wrong kwarg value: no match
        assert replace_pattern(
            gm, lambda v: F.softmax(v, dim=0), lambda v: v
        ) == []
        gm2 = symbolic_trace(model)
        assert len(replace_pattern(
            gm2, lambda v: F.softmax(v, dim=1), lambda v: v
        )) == 1


class TestFuzzSurfacedEdgeCases:
    """Edge cases the fuzz generator covers (kwargs-only calls, shared
    subexpressions, multi-use placeholders) locked in as regressions."""

    def test_kwargs_only_call_pattern(self):
        def model(x):
            return F.clamp(x, min=-0.5, max=0.5).neg()

        def pattern(v):
            return F.clamp(v, min=-0.5, max=0.5)

        def replacement(v):
            return repro.tanh(v)

        gm = symbolic_trace(model)
        matches = replace_pattern(gm, pattern, replacement)
        assert len(matches) == 1
        gm.graph.lint()
        x = repro.randn(4)
        assert np.allclose(gm(x).data, -np.tanh(x.data), atol=1e-6)

    def test_kwargs_only_call_wrong_bounds_no_match(self):
        gm = symbolic_trace(lambda x: F.clamp(x, min=-0.5, max=0.5))
        assert replace_pattern(
            gm, lambda v: F.clamp(v, min=-0.25, max=0.5), lambda v: v
        ) == []

    def test_shared_subexpression_escaping_interior_not_rewritten(self):
        # relu(x) feeds both the pattern interior (neg) and an outside
        # consumer (add): rewriting would change the escaped value, so the
        # match must be rejected and semantics preserved.
        def model(x):
            r = repro.relu(x)
            return r.neg() + r

        gm = symbolic_trace(model)
        matches = replace_pattern(
            gm, lambda v: repro.relu(v).neg(), lambda v: repro.gelu(v)
        )
        assert matches == []
        gm.graph.lint()
        x = repro.randn(5)
        expected = -np.maximum(x.data, 0) + np.maximum(x.data, 0)
        assert np.allclose(gm(x).data, expected, atol=1e-6)

    def test_multi_use_placeholder_binds_consistently(self):
        def model(x):
            return (x * x) + x

        gm = symbolic_trace(model)
        matches = replace_pattern(
            gm, lambda v: v * v, lambda v: v.pow(2)
        )
        assert len(matches) == 1
        gm.graph.lint()
        x = repro.randn(4)
        assert np.allclose(gm(x).data, x.data ** 2 + x.data, atol=1e-6)

    def test_multi_use_placeholder_rejects_distinct_operands(self):
        # pattern v * v must NOT match x * y
        gm = symbolic_trace(lambda x, y: x * y)
        assert replace_pattern(gm, lambda v: v * v, lambda v: v.pow(2)) == []


class TestLiteralStrictness:
    """``1 == True == 1.0`` under Python equality, but pattern literals
    must be type-strict (regression for the _match_arg conflation bug)."""

    def _graph_plus(self, const):
        from repro.fx import Graph, GraphModule
        g = Graph()
        x = g.placeholder("x")
        g.output(g.call_function(F.add, (x, const)))
        return GraphModule(nn.Module(), g)

    def test_bool_literal_does_not_match_int(self):
        gm = self._graph_plus(True)
        assert replace_pattern(gm, lambda v: F.add(v, 1), lambda v: v) == []

    def test_int_literal_does_not_match_bool(self):
        gm = self._graph_plus(1)
        pat = symbolic_trace(lambda v: F.add(v, True)).graph
        assert replace_pattern(gm, pat, lambda v: v) == []

    def test_float_literal_does_not_match_int(self):
        gm = self._graph_plus(1)
        assert replace_pattern(gm, lambda v: F.add(v, 1.0), lambda v: v) == []

    def test_exact_type_still_matches(self):
        gm = self._graph_plus(1.0)
        assert len(replace_pattern(gm, lambda v: F.add(v, 1.0),
                                   lambda v: v)) == 1


class TestNonTreePatterns:
    def test_diamond_pattern_matches_shared_value(self):
        # tanh(x) feeds both sides of the add: genuine dataflow DAG, not
        # a tree.  Tree-shaped matchers duplicate or miss the shared node.
        def model(x):
            t = repro.tanh(x)
            return (t * 2.0) + (t * 3.0)

        def pattern(v):
            t = repro.tanh(v)
            return (t * 2.0) + (t * 3.0)

        def replacement(v):
            return repro.tanh(v) * 5.0

        gm = symbolic_trace(model)
        assert len(replace_pattern(gm, pattern, replacement)) == 1
        gm.graph.lint()
        x = repro.randn(4)
        assert np.allclose(gm(x).data, np.tanh(x.data) * 5.0, atol=1e-6)

    def test_diamond_pattern_rejects_unshared_value(self):
        # Two *distinct* tanh nodes must not satisfy a pattern whose
        # dataflow shares one.
        def model(x):
            return (repro.tanh(x) * 2.0) + (repro.tanh(x) * 3.0)

        def pattern(v):
            t = repro.tanh(v)
            return (t * 2.0) + (t * 3.0)

        gm = symbolic_trace(model)
        # tracing does not CSE: the two tanh calls are separate nodes
        tanhs = [n for n in gm.graph.nodes
                 if n.op == "call_function" and n.target is F.tanh]
        assert len(tanhs) == 2
        assert replace_pattern(gm, pattern, lambda v: v) == []


class TestRejectedPatterns:
    """A pattern no match of which could be rewritten raises ``ValueError``
    naming the culprit before anything is matched."""

    def _model(self):
        gm = symbolic_trace(lambda x: repro.relu(x) + 1.0)
        return gm, gm.code

    def test_tuple_output_pattern_rejected(self):
        gm, code = self._model()
        with pytest.raises(ValueError, match="one traced value"):
            replace_pattern(gm, lambda v: (repro.relu(v), repro.neg(v)),
                            lambda v: (repro.relu(v), repro.neg(v)))
        assert gm.code == code

    def test_placeholder_output_pattern_rejected(self):
        gm, code = self._model()
        with pytest.raises(ValueError, match="placeholder 'x'"):
            replace_pattern(gm, lambda x: x, lambda x: repro.neg(x))
        assert gm.code == code
        gm.graph.lint()

    def test_unread_pattern_placeholder_rejected(self):
        gm, code = self._model()
        with pytest.raises(ValueError, match="placeholder 'y'"):
            replace_pattern(gm, lambda x, y: repro.relu(x),
                            lambda x, y: repro.neg(x))
        assert gm.code == code


class TestMetadataPropagation:
    def _traced_with_meta(self):
        from repro.fx.passes import ShapeProp

        def model(x):
            return repro.relu(x.neg()) * 2.0

        gm = symbolic_trace(model)
        for n in gm.graph.nodes:
            if n.op not in ("placeholder", "output"):
                n.meta["stack_trace"] = f"model.py:{id(n) % 97}"
        ShapeProp(gm).propagate(repro.randn(4, 3))
        return gm

    def test_tensor_meta_propagated_to_replacement(self):
        gm = self._traced_with_meta()
        assert len(replace_pattern(
            gm, lambda v: repro.relu(v.neg()), lambda v: repro.gelu(v))) == 1
        new = [n for n in gm.graph.nodes
               if n.op == "call_function" and n.target is F.gelu]
        assert len(new) == 1
        tm = new[0].meta.get("tensor_meta")
        assert tm is not None and tuple(tm.shape) == (4, 3)

    def test_stack_trace_propagated_to_replacement(self):
        gm = self._traced_with_meta()
        replace_pattern(gm, lambda v: repro.relu(v.neg()),
                        lambda v: repro.gelu(v))
        new = [n for n in gm.graph.nodes
               if n.op == "call_function" and n.target is F.gelu]
        assert new[0].meta.get("stack_trace")


class TestOverlapPolicies:
    def _nested(self):
        # relu(relu(x)): the 2-relu pattern and the 1-relu pattern overlap.
        return symbolic_trace(lambda x: repro.relu(repro.relu(x)))

    def test_first_policy_is_scan_order(self):
        gm = self._nested()
        matches = replace_pattern(gm, lambda v: repro.relu(v),
                                  lambda v: repro.tanh(v))
        assert len(matches) == 2


class TestMatcherLifetime:
    def test_find_matches_releases_target_graph(self):
        # Rewriting keeps no reference to the module it rewrote: one kept
        # past the call would pin every matched GraphModule (100MB for a
        # ResNet) in memory.
        import gc
        import weakref

        gm = symbolic_trace(lambda x: repro.relu(x) + 1.0)
        assert len(replace_pattern(gm, lambda v: repro.relu(v),
                                   lambda v: repro.tanh(v))) == 1
        ref = weakref.ref(gm)
        del gm
        gc.collect()
        assert ref() is None, "replace_pattern retained the rewritten GraphModule"

    def test_cached_rule_does_not_pin_compiled_module(self):
        import gc
        import weakref
        from repro.fx.passes import fuse_conv_bn
        from repro.models import SimpleCNN

        gm = fuse_conv_bn(symbolic_trace(SimpleCNN().eval()))
        ref = weakref.ref(gm)
        del gm
        gc.collect()
        assert ref() is None, "conv-bn fold retained the fused module"
