"""Tests for PassManager, Graph.structural_hash, and the two hash-keyed
caches (transform cache + codegen cache), including cache invalidation
under graph mutation."""

import pickle

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import (
    ArtifactCache,
    Graph,
    GraphModule,
    UnstableHashError,
    cache_info,
    clear_caches,
    symbolic_trace,
)
from repro.fx.passes import (
    PassError,
    PassManager,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
)


def copy_gm(gm):
    return pickle.loads(pickle.dumps(gm))


def trace_with_dead_code():
    def f(x):
        unused = x * 3.0  # noqa: F841 — becomes a dead node under tracing
        y = repro.relu(x)
        return y + y

    return symbolic_trace(f)


class TestStructuralHash:
    def test_deterministic(self):
        gm = trace_with_dead_code()
        assert gm.graph.structural_hash() == gm.graph.structural_hash()

    def test_stable_across_node_renames(self):
        def build(prefix):
            g = Graph()
            x = g.placeholder("x")
            r = g.create_node("call_function", F.relu, (x,), {}, name=f"{prefix}_r")
            g.output(r)
            return g

        assert build("aaa").structural_hash() == build("zzz").structural_hash()

    def test_differs_on_target(self):
        def build(fn):
            g = Graph()
            x = g.placeholder("x")
            g.output(g.call_function(fn, (x,)))
            return g

        assert build(F.relu).structural_hash() != build(F.gelu).structural_hash()

    def test_differs_on_opcode_and_topology(self):
        g1 = Graph()
        x = g1.placeholder("x")
        g1.output(g1.call_function(F.relu, (x,)))

        g2 = Graph()
        x2 = g2.placeholder("x")
        g2.output(g2.call_method("relu", (x2,)))
        assert g1.structural_hash() != g2.structural_hash()

        # same nodes, different wiring: relu(x) + x  vs  relu(x) + relu(x)
        import operator

        def wired(second_arg_is_x):
            g = Graph()
            x = g.placeholder("x")
            r = g.call_function(F.relu, (x,))
            g.output(g.call_function(operator.add, (r, x if second_arg_is_x else r)))
            return g

        assert wired(True).structural_hash() != wired(False).structural_hash()

    def test_differs_on_immediate_values(self):
        def build(k):
            g = Graph()
            x = g.placeholder("x")
            import operator

            g.output(g.call_function(operator.mul, (x, k)))
            return g

        assert build(2.0).structural_hash() != build(3.0).structural_hash()
        assert build(2).structural_hash() != build(2.0).structural_hash()

    def test_attr_values_included_when_owned(self):
        lin1 = nn.Linear(3, 3)
        lin2 = nn.Linear(3, 3)  # different random init
        gm1 = symbolic_trace(nn.Sequential(lin1))
        gm2 = symbolic_trace(nn.Sequential(lin2))
        assert gm1.graph.structural_hash() != gm2.graph.structural_hash()
        assert (gm1.graph.structural_hash(include_attrs=False)
                == gm2.graph.structural_hash(include_attrs=False))

    def test_training_mode_included(self):
        gm = symbolic_trace(nn.Sequential(nn.Linear(2, 2)))
        h_train = gm.graph.structural_hash()
        gm.eval()
        assert gm.graph.structural_hash() != h_train

    def test_mutation_changes_hash(self):
        """Satellite: erase/insert/replace must each bust the hash."""
        gm = trace_with_dead_code()
        h0 = gm.graph.structural_hash()

        # erase
        gm.graph.eliminate_dead_code()
        h_erase = gm.graph.structural_hash()
        assert h_erase != h0

        # insert
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        with gm.graph.inserting_after(relu):
            neg = gm.graph.call_method("neg", (relu,))
        h_insert = gm.graph.structural_hash()
        assert h_insert != h_erase

        # replace all uses (rewire)
        relu.replace_all_uses_with(neg, delete_user_cb=lambda u: u is not neg)
        assert gm.graph.structural_hash() != h_insert


class TestPassManager:
    def test_runs_pipeline_and_reports(self):
        gm = trace_with_dead_code()
        pm = PassManager([eliminate_dead_code, eliminate_common_subexpressions],
                         lint_after_each=True, cache=False)
        result = pm.run(gm)
        assert len(result.records) == 2
        dce_rec = result.records[0]
        assert dce_rec.name == "eliminate_dead_code"
        assert dce_rec.node_delta < 0  # the dead mul was removed
        assert all(r.wall_time >= 0 for r in result.records)
        assert all(r.linted for r in result.records)
        report = result.format()
        assert "eliminate_dead_code" in report
        assert "time (ms)" in report
        assert "total" in report

    def test_named_passes_and_composition(self):
        gm = symbolic_trace(lambda x: repro.relu(x) + repro.relu(x))
        inner = PassManager([("my_cse", eliminate_common_subexpressions)], cache=False)
        outer = PassManager([inner, eliminate_dead_code], cache=False)
        result = outer.run(gm)
        x = repro.randn(4)
        assert np.allclose(result.graph_module(x).data, gm(x).data, atol=1e-6)
        assert result.records[0].name in ("PassManager", "pass_0")

    def test_error_names_failing_pass(self):
        def exploding_pass(gm):
            raise ValueError("boom")

        pm = PassManager([eliminate_dead_code, exploding_pass], cache=False)
        gm = symbolic_trace(lambda x: repro.relu(x))
        with pytest.raises(PassError, match=r"pass 1 \('exploding_pass'\).*boom"):
            pm.run(gm)

    def test_lint_failure_names_pass(self):
        def corrupting_pass(gm):
            # wire the output to a node that lives in a different graph
            other = Graph()
            foreign = other.placeholder("y")
            gm.graph.output_node.args = (foreign,)

        pm = PassManager([corrupting_pass], lint_after_each=True, cache=False)
        gm = symbolic_trace(lambda x: repro.relu(x))
        with pytest.raises(PassError, match="corrupting_pass.*lint failed"):
            pm.run(gm)

    def test_requires_graph_module(self):
        with pytest.raises(TypeError):
            PassManager([eliminate_dead_code]).run(nn.Linear(2, 2))

    def test_preserves_semantics(self):
        model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4), nn.ReLU()).eval()
        gm = symbolic_trace(model)
        pm = PassManager(
            [eliminate_dead_code, eliminate_common_subexpressions,
             fold_constants, fuse_conv_bn],
            lint_after_each=True, cache=False)
        out = pm.run(copy_gm(gm)).graph_module
        x = repro.randn(1, 3, 8, 8)
        assert np.allclose(out(x).data, gm(x).data, atol=1e-3)


class TestTransformStage:
    def test_second_run_hits_cache(self):
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        pm = PassManager([eliminate_dead_code, eliminate_common_subexpressions],
                         lint_after_each=True, cache=cache)
        cold = pm.run(copy_gm(gm))
        assert cold.cache_hits == 0
        warm = pm.run(copy_gm(gm))
        assert warm.cache_hits == 2
        x = repro.randn(3)
        assert np.allclose(warm.graph_module(x).data,
                           cold.graph_module(x).data, atol=1e-6)

    def test_cached_replay_does_not_alias(self):
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        pm = PassManager([eliminate_dead_code], cache=cache)
        first = pm.run(copy_gm(gm)).graph_module
        second = pm.run(copy_gm(gm)).graph_module
        assert first is not second
        assert first.graph is not second.graph

    def test_graph_mutation_busts_cache(self):
        """Satellite: a mutated graph must hash differently and miss."""
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        pm = PassManager([eliminate_common_subexpressions], cache=cache)
        pm.run(copy_gm(gm))

        mutated = copy_gm(gm)
        relu = mutated.graph.find_nodes(op="call_function", target=F.relu)[0]
        with mutated.graph.inserting_after(relu):
            neg = mutated.graph.call_method("neg", (relu,))
        relu.replace_all_uses_with(neg, delete_user_cb=lambda u: u is not neg)
        mutated.recompile()
        result = pm.run(mutated)
        assert result.cache_hits == 0

    def test_param_value_change_busts_cache(self):
        # A user pass may read parameter values, so a run with one is keyed
        # on their bytes.  (The numpy pipeline's stages read values only
        # through ``state.derive``: a run of them alone replays its folds
        # on the new values, see test_fx_transform_cache.)
        cache = ArtifactCache()
        model = nn.Sequential(nn.Linear(2, 2)).eval()
        gm = symbolic_trace(model)
        pm = PassManager([fold_constants, reads_values], cache=cache)
        pm.run(copy_gm(gm))
        gm.get_submodule("0").weight.data[:] = 0.0
        result = pm.run(copy_gm(gm))
        assert result.cache_hits == 0

    def test_lru_bound(self):
        cache = ArtifactCache(maxsize=1)
        pm = PassManager([eliminate_dead_code], cache=cache)
        pm.run(symbolic_trace(lambda x: repro.relu(x)))
        pm.run(symbolic_trace(lambda x: repro.gelu(x)))
        assert len(cache) == 1

    def test_same_display_name_distinct_lambdas_do_not_collide(self):
        """Regression: two different lambdas both auto-name to 'pass_0';
        the second manager must run its own transform, not replay the
        first one's cached result."""
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        n0 = len(gm.graph)

        noop = PassManager([lambda g: None], cache=cache)
        noop.run(copy_gm(gm))

        dce = PassManager([lambda g: eliminate_dead_code(g)], cache=cache)
        result = dce.run(copy_gm(gm))
        assert result.cache_hits == 0
        assert len(result.graph_module.graph) < n0  # DCE actually ran
        # lambdas have no stable identity, so neither manager cached anything
        assert len(cache) == 0

    def test_named_lambda_pass_still_uncached(self):
        # A (name, fn) display name must not make an id()-identity
        # callable cacheable.
        cache = ArtifactCache()
        pm = PassManager([("dce", lambda g: eliminate_dead_code(g))], cache=cache)
        pm.run(trace_with_dead_code())
        assert len(cache) == 0
        assert pm.last_result.records[0].name == "dce"

    def test_stable_passes_cache_across_managers(self):
        # Module-level passes share entries across managers via their
        # module.qualname identity, independent of display names.
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        PassManager([eliminate_dead_code], cache=cache).run(copy_gm(gm))
        result = PassManager([("renamed", eliminate_dead_code)],
                             cache=cache).run(copy_gm(gm))
        assert result.cache_hits == 1

    def test_hit_from_unlinted_entry_is_relinted(self):
        """Regression: a lint_after_each manager must not accept a cached
        entry produced by a non-linting manager without validating it.
        The lint flag is part of a run's key, so it never finds that entry:
        it executes — and lints — the run itself and stores its own."""
        cache = ArtifactCache()
        gm = trace_with_dead_code()
        producer = PassManager([eliminate_dead_code], lint_after_each=False,
                               cache=cache)
        producer.run(copy_gm(gm))

        consumer = PassManager([eliminate_dead_code], lint_after_each=True,
                               cache=cache)
        result = consumer.run(copy_gm(gm))
        rec = result.records[0]
        assert not rec.cache_hit and rec.linted
        assert result.misses == [("checks",)]   # and it can say why
        assert len(cache) == 2

        # each configuration replays its own entry and reports what that
        # run did
        again = consumer.run(copy_gm(gm))
        assert again.records[0].cache_hit and again.records[0].linted
        again = producer.run(copy_gm(gm))
        assert again.records[0].cache_hit and not again.records[0].linted

    def test_unstable_graph_hash_disables_caching(self):
        """Regression: id()-hashed targets must not key persistent cache
        entries — the id can be recycled after GC."""

        class CallableTarget:
            def __call__(self, x):
                return x

        target = CallableTarget()
        g = Graph()
        x = g.placeholder("x")
        g.output(g.call_function(target, (x,)))
        with pytest.raises(UnstableHashError):
            g.structural_hash(require_stable=True)
        assert g.structural_hash()  # default mode still hashes

        cache = ArtifactCache()
        gm = GraphModule({}, g)
        result = PassManager([eliminate_dead_code], cache=cache).run(gm)
        assert result.cache_hits == 0
        assert len(cache) == 0


class TestCodegenCache:
    def test_identical_graphs_share_compiled_forward(self):
        clear_caches("codegen")
        before = cache_info()["codegen"]
        gm = symbolic_trace(lambda x: repro.relu(x) + 1)
        gm2 = copy_gm(gm)  # an identical graph; code is generated on use
        assert gm2.forward.__func__ is gm.forward.__func__
        after = cache_info()["codegen"]
        assert after["hits"] > before["hits"]
        x = repro.randn(3)
        assert np.allclose(gm(x).data, gm2(x).data, atol=1e-6)

    def test_mutation_busts_codegen_cache(self):
        clear_caches("codegen")
        gm = symbolic_trace(lambda x: repro.relu(x) + 1)
        old_forward = gm.forward.__func__
        relu = gm.graph.find_nodes(op="call_function", target=F.relu)[0]
        ph = gm.graph.find_nodes(op="placeholder")[0]
        relu.replace_all_uses_with(ph)
        gm.graph.erase_node(relu)
        gm.recompile()
        assert gm.forward.__func__ is not old_forward
        assert float(gm(repro.tensor(-2.0))) == -1.0

    def test_recompile_same_graph_reuses_entry(self):
        clear_caches("codegen")
        gm = symbolic_trace(lambda x: repro.relu(x))
        assert gm.code  # generated on use
        size_before = cache_info()["codegen"]["size"]
        for _ in range(10):
            gm.recompile()
            assert gm.code  # generated on use
        assert cache_info()["codegen"]["size"] == size_before

    def test_returned_globals_are_private_copies(self, monkeypatch):
        """Regression: the globals table a codegen entry keeps is a private
        copy — neither the one ``python_code()`` handed out (it belongs to
        that caller, who may mutate it) nor the namespace the function
        runs in — so emptying the former cannot corrupt future hits."""
        from repro.fx.graph_module import _CODEGEN_CACHE

        gm = symbolic_trace(lambda x: repro.relu(x) + 1)
        keys = set(gm.graph.python_code("self").globals)
        assert keys
        handed_out = []
        python_code = Graph.python_code

        def spy(self, *args, **kwargs):
            handed_out.append(python_code(self, *args, **kwargs))
            return handed_out[-1]

        monkeypatch.setattr(Graph, "python_code", spy)
        clear_caches("codegen")
        gm.recompile()
        assert gm.code  # first use: repopulates the cache via the miss path
        (entry,) = _CODEGEN_CACHE._entries.values()
        _, fn, stored, _ = entry
        assert stored is not handed_out[0].globals
        assert stored is not fn.__globals__
        handed_out[0].globals.clear()

        gm.recompile()
        assert gm.forward.__func__ is fn  # the hit path
        assert set(stored) == keys
        assert len(handed_out) == 1
        assert float(gm(repro.tensor(-2.0))) == 1.0


class TestOracleIntegration:
    def test_pipelines_run_under_pass_manager_with_lint(self):
        from repro.fx.testing import PASS_MANAGERS, PASS_PIPELINES

        assert set(PASS_PIPELINES) == {"dce", "cse", "const_fold", "fuse"}
        for name, manager in PASS_MANAGERS.items():
            assert isinstance(manager, PassManager), name
            assert manager.lint_after_each, f"{name} must lint between passes"

    def test_tier1_smoke_three_pass_pipeline(self):
        """Satellite: 3-pass pipeline under PassManager with lint on."""
        model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4), nn.ReLU()).eval()
        gm = symbolic_trace(model)
        pm = PassManager(
            [eliminate_dead_code, eliminate_common_subexpressions, fuse_conv_bn],
            lint_after_each=True)
        result = pm.run(copy_gm(gm))
        assert len(result.records) == 3
        assert all(r.cache_hit or r.linted for r in result.records)
        x = repro.randn(2, 3, 8, 8)
        assert np.allclose(result.graph_module(x).data, gm(x).data, atol=1e-3)
        # the fused module collapsed conv+bn into one call
        assert result.records[-1].node_delta <= 0
        assert "fuse_conv_bn" in result.format()


# -- state sharing: one read per tensor per compile, entries by reference ------

def reads_values(gm):
    """A user pass (a no-op): it may read weight values, so a run with it
    in is keyed on their bytes and stored as a snapshot."""


def _double_first_weight_in_place(gm):
    """A deliberately bad pass: writes module state instead of replacing it."""
    next(iter(gm.parameters())).data *= 2


def _state_reads():
    return cache_info()["transform"].get("state_reads", 0)


def _arrays(module):
    return [t.data for t in list(module.parameters()) + list(module.buffers())]


class TiedAndStrided(nn.Module):
    """One Parameter under two names, plus a non-contiguous parameter."""

    def __init__(self):
        super().__init__()
        self.a = nn.Linear(4, 4)
        self.b = nn.Linear(4, 4)
        self.b.weight = self.a.weight
        self.scale = nn.Parameter(
            np.arange(24, dtype=np.float32).reshape(4, 6)[:, ::2])

    def forward(self, x):
        return self.b(self.a(x)) @ self.scale


class TestStateSharing:
    def conv_bn(self):
        model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4), nn.ReLU())
        return symbolic_trace(model.eval()), repro.randn(1, 3, 8, 8)

    def large(self):
        """A seeded conv + bn + linear whose conv and linear weights (72 and
        128 KiB) are large enough for the digest pool."""
        from repro.fx.state import _POOL_MIN_BYTES

        repro.manual_seed(0)
        model = nn.Sequential(nn.Conv2d(32, 64, 3), nn.BatchNorm2d(64),
                              nn.ReLU(), nn.AdaptiveAvgPool2d(1), nn.Flatten(),
                              nn.Linear(64, 512))
        gm = symbolic_trace(model.eval())
        assert sum(a.nbytes >= _POOL_MIN_BYTES for a in _arrays(gm)) == 2
        return gm, repro.randn(1, 32, 8, 8)

    def test_keys_do_not_move(self):
        # Every key — the transform cache's, the engine cache's files on
        # disk — must keep its value however the digests are read: this one
        # was recorded when they were read one after another, on one thread.
        from repro.fx.passes import ShapeProp
        from repro.fx.state import state_scope

        gm, x = self.large()
        ShapeProp(gm).propagate(x)
        pinned = "365ebe03ad92e96dda78a9706bde71c19fd039ed33509b420b075796fa7013e3"

        def key():
            return gm.graph.structural_hash(include_attrs=True, require_stable=True,
                                            include_meta=True)

        assert key() == pinned
        with state_scope():
            assert key() == pinned
            assert key() == pinned   # served from the scope

    def test_a_large_weight_written_in_place_drops_the_run(self):
        # The exit check reads large arrays on the digest pool like any
        # other hash; a pass writing one the entry copied from the caller
        # still fails the compile and takes back what it stored.
        gm, _ = self.large()
        weight = gm.get_submodule("5").weight.data   # dce does not replace it

        def write_the_callers_weight(module):
            weight[0, 0] += 1.0

        cache = ArtifactCache()
        with pytest.raises(PassError, match="written in place"):
            PassManager([eliminate_dead_code, write_the_callers_weight],
                        cache=cache).run(gm)
        assert len(cache) == 0

    def test_in_place_state_write_inside_pipeline_is_an_error(self):
        # Passes work on read-only views of the caller's arrays, so a pass
        # that writes one in place fails at the write, as a PassError that
        # names it; nothing is stored and the caller's module is untouched.
        cache = ArtifactCache()
        gm, _ = self.conv_bn()
        before = [a.copy() for a in _arrays(gm)]
        pm = PassManager([eliminate_dead_code, _double_first_weight_in_place],
                         cache=cache)
        with pytest.raises(PassError, match=r"pass 1 \('_double_first_weight_"
                                            r"in_place'\).*read-only"):
            pm.run(gm)
        assert pm.last_result is None and len(cache) == 0

        # ... and equally when what it writes is a module restored from a
        # hit (the lambda is its own uncacheable stretch after the run)
        PassManager([eliminate_dead_code], cache=cache).run(gm)
        replaying = PassManager([eliminate_dead_code,
                                 ("bad", lambda g: _double_first_weight_in_place(g))],
                                cache=cache)
        with pytest.raises(PassError, match=r"pass 1 \('bad'\).*read-only"):
            replaying.run(gm)
        assert len(cache) == 1   # the earlier compile's entry is not to blame
        assert all(a.flags.writeable and np.array_equal(a, b)
                   for a, b in zip(_arrays(gm), before, strict=True))

    def test_a_caller_write_during_a_run_is_never_stored_under_the_old_key(self):
        # The passes see the caller's arrays read-only, but the caller (say,
        # another thread) can still write them while the run executes.  The
        # ones no pass replaced are copied into the entry, and their digests
        # checked when the scope closes: such a write drops the entry
        # instead of leaving new bytes under the old key.  (A run keyed on
        # structure has no old key: its entry holds no array.)
        gm, _ = self.conv_bn()
        weight = gm.get_submodule("0").weight.data   # dce does not replace it

        class Meddling:
            baseline = None

            def before_pipeline(self, module):
                pass

            def after_pass(self, name, module):
                weight[0, 0, 0, 0] += 1.0

        cache = ArtifactCache()
        with pytest.raises(PassError, match="written in place"):
            PassManager([eliminate_dead_code, reads_values], cache=cache,
                        verifier=Meddling()).run(gm)
        assert len(cache) == 0

    def test_write_to_a_replayed_result_cannot_poison_the_cache(self):
        # A compiled module's parameters are read-only views of arrays the
        # cache entry owns.  The write that used to poison the entry (and
        # was caught only by re-hashing every array on the next hit) now
        # fails where it is made; the view's holder cannot lift the
        # refusal; and the next compile replays what the first one built.
        from repro.fx import compile as fx_compile

        gm, x = self.conv_bn()
        clear_caches("transform")
        first = fx_compile(copy_gm(gm), (x,))
        expected = first(x).data.copy()
        for p in first.parameters():
            with pytest.raises(ValueError, match="read-only"):
                p.data[:] = 0.0
            with pytest.raises(ValueError, match="WRITEABLE"):
                p.data.flags.writeable = True
        assert np.array_equal(first(x).data, expected)

        again = fx_compile(copy_gm(gm), (x,))
        assert all(r.cache_hit for r in again.compile_report.records)
        assert np.array_equal(again(x).data, expected)
        assert np.allclose(again(x).data, gm(x).data, atol=1e-5)

    def test_chain_of_passes_replays_its_frozen_end_state(self):
        # Three passes are one run, hence one entry.  Zeroing the result's
        # arrays used to make the next run refuse that entry and redo the
        # chain; the arrays are the entry's, frozen, so the write fails
        # and every later run replays the chain, with the lint and
        # verification it was built under, bit for bit.
        from repro.fx.analysis import PassVerifier

        cache = ArtifactCache()
        gm, x = self.conv_bn()
        pm = PassManager([eliminate_dead_code, eliminate_common_subexpressions,
                          fold_constants], cache=cache,
                         verifier=PassVerifier(), lint_after_each=True)
        first = pm.run(copy_gm(gm))
        assert first.cache_hits == 0
        for arr in _arrays(first.graph_module):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
        result = pm.run(copy_gm(gm))
        assert result.misses == [] and result.cache_hits == 3
        assert [(r.name, r.linted, r.verified) for r in result.records] \
            == [(r.name, r.linted, r.verified) for r in first.records]
        assert np.array_equal(result.graph_module(x).data, gm(x).data)

    def test_replayed_modules_share_the_entry_and_never_the_source(self):
        # The entry owns the end state: the arrays the passes made, frozen
        # where they lie (nothing copied), and every module the run
        # returns — built or replayed — is read-only views of them.  Two
        # replays share their bytes with each other and the entry, and
        # none with the modules they were compiled from.  (A snapshot: the
        # run has a user pass, so its key reads bytes.)
        cache = ArtifactCache()
        gm, x = self.conv_bn()
        pm = PassManager([fuse_conv_bn, reads_values], cache=cache)
        source = copy_gm(gm)
        produced = pm.run(source).graph_module
        (entry,) = cache._entries.values()
        owned = {id(a) for a in entry.snapshot.arrays}
        assert all(a.base is None and not a.flags.writeable
                   for a in entry.snapshot.arrays)
        replays = [pm.run(copy_gm(gm)) for _ in range(2)]
        assert [r.cache_hits for r in replays] == [2, 2]
        for module in [produced] + [r.graph_module for r in replays]:
            assert {id(a.base) for a in _arrays(module)} == owned
            for arr in _arrays(module):
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, other)
                               for other in _arrays(source) + _arrays(gm))
        assert np.array_equal(replays[1].graph_module(x).data, produced(x).data)

    def test_tied_and_non_contiguous_parameters_round_trip(self):
        from repro.fx.state import copy_module, owning

        gm = symbolic_trace(TiedAndStrided())
        x = repro.randn(2, 4)
        assert not gm.scale.data.flags.c_contiguous \
            and not gm.scale.data.flags.f_contiguous
        # every array leaves the pickle by reference; the strided one is
        # a view, so the recipe owns a contiguous copy of it
        snap = owning(gm, ())
        assert len(snap.arrays) == len(_arrays(gm))
        assert all(a.flags.c_contiguous or a.flags.f_contiguous
                   for a in snap.arrays)

        cache = ArtifactCache()
        pm = PassManager([eliminate_dead_code], cache=cache)
        pm.run(copy_module(gm))
        replayed = pm.run(copy_module(gm))
        assert replayed.cache_hits == 1
        for clone in (copy_module(gm), replayed.graph_module):
            assert clone.a.weight is clone.b.weight
            assert clone.a.weight is not gm.a.weight
            assert np.array_equal(clone.scale.data, gm.scale.data)
            assert np.array_equal(clone(x).data, gm(x).data)

    def test_hash_is_the_same_inside_and_outside_a_scope(self):
        from repro.fx.state import state_scope

        gm, _ = self.conv_bn()
        n_tensors = len(_arrays(gm))
        outside = gm.graph.structural_hash()
        before = _state_reads()
        assert gm.graph.structural_hash() == outside
        assert _state_reads() - before == n_tensors   # un-scoped: every call reads

        before = _state_reads()
        with state_scope():
            inside = gm.graph.structural_hash()
            with state_scope():   # re-entrant: joins the open scope
                canonical = gm.graph.structural_hash(canonicalize_targets=True)
            assert gm.graph.structural_hash() == inside
            assert _state_reads() - before == n_tensors   # three hashes, one read
        assert inside == outside
        assert canonical == gm.graph.structural_hash(canonicalize_targets=True)
        # leaving re-validated what was served, then the memo is gone
        assert _state_reads() - before == 3 * n_tensors

    def test_scope_does_not_hide_a_write_between_compiles(self):
        from repro.fx.state import state_scope

        gm, _ = self.conv_bn()
        with state_scope():
            before = gm.graph.structural_hash()
        next(iter(gm.parameters())).data[:] = 0.0
        with state_scope():
            assert gm.graph.structural_hash() != before

    def test_shape_prop_of_a_training_batchnorm_is_not_a_violation(self):
        # ShapeProp infers, it does not run the program: a training-mode
        # BatchNorm's running statistics move on neither copy, so there is
        # nothing to declare and the scope's exit check has nothing to trip on.
        from repro.fx.passes import ShapeProp

        model = nn.Sequential(nn.Conv2d(3, 4, 3), nn.BatchNorm2d(4))
        gm, x = symbolic_trace(model), repro.randn(2, 3, 8, 8)

        def shape_prop(g):
            ShapeProp(g).propagate(x)

        cache = ArtifactCache()
        result = PassManager([eliminate_dead_code, shape_prop,
                              eliminate_dead_code], cache=cache).run(gm)
        # A training-mode batch norm writes its statistics when it runs, so
        # no run of this graph is stored: its result keeps sharing them.
        assert len(cache) == 0
        out = result.graph_module   # hashed outside the scope: from bytes
        # the meta it stamped is all that moved the hash: the state did not
        assert out.graph.structural_hash(require_stable=True, include_meta=True) \
            != gm.graph.structural_hash(require_stable=True, include_meta=True)
        assert out.graph.structural_hash(require_stable=True, include_meta=False) \
            == gm.graph.structural_hash(require_stable=True)
        for module in (gm, out):
            assert not module.get_submodule("1").running_mean.data.any()
