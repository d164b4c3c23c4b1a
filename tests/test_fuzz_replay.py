"""Deterministic-replay guarantees of the fuzzing subsystem.

The minimizer and the repro scripts both depend on one contract: a
:class:`ProgramSpec` is a complete description of a generated program.
Same spec ⇒ byte-identical generated source, identical inputs, identical
oracle verdicts.
"""

import dataclasses

import numpy as np
import pytest

import repro
import repro.functional as F
from repro import nn
from repro.fx import clear_caches, opinfo, symbolic_trace
from repro.fx.testing import (
    CHECKS,
    GeneratedProgram,
    ProgramSpec,
    generate_program,
    minimize_failure,
    run_oracle,
    spec_for_iteration,
)
from repro.fx.testing import fuzz as run_fuzz
from repro.fx.testing.fuzz import main as fuzz_main


class TestReplayDeterminism:
    def test_same_seed_byte_identical_source(self):
        for seed in (0, 7, 123):
            for family in ("graph", "module"):
                spec = ProgramSpec(seed=seed, family=family, n_ops=8)
                a = generate_program(spec)
                b = generate_program(spec)
                assert a.source == b.source
                assert a.gm.code == b.gm.code

    def test_same_seed_identical_inputs_and_outputs(self):
        spec = ProgramSpec(seed=42, family="graph", n_ops=10)
        a = generate_program(spec)
        b = generate_program(spec)
        assert len(a.inputs) == len(b.inputs)
        for x, y in zip(a.inputs, b.inputs):
            assert np.array_equal(x.data, y.data)

    def test_same_seed_identical_oracle_verdicts(self):
        spec = ProgramSpec(seed=3, family="graph", n_ops=9)
        ra = run_oracle(generate_program(spec))
        rb = run_oracle(generate_program(spec))
        assert [(o.name, o.ok) for o in ra.outcomes] == \
            [(o.name, o.ok) for o in rb.outcomes]

    def test_different_seeds_differ(self):
        sources = {generate_program(ProgramSpec(seed=s, n_ops=10)).source
                   for s in range(6)}
        assert len(sources) > 1

    def test_skip_is_deterministic_and_stable(self):
        """Suppressing one op slot must not perturb the remaining ops'
        choices — the property delta-debugging relies on."""
        full = generate_program(ProgramSpec(seed=11, n_ops=8))
        reduced_a = generate_program(ProgramSpec(seed=11, n_ops=8, skip=frozenset({2})))
        reduced_b = generate_program(ProgramSpec(seed=11, n_ops=8, skip=frozenset({2})))
        assert reduced_a.source == reduced_b.source
        assert reduced_a.ops_emitted <= full.ops_emitted

    def test_fuzz_run_is_deterministic(self):
        a = run_fuzz(seed=5, iters=12, minimize_failures=False)
        b = run_fuzz(seed=5, iters=12, minimize_failures=False)
        assert a.iterations == b.iterations == 12
        assert [f.iteration for f in a.failures] == [f.iteration for f in b.failures]

    def test_spec_for_iteration_covers_all_families(self):
        fams = {spec_for_iteration(0, i).family for i in range(8)}
        assert fams == {"graph", "module", "control_flow"}

    def test_control_flow_source_deterministic(self):
        for seed in (0, 7, 123):
            spec = ProgramSpec(seed=seed, family="control_flow", n_ops=6)
            a = generate_program(spec)
            b = generate_program(spec)
            assert a.source == b.source
            assert len(a.alt_inputs) == len(b.alt_inputs)
            for ba, bb in zip(a.alt_inputs, b.alt_inputs):
                for x, y in zip(ba, bb):
                    assert np.array_equal(x.data, y.data)


#: The oracle's checks that compare outputs with a reference.
NUMERIC = frozenset(CHECKS) - {"lint", "analysis", "meta_carried", "meta_inferred",
                               "repaired"}


class ReluAffine(nn.Module):
    def forward(self, x):
        return F.relu(x) * 2.0 + 1.0


def _nan_program(eager):
    """``ReluAffine`` on inputs holding one NaN each, judged against *eager*."""
    x, other = repro.randn(4, 8), repro.randn(4, 8)
    x.data[0, 0] = other.data[1, 1] = np.nan
    gm = symbolic_trace(ReluAffine())
    return GeneratedProgram(ProgramSpec(seed=0, family="module"), gm, (x,), eager,
                            gm.code, 3, other_inputs=(other,))


class TestOracleAndMinimizer:
    def test_oracle_passes_on_known_good_programs(self):
        ran = set()
        for i in range(8):
            report = run_oracle(generate_program(spec_for_iteration(1, i)))
            assert report.ok, report.summary()
            ran |= {o.name for o in report.outcomes}
        assert ran == set(CHECKS)   # the exported names are the checks run

    def test_unknown_check_names_are_rejected_with_the_list(self, capsys):
        """A misspelt name used to select nothing: zero checks, exit 0."""
        program = generate_program(spec_for_iteration(1, 0))
        with pytest.raises(ValueError, match="vm_compild.*known:.*vm_compiled"):
            run_oracle(program, only=frozenset({"vm", "vm_compild"}))
        with pytest.raises(SystemExit) as exit_:
            fuzz_main(["--iters", "1", "--checks", "vm,vm_compild"])
        assert exit_.value.code == 2
        assert "vm_compild" in capsys.readouterr().err

    def test_a_cast_filed_as_fresh_is_caught(self, monkeypatch):
        """Mutant: the ``float`` entry declares no ``view``.  On a float32
        operand it returns the operand, which the self-test sees as shared
        memory; and the oracle's second call of ``compile`` / ``vm_compiled``
        runs on other values, so a returned arena buffer shows as a first
        result that moved."""
        class CastLast(nn.Module):
            def forward(self, x):
                return (F.relu(x) * 2.0 + 1.0).float()

        monkeypatch.setitem(opinfo.TABLE, "float",
                            dataclasses.replace(opinfo.TABLE["float"], view=False))
        model, x = CastLast(), repro.randn(4, 8)
        gm = symbolic_trace(model)
        program = GeneratedProgram(ProgramSpec(seed=0, family="module"), gm, (x,),
                                   model, gm.code, 3)
        clear_caches()
        try:
            assert any("shares memory" in line for line in opinfo.selftest(["float"]))
            failing = run_oracle(program, only=frozenset({"compile", "vm_compiled"}),
                                 localize=False).failures
        finally:
            clear_caches()  # nothing planned under the mutant may be replayed
        assert {o.name for o in failing} == {"compile", "vm_compiled"}
        assert all("own its storage" in o.error for o in failing)

    def test_the_same_nan_on_both_sides_agrees(self):
        """A NaN made NaN ``tol``: "numeric divergence 0 > tol nan"."""
        report = run_oracle(_nan_program(ReluAffine()), only=NUMERIC, localize=False)
        assert report.ok, report.summary()
        assert {o.name for o in report.outcomes} == NUMERIC

    def test_a_nan_on_one_side_only_fails_every_numeric_check(self):
        """``err > tol`` with a NaN ``err`` passed: ``compile``,
        ``vm_compiled`` and ``recompile`` accepted an output that is NaN
        where eager's is a number."""
        def eager(x):       # the program, reading its NaN as 0
            return ReluAffine()(repro.Tensor(np.nan_to_num(x.data)))

        report = run_oracle(_nan_program(eager), only=NUMERIC, localize=False)
        assert not any(o.ok for o in report.outcomes)
        # a failed quant_prepare stops before quant_convert
        assert {o.name for o in report.outcomes} == NUMERIC - {"quant_convert"}

    def test_minimize_rejects_passing_spec(self):
        with pytest.raises(ValueError):
            minimize_failure(ProgramSpec(seed=0, family="graph", n_ops=4))

    def test_all_six_opcodes_reachable(self):
        """Across a modest sweep the generator must emit every opcode."""
        seen = set()
        for i in range(30):
            prog = generate_program(ProgramSpec(seed=900 + i, n_ops=12))
            seen |= {n.op for n in prog.gm.graph.nodes}
        assert seen == {
            "placeholder", "call_function", "call_method", "call_module",
            "get_attr", "output",
        }

    def test_generated_programs_contain_shared_subexpressions(self):
        multi_use = 0
        for i in range(20):
            prog = generate_program(ProgramSpec(seed=500 + i, n_ops=12))
            multi_use += sum(1 for n in prog.gm.graph.nodes if len(n.users) > 1)
        assert multi_use > 0
