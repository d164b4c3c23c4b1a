"""The differential oracle: run one generated program every way we can and
demand agreement.

For each :class:`~repro.fx.testing.generator.GeneratedProgram` the oracle
executes:

1. the **reference** — the untraced eager module (module family) or the
   :class:`~repro.fx.Interpreter` (graph family, where the IR itself is the
   ground truth and the interpreter is an executor independent of codegen);
2. the **generated Python source** (``gm(*inputs)``);
3. the **Interpreter** (``Interpreter(gm).run(*inputs)``);
4. a **re-trace** of the generated source (Figure 3 round-trip); and
5. the program **after each registered pass pipeline** — ``dce``, ``cse``,
   ``const_fold``, ``fuse``, and the quantization round trip — none of
   which touches the program it is given.  The pipelines run through an
   instrumented :class:`~repro.fx.passes.PassManager` with post-pass
   ``graph.lint()`` validation *and* the analysis-backed
   :class:`~repro.fx.analysis.PassVerifier` enabled, so every fuzz
   iteration also exercises the managed pass driver, its transform
   cache, and the between-pass invariant checks; and
6. the full **optimizing compiler** (``repro.fx.compile``: pointwise
   fusion, with its pass verifier on), called a second time on *other
   values of the same signature*: it must agree with the reference on the
   new values and must leave the first call's outputs bit for bit as they
   were (a returned value owns its storage) — fusion must be
   semantics-preserving on every generated program — called at two
   other batch sizes, where it must give the bits of its own compile at
   that size (:func:`_at_other_batch_sizes`: what lets a server key one
   engine on the per-sample signature), and must see a rebound
   ``get_attr`` target (:func:`_rebound`); then **compiled
   again** (check ``recompile``, also rebound): the second compile must
   be replayed whole from the transform cache and be indistinguishable
   from the first (output bits, ``tensor_meta``), and a compile under the
   program's *second input signature* (another batch size or dtype, drawn
   by the generator) must be indistinguishable from its own
   ``cache=False`` compile — what catches a replay keyed on less than it
   read; and (check ``meta_carried``) the ``tensor_meta`` on every node
   entering ``pointwise_fuse`` must be what executing the program records
   there (:func:`reference_meta`), since nothing refreshes it
   mid-pipeline; and (check ``meta_inferred``) under both of the program's
   input signatures the ``tensor_meta`` ``ShapeProp`` infers from the op
   table must equal that executed reference node for node, with no node
   executed for lack of an entry;
7. the **flat bytecode VM** (``repro.fx.vm``), twice over: the pristine
   graph is VM-compiled and must match the reference exactly — including
   after a pickle round-trip of the program, which must replay
   bit-identically (check ``vm``) — and the ``fx.compile`` output is
   VM-compiled so fused-kernel instructions execute on the VM, under the same two-call contract as ``compile``
   (check ``vm_compiled``), and at the same two other batch sizes; and
8. the **backend lowering path** (``repro.fx.to_backend`` with the eager
   backend under a per-program seeded *random support predicate*): the
   dependency-aware capability partitioner must never emit a partition
   dependency cycle, the stitched split module must lint, and its output
   must match the reference exactly — a property test over every fuzzed
   graph (check name ``backend_split``).

Additionally, every fresh trace is run through the static analyzer
(:func:`repro.fx.analysis.lint_graph`): an error-severity diagnostic on a
*generated* program means either the generator produced a genuinely
hazardous program or the analysis has a false positive — both are bugs,
so the oracle fails the program under a check named ``analysis:<rule>``
(a name the minimizer preserves while shrinking).

Any disagreement beyond tolerance, lint failure, or exception is recorded
as a failing :class:`CheckOutcome`.  Numeric divergences additionally get a
best-effort :class:`~repro.fx.passes.net_min.DivergenceReport` localizing
the first bad node via ``find_first_divergence``.
"""

from __future__ import annotations

import io
import pickle
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ...nn import BatchNorm2d, Conv2d, Linear, Module, Parameter
from ...tensor import Tensor
from ..analysis import PassVerifier, lint_graph
from ..graph import _resolve_attr
from ..graph_module import GraphModule
from ..interpreter import Interpreter
from ..node import Node, map_aggregate
from ..state import copy_module
from ..tracer import symbolic_trace
from ..passes import (
    PassManager,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    fold_constants,
    fuse_conv_bn,
)
from ..passes.net_min import DivergenceReport, find_first_divergence
from ..opinfo import has_tensor
from ..passes.shape_prop import ShapeProp, extract_tensor_metadata
from .generator import GeneratedProgram

__all__ = [
    "CHECKS",
    "CheckOutcome",
    "OracleReport",
    "PASS_MANAGERS",
    "PASS_PIPELINES",
    "max_abs_diff",
    "reference_meta",
    "run_oracle",
    "stale_meta",
    "validate_checks",
]

#: Numeric agreement threshold for exact re-executions of the same float32
#: arithmetic (codegen / interpreter / retrace / structural passes).
EXACT_ATOL = 1e-5
#: Extra slack for passes that re-associate float math (weight folding).
FOLD_ATOL = 5e-3


def max_abs_diff(a: Any, b: Any) -> float:
    """Max absolute elementwise difference across an output structure.

    Equal non-finite values (NaN and NaN, inf and inf) agree; a non-finite
    value on one side only is ``inf`` apart, as is any structural mismatch
    (shape, length, keys, type).
    """
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if tuple(a.shape) != tuple(b.shape):
            return float("inf")
        return _diff(a.data.astype(np.float64), b.data.astype(np.float64))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        if len(a) != len(b):
            return float("inf")
        return max((max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return float("inf")
        return max((max_abs_diff(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return _diff(np.float64(a), np.float64(b))
    return 0.0 if a == b else float("inf")


def _diff(a: np.ndarray, b: np.ndarray) -> float:
    with np.errstate(invalid="ignore"):     # inf - inf
        diff = np.where((a == b) | np.isnan(a) & np.isnan(b), 0.0, np.abs(a - b))
    return float(np.where(np.isnan(diff), np.inf, diff).max(initial=0.0))


def _ref_scale(ref: Any) -> float:
    """Largest finite reference magnitude, for relative tolerances."""
    if isinstance(ref, (Tensor, int, float)):
        data = np.asarray(ref.data if isinstance(ref, Tensor) else ref, np.float64)
        return float(np.abs(data[np.isfinite(data)]).max(initial=0.0))
    if isinstance(ref, (tuple, list)):
        return max((_ref_scale(x) for x in ref), default=0.0)
    if isinstance(ref, dict):
        return max((_ref_scale(v) for v in ref.values()), default=0.0)
    return 0.0


@dataclass
class CheckOutcome:
    """Verdict of one oracle check on one program."""

    name: str
    ok: bool
    error: Optional[str] = None
    max_err: float = 0.0
    divergence: Optional[DivergenceReport] = None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"FAIL ({self.error})"
        return f"CheckOutcome({self.name}: {status})"


@dataclass
class OracleReport:
    """All check outcomes for one generated program."""

    program: GeneratedProgram
    outcomes: list[CheckOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> list[CheckOutcome]:
        return [o for o in self.outcomes if not o.ok]

    def summary(self) -> str:
        spec = self.program.spec
        lines = [
            f"program seed={spec.seed} family={spec.family} n_ops={spec.n_ops} "
            f"skip={sorted(spec.skip)}: "
            + ("all checks passed" if self.ok else f"{len(self.failures)} FAILING checks")
        ]
        for o in self.outcomes:
            mark = "  ok  " if o.ok else "  FAIL"
            detail = "" if o.ok else f" — {o.error}"
            if o.divergence is not None and o.divergence.diverged:
                detail += f" [first divergence at node {o.divergence.node.name!r}]"
            lines.append(f"{mark} {o.name}{detail}")
        return "\n".join(lines)


#: Every registered pipeline runs through an instrumented
#: :class:`~repro.fx.passes.PassManager` with post-pass lint validation on,
#: so each fuzz iteration exercises the managed driver (metrics, error
#: context, transform cache) rather than ad-hoc pass composition.
PASS_MANAGERS: dict[str, PassManager] = {
    "dce": PassManager([eliminate_dead_code], lint_after_each=True,
                       verifier=PassVerifier()),
    "cse": PassManager([eliminate_common_subexpressions], lint_after_each=True,
                       verifier=PassVerifier()),
    "const_fold": PassManager([fold_constants], lint_after_each=True,
                              verifier=PassVerifier()),
    "fuse": PassManager([fuse_conv_bn], lint_after_each=True,
                        verifier=PassVerifier()),
}


def _fuse(gm: GraphModule) -> GraphModule:
    """The ``fuse`` manager over an eval-mode copy of *gm*: the fold bakes
    in frozen BN statistics, and eval mode legitimately turns a training
    BatchNorm pure (its running-stat update stops) before the verifier's
    baseline is taken."""
    gm = copy_module(gm)
    gm.eval()
    return PASS_MANAGERS["fuse"].run(gm, consume=True).graph_module


#: Registered pass pipelines, each ``GraphModule -> GraphModule`` leaving
#: its argument alone (a PassManager is itself callable as a pass — §4.4
#: composability — and works on a copy of its own).
#: The quantization round-trip is handled separately in :func:`run_oracle`
#: because it needs the calibration inputs and a looser tolerance.
PASS_PIPELINES: dict[str, Callable[[GraphModule], GraphModule]] = {
    **PASS_MANAGERS, "fuse": _fuse}

_PIPELINE_ATOL = {"fuse": FOLD_ATOL}

#: Every name ``run_oracle(only=)`` / ``fuzz --checks`` may select.
CHECKS = ("lint", "analysis", "codegen", "interpreter", "retrace",
          *PASS_PIPELINES, "compile", "recompile", "key_soundness",
          "meta_carried",
          "meta_inferred", "vm", "vm_compiled", "repaired", "backend_split",
          "quant_prepare", "quant_convert")


def validate_checks(only) -> None:
    """Raise ``ValueError`` naming what in *only* is not in :data:`CHECKS`
    (a misspelt name would otherwise select nothing and pass)."""
    unknown = sorted(set(only) - set(CHECKS))
    if unknown:
        raise ValueError(f"unknown oracle checks {unknown}; "
                         f"known: {', '.join(CHECKS)}")


def _exc_summary(exc: Exception) -> str:
    buf = io.StringIO()
    traceback.print_exception(type(exc), exc, exc.__traceback__, limit=3, file=buf)
    last = buf.getvalue().strip().splitlines()[-1]
    return last


def _localize(gm: GraphModule, transformed: GraphModule,
              inputs: tuple, atol: float) -> Optional[DivergenceReport]:
    """Best-effort first-divergence localization after a pass.

    Uses :func:`find_first_divergence` with a suspect backend that executes
    each node through the *transformed* module's state when a node of the
    same name and opcode survived the pass (covers module-swap passes and
    in-place rewrites); unmatched nodes fall back to reference semantics.
    """
    try:
        by_name = {n.name: n for n in transformed.graph.nodes}
        ref_interp = Interpreter(gm, garbage_collect_values=False)
        sus_interp = Interpreter(transformed, garbage_collect_values=False)

        def suspect(node: Node, args: tuple, kwargs: dict) -> Any:
            n2 = by_name.get(node.name)
            if n2 is not None and n2.op == node.op:
                return getattr(sus_interp, n2.op)(n2.target, args, kwargs)
            return getattr(ref_interp, node.op)(node.target, args, kwargs)

        return find_first_divergence(gm, suspect, *inputs, atol=atol)
    except Exception:
        return None


def run_oracle(program: GeneratedProgram, localize: bool = True,
               only: Optional[frozenset] = None) -> OracleReport:
    """Run every registered check on *program* and collect the verdicts.

    Args:
        program: the generated program to judge.
        localize: attempt first-divergence localization on numeric
            failures.
        only: when given, run just the checks whose name is in the set
            (each one of :data:`CHECKS`; the reference execution always
            runs) — used by the dedicated VM fuzz smoke to iterate fast.
    """
    if only is not None:
        validate_checks(only)
    report = OracleReport(program)
    gm, inputs = program.gm, program.inputs

    if not isinstance(gm, GraphModule):
        # Polyvariant capture (control_flow family): the capture is a
        # dispatcher over several GraphModules, so the graph-transforming
        # checks don't apply — the differential `repaired` check is the
        # whole contract.
        only = frozenset({"repaired"})

    def want(name: str) -> bool:
        return only is None or name in only

    # -- reference value ----------------------------------------------------
    try:
        if program.eager is not None:
            ref = program.eager(*inputs)
        else:
            ref = Interpreter(gm).run(*inputs)
    except Exception as exc:
        report.outcomes.append(CheckOutcome(
            "reference", False, f"reference execution raised: {_exc_summary(exc)}"))
        return report
    scale = _ref_scale(ref)

    def check_numeric(name: str, fn: Callable[[], Any], atol: float,
                      transformed: Optional[GraphModule] = None) -> None:
        try:
            out = fn()
        except Exception as exc:
            report.outcomes.append(CheckOutcome(name, False, _exc_summary(exc)))
            return
        err = max_abs_diff(ref, out)
        tol = atol * (1.0 + scale)
        if err <= tol:
            report.outcomes.append(CheckOutcome(name, True, max_err=err))
            return
        div = None
        if localize and transformed is not None:
            div = _localize(gm, transformed, inputs, tol)
        report.outcomes.append(CheckOutcome(
            name, False, f"numeric divergence {err:.3g} > tol {tol:.3g}",
            max_err=err, divergence=div))

    # -- pristine-module checks --------------------------------------------
    if want("lint"):
        try:
            gm.graph.lint()
            report.outcomes.append(CheckOutcome("lint", True))
        except Exception as exc:
            report.outcomes.append(CheckOutcome("lint", False, _exc_summary(exc)))

    # -- static analysis: a freshly generated program must lint clean ------
    # Each error-severity rule fails as its own named check
    # ("analysis:<rule>"), so the minimizer's failing-check-name
    # intersection preserves the triggering diagnostic while shrinking.
    if want("analysis"):
        try:
            diag_report = lint_graph(gm)
            if diag_report.errors:
                for rule in sorted({d.rule for d in diag_report.errors}):
                    first = next(d for d in diag_report.errors if d.rule == rule)
                    report.outcomes.append(CheckOutcome(
                        f"analysis:{rule}", False,
                        first.format().splitlines()[0]))
            else:
                report.outcomes.append(CheckOutcome("analysis", True))
        except Exception as exc:
            report.outcomes.append(CheckOutcome("analysis", False, _exc_summary(exc)))

    if want("codegen"):
        check_numeric("codegen", lambda: gm(*inputs), EXACT_ATOL)
    if want("interpreter"):
        check_numeric("interpreter", lambda: Interpreter(gm).run(*inputs),
                      EXACT_ATOL)

    def retrace() -> Any:
        gm2 = symbolic_trace(gm)
        gm2.graph.lint()
        return gm2(*inputs)

    if want("retrace"):
        check_numeric("retrace", retrace, EXACT_ATOL)

    # -- pass pipelines (a PassManager never touches its argument) ---------
    for name, pipeline in PASS_PIPELINES.items():
        if not want(name):
            continue
        try:
            transformed = pipeline(gm)
            transformed.graph.lint()
        except Exception as exc:
            report.outcomes.append(CheckOutcome(name, False, _exc_summary(exc)))
            continue
        check_numeric(name, lambda t=transformed: t(*inputs),
                      _PIPELINE_ATOL.get(name, EXACT_ATOL), transformed=transformed)

    # -- the full optimizing compiler --------------------------------------
    if want("compile"):
        _check_compile(report, program, ref, localize)
    if want("recompile"):
        _check_recompile(report, program)
    if want("key_soundness") and program.spec.family == "module" \
            and isinstance(program.eager, Module):
        _check_key_soundness(report, program)
    if want("meta_carried"):
        try:
            stale = stale_meta(gm, inputs)
            error = stale and ("tensor_meta entering pointwise_fuse is not "
                               f"what ShapeProp stamps on {', '.join(stale)}")
        except Exception as exc:
            error = _exc_summary(exc)
        report.outcomes.append(CheckOutcome("meta_carried", not error,
                                            error or None))

    if want("meta_inferred"):
        try:
            error = _check_meta_inferred(program)
        except Exception as exc:
            error = _exc_summary(exc)
        report.outcomes.append(CheckOutcome("meta_inferred", not error,
                                            error or None))

    # -- the flat bytecode VM, pristine and post-compile -------------------
    if want("vm"):
        _check_vm(report, gm, inputs, ref, scale)
    if want("vm_compiled"):
        _check_vm_compiled(report, program, ref)

    # -- repaired control flow vs eager, on both branch outcomes -----------
    if want("repaired") and program.eager is not None and (
            program.spec.family == "control_flow" or program.alt_inputs):
        _check_repaired(report, program)

    # -- backend lowering with a random support predicate ------------------
    if want("backend_split"):
        _check_backend_split(report, program, gm, inputs, ref, scale)

    # -- quantization round-trip -------------------------------------------
    if want("quant_prepare") or want("quant_convert"):
        _check_quantization(report, gm, inputs, ref, scale, localize)
    return report


def _check_repaired(report: OracleReport, program: GeneratedProgram) -> None:
    """A mended capture (where-rewrite or polyvariant dispatch) must match
    the eager module **bit-exactly** on the example inputs *and* on every
    ``alt_inputs`` batch — the batches generated to drive the branch
    outcomes the example trace did not take.  Any ulp of drift means the
    repair changed semantics, so there is no tolerance here."""
    gm, eager = program.gm, program.eager
    worst = 0.0
    for label, batch in [("inputs", program.inputs)] + [
            (f"alt_inputs[{i}]", b) for i, b in enumerate(program.alt_inputs)]:
        try:
            expected = eager(*batch)
            got = gm(*batch)
        except Exception as exc:
            report.outcomes.append(CheckOutcome(
                "repaired", False, f"{label}: {_exc_summary(exc)}"))
            return
        err = max_abs_diff(expected, got)
        if err > 0.0:
            report.outcomes.append(CheckOutcome(
                "repaired", False,
                f"{label}: repaired capture diverged from eager by {err:.3g} "
                f"(must be bit-exact)", max_err=err))
            return
        worst = max(worst, err)
    report.outcomes.append(CheckOutcome("repaired", True, max_err=worst))


def _check_vm(report: OracleReport, gm: GraphModule, inputs: tuple,
              ref: Any, scale: float) -> None:
    """The pristine graph on the bytecode VM must match the reference
    exactly, and a pickle round-trip of the program must replay
    bit-identically (the serialization contract the serve payload relies
    on)."""
    from ..vm import compile_to_vm

    try:
        program = compile_to_vm(copy_module(gm))
        out = program.run(*inputs)
        blob = pickle.dumps(program)
        replayed = pickle.loads(blob).run(*inputs)
    except Exception as exc:
        report.outcomes.append(CheckOutcome("vm", False, _exc_summary(exc)))
        return
    rerr = max_abs_diff(out, replayed)
    if rerr > 0.0:
        report.outcomes.append(CheckOutcome(
            "vm", False,
            f"pickled program replay diverged bit-exactly: {rerr:.3g}",
            max_err=rerr))
        return
    err = max_abs_diff(ref, out)
    tol = EXACT_ATOL * (1.0 + scale)
    if err <= tol:
        report.outcomes.append(CheckOutcome("vm", True, max_err=err))
    else:
        report.outcomes.append(CheckOutcome(
            "vm", False, f"numeric divergence {err:.3g} > tol {tol:.3g}",
            max_err=err))


def _check_vm_compiled(report: OracleReport, program: GeneratedProgram,
                       ref: Any) -> None:
    """``fx.compile`` output on the VM: fused-kernel instructions held to
    the two-call contract of
    :func:`_called_twice` and to :func:`_at_other_batch_sizes`."""
    from ..compiler import compile as fx_compile
    from ..vm import compile_to_vm

    gm, inputs = program.gm, program.inputs
    try:
        vm = compile_to_vm(fx_compile(gm, inputs, lint=True))
        error, err = _called_twice(vm.run, program, ref)
        error = error or _at_other_batch_sizes(
            vm.run, lambda other: compile_to_vm(fx_compile(
                gm, other, cache=False)).run, program)
    except Exception as exc:
        error, err = _exc_summary(exc), 0.0
    report.outcomes.append(CheckOutcome("vm_compiled", error is None, error,
                                        max_err=err))


def _check_compile(report: OracleReport, program: GeneratedProgram,
                   ref: Any, localize: bool) -> None:
    """``repro.fx.compile`` must be semantics-preserving on every program,
    across calls as well as within one (:func:`_called_twice`) and at
    other batch sizes (:func:`_at_other_batch_sizes`), and leave the
    module it was given bit-identical and as writeable as it was."""
    from ..compiler import compile as fx_compile

    gm, inputs = program.gm, program.inputs

    def state() -> dict:
        return {k: (t.data.flags.writeable, t.data.tobytes())
                for k, t in gm.state_dict().items()}

    before = state()
    try:
        compiled = fx_compile(gm, inputs, lint=True)
        if state() != before:
            raise AssertionError("compiling froze or wrote the caller's state")
        compiled.graph.lint()
        error, err = _called_twice(compiled, program, ref)
        error = error or _at_other_batch_sizes(
            compiled, lambda other: fx_compile(gm, other, cache=False),
            program) or _rebound(compiled, program)
    except Exception as exc:
        error, err = _exc_summary(exc), 0.0
    div = None
    if err > 0.0 and error is not None and localize:    # diverged numerically
        div = _localize(gm, compiled, inputs,
                        _compiled_atol(gm) * (1.0 + _ref_scale(ref)))
    report.outcomes.append(CheckOutcome("compile", error is None, error,
                                        max_err=err, divergence=div))


def _compiled_atol(gm: GraphModule) -> float:
    # Training-mode programs skip conv-bn folding, so the pipeline is
    # numerically exact; eval-mode programs may fold BN (re-associated
    # float math) and get the fold tolerance.
    return EXACT_ATOL if gm.training else FOLD_ATOL


def _called_twice(run: Callable, program: GeneratedProgram,
                  ref: Any) -> tuple[Optional[str], float]:
    """Call a compiled form of *program* on its inputs, then on other
    values of the same signature (each tensor's own elements rotated by
    one, so whatever range an op needs of them still holds).

    It must agree with the reference on the new values — a buffer
    reused while an alias of it was live reads stale data — and must
    not move a bit of what the first call returned: a returned value
    owns its storage.  Returns ``(error or None, worst numeric
    divergence)``.
    """
    inputs = program.inputs
    rotated = tuple(Tensor(np.roll(x.data, 1), x.dtype)
                    if isinstance(x, Tensor) else x for x in inputs)
    ref2 = program.eager(*rotated) if program.eager is not None \
        else Interpreter(program.gm).run(*rotated)
    out1 = run(*inputs)
    kept = map_aggregate(out1, lambda v: v.clone()
                         if isinstance(v, Tensor) else v)
    out2 = run(*rotated)
    if not _identical(out1, kept):
        return ("the second call overwrote what the first returned "
                "(a returned value must own its storage)"), 0.0
    atol = _compiled_atol(program.gm)
    worst = 0.0
    for which, want, got in (("", ref, out1), ("second call: ", ref2, out2)):
        err = max_abs_diff(want, got)
        tol = atol * (1.0 + _ref_scale(want))
        if err > tol:
            return f"{which}numeric divergence {err:.3g} > tol {tol:.3g}", err
        worst = max(worst, err)
    return None, worst


def _at_other_batch_sizes(run: Callable, compile_at: Callable,
                          program: GeneratedProgram) -> Optional[str]:
    """Call a compiled form of *program* at 1 row and at one row more
    (each input of the first one's dim 0 cut or grown from its rows and
    their rotation): where eager admits the size, it must give the bits
    of ``compile_at(inputs)``, the program compiled at that size, and
    agree with eager.  Returns the error, or ``None``."""
    gm, inputs = program.gm, program.inputs
    rows = next(x.shape[0] for x in inputs if isinstance(x, Tensor) and x.dim())
    for n in (1, rows + 1):
        other = tuple(Tensor(np.concatenate([x.data, np.roll(x.data, 1)])[:n], x.dtype)
                      if isinstance(x, Tensor) and x.dim() and x.shape[0] == rows
                      else x for x in inputs)
        try:
            want = program.eager(*other) if program.eager is not None \
                else Interpreter(gm).run(*other)
        except Exception:
            continue
        got = run(*other)
        if not _identical(got, compile_at(other)(*other)):
            return f"at {n} row(s): not the bits of its own compile at that size"
        if max_abs_diff(want, got) > _compiled_atol(gm) * (1.0 + _ref_scale(want)):
            return f"at {n} row(s): diverges from eager by {max_abs_diff(want, got):.3g}"
    return None


def _rebound(compiled: GraphModule, program: GeneratedProgram) -> Optional[str]:
    """A copy of *compiled*, once called, must see its first float
    ``get_attr`` target rebound as the Interpreter (which walks every
    target at every node) does: bound state follows a rebind."""
    copied, inputs = copy_module(compiled), program.inputs
    floats = [(n.target, v) for n in copied.graph.nodes if n.op == "get_attr"
              for v in [_resolve_attr(copied, n.target)]
              if type(v) in (Tensor, Parameter) and v.data.dtype.kind == "f"]
    if not floats:
        return None
    (target, value), (owner, _, leaf) = floats[0], floats[0][0].rpartition(".")
    copied(*inputs)
    setattr(copied.get_submodule(owner), leaf, type(value)(value.data + 0.5))
    try:
        want = Interpreter(copied).run(*inputs)
    except Exception:
        return None   # the program does not admit the perturbed value
    err = max_abs_diff(want, copied(*inputs))
    if err > _compiled_atol(program.gm) * (1.0 + _ref_scale(want)):
        return f"rebinding {target!r} was not seen: off by {err:.3g}"
    return None


def _identical(a: Any, b: Any) -> bool:
    """Same structure, dtypes and bits (NaNs included)."""
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        return a.data.dtype == b.data.dtype and a.data.shape == b.data.shape \
            and a.data.tobytes() == b.data.tobytes()
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(map(_identical, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_identical(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b


def _tensor_meta(gm: GraphModule) -> list:
    return [n.meta.get("tensor_meta") for n in gm.graph.nodes]


class _Executing(Interpreter):
    """Shape propagation by execution — what ``ShapeProp`` was before it
    read the op table, kept as the reference the table is checked against:
    run the program, record the metadata of what flowed by."""

    def run_node(self, n: Node) -> Any:
        result = super().run_node(n)
        meta = map_aggregate(result, lambda v: extract_tensor_metadata(v)
                             if isinstance(v, Tensor) else v)
        self.metas.append(meta if has_tensor(meta) else None)
        return result


def reference_meta(gm: GraphModule, inputs: tuple) -> list:
    """The ``tensor_meta`` of every node of *gm* in graph order (``None``
    where no tensor flows), recorded by running a copy of it on *inputs*."""
    reference = _Executing(copy_module(gm))
    reference.metas = []
    reference.run(*inputs)
    return reference.metas


def _differs_from_reference(gm: GraphModule, inputs: tuple) -> list[str]:
    """Names of the nodes whose ``tensor_meta`` is not the reference's."""
    return [n.name for n, meta in zip(gm.graph.nodes, reference_meta(gm, inputs))
            if n.meta.get("tensor_meta") != meta]


def stale_meta(gm: GraphModule, inputs: tuple) -> list[str]:
    """Names of the nodes whose ``tensor_meta``, on the module *gm* has
    become when it enters ``pointwise_fuse``, differs from what executing
    that module records there.  The pipeline propagates shapes once,
    first, so every later stage that creates a node has to say what the
    node holds; one that does not splits fusion regions."""
    from ..backends import NumpyBackend

    backend = NumpyBackend(inputs, fuse=False)
    staged = PassManager(backend.preferred_passes(gm), cache=False)(gm)
    return _differs_from_reference(staged, inputs)


def _check_meta_inferred(program: GeneratedProgram) -> Optional[str]:
    """What the op table infers is what execution records: under both input
    signatures, every node's ``tensor_meta`` (shape, dtype, ``numel``,
    ``nbytes``, nesting) equals the reference's, and no generated program
    of the graph and module families needs a node executed."""
    for inputs in (program.inputs, program.other_inputs):
        copy = copy_module(program.gm)
        try:
            reference = reference_meta(copy, inputs)
        except Exception:
            continue    # the program does not admit its second signature
        prop = ShapeProp(copy)
        prop.propagate(*inputs)
        wrong = [n.name for n, meta in zip(copy.graph.nodes, reference)
                 if n.meta.get("tensor_meta") != meta]
        if wrong:
            return (f"inferred tensor_meta differs from executed on "
                    f"{', '.join(wrong)}")
        if prop.fallbacks and program.spec.family != "control_flow":
            return f"no op-table entry: executed {prop.fallbacks}"
    return None


def _check_recompile(report: OracleReport, program: GeneratedProgram) -> None:
    """The transform cache must be invisible.  Compiling the program a
    second time is replayed whole and gives the same bits and the same
    ``tensor_meta``; compiling it under its second input signature gives
    what that signature's own ``cache=False`` compile gives, bit for bit —
    whatever the first signature left in the cache."""
    from ..compiler import compile as fx_compile

    gm, inputs, other = program.gm, program.inputs, program.other_inputs

    def same(a: GraphModule, b: GraphModule, args: tuple) -> bool:
        return _identical(a(*args), b(*args)) \
            and _tensor_meta(a) == _tensor_meta(b)

    def verdict() -> Optional[str]:
        first = fx_compile(gm, inputs, lint=True)
        again = fx_compile(gm, inputs, lint=True)
        if not all(r.cache_hit for r in again.compile_report.records):
            return (f"second compile was not replayed: "
                    f"{again.backend_report.transform_misses}")
        if not same(first, again, inputs):
            return "replayed compile differs from the one it replays"
        error = _rebound(again, program)
        if error:
            return error
        try:
            ref = program.eager(*other) if program.eager is not None \
                else Interpreter(gm).run(*other)
        except Exception:
            return None   # the program does not admit its second signature
        cached = fx_compile(gm, other, lint=True)
        if not same(cached, fx_compile(gm, other, lint=True, cache=False),
                    other):
            return ("compile under the second signature differs from its "
                    "own cache=False compile")
        err = max_abs_diff(ref, cached(*other))
        if err > FOLD_ATOL * (1.0 + _ref_scale(ref)):
            return f"second signature diverges from eager by {err:.3g}"
        return None

    try:
        error = verdict()
    except Exception as exc:
        error = _exc_summary(exc)
    report.outcomes.append(CheckOutcome("recompile", error is None, error))


def _perturbations(model: Module) -> list[tuple[str, Callable[[Module], None]]]:
    """One change of each kind the transform cache's key must see — or,
    for weights and running statistics, must not — that applies to the
    module-family *model*: ``(kind, change it in place)``."""
    mods = list(model.modules())
    found: list[tuple[str, Callable[[Module], None]]] = []

    def first_of(cls: type) -> Optional[int]:
        return next((i for i, m in enumerate(mods) if isinstance(m, cls)), None)

    def bump(at: int, name: str, how: Callable) -> Callable[[Module], None]:
        def change(m: Module) -> None:
            mod = list(m.modules())[at]
            setattr(mod, name, how(getattr(mod, name)))
        return change

    def write(at: int, name: str) -> Callable[[Module], None]:
        def change(m: Module) -> None:
            getattr(list(m.modules())[at], name).data.reshape(-1)[0] += 0.5
        return change

    weighted = first_of((Linear, Conv2d))
    if weighted is not None:
        found.append(("weight", write(weighted, "weight")))
    bn = first_of(BatchNorm2d)
    if bn is not None:
        found.append(("running_stat", write(bn, "running_var")))
    hyper = [(i, name) for i, m in enumerate(mods) for name in (
        "eps", "negative_slope", "alpha", "beta", "max_val") if name in vars(m)]
    if hyper:
        found.append(("hyper", bump(*hyper[0], lambda v: v * 2 + 0.25)))

    def as_float64(m: Module) -> None:
        for mod in m.modules():
            for table in (mod._parameters, mod._buffers):
                for name, t in table.items():
                    if t is not None:
                        table[name] = t.double()

    found.append(("training", lambda m: m.train()))
    found.append(("dtype", as_float64))
    return found


def _check_key_soundness(report: OracleReport, program: GeneratedProgram) -> None:
    """The transform cache's key covers what a compile's result depends on,
    and no more (TorchProbe-style metamorphic check).  After a compile of
    the pristine module fills the cache, one change — picked by the
    program's seed among :func:`_perturbations` and a node rename — is
    applied to a copy, which is compiled again from a trace and from the
    module (a rename: from the trace): each must give, bit for bit, what a
    ``cache=False`` compile gives.  A changed weight or running statistic
    is an input, not a key part, and a name is no part of it: those must
    be hits."""
    from ..compiler import compile as fx_compile

    model, inputs = program.eager, program.inputs
    kinds = _perturbations(model) + [("rename", None)]
    kind, change = random.Random(f"{program.spec.seed}:key").choice(kinds)

    def verdict() -> Optional[str]:
        fx_compile(symbolic_trace(copy_module(model)), inputs)
        changed = copy_module(model)
        if change is None:
            subject = symbolic_trace(changed)
            node = next(n for n in subject.graph.nodes if n.op.startswith("call"))
            node.name = f"{node.name}_renamed"
            subject.recompile()
            cases = [("trace", subject)]
        else:
            change(changed)
            cases = [("trace", symbolic_trace(copy_module(changed))),
                     ("model", changed)]
        want = fx_compile(copy_module(changed), inputs, cache=False)(*inputs)
        for how, subject in cases:
            got = fx_compile(subject, inputs)
            hit = all(r.cache_hit for r in got.compile_report.records)
            if kind in ("rename", "weight", "running_stat") and not hit:
                return (f"{kind} via fx.compile({how}) missed: "
                        f"{got.backend_report.transform_misses}")
            if not _identical(got(*inputs), want):
                return (f"{kind} via fx.compile({how}) differs from its "
                        f"cache=False compile ({'hit' if hit else 'missed'})")
        return None

    try:
        error = verdict()
    except Exception as exc:
        error = _exc_summary(exc)
    report.outcomes.append(CheckOutcome("key_soundness", error is None, error))


def _check_backend_split(report: OracleReport, program: GeneratedProgram,
                         gm: GraphModule, inputs: tuple,
                         ref: Any, scale: float) -> None:
    """Partition-and-stitch must be semantics-preserving for *any* support
    predicate.

    Lowers a copy through ``to_backend`` with the eager backend restricted
    by a deterministic pseudo-random predicate (seeded from the program's
    spec seed and each node's name, so every fuzz iteration partitions
    differently but reproducibly).  A partition dependency cycle surfaces
    as a RuntimeError from the splitter; numeric disagreement means a
    value was threaded wrongly across a partition boundary.  Either fails
    this check.
    """
    import zlib

    from ..backends import EagerBackend, override_support, to_backend

    seed = getattr(program.spec, "seed", 0)

    def predicate(node: Node, modules: dict, _seed: int = seed) -> bool:
        return zlib.crc32(f"{_seed}:{node.name}".encode()) % 100 < 60

    backend = override_support(EagerBackend(), predicate, name="eager+fuzz")
    try:
        lowered = to_backend(gm, backend, allow_fallback=True)
        if isinstance(lowered, GraphModule):
            lowered.graph.lint()
        out = lowered(*inputs)
    except Exception as exc:
        report.outcomes.append(CheckOutcome(
            "backend_split", False, _exc_summary(exc)))
        return
    err = max_abs_diff(ref, out)
    tol = EXACT_ATOL * (1.0 + scale)
    if err <= tol:
        report.outcomes.append(CheckOutcome("backend_split", True, max_err=err))
    else:
        report.outcomes.append(CheckOutcome(
            "backend_split", False,
            f"numeric divergence {err:.3g} > tol {tol:.3g}", max_err=err))


def _check_quantization(report: OracleReport, gm: GraphModule, inputs: tuple,
                        ref: Any, scale: float, localize: bool) -> None:
    from ...quant.quantize_fx import convert_fx, prepare_fx

    try:
        prepared = prepare_fx(copy_module(gm))
        prepared.graph.lint()
        out = prepared(*inputs)  # doubles as the calibration pass
    except Exception as exc:
        report.outcomes.append(CheckOutcome("quant_prepare", False, _exc_summary(exc)))
        return
    err = max_abs_diff(ref, out)
    tol = EXACT_ATOL * (1.0 + scale)
    if err <= tol:
        report.outcomes.append(CheckOutcome("quant_prepare", True, max_err=err))
    else:
        # Observers must be numerically transparent.
        report.outcomes.append(CheckOutcome(
            "quant_prepare", False,
            f"observers changed numerics: {err:.3g} > tol {tol:.3g}", max_err=err))
        return

    try:
        converted = convert_fx(prepared)
        converted.graph.lint()
        qout = converted(*inputs)
    except Exception as exc:
        report.outcomes.append(CheckOutcome("quant_convert", False, _exc_summary(exc)))
        return
    qerr = max_abs_diff(ref, qout)
    # int8 quantization legitimately perturbs numerics; the oracle only
    # rejects structural breakage or wildly wrong results.
    qtol = 0.25 * (1.0 + scale)
    if qerr <= qtol and np.isfinite(qerr):
        report.outcomes.append(CheckOutcome("quant_convert", True, max_err=qerr))
    else:
        div = _localize(gm, converted, inputs, qtol) if localize else None
        report.outcomes.append(CheckOutcome(
            "quant_convert", False,
            f"quantized output off by {qerr:.3g} (> {qtol:.3g})",
            max_err=qerr, divergence=div))
