"""``repro.fx.analysis`` — dataflow analyses over the fx Graph IR.

The paper's central observation (§5.5) is that the 6-opcode IR is one
basic block, so classical dataflow analyses collapse to simple sweeps.
Each analysis here is one plain function over a ``GraphModule`` whose
result describes that module's own ``Node`` objects; a caller that needs
a result twice keeps it in a local:

* :func:`alias` — may-alias / escape / extended liveness (the memory
  planner's foundation), two reverse sweeps;
* :func:`purity` — side-effect classification behind
  ``Node.is_impure``, DCE and CSE;
* :func:`hazards` — in-place / ``out=`` / arena-slot writes that clobber
  live values.

On top sit the user-facing layers:

* :func:`lint_graph` — five fixed rules with severity and tracer-recorded
  source provenance;
* :class:`PassVerifier` — re-checks invariants after every
  ``PassManager`` pass and fails the pipeline *naming the pass* when one
  regresses;
* :mod:`~repro.fx.analysis.breaks` — graph-break detection,
  classification and repair (GraphMend): :func:`detect_breaks` /
  :func:`mend` / :func:`polyvariant_trace` (loaded on first use).
"""

from .alias import AliasResult, alias, may_alias_input
from .purity import (
    Effect,
    PurityResult,
    classify_effect,
    impure_fingerprints,
    is_inplace_method,
    purity,
)
from .mutation import Hazard, MutationResult, fused_out_clobbers, hazards
from .diagnostics import Diagnostic, DiagnosticReport, Severity, lint_graph
from .verifier import PassVerifier, VerificationError
from ... import _lazy
__getattr__, __dir__ = _lazy.attach(__name__, {
    "breaks": "breaks BreakEvent BreakReport PolyvariantModule RecordingTracer "
              "RepairError detect_breaks mend polyvariant_trace",
})

__all__ = [
    "AliasResult",
    "BreakEvent",
    "BreakReport",
    "Diagnostic",
    "DiagnosticReport",
    "Effect",
    "Hazard",
    "MutationResult",
    "PassVerifier",
    "PolyvariantModule",
    "PurityResult",
    "RecordingTracer",
    "RepairError",
    "Severity",
    "VerificationError",
    "alias",
    "classify_effect",
    "detect_breaks",
    "fused_out_clobbers",
    "hazards",
    "impure_fingerprints",
    "is_inplace_method",
    "lint_graph",
    "may_alias_input",
    "mend",
    "polyvariant_trace",
    "purity",
]
