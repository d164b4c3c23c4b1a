"""``repro.fx.analysis`` — a unified dataflow analysis framework.

The paper's central observation (§5.5) is that the 6-opcode IR is one
basic block, so classical dataflow analyses collapse to simple sweeps.
This package takes that seriously as an *architecture*: one sweep
engine (:mod:`~repro.fx.analysis.engine`) with pluggable per-node
transfer functions, and one context per module through which every fact
a transform needs is computed once and shared:

* :mod:`~repro.fx.analysis.alias` — may-alias / escape / extended
  liveness (the memory planner's foundation, extracted);
* :mod:`~repro.fx.analysis.purity` — side-effect classification behind
  ``Node.is_impure``, DCE and CSE;
* :mod:`~repro.fx.analysis.mutation` — in-place / ``out=`` / arena-slot
  writes that clobber live values.

On top sit the user-facing layers:

* :func:`lint_graph` + the rule registry — diagnostics with severity and
  tracer-recorded source provenance;
* :class:`PassVerifier` — re-checks invariants after every
  ``PassManager`` pass and fails the pipeline *naming the pass* when one
  regresses;
* :mod:`~repro.fx.analysis.breaks` — graph-break detection,
  classification and repair (GraphMend): :func:`detect_breaks` /
  :func:`mend` / :func:`polyvariant_trace`;
* :mod:`~repro.fx.analysis.guards` — :func:`derive_guards` proves via
  symbolic shape propagation which input dims a captured graph is generic
  over, producing the :class:`GuardSet` that serving keys engines on.
"""

from .engine import (
    Analysis,
    AnalysisContext,
    AnalysisError,
    analyze,
    get_analysis,
    register_analysis,
    registered_analyses,
    sweep,
)
from .alias import AliasAnalysis, AliasResult, may_alias_input
from .purity import (
    Effect,
    PurityAnalysis,
    PurityResult,
    classify_effect,
    impure_fingerprints,
    is_inplace_method,
)
from .mutation import (
    Hazard,
    MutationHazardAnalysis,
    MutationResult,
    fused_out_clobbers,
)
from .diagnostics import (
    Diagnostic,
    DiagnosticReport,
    Rule,
    Severity,
    get_rule,
    lint_graph,
    register_rule,
    registered_rules,
)
from .verifier import PassVerifier, VerificationError
from .breaks import (
    BreakEvent,
    BreakReport,
    PolyvariantModule,
    RecordingTracer,
    RepairError,
    detect_breaks,
    mend,
    polyvariant_trace,
)
from .guards import DimGuard, GuardSet, derive_guards

__all__ = [
    "Analysis",
    "AnalysisContext",
    "AnalysisError",
    "AliasAnalysis",
    "AliasResult",
    "BreakEvent",
    "BreakReport",
    "Diagnostic",
    "DiagnosticReport",
    "DimGuard",
    "Effect",
    "GuardSet",
    "Hazard",
    "MutationHazardAnalysis",
    "MutationResult",
    "PassVerifier",
    "PolyvariantModule",
    "PurityAnalysis",
    "PurityResult",
    "RecordingTracer",
    "RepairError",
    "Rule",
    "Severity",
    "VerificationError",
    "analyze",
    "classify_effect",
    "derive_guards",
    "detect_breaks",
    "fused_out_clobbers",
    "get_analysis",
    "get_rule",
    "impure_fingerprints",
    "is_inplace_method",
    "lint_graph",
    "may_alias_input",
    "mend",
    "polyvariant_trace",
    "register_analysis",
    "register_rule",
    "registered_rules",
    "sweep",
]
