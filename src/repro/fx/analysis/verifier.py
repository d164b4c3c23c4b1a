"""Pass verifier: fail the pipeline, naming the pass that broke it.

A transformation pipeline is only as trustworthy as its worst pass, and
the failure mode that matters is *silent*: the pipeline completes,
``Graph.lint`` is structurally happy, and the output is numerically
wrong (an arena-reuse planner once shipped exactly this bug twice).  The
:class:`PassVerifier` closes that gap by re-running the analysis-backed
lint rules after every pass and comparing against a snapshot taken
before the pass ran.  Two invariant families are enforced:

* **no new error diagnostics** — a pass may not *introduce* an
  error-severity finding (a mutation hazard) that
  its input graph did not have.  Pre-existing findings are tolerated:
  the verifier guards the pipeline, it does not gate user code.
* **no vanished effects** — the multiset of *mutating* nodes
  (``out=`` writers, in-place methods, stat-updating modules) may not
  shrink across a pass: DCE/CSE deleting or merging an effectful node
  changes behaviour even though the graph still lints clean.

Comparisons use rename-stable fingerprints (rule, severity, opcode,
target token) rather than node identities, so passes are free to rename,
reorder and rewrite nodes.

Hooked into :class:`~repro.fx.passes.pass_manager.PassManager` via the
``verifier=`` argument; violations surface as a
:class:`VerificationError` naming the offending pass and carrying the
formatted diagnostics.  Snapshots are plain data so the pass manager's
transform cache can persist them alongside cached graphs and
:meth:`adopt` them on a cache hit without re-analyzing.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional, Sequence

from ..graph_module import GraphModule
from .diagnostics import Diagnostic, Severity, hazard_diagnostics
from .mutation import hazards
from .purity import impure_fingerprints, purity

__all__ = ["PassVerifier", "VerificationError"]


class VerificationError(Exception):
    """A pass regressed a verified invariant.

    Attributes:
        pass_name: the pass the regression is attributed to.
        diagnostics: the offending :class:`Diagnostic` objects (empty for
            vanished-effect violations, which have no node to point at).
    """

    def __init__(self, message: str, pass_name: Optional[str] = None,
                 diagnostics: Sequence[Diagnostic] = ()):
        super().__init__(message)
        self.pass_name = pass_name
        self.diagnostics = tuple(diagnostics)


# A snapshot is deliberately plain data — two sorted tuples — so cache
# layers can pickle it and `adopt` it without touching analysis code.
Snapshot = tuple[tuple[tuple[tuple[str, int, str, str], int], ...],
                 tuple[tuple[str, str, str], ...]]


def _findings(gm: GraphModule) -> tuple[list[Diagnostic], tuple]:
    """The error findings and the mutating nodes' fingerprints — what both
    invariants are decided from."""
    found = [d for d in hazard_diagnostics(gm, hazards(gm))
             if d.severity >= Severity.ERROR]
    return found, impure_fingerprints(purity(gm))


class PassVerifier:
    """Stateful between-pass invariant checker.

    Usage (what ``PassManager`` does internally)::

        verifier = PassVerifier()
        verifier.before_pipeline(gm)
        for pass_ in passes:
            gm = pass_(gm)
            verifier.after_pass(pass_.__name__, gm)   # raises on regression

    A snapshot costs the error rule (:func:`hazards`, whose alias facts
    a graph with no writer never computes) plus
    :func:`purity`; the note and warning rules cannot fail a pass.
    """

    def __init__(self):
        self._baseline: Optional[Snapshot] = None

    # -- snapshotting -----------------------------------------------------

    def snapshot(self, gm: GraphModule) -> Snapshot:
        """Analyze *gm* and reduce it to the two fingerprint multisets
        the invariants compare."""
        found, impure = _findings(gm)
        errors = Counter(d.fingerprint for d in found)
        return (tuple(sorted(errors.items())), impure)

    def adopt(self, snapshot: Snapshot) -> None:
        """Install *snapshot* as the baseline without analyzing anything
        (the transform cache replaying a run: its entry was verified from
        this baseline when it was stored)."""
        self._baseline = snapshot

    @property
    def baseline(self) -> Optional[Snapshot]:
        return self._baseline

    # -- pipeline hooks ---------------------------------------------------

    def before_pipeline(self, gm: GraphModule) -> Snapshot:
        """Record the pipeline input's findings as the initial baseline."""
        self._baseline = self.snapshot(gm)
        return self._baseline

    def after_pass(self, pass_name: str, gm: GraphModule) -> Snapshot:
        """Verify *gm* against the baseline; raise :class:`VerificationError`
        naming *pass_name* on a regression, else roll the baseline
        forward and return the new snapshot."""
        if self._baseline is None:
            # No before_pipeline call — treat this pass's input as clean.
            self._baseline = ((), ())
        base_errors = Counter(dict(self._baseline[0]))
        base_impure = Counter(self._baseline[1])

        found, impure = _findings(gm)
        cur_errors = Counter(d.fingerprint for d in found)

        introduced = cur_errors - base_errors
        if introduced:
            offending = [d for d in found if d.fingerprint in introduced]
            detail = "\n".join("  " + d.format().replace("\n", "\n  ")
                               for d in offending)
            raise VerificationError(
                f"pass {pass_name!r} introduced "
                f"{sum(introduced.values())} new error diagnostic(s):\n"
                f"{detail}",
                pass_name=pass_name,
                diagnostics=offending,
            )

        vanished = base_impure - Counter(impure)
        if vanished:
            lost = ", ".join(
                f"{op} {target} ({effect})×{c}"
                for (op, target, effect), c in sorted(vanished.items()))
            raise VerificationError(
                f"pass {pass_name!r} silently removed effectful "
                f"node(s): {lost}; deleting or deduplicating a "
                f"mutating node changes program behaviour",
                pass_name=pass_name,
            )

        self._baseline = (tuple(sorted(cur_errors.items())), impure)
        return self._baseline
