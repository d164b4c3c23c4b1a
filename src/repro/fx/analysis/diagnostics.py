"""Diagnostics: a fixed set of lint rules over the analyses, with node
provenance.

A rule turns analysis results into user-facing :class:`Diagnostic`
objects carrying a rule id, a severity, and source-location provenance
(the ``stack_trace`` the tracer recorded on each node, pointing at the
user's model code rather than framework internals).  The four rules
(README.md, "Static analysis & pass verification"):

===================== ======== ====================================================
rule id               severity meaning
===================== ======== ====================================================
mutation-hazard       error    in-place/out= write clobbers a still-live value
caller-visible-write  warning  mutation of an input or output-aliased value
impure-unused         note     impure node whose result is never read (DCE keeps it)
aliased-output        note     graph output may be a view of a function input
===================== ======== ====================================================

The first two report :func:`~repro.fx.analysis.mutation.hazards`
(:data:`HAZARD_RULES` maps each ``Hazard.kind`` to its rule); the pass
verifier runs only those, through :func:`hazard_diagnostics`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..graph_module import GraphModule
from ..node import Node
from .alias import alias
from .mutation import MutationResult, hazards
from .purity import purity

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "HAZARD_RULES",
    "Severity",
    "hazard_diagnostics",
    "lint_graph",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordered so thresholds compare naturally."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule id, severity, message, and node provenance."""

    rule: str
    severity: Severity
    message: str
    node_name: str
    node_index: int
    op: str = ""
    target: str = ""
    stack_trace: Optional[str] = None

    @classmethod
    def for_node(cls, rule: str, severity: Severity, message: str,
                 node: Node, node_index: int = -1) -> "Diagnostic":
        """Build a diagnostic anchored to *node*, pulling provenance from
        the tracer-recorded ``stack_trace`` meta when present."""
        target = node.target if isinstance(node.target, str) else (
            getattr(node.target, "__name__", None) or type(node.target).__name__)
        return cls(
            rule=rule,
            severity=severity,
            message=message,
            node_name=node.name,
            node_index=node_index,
            op=node.op,
            target=str(target),
            stack_trace=node.meta.get("stack_trace"),
        )

    @property
    def fingerprint(self) -> tuple[str, int, str, str]:
        """Rename-stable identity used by the pass verifier to compare
        diagnostics across a transformation (node names may change; the
        rule + opcode + target usually survive)."""
        return (self.rule, int(self.severity), self.op, self.target)

    def format(self) -> str:
        loc = f"\n    at {self.stack_trace}" if self.stack_trace else ""
        where = f"%{self.node_name}" + (f" ({self.op} {self.target})"
                                        if self.op else "")
        return f"{self.severity.label()}[{self.rule}] {where}: {self.message}{loc}"

    def __str__(self) -> str:
        return self.format()


@dataclass
class DiagnosticReport:
    """Every diagnostic one :func:`lint_graph` call produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity >= Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.WARNING]

    @property
    def notes(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == Severity.NOTE]

    @property
    def ok(self) -> bool:
        return not self.errors

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def format(self) -> str:
        lines = [d.format() for d in self.diagnostics]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.notes)} note(s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the rules
# ---------------------------------------------------------------------------

#: ``Hazard.kind`` -> (rule id, severity) of the diagnostic reporting it.
HAZARD_RULES: dict[str, tuple[str, Severity]] = {
    "out-overwrite": ("mutation-hazard", Severity.ERROR),
    "inplace-overwrite": ("mutation-hazard", Severity.ERROR),
    "caller-visible-write": ("caller-visible-write", Severity.WARNING),
}


def hazard_diagnostics(gm: GraphModule, result: MutationResult) -> list[Diagnostic]:
    """One diagnostic per hazard in *result* (found over *gm*); a rule
    that reports several kinds names the kind in its message."""
    nodes = list(gm.graph.nodes)
    out = []
    for h in result.hazards:
        rule, severity = HAZARD_RULES[h.kind]
        message = h.detail if rule == h.kind else f"[{h.kind}] {h.detail}"
        out.append(Diagnostic.for_node(rule, severity, message,
                                       nodes[h.node_index], h.node_index))
    return out


def lint_graph(gm: GraphModule) -> DiagnosticReport:
    """Run the four rules over *gm*; each analysis is computed once.

    Returns a :class:`DiagnosticReport`; error-severity findings mean the
    graph, as captured, has a real correctness risk.
    """
    facts, effects = alias(gm), purity(gm).effects
    report = DiagnosticReport(hazard_diagnostics(gm, hazards(gm, facts)))
    for i, n in enumerate(gm.graph.nodes):
        effect = effects[n]
        if effect.mutating and not n.users:
            report.diagnostics.append(Diagnostic.for_node(
                "impure-unused", Severity.NOTE,
                (f"result is unused but the node {effect.value.replace('_', ' ')}s; "
                 f"dead-code elimination keeps it alive"),
                n, i))
        if n.op == "placeholder" and n in facts.escapes:
            report.diagnostics.append(Diagnostic.for_node(
                "aliased-output", Severity.NOTE,
                ("the returned value may be a view of this input; callers "
                 "mutating one will see the other change"),
                n, i))
    report.diagnostics.sort(key=lambda d: (d.node_index, d.rule))
    return report
