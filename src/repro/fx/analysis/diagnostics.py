"""Diagnostics: lint rules over analysis results, with node provenance.

A *rule* turns analysis results into user-facing :class:`Diagnostic`
objects carrying a rule id, a severity, and source-location provenance
(the ``stack_trace`` the tracer recorded on each node, pointing at the
user's model code rather than framework internals).  Rules live in a
registry so downstream code — the fuzz oracle and the pass
verifier — all lint through one function, :func:`lint_graph`, and
user-defined rules participate automatically::

    from repro.fx.analysis import Diagnostic, Severity, register_rule

    @register_rule("no-python-loops", Severity.WARNING)
    def no_python_loops(gm, ctx):
        counts = {}
        for n in gm.graph.nodes:
            key = (n.op, str(n.target))
            counts[key] = counts.get(key, 0) + 1
        for (op, target), c in counts.items():
            if c > 64:
                yield Diagnostic.for_node(
                    "no-python-loops", Severity.WARNING,
                    f"{target} appears {c} times; was a loop unrolled?",
                    next(iter(gm.graph.nodes)))

Built-in rules (the diagnostic reference table in README.md):

===================== ======== ====================================================
rule id               severity meaning
===================== ======== ====================================================
mutation-hazard       error    in-place/out= write clobbers a still-live value
arena-hazard          error    unsound memory-plan slot sharing or escaped slot
caller-visible-write  warning  mutation of an input or output-aliased value
impure-unused         note     impure node whose result is never read (DCE keeps it)
aliased-output        note     graph output may be a view of a function input
===================== ======== ====================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from ..graph_module import GraphModule
from ..node import Node
from .engine import AnalysisContext

__all__ = [
    "Diagnostic",
    "DiagnosticReport",
    "Rule",
    "Severity",
    "get_rule",
    "lint_graph",
    "register_rule",
    "registered_rules",
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

    def format(self, min_severity: Severity = Severity.NOTE) -> str:
        shown = [d for d in self.diagnostics if d.severity >= min_severity]
        lines = [d.format() for d in shown]
        lines.append(
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s), "
            f"{len(self.notes)} note(s)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the rule registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``fn(gm, ctx)`` yields :class:`Diagnostic` objects, none above
    ``default_severity`` — :func:`lint_graph` raises otherwise, which is
    what lets a consumer that only acts on errors skip the rules that
    cannot produce one.  The analyses a rule reads it pulls with
    ``ctx.get``.
    """

    id: str
    default_severity: Severity
    fn: Callable[[GraphModule, AnalysisContext], Iterable[Diagnostic]]


_RULES: dict[str, Rule] = {}


def register_rule(rule_id: str, severity: Severity) -> Callable:
    """Decorator registering a lint rule under *rule_id*; *severity* is
    the highest one its diagnostics may carry."""

    def deco(fn: Callable) -> Callable:
        _RULES[rule_id] = Rule(id=rule_id, default_severity=severity, fn=fn)
        return fn

    return deco


def get_rule(rule_id: str) -> Rule:
    try:
        return _RULES[rule_id]
    except KeyError:
        raise KeyError(
            f"no lint rule registered under {rule_id!r}; known: {sorted(_RULES)}"
        ) from None


def registered_rules() -> dict[str, Rule]:
    return dict(_RULES)


def lint_graph(gm: GraphModule, *, rules: Optional[Sequence[str]] = None,
               ctx: Optional[AnalysisContext] = None) -> DiagnosticReport:
    """Run the registered lint rules (default: all) over *gm*.

    Underlying analyses are computed once through one shared
    :class:`~repro.fx.analysis.engine.AnalysisContext` (*ctx*, when the
    caller already analysed this graph state).  Returns a
    :class:`DiagnosticReport`; error-severity
    findings mean the graph, as captured, has a real correctness risk.
    A rule yielding a diagnostic above its registered severity raises
    ``ValueError``.
    """
    if ctx is None:
        ctx = AnalysisContext(gm)
    report = DiagnosticReport()
    for rule_id in (rules if rules is not None else sorted(_RULES)):
        rule = get_rule(rule_id)
        for d in rule.fn(gm, ctx):
            if d.severity > rule.default_severity:
                raise ValueError(
                    f"lint rule {rule_id!r} is registered at severity "
                    f"{rule.default_severity.label()!r} but yielded "
                    f"{d.format()}")
            report.diagnostics.append(d)
    report.diagnostics.sort(key=lambda d: (d.node_index, d.rule))
    return report


# ---------------------------------------------------------------------------
# built-in rules
# ---------------------------------------------------------------------------


@register_rule("mutation-hazard", Severity.ERROR)
def _rule_mutation_hazard(gm: GraphModule, ctx: AnalysisContext):
    """In-place or ``out=`` write into a buffer whose value is still read."""
    nodes = list(gm.graph.nodes)
    for h in ctx.get("mutation").hazards:
        if h.kind in ("out-overwrite", "inplace-overwrite"):
            yield Diagnostic.for_node(
                "mutation-hazard", Severity.ERROR, h.detail,
                nodes[h.node_index], h.node_index)


@register_rule("arena-hazard", Severity.ERROR)
def _rule_arena_hazard(gm: GraphModule, ctx: AnalysisContext):
    """Unsound memory-plan slot sharing, or a planned value that escapes."""
    nodes = list(gm.graph.nodes)
    for h in ctx.get("mutation").hazards:
        if h.kind in ("arena-escape", "arena-overlap", "arena-clobber"):
            yield Diagnostic.for_node(
                "arena-hazard", Severity.ERROR, f"[{h.kind}] {h.detail}",
                nodes[h.node_index], h.node_index)


@register_rule("caller-visible-write", Severity.WARNING)
def _rule_caller_visible_write(gm: GraphModule, ctx: AnalysisContext):
    """Mutation of a function input or of a value aliasing the output."""
    nodes = list(gm.graph.nodes)
    for h in ctx.get("mutation").hazards:
        if h.kind == "caller-visible-write":
            yield Diagnostic.for_node(
                "caller-visible-write", Severity.WARNING, h.detail,
                nodes[h.node_index], h.node_index)


@register_rule("impure-unused", Severity.NOTE)
def _rule_impure_unused(gm: GraphModule, ctx: AnalysisContext):
    """Impure node whose result is never read; DCE must retain it."""
    effects = ctx.get("purity").effects
    for i, n in enumerate(gm.graph.nodes):
        effect = effects[n]
        if effect.mutating and not n.users:
            yield Diagnostic.for_node(
                "impure-unused", Severity.NOTE,
                (f"result is unused but the node {effect.value.replace('_', ' ')}s; "
                 f"dead-code elimination keeps it alive"),
                n, i)


@register_rule("aliased-output", Severity.NOTE)
def _rule_aliased_output(gm: GraphModule, ctx: AnalysisContext):
    """Graph output may be a view of a function input."""
    alias = ctx.get("alias")
    for i, n in enumerate(gm.graph.nodes):
        if n.op == "placeholder" and n in alias.escapes:
            yield Diagnostic.for_node(
                "aliased-output", Severity.NOTE,
                ("the returned value may be a view of this input; callers "
                 "mutating one will see the other change"),
                n, i)
