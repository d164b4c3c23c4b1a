"""Batch rule application: :class:`RuleSet` and the pipeline stage.

``RuleSet.apply(gm)`` indexes its rules by anchor op, sweeps the graph
to fixpoint under a firing budget, checks each rule's preconditions
against fresh analysis results, applies matches one firing at a time,
and (by default) runs a :class:`~repro.fx.analysis.PassVerifier` after
every firing — a rule that introduces a lint error or silently deletes
an effectful node is rejected loudly, not shipped.

``apply_default_rules`` is the module-level pass the compile pipelines
install (module-level so ``PassManager``'s transform cache can key it by
qualname: warm recompiles replay the whole stage from the
structural-hash cache without re-matching anything).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..graph_module import GraphModule
from ..node import Node
from ..subgraph_rewriter import apply_match
from .rule import Rule, rules_with_tag

__all__ = [
    "RuleSet", "RuleStats", "RuleApplyReport", "RuleContext",
    "default_ruleset", "apply_default_rules",
    "SelftestResult", "selftest_rule", "selftest_all",
]


class RuleContext:
    """Lazy access to ``repro.fx.analysis`` results for the *current*
    graph state: one :class:`~repro.fx.analysis.AnalysisContext`, shared
    by the preconditions of every candidate match and by the verifier's
    check of the firing that produced the state, so each analysis runs at
    most once per state.  The engine calls :meth:`graph_changed` after
    every edit it makes."""

    def __init__(self, gm: GraphModule):
        self.gm = gm
        self.graph_changed()

    def graph_changed(self) -> None:
        from ..analysis import AnalysisContext
        self.analyses = AnalysisContext(self.gm)

    def analysis(self, name: str):
        return self.analyses.get(name)


@dataclass
class RuleStats:
    """Per-rule accounting for one :meth:`RuleSet.apply`."""

    firings: int = 0
    rejected: int = 0  # structural match vetoed by a precondition
    wall_time: float = 0.0


@dataclass
class RuleApplyReport:
    """What one :meth:`RuleSet.apply` did.

    Attributes:
        stats: per-rule firing counts / precondition rejections / time.
        rounds: fixpoint sweeps executed.
        total_firings: firings across all rules.
        budget_exhausted: the firing budget stopped the run before
            fixpoint (the graph is still valid — just not fully reduced).
        wall_time: end-to-end apply time in seconds.
    """

    stats: dict[str, RuleStats] = field(default_factory=dict)
    rounds: int = 0
    total_firings: int = 0
    budget_exhausted: bool = False
    wall_time: float = 0.0

    def merge(self, other: "RuleApplyReport") -> None:
        for name, s in other.stats.items():
            mine = self.stats.setdefault(name, RuleStats())
            mine.firings += s.firings
            mine.rejected += s.rejected
            mine.wall_time += s.wall_time
        self.rounds = max(self.rounds, other.rounds)
        self.total_firings += other.total_firings
        self.budget_exhausted |= other.budget_exhausted
        self.wall_time += other.wall_time

    def summary(self) -> str:
        lines = [
            f"{self.total_firings} firing(s) in {self.rounds} round(s), "
            f"{self.wall_time * 1e3:.2f} ms"
            + (" [budget exhausted]" if self.budget_exhausted else "")
        ]
        for name, s in sorted(self.stats.items(),
                              key=lambda kv: -kv[1].firings):
            if s.firings or s.rejected:
                lines.append(
                    f"  {name}: {s.firings} fired, {s.rejected} rejected, "
                    f"{s.wall_time * 1e3:.2f} ms")
        return "\n".join(lines)


class RuleSet:
    """An ordered collection of rules applied as one batch pass.

    Rules are indexed by their pattern anchor's ``(op, target)`` so a
    sweep only attempts rules that could possibly fire at each node.
    Application runs round-robin to fixpoint: a replacement emitted by
    one rule can seed a match for another (tested), bounded by
    *max_firings* across the whole apply.
    """

    def __init__(self, rules=(), name: str = "ruleset"):
        self.name = name
        self._rules: list[Rule] = []
        self._index: dict[Any, list[Rule]] = {}
        self._generic: list[Rule] = []
        for r in rules:
            self.add(r)

    @property
    def rules(self) -> list[Rule]:
        return list(self._rules)

    def add(self, rule: Rule) -> "RuleSet":
        self._rules.append(rule)
        key = rule.anchor_key
        if key is None:
            self._generic.append(rule)
        else:
            self._index.setdefault(key, []).append(rule)
        return self

    def extend(self, rules) -> "RuleSet":
        for r in rules:
            self.add(r)
        return self

    def __len__(self):
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    # -- application ------------------------------------------------------

    def apply(self, gm, *, verify: bool = True, verifier=None,
              max_firings: int = 1000,
              propagate_meta: bool = True) -> RuleApplyReport:
        """Apply every rule to *gm* until fixpoint (or budget).

        *gm* may be a :class:`GraphModule` or a
        :class:`~repro.fx.analysis.PolyvariantModule` (each variant is
        rewritten independently; reports are merged).

        With *verify* (default), a :class:`PassVerifier` snapshots the
        graph before the first firing and re-checks after **every
        firing** — pass an existing *verifier* to thread the surrounding
        pipeline's baseline through instead of a fresh one (one that has
        no baseline yet gets it here too).
        """
        from ..analysis import PolyvariantModule
        if isinstance(gm, PolyvariantModule):
            report = RuleApplyReport()
            for i in range(gm.num_variants):
                variant = gm.variant(i)
                if variant is not None:
                    report.merge(self._apply_one(
                        variant, verify=verify, verifier=None,
                        max_firings=max_firings,
                        propagate_meta=propagate_meta))
            return report
        return self._apply_one(
            gm, verify=verify, verifier=verifier, max_firings=max_firings,
            propagate_meta=propagate_meta)

    def _apply_one(self, gm: GraphModule, *, verify, verifier, max_firings,
                   propagate_meta) -> RuleApplyReport:
        t0 = time.perf_counter()
        report = RuleApplyReport(
            stats={r.name: RuleStats() for r in self._rules})
        if verify and verifier is None:
            from ..analysis import PassVerifier
            verifier = PassVerifier()
        elif not verify:
            verifier = None
        ctx = RuleContext(gm)

        any_module_rules = any(r.uses_modules or r.rewrite for r in self._rules)
        fired_total = 0
        needs_module_gc = False
        # A round that fires spends budget, so the budget bounds the rounds.
        while not report.budget_exhausted:
            fired_this_round = 0
            modules = dict(gm.named_modules()) if any_module_rules else None
            present = self._present_keys(gm)
            for rule in self._rules:
                key = rule.anchor_key
                if key is not None and key not in present:
                    continue
                fired, rejected, exhausted, rule_time = self._apply_rule(
                    gm, rule, modules, verifier, propagate_meta, ctx,
                    budget=max_firings - fired_total)
                stats = report.stats[rule.name]
                stats.firings += fired
                stats.rejected += rejected
                stats.wall_time += rule_time
                fired_total += fired
                fired_this_round += fired
                if fired and (rule.rewrite or rule.uses_modules):
                    needs_module_gc = True
                    modules = dict(gm.named_modules())
                if exhausted:
                    report.budget_exhausted = True
                    break
            report.rounds += 1
            if fired_this_round == 0:
                break
        report.total_firings = fired_total
        if fired_total:
            gm.graph.eliminate_dead_code()
            gm.recompile()
            if needs_module_gc:
                gm.delete_all_unused_submodules()
        report.wall_time = time.perf_counter() - t0
        return report

    def _present_keys(self, gm: GraphModule) -> set:
        keys = set()
        for n in gm.graph.nodes:
            if n.op == "call_function":
                keys.add(("call_function", n.target))
            elif n.op in ("call_method", "get_attr"):
                keys.add((n.op, n.target))
            elif n.op == "call_module":
                keys.add(("call_module", n.target))
                keys.add(("call_module", None))
        return keys

    def _apply_rule(self, gm, rule: Rule, modules, verifier,
                    propagate_meta, ctx: RuleContext, budget: int):
        """One rule, one sweep: find all current non-overlapping matches,
        fire each (precondition-gated, verifier-checked).  Returns
        ``(fired, rejected, budget_exhausted, wall_time)``."""
        t0 = time.perf_counter()
        fired = rejected = 0
        exhausted = False
        matches = rule.matcher.find_matches(gm.graph, modules)
        if matches:
            replaced: dict[Node, Any] = {}

            def resolve(value):
                while isinstance(value, Node) and value in replaced:
                    value = replaced[value]
                return value

            for match in matches:
                if fired >= budget:
                    exhausted = True
                    break
                if not all(p(gm, match, ctx) for p in rule.preconditions):
                    rejected += 1
                    continue
                if verifier is not None and verifier.baseline is None:
                    # The baseline snapshot (a static analysis of the whole
                    # graph) is taken over the pre-firing graph, and only
                    # once a rule actually fires — on rule-free graphs the
                    # library must be near-free.
                    verifier.before_pipeline(gm, ctx=ctx.analyses)
                if rule.rewrite is not None:
                    _fire_rewrite(gm, rule, match, replaced)
                else:
                    apply_match(
                        gm, match,
                        pattern_placeholders=rule.pattern_placeholders,
                        replacement_graph=rule.replacement,
                        resolve=resolve, replaced=replaced,
                        propagate_meta=propagate_meta)
                fired += 1
                ctx.graph_changed()
                if verifier is not None:
                    try:
                        gm.graph.lint()
                    except RuntimeError as exc:
                        from ..analysis import VerificationError
                        raise VerificationError(
                            f"rule {rule.name!r} produced structurally "
                            f"invalid IR: {exc}") from exc
                    verifier.after_pass(f"rule:{rule.name}", gm,
                                        ctx=ctx.analyses)
        if fired:
            # Keep the match surface clean for the next rule in the round.
            if gm.graph.eliminate_dead_code():
                ctx.graph_changed()
        return fired, rejected, exhausted, time.perf_counter() - t0


def _fire_rewrite(gm: GraphModule, rule: Rule, match, replaced: dict) -> None:
    anchor = match.anchors[0]
    with gm.graph.inserting_before(anchor):
        new_val = rule.rewrite(gm, match)
    if isinstance(new_val, Node):
        if "tensor_meta" not in new_val.meta and "tensor_meta" in anchor.meta:
            new_val.meta["tensor_meta"] = anchor.meta["tensor_meta"]
            new_val.meta.setdefault("type", anchor.meta.get("type"))
        if not new_val.meta.get("stack_trace") and anchor.meta.get("stack_trace"):
            new_val.meta["stack_trace"] = anchor.meta["stack_trace"]
        anchor.replace_all_uses_with(new_val)
    else:
        from ..subgraph_rewriter import _replace_uses_with_literal
        _replace_uses_with_literal(anchor, new_val)
    replaced[anchor] = new_val
    order = {n: i for i, n in enumerate(gm.graph.nodes)}
    for g in sorted(match.internal_nodes(), key=lambda n: order.get(n, -1),
                    reverse=True):
        if not g.users:
            gm.graph.erase_node(g)


# -- pipeline stage --------------------------------------------------------


def default_ruleset() -> RuleSet:
    """The numerics-preserving stdlib: every registered rule tagged
    ``default`` (all bit-exact).  Imports the stdlib on first use."""
    from . import stdlib  # noqa: F401 - registration side effect
    return RuleSet(rules_with_tag("default"), name="default")


def apply_default_rules(gm: GraphModule):
    """PassManager stage: batch-apply the default rule library with a
    per-firing verifier.  Module-level (stable qualname) so the transform
    cache can replay it on warm recompiles.  A run in which no rule fires
    returns :class:`~repro.fx.passes.Unchanged`, letting the pipeline
    skip post-stage hashing/verification on rule-free graphs."""
    report = default_ruleset().apply(gm, verify=True)
    if report.total_firings == 0:
        from ..passes.pass_manager import Unchanged
        return Unchanged(gm)
    return gm


# -- self-testing ----------------------------------------------------------


@dataclass
class SelftestResult:
    """Outcome of validating one rule against its carried example."""

    rule: str
    ok: bool
    firings: int = 0
    max_diff: float = float("nan")
    tolerance: float = 0.0
    error: str = ""

    def __str__(self):
        status = "ok" if self.ok else "FAIL"
        detail = (self.error if self.error else
                  f"{self.firings} firing(s), |diff| {self.max_diff:g} "
                  f"(tol {self.tolerance:g})")
        return f"{status:4s} {self.rule:32s} {detail}"


def _instantiate_example(pattern, args) -> tuple:
    """Build a runnable graph from the rule's own pattern: tensor example
    args stay placeholders, everything else is baked in as a literal (so
    literal-constrained placeholders see literals, as they would in a
    real traced program)."""
    from ..graph import Graph
    from ..node import map_arg
    from ...tensor import Tensor

    phs = [n for n in pattern.nodes if n.op == "placeholder"]
    if len(args) != len(phs):
        raise ValueError(
            f"example supplies {len(args)} value(s) for {len(phs)} "
            f"placeholder(s)")
    new = Graph()
    val_map: dict[Node, Any] = {}
    tensor_args = []
    for ph, a in zip(phs, args):
        if isinstance(a, Tensor):
            val_map[ph] = new.placeholder(ph.target)
            tensor_args.append(a)
        else:
            val_map[ph] = a
    for n in pattern.nodes:
        if n.op in ("placeholder", "output"):
            continue
        val_map[n] = new.node_copy(n, lambda x: val_map[x])
    new.output(map_arg(pattern.output_node.args[0], lambda n: val_map[n]))
    return new, tuple(tensor_args)


def _max_abs_diff(a, b) -> float:
    from ...tensor import Tensor
    if isinstance(a, (tuple, list)):
        if not isinstance(b, (tuple, list)) or len(a) != len(b):
            return float("inf")
        return max((_max_abs_diff(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        if tuple(a.shape) != tuple(b.shape) or a.dtype != b.dtype:
            return float("inf")
        if a.numel() == 0:
            return 0.0
        return float((a.float() - b.float()).abs().max())
    return 0.0 if a == b else float("inf")


def selftest_rule(rule: Rule) -> SelftestResult:
    """Validate *rule* against its carried example: the pattern must fire
    at least once on the example, the rewritten graph must lint clean
    under a per-firing verifier, every node must carry the ``tensor_meta``
    a fresh propagation gives it, and the output must match — bit-exactly for
    ``exact`` rules, within 1e-5 otherwise."""
    from ..graph_module import GraphModule
    from ..passes.shape_prop import ShapeProp
    from ..tracer import symbolic_trace

    tol = 0.0 if rule.exact else 1e-5
    try:
        if rule.example_factory is not None:
            mod, inputs = rule.example_factory()
            gm = mod if isinstance(mod, GraphModule) else symbolic_trace(mod)
        elif rule.example is not None:
            graph, inputs = _instantiate_example(rule.pattern, rule.example())
            gm = GraphModule({}, graph)
        else:
            return SelftestResult(rule.name, ok=False,
                                  error="rule carries no example")
        ref = gm(*inputs)
        ShapeProp(gm).propagate(*inputs)
        # Only demand full metadata after the rewrite if ShapeProp could
        # fully type the graph before it — non-Tensor values (e.g. the
        # QTensors of quantized graphs) never carry tensor_meta to lose.
        fully_typed = all(
            "tensor_meta" in n.meta for n in gm.graph.nodes
            if n.op not in ("placeholder", "output"))
        report = RuleSet([rule], name=f"selftest:{rule.name}").apply(
            gm, verify=True)
        if report.total_firings < 1:
            return SelftestResult(
                rule.name, ok=False, firings=0, tolerance=tol,
                error="pattern did not fire on the rule's own example")
        gm.graph.lint()
        # what the rewrite says its nodes hold must be what a fresh
        # propagation infers there (inference: nothing is executed)
        carried = [n.meta.get("tensor_meta") for n in gm.graph.nodes]
        ShapeProp(gm).propagate(*inputs)
        stale = [n.name for n, was in zip(gm.graph.nodes, carried)
                 if fully_typed and n.meta.get("tensor_meta") != was]
        if stale:
            return SelftestResult(
                rule.name, ok=False, firings=report.total_firings,
                tolerance=tol,
                error=f"replacement node(s) lost tensor_meta: {stale}")
        out = gm(*inputs)
        diff = _max_abs_diff(ref, out)
        return SelftestResult(
            rule.name, ok=diff <= tol, firings=report.total_firings,
            max_diff=diff, tolerance=tol,
            error="" if diff <= tol else "output mismatch")
    except Exception as exc:  # noqa: BLE001 - reported, not swallowed
        return SelftestResult(rule.name, ok=False, tolerance=tol,
                              error=f"{type(exc).__name__}: {exc}")


def selftest_all(rules=None) -> list[SelftestResult]:
    """Self-test every registered rule (stdlib + module library + any
    plug-in registrations)."""
    if rules is None:
        from . import stdlib, library  # noqa: F401 - registration
        from .rule import all_rules
        try:  # quant rules register on import; tolerate its absence
            from ...quant import quantize_fx  # noqa: F401
        except Exception:
            pass
        rules = all_rules()
    return [selftest_rule(r) for r in rules]
