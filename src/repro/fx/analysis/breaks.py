"""Graph-break static analysis and repair (GraphMend, PAPERS.md).

Symbolic tracing (§5.3) *specializes or rejects* data-dependent control
flow: ``bool(proxy)`` inside an ``if``, ``len()``/``int()`` casts, loops
whose trip count comes from a Proxy.  Historically each of these was a
mid-trace ``TraceError`` — a crash with one source line.  This module
turns them into analyzed, repairable artifacts:

1. **Detection** — :func:`detect_breaks` runs a :class:`RecordingTracer`
   whose :meth:`~repro.fx.tracer.TracerBase.on_break` hook records every
   specialization event as a structured :class:`BreakEvent` (full user
   stack, offending node, message) instead of raising.  Boolean events are
   *speculated through* (the trace continues down the ``True`` branch) so
   a single run surfaces every break, not just the first.

2. **Classification** — an AST pre-scan (sharing the ``repro.jit.script``
   parsing front end) maps each event back to its enclosing source
   construct and classifies it by fix difficulty: *repairable* ``if``
   statements that a ``where``-select rewrite eliminates, *polyvariant*
   branches that need one trace per predicate value, and hard
   concretizations (``len``/``int``/iteration) that need manual surgery.

3. **Repair** — :func:`mend` applies the repairs: :class:`_WhereRewriter`
   rewrites simple ``if``/ternary constructs into ``repro.where`` calls at
   the AST level and re-traces; anything still branching is captured
   *polyvariantly* by :func:`polyvariant_trace` — N traces, each guarded
   by predicate graphs that re-evaluate the branch conditions at call
   time — packaged as a dispatching :class:`PolyvariantModule`.
"""

from __future__ import annotations

import ast
import copy
import linecache
import types
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from ...nn import Module
from ...tensor import Tensor
from ..graph import Graph
from ..graph_module import GraphModule
from ..node import Node
from ..proxy import TraceError
from ..tracer import Tracer, symbolic_trace

__all__ = [
    "BreakEvent",
    "BreakReport",
    "RecordingTracer",
    "RepairError",
    "PolyvariantModule",
    "detect_breaks",
    "mend",
    "polyvariant_trace",
]


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------

#: classification -> fix difficulty rank (lower = easier to fix)
DIFFICULTY = {
    "repairable-if": 1,
    "polyvariant-shape": 2,
    "polyvariant-value": 3,
    "polyvariant-loop": 4,
    "concretization-loop": 5,
    "concretization": 6,
    "unclassified": 9,
}

#: classifications mend() can fix automatically
AUTO_FIXABLE = {"repairable-if", "polyvariant-shape", "polyvariant-value"}

_FIX_HINTS = {
    "repairable-if": "auto-repair: rewrite to a repro.where select (mend)",
    "polyvariant-shape": "auto-repair: polyvariant capture keyed on the shape predicate (mend)",
    "polyvariant-value": "auto-repair: polyvariant capture keyed on the value predicate (mend)",
    "polyvariant-loop": "manual: data-dependent loop; rewrite as a fixed-bound scan or make the module a leaf",
    "concretization-loop": "manual: loop trip count depends on a traced value; pass it via concrete_args",
    "concretization": "manual: concrete value forced at trace time; restructure or mark the module a leaf",
    "unclassified": "manual: could not map the event to a source construct",
}


@dataclass
class BreakEvent:
    """One specialization event observed during a trace (§5.3).

    ``stack`` is the full user-code call chain, innermost first, as
    ``(filename, lineno, funcname)`` triples; ``origin`` is where the
    offending Proxy value was *created* (its node's stack trace).
    """

    kind: str                       # bool | iter | len | int | index | float | contains | setitem
    node_name: str
    message: str
    stack: tuple = ()
    origin: Optional[str] = None
    node: Optional[Node] = field(default=None, repr=False, compare=False)
    speculated: bool = False        # True if the tracer continued past it
    # filled in by the AST classifier:
    construct: Optional[str] = None        # "if" | "while" | "for" | "ifexp" | ...
    source_line: Optional[str] = None
    classification: str = "unclassified"

    @property
    def difficulty(self) -> int:
        return DIFFICULTY.get(self.classification, 9)

    @property
    def location(self) -> str:
        if not self.stack:
            return "<unknown>"
        f, ln, fn = self.stack[0]
        return f"{f}:{ln} in {fn}"

    def key(self) -> str:
        """Stable identity for baseline comparison — deliberately excludes
        line numbers so unrelated edits to a file don't churn the baseline."""
        import os

        fname = os.path.basename(self.stack[0][0]) if self.stack else "?"
        func = self.stack[0][2] if self.stack else "?"
        return f"{fname}::{func}::{self.kind}::{self.construct or '?'}"


@dataclass
class BreakReport:
    """All specialization events found in one model, plus trace status."""

    target: str
    events: list = field(default_factory=list)
    aborted: Optional[str] = None   # why the detection trace stopped early

    def __bool__(self) -> bool:
        return bool(self.events)

    def ranked(self) -> list:
        return sorted(self.events, key=lambda e: (e.difficulty, e.location))

    def format(self) -> str:
        if not self.events:
            return f"{self.target}: no graph breaks — traces cleanly"
        lines = [
            f"{self.target}: {len(self.events)} graph break(s)"
            + (f" [detection stopped early: {self.aborted}]" if self.aborted else "")
        ]
        for i, e in enumerate(self.ranked(), 1):
            lines.append(
                f"  [{i}] {e.classification:<18s} {e.kind:<8s} "
                f"{e.construct or '-':<6s} {e.location}"
            )
            if e.source_line:
                lines.append(f"      > {e.source_line}")
            elif e.stack:
                lines.append("      > source unavailable")
            if len(e.stack) > 1:
                chain = " <- ".join(fn for _, _, fn in e.stack)
                lines.append(f"      call chain: {chain}")
            lines.append(f"      {_FIX_HINTS.get(e.classification, '')}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------


class _AbortDetection(Exception):
    """Internal: detection trace hit a hard (non-speculatable) break."""


class RecordingTracer(Tracer):
    """Tracer that records :class:`BreakEvent`\\ s instead of raising.

    Boolean specializations are speculated ``True`` so the trace keeps
    going and one run finds *every* break on the True path; hard
    concretizations (``len``, ``int``, iteration) cannot be speculated
    without corrupting the captured program, so they record the event and
    stop the trace.
    """

    def __init__(self, max_events: int = 64):
        super().__init__()
        self.events: list[BreakEvent] = []
        self.max_events = max_events

    def on_break(self, event: BreakEvent) -> Any:
        self.events.append(event)
        if event.kind == "bool" and len(self.events) < self.max_events:
            event.speculated = True
            return True
        raise _AbortDetection(event.kind)


def detect_breaks(root: Module | Callable, *, max_events: int = 64) -> BreakReport:
    """Trace *root* with a speculating tracer and report every break.

    Never raises for break-related reasons: a model that traces cleanly
    yields an empty report; a model that breaks yields classified events;
    a trace that dies for unrelated reasons records why in ``aborted``.
    """
    target = root.__class__.__name__ if isinstance(root, Module) else getattr(
        root, "__name__", repr(root)
    )
    tracer = RecordingTracer(max_events=max_events)
    aborted = None
    try:
        tracer.trace(root)
    except _AbortDetection as e:
        aborted = f"hard break ({e.args[0]})"
    except TraceError as e:
        aborted = f"TraceError: {e}"
    except Exception as e:  # speculation can break user invariants
        aborted = f"{type(e).__name__}: {e}"
    _classify_events(tracer.events)
    for event in tracer.events:
        event.node = None   # drop graph references: reports must stay picklable
    return BreakReport(target=target, events=tracer.events, aborted=aborted)


# ---------------------------------------------------------------------------
# AST classification (shares the jit.script parsing front end)
# ---------------------------------------------------------------------------

_CONSTRUCT_NAMES = {
    ast.If: "if",
    ast.IfExp: "ifexp",
    ast.While: "while",
    ast.For: "for",
    ast.Assert: "assert",
    ast.ListComp: "listcomp",
    ast.GeneratorExp: "genexp",
}


def _parse_file(filename: str, cache: dict) -> Optional[ast.AST]:
    if filename in cache:
        return cache[filename]
    tree = None
    try:
        src = "".join(linecache.getlines(filename))
        if src:
            tree = ast.parse(src)
    except (OSError, SyntaxError, ValueError):
        tree = None
    cache[filename] = tree
    return tree


def _source_matches(tree: ast.AST, stack: tuple) -> bool:
    """Whether a file's text is the code that ran: the innermost frame in it
    with a name of its own (not ``<genexpr>``, ...) is a ``def`` of that name
    spanning its line.  Code compiled from other text under the file's name,
    or a file edited since, fails this."""
    for f, lineno, func in stack:
        if f == stack[0][0] and not func.startswith("<"):
            return any(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and n.name == func and n.lineno <= lineno <= n.end_lineno
                       for n in ast.walk(tree))
    return True


def _enclosing_construct(tree: ast.AST, lineno: int) -> Optional[ast.AST]:
    """Innermost break-relevant construct whose span covers *lineno*."""
    best = None
    for node in ast.walk(tree):
        if type(node) not in _CONSTRUCT_NAMES:
            continue
        end = getattr(node, "end_lineno", None) or node.lineno
        if node.lineno <= lineno <= end:
            if best is None or node.lineno >= best.lineno:
                best = node
    return best


def _single_assign(stmts: list) -> Optional[tuple[str, ast.expr]]:
    if (
        len(stmts) == 1
        and isinstance(stmts[0], ast.Assign)
        and len(stmts[0].targets) == 1
        and isinstance(stmts[0].targets[0], ast.Name)
    ):
        return stmts[0].targets[0].id, stmts[0].value
    return None


def _if_is_where_repairable(node: ast.If) -> bool:
    """True for ``if`` statements a where-select rewrite can eliminate."""
    a = _single_assign(node.body)
    if a is not None and not node.orelse:
        return True
    b = _single_assign(node.orelse) if node.orelse else None
    if a is not None and b is not None and a[0] == b[0]:
        return True
    return (
        len(node.body) == 1
        and isinstance(node.body[0], ast.Return)
        and node.body[0].value is not None
        and len(node.orelse) == 1
        and isinstance(node.orelse[0], ast.Return)
        and node.orelse[0].value is not None
    )


def _test_mentions_shape(test: ast.expr) -> bool:
    for n in ast.walk(test):
        if isinstance(n, ast.Attribute) and n.attr in ("shape", "ndim"):
            return True
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and \
                n.func.attr in ("size", "dim", "numel"):
            return True
    return False


def _classify_events(events: list[BreakEvent]) -> None:
    cache: dict[str, Optional[ast.AST]] = {}
    for event in events:
        _classify(event, cache)


def _classify(event: BreakEvent, cache: dict) -> None:
    if not event.stack:
        event.classification = "unclassified"
        return
    filename, lineno, _ = event.stack[0]
    tree = _parse_file(filename, cache)
    if tree is not None and not _source_matches(tree, event.stack):
        tree = None         # its lines are not this code's: unavailable
    if tree is not None:
        event.source_line = linecache.getline(filename, lineno).strip() or None
    construct = _enclosing_construct(tree, lineno) if tree is not None else None
    if construct is None:
        event.classification = (
            "concretization" if event.kind != "bool" else "unclassified"
        )
        return
    event.construct = _CONSTRUCT_NAMES[type(construct)]

    if event.kind == "bool":
        if isinstance(construct, ast.If):
            if _if_is_where_repairable(construct):
                event.classification = "repairable-if"
            elif _test_mentions_shape(construct.test):
                event.classification = "polyvariant-shape"
            else:
                event.classification = "polyvariant-value"
        elif isinstance(construct, ast.IfExp):
            event.classification = "repairable-if"
        elif isinstance(construct, ast.While):
            event.classification = "polyvariant-loop"
        elif isinstance(construct, ast.Assert):
            event.classification = "polyvariant-value"
        else:
            event.classification = "polyvariant-value"
    else:
        if isinstance(construct, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp)):
            event.classification = "concretization-loop"
        else:
            event.classification = "concretization"


# ---------------------------------------------------------------------------
# repair 1: AST where-rewrite for simple ifs
# ---------------------------------------------------------------------------


class RepairError(RuntimeError):
    """A graph break could not be repaired automatically."""


def _where_call(test: ast.expr, a: ast.expr, b: ast.expr) -> ast.Call:
    return ast.Call(
        func=ast.Name(id="__fx_where__", ctx=ast.Load()),
        args=[test, a, b],
        keywords=[],
    )


class _WhereRewriter(ast.NodeTransformer):
    """Rewrites break-causing ``if``/ternary constructs into where-selects.

    Only constructs whose *test* line matches a recorded break event are
    touched — input-independent control flow is left for the tracer to
    specialize as usual (§5.1).
    """

    def __init__(self, linenos: set[int]):
        self.linenos = set(linenos)
        self.applied = 0

    def _test_hit(self, node) -> bool:
        test = node.test
        end = getattr(test, "end_lineno", None) or test.lineno
        return any(test.lineno <= ln <= end for ln in self.linenos)

    def visit_If(self, node: ast.If):
        self.generic_visit(node)
        if not self._test_hit(node):
            return node
        a = _single_assign(node.body)
        if a is not None and not node.orelse:
            # if c: y = v   -->   y = where(c, v, y)   (y must already be bound)
            name, value = a
            self.applied += 1
            return ast.Assign(
                targets=[ast.Name(id=name, ctx=ast.Store())],
                value=_where_call(node.test, value, ast.Name(id=name, ctx=ast.Load())),
            )
        b = _single_assign(node.orelse) if node.orelse else None
        if a is not None and b is not None and a[0] == b[0]:
            self.applied += 1
            return ast.Assign(
                targets=[ast.Name(id=a[0], ctx=ast.Store())],
                value=_where_call(node.test, a[1], b[1]),
            )
        if (
            len(node.body) == 1
            and isinstance(node.body[0], ast.Return)
            and node.body[0].value is not None
            and node.orelse
            and len(node.orelse) == 1
            and isinstance(node.orelse[0], ast.Return)
            and node.orelse[0].value is not None
        ):
            self.applied += 1
            return ast.Return(
                value=_where_call(node.test, node.body[0].value, node.orelse[0].value)
            )
        return node

    def visit_IfExp(self, node: ast.IfExp):
        self.generic_visit(node)
        if self._test_hit(node):
            self.applied += 1
            return _where_call(node.test, node.body, node.orelse)
        return node


def _apply_where_repair(root: Module, events: list[BreakEvent]) -> Optional[Module]:
    """Recompile ``root.forward`` with repairable ifs rewritten to selects.

    Returns a shallow-copied module (sharing parameters/submodules with
    *root*) whose ``forward`` is the patched function, or None when no
    event lies inside ``root.forward``'s own source.
    """
    from ...functional import where
    from ...jit.script import parse_function

    fn = root.forward
    code = getattr(fn, "__func__", fn).__code__
    try:
        tree = parse_function(fn)
    except (OSError, TypeError, SyntaxError):
        return None
    end = getattr(tree, "end_lineno", None) or tree.lineno
    linenos = {
        ev.stack[0][1]
        for ev in events
        if ev.stack and ev.stack[0][0] == code.co_filename
        and tree.lineno <= ev.stack[0][1] <= end
    }
    if not linenos:
        return None

    rewriter = _WhereRewriter(linenos)
    new_tree = rewriter.visit(tree)
    if not rewriter.applied:
        return None
    new_tree.decorator_list = []
    module_ast = ast.Module(body=[new_tree], type_ignores=[])
    ast.fix_missing_locations(module_ast)
    try:
        code_obj = compile(module_ast, code.co_filename, "exec")
    except (SyntaxError, ValueError):
        return None
    glb = dict(getattr(fn, "__func__", fn).__globals__)
    glb["__fx_where__"] = where
    exec(code_obj, glb)
    new_fn = glb[new_tree.name]

    patched = copy.copy(root)
    object.__setattr__(patched, "forward", types.MethodType(new_fn, patched))
    return patched


# ---------------------------------------------------------------------------
# repair 2: polyvariant capture
# ---------------------------------------------------------------------------


class _SpeculatingTracer(Tracer):
    """Tracer that pins boolean specializations to a decision vector.

    The k-th ``bool(proxy)`` event returns ``pinned[k]`` (``True`` beyond
    the pinned prefix), and for every decision the partial graph up to the
    predicate node is snapshotted — that snapshot becomes the runtime
    guard that selects this variant."""

    def __init__(self, pinned: tuple[bool, ...], max_decisions: int = 16):
        super().__init__()
        self.pinned = tuple(pinned)
        self.max_decisions = max_decisions
        self.decisions: list[tuple[bool, Graph, BreakEvent]] = []

    def on_break(self, event: BreakEvent) -> Any:
        if event.kind != "bool":
            return super().on_break(event)   # hard break: raise
        k = len(self.decisions)
        if k >= self.max_decisions:
            raise TraceError(
                f"polyvariant capture exceeded {self.max_decisions} "
                "data-dependent decisions on one path; the branch structure "
                "is too deep to enumerate"
            )
        value = self.pinned[k] if k < len(self.pinned) else True
        event.speculated = True
        self.decisions.append((value, self._predicate_graph(event.node), event))
        return value

    def _predicate_graph(self, cond_node: Node) -> Graph:
        """Copy the partial graph up to *cond_node* into a standalone graph
        whose output is the predicate value, then prune what the predicate
        does not need (placeholders survive pruning, keeping the call
        signature aligned with the variant graphs)."""
        g = Graph()
        val_map: dict[Node, Node] = {}
        for n in self.graph.nodes:
            if n.op == "output":
                continue
            val_map[n] = g.node_copy(n, lambda x: val_map[x])
            if n is cond_node:
                break
        g.output(val_map[cond_node])
        g.eliminate_dead_code()
        return g


@dataclass
class _Variant:
    decisions: tuple[bool, ...]
    predicate_graphs: list
    graph: Optional[Graph]
    root: Any = None
    error: Optional[str] = None


class PolyvariantModule(Module):
    """N traces of one model, dispatched by re-evaluating branch predicates.

    Each variant corresponds to one outcome vector of the model's
    data-dependent branches.  At call time the predicate graphs (prefixes
    of the trace up to each branch condition) are evaluated on the real
    inputs and the first variant whose recorded decisions match is run —
    so the module is exact on *every* branch outcome, unlike a single
    specialized trace."""

    def __init__(self, variants: list[_Variant], class_name: str = "PolyvariantModule"):
        super().__init__()
        self._class_name = class_name
        self._decisions: list[tuple[bool, ...]] = []
        self._errors: list[Optional[str]] = []
        self._pred_counts: list[int] = []
        self.dispatch_counts: list[int] = []
        for i, v in enumerate(variants):
            self._decisions.append(tuple(v.decisions))
            self._errors.append(v.error)
            self._pred_counts.append(len(v.predicate_graphs))
            self.dispatch_counts.append(0)
            if v.graph is not None:
                self.add_module(
                    f"variant_{i}",
                    GraphModule(v.root, v.graph, class_name=f"{class_name}_v{i}"),
                )
            for j, pg in enumerate(v.predicate_graphs):
                self.add_module(
                    f"pred_{i}_{j}",
                    GraphModule(v.root, pg, class_name=f"{class_name}_p{i}_{j}"),
                )

    @property
    def num_variants(self) -> int:
        return len(self._decisions)

    def variant(self, i: int) -> Optional[GraphModule]:
        return getattr(self, f"variant_{i}", None)

    def forward(self, *args, **kwargs):
        for i, want in enumerate(self._decisions):
            matched = True
            for j, expected in enumerate(want):
                pred = getattr(self, f"pred_{i}_{j}")
                if bool(pred(*args, **kwargs)) != expected:
                    matched = False
                    break
            if matched:
                gm = getattr(self, f"variant_{i}", None)
                if gm is None:
                    raise RepairError(
                        f"input selects branch outcome {want}, whose trace "
                        f"failed: {self._errors[i]}"
                    )
                self.dispatch_counts[i] += 1
                return gm(*args, **kwargs)
        raise RepairError(
            "no captured variant matches this input's branch outcomes; "
            "re-run polyvariant_trace with a larger max_variants"
        )

    def __repr__(self) -> str:
        return (
            f"PolyvariantModule({self._class_name}, "
            f"{self.num_variants} variant(s): "
            + ", ".join(str(d) for d in self._decisions)
            + ")"
        )


def polyvariant_trace(
    root: Module | Callable,
    *,
    max_variants: int = 8,
    max_decisions: int = 16,
) -> PolyvariantModule:
    """Capture *root* once per reachable branch-outcome vector.

    BFS over pinned decision vectors: trace with every boolean
    specialization speculated ``True``, then re-trace with each decision
    flipped in turn, until no new outcome vectors appear (or
    ``max_variants`` is hit).  Variants whose speculated path raises are
    kept as tombstones so selecting them at runtime reports the original
    failure instead of silently mis-executing.
    """
    class_name = root.__class__.__name__ if isinstance(root, Module) else getattr(
        root, "__name__", "fn"
    )
    variants: list[_Variant] = []
    seen_outcomes: set[tuple[bool, ...]] = set()
    explored: set[tuple[bool, ...]] = set()
    queue: list[tuple[bool, ...]] = [()]
    while queue and len(variants) < max_variants:
        pinned = queue.pop(0)
        if pinned in explored:
            continue
        explored.add(pinned)
        tracer = _SpeculatingTracer(pinned, max_decisions=max_decisions)
        graph: Optional[Graph] = None
        error: Optional[str] = None
        try:
            graph = tracer.trace(root)
        except Exception as e:
            error = f"{type(e).__name__}: {e}"
        taken = tuple(v for v, _, _ in tracer.decisions)
        for i in range(len(pinned), len(taken)):
            flipped = taken[:i] + (not taken[i],)
            if flipped not in explored:
                queue.append(flipped)
        if taken in seen_outcomes:
            continue
        seen_outcomes.add(taken)
        variants.append(
            _Variant(
                decisions=taken,
                predicate_graphs=[pg for _, pg, _ in tracer.decisions],
                graph=graph,
                root=tracer.root,
                error=error,
            )
        )
    if not any(v.graph is not None for v in variants):
        detail = "; ".join(v.error or "?" for v in variants) or "no trace attempted"
        raise RepairError(f"polyvariant capture failed on every path: {detail}")
    return PolyvariantModule(variants, class_name=class_name)


# ---------------------------------------------------------------------------
# mend: detect -> repair -> validate
# ---------------------------------------------------------------------------


def _flatten_outputs(out: Any) -> list:
    if isinstance(out, (tuple, list)):
        flat: list = []
        for o in out:
            flat.extend(_flatten_outputs(o))
        return flat
    return [out]


def _outputs_equal(a: Any, b: Any) -> bool:
    import numpy as np

    fa, fb = _flatten_outputs(a), _flatten_outputs(b)
    if len(fa) != len(fb):
        return False
    for x, y in zip(fa, fb):
        if isinstance(x, Tensor) and isinstance(y, Tensor):
            if not np.array_equal(x.numpy(), y.numpy()):
                return False
        elif isinstance(x, Tensor) or isinstance(y, Tensor):
            return False
        elif x != y:
            return False
    return True


def _matches_eager(candidate: Module, reference: Module | Callable, batches) -> bool:
    for inputs in batches:
        try:
            if not _outputs_equal(candidate(*inputs), reference(*inputs)):
                return False
        except Exception:
            return False
    return True


def _normalize_batches(example_inputs) -> list[tuple]:
    if example_inputs is None:
        return []
    if isinstance(example_inputs, list):
        return [tuple(b) for b in example_inputs]
    return [tuple(example_inputs)]


def mend(
    root: Module | Callable,
    example_inputs=None,
    *,
    max_variants: int = 8,
) -> GraphModule | PolyvariantModule:
    """Detect every graph break in *root* and repair it, or raise.

    Returns a plain :class:`GraphModule` when the model traces cleanly or
    every break is eliminated by the where-rewrite, and a
    :class:`PolyvariantModule` when branches must be captured per outcome.
    When *example_inputs* is given (one args tuple, or a list of them),
    each repair is validated bit-exactly against the eager model before
    being returned; a where-repair that fails validation falls back to
    polyvariant capture.  The returned module carries the detection
    report as ``.mend_report`` and the strategy as ``.mended``.
    """
    report = detect_breaks(root)
    if not report.events:
        if report.aborted:
            raise RepairError(f"trace failed without a break event: {report.aborted}")
        gm = symbolic_trace(root)
        gm.mend_report = report
        gm.mended = "clean"
        return gm

    hard = [e for e in report.events if e.classification not in AUTO_FIXABLE]
    if hard:
        raise RepairError(
            "model has graph breaks that cannot be repaired automatically:\n"
            + BreakReport(report.target, hard).format()
        )

    batches = _normalize_batches(example_inputs)
    repairable = [e for e in report.events if e.classification == "repairable-if"]

    # Stage 1: AST where-rewrite. Only worth re-tracing if *all* events were
    # repairable — otherwise the re-trace still breaks and we need stage 2
    # anyway, on the patched module so already-repaired ifs stay repaired.
    candidate: Module | Callable = root
    if repairable and isinstance(root, Module):
        patched = _apply_where_repair(root, repairable)
        if patched is not None:
            rep2 = detect_breaks(patched)
            if not rep2.events and rep2.aborted is None:
                try:
                    gm = symbolic_trace(patched)
                except Exception:
                    gm = None
                if gm is not None and (not batches or _matches_eager(gm, root, batches)):
                    gm.mend_report = report
                    gm.mended = "where"
                    return gm
            elif rep2.events and all(e.kind == "bool" for e in rep2.events):
                candidate = patched

    # Stage 2: polyvariant capture (of the patched module when the rewrite
    # reduced the break count, else of the original).
    poly = polyvariant_trace(candidate, max_variants=max_variants)
    if batches and not _matches_eager(poly, root, batches):
        if candidate is not root:
            poly = polyvariant_trace(root, max_variants=max_variants)
            if _matches_eager(poly, root, batches):
                poly.mend_report = report
                poly.mended = "polyvariant"
                return poly
        raise RepairError(
            "repaired module does not match eager execution on the provided "
            "example inputs"
        )
    poly.mend_report = report
    poly.mended = "polyvariant"
    return poly
