"""Purity / side-effect classification — the single source of truth
behind :meth:`Node.is_impure`, DCE, CSE, and the pass verifier.

The IR is nominally functional (§5.6: mutation is undefined behaviour),
but real captured programs carry three kinds of effects the transforms
must respect:

* **structural** nodes (``placeholder`` / ``output``) — not effects, but
  they anchor the function signature and must never be deleted;
* **argument mutation** — a ``call_function`` whose kwargs carry an
  ``out=`` tensor destination, ``operator.setitem`` / ``setattr``, or a
  ``call_method`` following the trailing-underscore in-place convention
  (``add_``, ``relu_``, ``copy_``, …) writes into an existing buffer;
* **state mutation** — a call whose op-table entry ``writes``: a
  training-mode batch norm updating its running statistics (module or
  function spelling), a training dropout advancing the global RNG.

Deleting or deduplicating such a node changes program behaviour even
when its *return value* is unused — the exact bug class this analysis
closes (a dead ``x.add_(1)`` whose buffer is read later used to be
DCE-able, and two separate in-place updates used to be CSE-able into
one).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from .. import opinfo
from ..graph import _hash_token_for_object
from ..graph_module import GraphModule
from ..node import Node
from .engine import Analysis, AnalysisContext, register_analysis

__all__ = [
    "Effect",
    "PurityAnalysis",
    "PurityResult",
    "classify_effect",
    "is_inplace_method",
]


class Effect(enum.Enum):
    """What executing one node can do besides produce its value."""

    PURE = "pure"
    STRUCTURAL = "structural"      # placeholder / output: signature anchors
    MUTATES_ARG = "mutates_arg"    # writes into an argument's storage
    MUTATES_STATE = "mutates_state"  # updates module/global state

    @property
    def impure(self) -> bool:
        return self is not Effect.PURE

    @property
    def mutating(self) -> bool:
        return self in (Effect.MUTATES_ARG, Effect.MUTATES_STATE)


def is_inplace_method(target: Any) -> bool:
    """Does *target* follow the trailing-underscore in-place convention?

    ``add_`` / ``relu_`` / ``copy_`` mutate ``self``; dunder names
    (``__repr__``) do not.
    """
    return (
        isinstance(target, str)
        and target.endswith("_")
        and not target.endswith("__")
        and len(target) > 1
    )


#: call_function targets that mutate state regardless of kwargs.
_MUTATING_FUNCTION_NAMES = frozenset({"setitem", "setattr", "delitem", "delattr"})


def _has_out_kwarg(node: Node) -> bool:
    """Does the call route its result into a caller-provided buffer?

    Only a *Node* destination counts: an immediate (e.g. a preallocated
    array smuggled in as a constant) is invisible to the graph and
    treated conservatively as mutation too.  ``out=None`` is the
    allocate-fresh convention and stays pure.
    """
    out = node.kwargs.get("out")
    return out is not None


def classify_effect(node: Node, module: Optional[GraphModule] = None) -> Effect:
    """Classify one node's side effect.

    Args:
        node: the node to classify.
        module: the owning module, used to resolve ``call_module``
            targets; defaults to ``node.graph.owning_module``.
    """
    op = node.op
    if op in ("placeholder", "output"):
        return Effect.STRUCTURAL
    if op == "get_attr":
        return Effect.PURE
    if op == "call_function":
        name = getattr(node.target, "__name__", "")
        mod = getattr(node.target, "__module__", "")
        if name in _MUTATING_FUNCTION_NAMES and mod in ("_operator", "operator", "builtins"):
            return Effect.MUTATES_ARG
    if op != "call_module" and (is_inplace_method(node.target) or _has_out_kwarg(node)):
        return Effect.MUTATES_ARG
    owner = module if module is not None else getattr(node.graph, "owning_module", None)
    return Effect.MUTATES_STATE if opinfo.writes_state(node, owner) else Effect.PURE


@dataclass(frozen=True)
class PurityResult:
    """Effect classification for one graph's nodes.

    Attributes:
        effects: per node, the node's :class:`Effect`.
    """

    effects: dict[Node, Effect]

    def is_impure(self, node: Node) -> bool:
        return self.effects[node].impure


def impure_fingerprints(
        result: PurityResult) -> tuple[tuple[str, str, str], ...]:
    """Sorted multiset of ``(op, target token, effect)`` for every node
    with a *mutating* effect — the pass verifier compares these across a
    pass to detect an impure node being silently deleted.  Structural
    nodes are excluded (signature changes are a different invariant,
    covered by ``Graph.lint``), and tokens are name-based so the
    fingerprint survives pickling and node renames.
    """
    out = []
    for n, e in result.effects.items():
        if not e.mutating:
            continue
        target = n.target if isinstance(n.target, str) else _hash_token_for_object(n.target)
        out.append((n.op, str(target), e.value))
    return tuple(sorted(out))


@register_analysis
class PurityAnalysis(Analysis):
    """Registered purity analysis: a pure per-node transfer (no joins)."""

    name = "purity"

    def compute(self, gm: GraphModule, ctx: AnalysisContext) -> PurityResult:
        return PurityResult(effects={
            n: classify_effect(n, gm) for n in gm.graph.nodes})
