"""Analysis-backed rule preconditions and placeholder constraints.

Preconditions are predicates ``(gm, match, ctx) -> bool`` evaluated
after a structural match but before the firing; ``ctx`` is the engine's
:class:`~.engine.RuleContext`, giving memoized access to
``repro.fx.analysis`` results (purity, alias/escape, dtype) for the
*current* graph state.

Constraints are cheaper: predicates over a single bound placeholder
value, checked during matching (see
:class:`~repro.fx.subgraph_rewriter.SubgraphMatcher`).
"""

from __future__ import annotations

from typing import Any, Callable

from ..analysis import Effect, classify_effect
from ..node import Node

__all__ = [
    "pure_interior", "no_aliased_escape", "anchor_dtype_preserved",
    "no_mutation_anywhere", "anchor_shape_matches",
    "is_literal", "is_int_literal", "is_number_literal",
    "is_identity_permutation", "has_tensor_meta", "rank_at_least",
    "not_bool_dtype", "floating_dtype",
]


# -- preconditions ---------------------------------------------------------


def pure_interior(gm, match, ctx) -> bool:
    """Every matched interior node must be side-effect free.

    A rewrite deletes the interior; deleting an in-place method
    (``add_``), an ``out=`` call, or a training-mode BatchNorm would
    silently drop an observable effect.
    """
    return all(
        classify_effect(n, gm) is Effect.PURE
        for n in match.internal_nodes()
    )


def no_aliased_escape(gm, match, ctx) -> bool:
    """No non-anchor interior value may alias something the caller can
    still observe.

    The matched interior is deleted wholesale; if one of its values may
    share storage with an escaping value (a view chain reaching the
    output), removing the node changes what the caller sees.
    """
    alias = ctx.analysis("alias")
    anchors = set(match.anchors)
    for n in match.internal_nodes():
        if n in anchors:
            continue
        if alias.may_alias(n) and n in alias.escapes:
            return False
    return True


def anchor_dtype_preserved(gm, match, ctx) -> bool:
    """The bound inputs' recorded dtypes must equal the anchor's —
    i.e. the matched expression performed no dtype promotion, so an
    identity rewrite (returning an input unchanged) is type-safe."""
    anchor_meta = match.anchors[0].meta.get("tensor_meta")
    if anchor_meta is None or not hasattr(anchor_meta, "dtype"):
        return False  # unknown: refuse rather than miscompile
    for p, bound in match.nodes_map.items():
        if p.op != "placeholder" or not isinstance(bound, Node):
            continue
        tm = bound.meta.get("tensor_meta")
        if tm is None or not hasattr(tm, "dtype"):
            return False
        if tm.dtype != anchor_meta.dtype:
            return False
    return True


def no_mutation_anywhere(gm, match, ctx) -> bool:
    """No node in the whole graph mutates an argument.

    Required by rewrites that replace a *copy* with an *alias* (e.g.
    ``cat([x]) -> x``): value-equal, but an in-place write to the result
    would now also write ``x``.  In a mutation-free graph the difference
    is unobservable.
    """
    effects = ctx.analysis("purity").effects
    return not any(e.mutating for e in effects.values())


def anchor_shape_matches(placeholder: str):
    """Precondition factory: the anchor's recorded shape equals the named
    placeholder binding's.  Guards identity rewrites against silent
    broadcasting (``where(c, x, x)`` broadcasts ``x`` to ``c``'s shape)."""
    def pre(gm, match, ctx) -> bool:
        anchor_meta = match.anchors[0].meta.get("tensor_meta")
        if anchor_meta is None or not hasattr(anchor_meta, "shape"):
            return False
        for p, bound in match.nodes_map.items():
            if p.op == "placeholder" and p.target == placeholder:
                if not isinstance(bound, Node):
                    return False
                tm = bound.meta.get("tensor_meta")
                return (tm is not None and hasattr(tm, "shape")
                        and tuple(tm.shape) == tuple(anchor_meta.shape))
        return False
    return pre


# -- placeholder constraints ----------------------------------------------


def is_literal(v: Any) -> bool:
    """The placeholder bound an immediate, not a computed Node."""
    return not isinstance(v, Node)


def is_int_literal(v: Any) -> bool:
    return type(v) is int


def is_number_literal(v: Any) -> bool:
    return type(v) in (int, float)


def is_identity_permutation(v: Any) -> bool:
    """A literal dims tuple equal to ``(0, 1, ..., n-1)``."""
    if isinstance(v, Node) or not isinstance(v, (tuple, list)):
        return False
    return list(v) == list(range(len(v)))


def has_tensor_meta(v: Any) -> bool:
    return isinstance(v, Node) and v.meta.get("tensor_meta") is not None


def rank_at_least(n: int) -> Callable[[Any], bool]:
    """Constraint factory: the bound Node's recorded rank is >= *n*."""
    def pred(v: Any) -> bool:
        if not isinstance(v, Node):
            return False
        tm = v.meta.get("tensor_meta")
        return tm is not None and hasattr(tm, "shape") and len(tm.shape) >= n
    return pred


def not_bool_dtype(v: Any) -> bool:
    """The binding's recorded dtype is not bool (requires shape-prop
    metadata; unknown dtype refuses the match rather than risking a
    promotion change — ``bool + 0`` is int64, ``bool`` alone is not)."""
    from ...tensor.dtype import bool_
    if not isinstance(v, Node):
        return type(v) is not bool
    tm = v.meta.get("tensor_meta")
    return tm is not None and hasattr(tm, "dtype") and tm.dtype != bool_


def floating_dtype(v: Any) -> bool:
    """The binding's recorded dtype is floating point (``x / 1`` only
    preserves dtype when true division wouldn't promote)."""
    if not isinstance(v, Node):
        return type(v) is float
    tm = v.meta.get("tensor_meta")
    return (tm is not None and hasattr(tm, "dtype")
            and getattr(tm.dtype, "is_floating_point", False))
