"""The dataflow engine: one ordered sweep over the fx Graph IR, and the
``Analysis`` plug-in interface.

The paper's argument (§4.2, §5.5) is that a 6-opcode basic-block DAG
makes whole-program analysis *trivial*: no control-flow joins, no loop
widening — a forward analysis is one sweep in topological order, a
backward analysis one sweep in reverse.  This module is exactly that:

* :func:`sweep` — visit each node once, in graph order or in reverse,
  with a pluggable per-node transfer function.  A transfer may read the
  fact of any node already swept (a forward transfer its inputs, a
  backward one its users); reading one not yet swept raises, so a
  transfer that would need a second round cannot be written.
* :class:`Analysis` — the plug-in base class.  A concrete analysis names
  itself and computes a result over one module's ``Node`` objects,
  pulling the analyses it reads through ``ctx.get``.
* :class:`AnalysisContext` / :func:`analyze` — the driver.  Results are
  memoised for the context's one module: a suite of analyses over it
  computes each at most once, and a module whose graph changes gets a
  new context.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Union

from ..graph_module import GraphModule
from ..node import Node

__all__ = [
    "Analysis",
    "AnalysisContext",
    "AnalysisError",
    "analyze",
    "get_analysis",
    "register_analysis",
    "registered_analyses",
    "sweep",
]


class AnalysisError(RuntimeError):
    """An analysis could not be computed (bad graph, missing dependency)."""


# ---------------------------------------------------------------------------
# the sweep
# ---------------------------------------------------------------------------


def sweep(
    nodes: Sequence[Node],
    transfer: Callable[[Node, Callable[[Node], Any]], Any],
    *,
    direction: str = "forward",
) -> dict[Node, Any]:
    """Compute ``fact[n] = transfer(n, fact)`` for every node, once each.

    Args:
        nodes: the graph's nodes in topological order.
        transfer: per-node transfer function.  Receives the node and a
            getter ``fact(other)`` for the fact of a node already swept.
        direction: ``"forward"`` sweeps in topological order (facts flow
            from inputs), ``"backward"`` in reverse (facts flow from users).

    Returns:
        The per-node fact map.

    Raises:
        AnalysisError: the transfer read a fact that has not been swept
            yet (a forward transfer reading a user, say).
    """
    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be 'forward' or 'backward', got {direction!r}")
    facts: dict[Node, Any] = {}

    def fact(n: Node) -> Any:
        try:
            return facts[n]
        except KeyError:
            raise AnalysisError(
                f"the {direction} sweep read {n.name!r} before reaching it; "
                f"a {direction} transfer may read only "
                f"{'inputs' if direction == 'forward' else 'users'}") from None

    for n in (nodes if direction == "forward" else reversed(nodes)):
        facts[n] = transfer(n, fact)
    return facts


# ---------------------------------------------------------------------------
# the Analysis plug-in interface
# ---------------------------------------------------------------------------


class Analysis:
    """Base class for one registered whole-graph analysis.

    Subclasses set :attr:`name` and implement :meth:`compute`, which pulls
    whatever other analyses it reads with ``ctx.get`` (nothing is computed
    ahead of it).  Results describe the analysed module's own ``Node``
    objects.

    Register with :func:`register_analysis` to make the analysis
    available by name to the lint-rule registry and the CLI.
    """

    #: unique registry name, e.g. ``"alias"``.
    name: str = ""

    def compute(self, gm: GraphModule, ctx: "AnalysisContext") -> Any:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<Analysis {self.name!r}>"


_REGISTRY: dict[str, Analysis] = {}


def register_analysis(analysis: Union[Analysis, type]) -> Analysis:
    """Register an :class:`Analysis` (instance or class) by its name.

    Usable as a class decorator::

        @register_analysis
        class MyAnalysis(Analysis):
            name = "my-analysis"
            def compute(self, gm, ctx): ...
    """
    instance = analysis() if isinstance(analysis, type) else analysis
    if not isinstance(instance, Analysis):
        raise TypeError(f"expected an Analysis, got {type(instance).__name__}")
    if not instance.name:
        raise ValueError("analysis must set a non-empty `name`")
    _REGISTRY[instance.name] = instance
    return analysis


def get_analysis(name: str) -> Analysis:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise AnalysisError(
            f"no analysis registered under {name!r}; "
            f"known: {sorted(_REGISTRY)}"
        ) from None


def registered_analyses() -> dict[str, Analysis]:
    return dict(_REGISTRY)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


class AnalysisContext:
    """One module's gateway to analysis results.

    ``ctx.get(name)`` computes the named analysis's result for ``ctx.gm``
    on first ask and memoises it.  An analysis pulls its dependencies from
    inside ``compute`` — one it does not ask for on this graph is never
    computed — and a dependency cycle raises.  The memo describes the
    graph as it was when each result was computed: after editing the
    graph, analyse it through a new context.
    """

    def __init__(self, gm: GraphModule):
        if not isinstance(gm, GraphModule):
            raise TypeError(f"AnalysisContext expects a GraphModule, got {type(gm).__name__}")
        self.gm = gm
        self._local: dict[str, Any] = {}
        self._in_flight: list[str] = []

    def get(self, name: str) -> Any:
        """Result of the analysis registered under *name* for this module."""
        if name in self._local:
            return self._local[name]
        if name in self._in_flight:
            cycle = " -> ".join(self._in_flight + [name])
            raise AnalysisError(f"circular analysis dependency: {cycle}")
        analysis = get_analysis(name)
        self._in_flight.append(name)
        try:
            value = analysis.compute(self.gm, self)
        finally:
            self._in_flight.pop()
        self._local[name] = value
        return value


def analyze(gm: GraphModule,
            names: Optional[Sequence[str]] = None) -> AnalysisContext:
    """Run the named analyses (default: all registered) over *gm*.

    Returns the :class:`AnalysisContext`; read results with
    ``ctx.get(name)``.
    """
    ctx = AnalysisContext(gm)
    for name in (names if names is not None else sorted(registered_analyses())):
        ctx.get(name)
    return ctx
