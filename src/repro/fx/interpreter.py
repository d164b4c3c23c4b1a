"""``Interpreter`` and ``Transformer`` — node-by-node graph execution.

An Interpreter runs a GraphModule one Node at a time with overridable
per-opcode methods.  This is the substrate for analysis passes (e.g.
:class:`~repro.fx.passes.shape_prop.ShapeProp` observes real shapes flow
by) and for ``Transformer``, which re-emits each node through a Tracer to
build a transformed copy of the graph.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from .graph import Graph, _resolve_attr
from .graph_module import GraphModule
from .node import Node, OPCODES, map_arg
from .proxy import Proxy
from .tracer import Tracer

__all__ = ["Interpreter", "Transformer"]


class Interpreter:
    """Executes a GraphModule node-by-node.

    Override the per-opcode methods (:meth:`placeholder`,
    :meth:`call_function`, …) or :meth:`run_node` to observe or modify
    execution.  Intermediate values are freed as soon as their last user
    has run (``garbage_collect_values=True``), matching the generated
    code's ``x = None`` behaviour.
    """

    def __init__(self, module: GraphModule, garbage_collect_values: bool = True):
        self.env: dict[Node, Any] = {}
        self.garbage_collect_values = garbage_collect_values
        self.module = module  # property: validates and builds the tables

    @property
    def module(self) -> GraphModule:
        return self._module

    @module.setter
    def module(self, module: GraphModule) -> None:
        """Swapping the module rebuilds the precomputed dispatch/liveness
        tables against the new graph."""
        if not isinstance(module, GraphModule):
            raise TypeError("Interpreter expects a GraphModule")
        self._module = module
        self._build_tables()

    def _build_tables(self) -> None:
        """(Re)compute the per-node tables for the current module/graph:
        last-use liveness for garbage collection and the per-node opcode
        handler map."""
        module = self._module
        self.user_to_last_uses: dict[Node, list[Node]] = {}
        if self.garbage_collect_values:
            node_to_last_use: dict[Node, Node] = {}
            for node in module.graph.nodes:
                def register(n: Node) -> Node:
                    node_to_last_use[n] = node
                    return n
                map_arg(node.args, register)
                map_arg(node.kwargs, register)
            for used, user in node_to_last_use.items():
                self.user_to_last_uses.setdefault(user, []).append(used)
        # Precomputed per-node dispatch: one getattr per node per *run* is
        # pure overhead, so resolve each node's opcode handler (including
        # subclass overrides) once up front.  Nodes added to the graph
        # afterwards fall back to dynamic dispatch in run_node; handler
        # overrides installed after construction and module/graph swaps
        # are caught by the staleness check at the top of run().
        self._node_handlers: dict[Node, Any] = {
            node: self._resolve_handler(node) for node in module.graph.nodes
        }
        self._tables_graph = module.graph
        self._handler_sources = self._handler_snapshot()

    def _handler_snapshot(self) -> tuple:
        """Identity of each opcode handler as currently visible on this
        instance — instance-dict overrides first, then the class (so a
        class-level monkeypatch changes the snapshot too)."""
        d = self.__dict__
        cls = type(self)
        return tuple(d.get(op, getattr(cls, op)) for op in OPCODES)

    def _refresh_tables_if_stale(self) -> None:
        """Rebuild the precomputed tables when they no longer describe
        reality: the module's graph was swapped (``self.module = other``
        assigns through the property, but ``gm.graph = ...`` or in-place
        graph surgery does not), or an opcode handler was overridden
        after construction (instance attribute or class patch)."""
        if (self._tables_graph is not self._module.graph
                or self._handler_sources != self._handler_snapshot()):
            self._build_tables()

    def _resolve_handler(self, node: Node) -> Any:
        handler = getattr(self, node.op)
        slot = node.meta.get("arena_slot")
        if (
            slot is not None
            and node.op == "call_function"
            and self.garbage_collect_values
            and type(self).call_function is Interpreter.call_function
            and "call_function" not in self.__dict__
        ):
            # Memory-planned node (see passes.memory_planner): route the
            # arena slot in as out= so interpretation reuses buffers like
            # the generated code does.  Only safe when intermediates are
            # garbage-collected (a retained env value would be clobbered
            # on slot reuse) and only for the stock call_function handler
            # (an override is not expecting a surprise kwarg).
            def handler(target, args, kwargs, _slot=slot):
                return target(*args, **kwargs, out=_slot)
        return handler

    def run(self, *args, initial_env: Optional[dict[Node, Any]] = None) -> Any:
        """Run the graph with *args* bound to the placeholders, returning
        the output node's value."""
        self._refresh_tables_if_stale()
        self.env = dict(initial_env) if initial_env else {}
        self.args_iter: Iterator[Any] = iter(args)
        for node in self.module.graph.nodes:
            # Pre-seeded nodes (partial evaluation) skip execution only:
            # they still participate in garbage collection, and a seeded
            # output node still terminates the run with its seeded value.
            if node not in self.env:
                self.env[node] = self.run_node(node)
            if self.garbage_collect_values:
                for dead in self.user_to_last_uses.get(node, []):
                    # A pre-seeded node's inputs may never have entered env.
                    self.env.pop(dead, None)
            if node.op == "output":
                return self.env[node]
        raise RuntimeError("graph terminated without an output node")

    def run_node(self, n: Node) -> Any:
        """Dispatch one node to its opcode handler."""
        args, kwargs = self.fetch_args_kwargs_from_env(n)
        handler = self._node_handlers.get(n)
        if handler is None:  # node created after this Interpreter was built
            handler = getattr(self, n.op)
        return handler(n.target, args, kwargs)

    # -- opcode handlers ----------------------------------------------------------

    def placeholder(self, target: str, args: tuple, kwargs: dict) -> Any:
        try:
            return next(self.args_iter)
        except StopIteration:
            if args:  # default value recorded on the placeholder node
                return args[0]
            raise RuntimeError(f"missing argument for placeholder {target!r}") from None

    def get_attr(self, target: str, args: tuple, kwargs: dict) -> Any:
        return self.fetch_attr(target)

    def call_function(self, target, args: tuple, kwargs: dict) -> Any:
        return target(*args, **kwargs)

    def call_method(self, target: str, args: tuple, kwargs: dict) -> Any:
        self_obj, *rest = args
        return getattr(self_obj, target)(*rest, **kwargs)

    def call_module(self, target: str, args: tuple, kwargs: dict) -> Any:
        return self.module.get_submodule(target)(*args, **kwargs)

    def output(self, target, args: tuple, kwargs: dict) -> Any:
        return args[0]

    # -- helpers ----------------------------------------------------------------------

    def fetch_attr(self, target: str) -> Any:
        return _resolve_attr(self.module, target)

    def fetch_args_kwargs_from_env(self, n: Node) -> tuple[tuple, dict]:
        args = self.map_nodes_to_values(n.args, n)
        kwargs = self.map_nodes_to_values(n.kwargs, n)
        return args, kwargs

    def map_nodes_to_values(self, args: Any, n: Node) -> Any:
        def load(node: Node) -> Any:
            if node not in self.env:
                raise RuntimeError(
                    f"node {n.name!r} references {node.name!r} which has no "
                    "value (already freed or never computed)"
                )
            return self.env[node]

        return map_arg(args, load)


class Transformer(Interpreter):
    """Interpreter that *re-emits* each node into a fresh Graph via Proxies.

    Subclass and override an opcode handler to transform those nodes while
    everything else is copied through; call :meth:`transform` to get the
    new GraphModule.  (This mirrors ``torch.fx.Transformer``.)
    """

    def __init__(self, module: GraphModule):
        super().__init__(module, garbage_collect_values=False)
        self.new_graph = Graph()
        self.tracer = Tracer()
        self.tracer.graph = self.new_graph
        self.tracer.root = module
        self._transformed = False

    def placeholder(self, target: str, args: tuple, kwargs: dict) -> Proxy:
        return self.tracer.create_proxy("placeholder", target, args, kwargs)

    def get_attr(self, target: str, args: tuple, kwargs: dict) -> Proxy:
        return self.tracer.create_proxy("get_attr", target, args, kwargs)

    def call_function(self, target, args: tuple, kwargs: dict) -> Proxy:
        return self.tracer.create_proxy("call_function", target, args, kwargs)

    def call_method(self, target: str, args: tuple, kwargs: dict) -> Proxy:
        return self.tracer.create_proxy("call_method", target, args, kwargs)

    def call_module(self, target: str, args: tuple, kwargs: dict) -> Proxy:
        return self.tracer.create_proxy("call_module", target, args, kwargs)

    def output(self, target, args: tuple, kwargs: dict) -> Any:
        # Handled in transform(); should not be reached through run_node.
        return args[0]

    def run_node(self, n: Node) -> Any:
        if n.op == "output":
            result = self.map_nodes_to_values(n.args[0], n)
            self.new_graph.output(self.tracer.create_arg(result))
            return result
        return super().run_node(n)

    def transform(self) -> GraphModule:
        """Run the whole graph through the re-emitting handlers and return
        the transformed GraphModule.

        Single-use: ``new_graph`` is consumed by the returned module, so a
        second call would re-emit every node into the already-finalized
        graph and mix stale Proxies into the result.  Construct a fresh
        Transformer per transform instead.
        """
        if self._transformed:
            raise RuntimeError(
                "Transformer instances are single-use: transform() was already "
                "called and its Proxy environment is stale. Construct a new "
                f"{type(self).__name__}({type(self.module).__name__}) to "
                "transform again."
            )
        self._transformed = True
        self._refresh_tables_if_stale()
        self.env = {}
        self.args_iter = iter(())  # placeholders create proxies, consume nothing
        for node in self.module.graph.nodes:
            self.env[node] = self.run_node(node)
        result = GraphModule(self.module, self.new_graph,
                             class_name=self.module._class_name)
        # Honour run()'s env-reset contract: do not leak Proxies on the
        # instance after the transform is finished.
        self.env = {}
        return result
