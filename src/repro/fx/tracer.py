"""Symbolic tracing: ``Tracer``, ``symbolic_trace`` and ``wrap`` (§4.1, §5.1–5.3).

Tracing runs the target callable with :class:`~repro.fx.proxy.Proxy`
arguments.  Three interception points record operations:

1. free functions — via the ``__tensor_function__`` protocol
   (:mod:`repro.tensor.dispatch`), the substrate's ``__torch_function__``;
2. methods and operators — via ``Proxy``'s duck typing and magic methods;
3. module calls — by overriding the ``Module.__call__`` pathway
   (:data:`repro.nn.module._MODULE_CALL_INTERCEPTOR`) for the duration of
   the trace, on the tracing thread only: threads trace independently.

The process is configurable through the :class:`Tracer` class (§5.2):
override :meth:`Tracer.is_leaf_module` to control which modules stay
opaque, or :meth:`Tracer.create_proxy` / :meth:`Tracer.create_arg` to
customize node creation.
"""

from __future__ import annotations

import functools
import inspect
import threading
from typing import Any, Callable

from ..nn import module as _module_mod
from ..nn import Module, Parameter
from ..nn.containers import ModuleDict, ModuleList, Sequential
from ..tensor import Tensor
from .graph import Graph
from .node import Node, Target, BASE_ARGUMENT_TYPES
from .proxy import Attribute, Proxy, TraceError

__all__ = ["TracerBase", "Tracer", "symbolic_trace", "wrap"]


class _Tracers(threading.local):
    def __init__(self) -> None:
        self.stack: list["TracerBase"] = []


#: Per thread, the tracers running a trace there (innermost last): an
#: fx.wrap'ed function records into the innermost one.
_ACTIVE_TRACERS = _Tracers()


class TracerBase:
    """Minimal recording machinery, independent of the Module hierarchy."""

    graph: Graph

    def create_node(
        self,
        op: str,
        target: Target,
        args: tuple,
        kwargs: dict,
        name: str | None = None,
        type_expr: Any | None = None,
    ) -> Node:
        """Insert a node into the graph. Override to attach custom
        metadata to every created node."""
        return self.graph.create_node(op, target, args, kwargs, name, type_expr)

    def proxy(self, node: Node) -> Proxy:
        """Wrap a Node in a runtime Proxy value."""
        return Proxy(node, self)

    def create_proxy(
        self,
        op: str,
        target: Target,
        args: tuple,
        kwargs: dict,
        name: str | None = None,
        type_expr: Any | None = None,
    ) -> Proxy:
        """Record one operation: convert the arguments to IR form, create a
        Node, and return the Proxy standing for its value.

        This is the per-operation customization point (§5.2): a custom
        Tracer can override it to install metadata on Nodes or to support
        custom traceable data structures.
        """
        args_ir = self.create_arg(args)
        kwargs_ir = self.create_arg(kwargs)
        node = self.create_node(op, target, args_ir, kwargs_ir, name, type_expr)
        if getattr(self, "record_stack_traces", True):
            # Nodes from one source stack share one text, so a pickle
            # writes it once; the table lives for one ``trace()``.
            stack, texts = _user_stack(), getattr(self, "_stack_texts", {})
            if stack and stack not in texts:
                texts[stack] = " <- ".join(f"{f}:{ln} in {fn}" for f, ln, fn in stack)
            node.meta.setdefault("stack_trace", texts.get(stack))
        return self.proxy(node)

    def create_arg(self, a: Any) -> Any:
        """Lower a runtime value into an IR argument.

        Proxies become their Nodes; containers recurse; immediate Python
        values pass through inline (§4.2).  Subclasses extend this — e.g.
        :class:`Tracer` lifts Parameters into ``get_attr`` nodes.
        """
        if isinstance(a, Proxy):
            if a.tracer is not self:
                raise TraceError(
                    "Proxy from a different trace leaked into this one; do not "
                    "share Proxies across symbolic_trace calls"
                )
            return a.node
        if isinstance(a, Node):
            return a
        if isinstance(a, tuple):
            return tuple(self.create_arg(x) for x in a)
        if isinstance(a, list):
            return [self.create_arg(x) for x in a]
        if isinstance(a, dict):
            out = {}
            for k, v in a.items():
                if isinstance(k, Proxy):
                    raise TraceError("Proxy keys in dicts are not supported")
                out[k] = self.create_arg(v)
            return out
        if isinstance(a, slice):
            return slice(self.create_arg(a.start), self.create_arg(a.stop),
                         self.create_arg(a.step))
        if isinstance(a, BASE_ARGUMENT_TYPES):
            return a
        # Anything else (dtype objects, enums, …) is kept as an opaque
        # immediate; codegen routes it through the globals table.
        return a

    # -- concretization hooks (override to allow e.g. specialized tracing) -------

    def concretize(self, kind: str, obj: Proxy, message: str):
        """Funnel for every specialization event (§5.3).

        Any operation that would force a Proxy to a concrete value —
        ``bool()``, ``int()``, ``len()``, iteration, indexing, membership —
        lands here as a structured :class:`~repro.fx.analysis.breaks.BreakEvent`
        carrying the full user stack and the origin of the offending value.
        The default policy hands the event to :meth:`on_break`, which raises
        ``TraceError``; analysis tracers override ``on_break`` to record the
        event and keep tracing (speculating a value) instead.
        """
        from .analysis.breaks import BreakEvent

        event = BreakEvent(
            kind=kind,
            node_name=obj.node.name,
            message=message,
            stack=_user_stack(),
            origin=obj.node.meta.get("stack_trace"),
            node=obj.node,
        )
        return self.on_break(event)

    def on_break(self, event) -> Any:
        """Policy hook for specialization events. Default: refuse to trace."""
        err = TraceError(event.message)
        err.break_event = event
        raise err

    def to_bool(self, obj: Proxy) -> bool:
        origin = obj.node.meta.get("stack_trace")
        where = f" (value created at {origin})" if origin else ""
        return self.concretize(
            "bool",
            obj,
            f"symbolically traced variable {obj.node.name!r} cannot be used in "
            "control flow: its boolean value is input-dependent and unknown at "
            f"trace time (§5.3){where}. Options: move the branch out of the "
            "traced region, make the containing module a leaf, or bake the "
            "decision with concrete_args.",
        )

    def iter(self, obj: Proxy):
        """Iteration over a Proxy.

        General iteration is untraceable (the element count is unknown at
        trace time, §5.3), but the common fixed-arity *tuple unpacking*
        pattern (``a, b = x.chunk(2)``) is recoverable: like
        torch.fx, we inspect the calling frame's bytecode for an
        ``UNPACK_SEQUENCE`` instruction and, if found, yield that many
        ``getitem`` proxies.
        """
        import dis
        import operator
        import sys

        frame = sys._getframe(1)
        while frame is not None and frame.f_globals.get("__name__", "").startswith(
            ("repro.fx", "repro.tensor")
        ):
            frame = frame.f_back
        if frame is not None:
            for inst in dis.get_instructions(frame.f_code):
                if inst.offset == frame.f_lasti and inst.opname in (
                    "UNPACK_SEQUENCE", "UNPACK_EX"
                ) and inst.opname == "UNPACK_SEQUENCE":
                    n = inst.argval
                    return iter(
                        [
                            self.create_proxy(
                                "call_function", operator.getitem, (obj, i), {}
                            )
                            for i in range(n)
                        ]
                    )
        return self.concretize(
            "iter",
            obj,
            f"cannot iterate over Proxy {obj.node.name!r}: the number of "
            "elements is unknown at trace time. Unpack with explicit indexing "
            "(x[0], x[1]) or trace with concrete_args.",
        )


_INTERNAL_MODULE_PREFIXES = (
    "repro.fx", "repro.tensor", "repro.functional", "repro.nn.module",
)
#: Framework-hosted *user* code: modules under internal prefixes whose
#: frames are still model provenance (the fuzz generator's model classes).
_USER_MODULE_PREFIXES = ("repro.fx.testing",)


def _user_stack(limit: int = 24) -> tuple[tuple[str, int, str], ...]:
    """Full user-code call stack, innermost first, trimmed of repro internals.

    Each entry is ``(filename, lineno, funcname)``.  The walk stops at the
    trace entry point (``Tracer.trace``) so frames *above* the trace — the
    test harness, the CLI — are never included.
    """
    import sys

    frames: list[tuple[str, int, str]] = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < limit:
        mod = frame.f_globals.get("__name__", "")
        if mod.startswith(_INTERNAL_MODULE_PREFIXES) \
                and not mod.startswith(_USER_MODULE_PREFIXES):
            if mod == __name__ and frame.f_code.co_name == "trace":
                break
        else:
            frames.append(
                (frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name)
            )
        frame = frame.f_back
    return tuple(frames)


class _RootShim(Module):
    """Root module used when tracing a free function: holds lifted tensor
    constants so the resulting GraphModule has a place for state."""


class Tracer(TracerBase):
    """The default symbolic tracer over the Module hierarchy."""

    def __init__(self):
        super().__init__()
        self.root: Module | None = None
        self._module_paths: dict[int, str] = {}
        self._param_proxy_cache: dict[int, Node] = {}
        self._tensor_constants: dict[int, Node] = {}
        self._tensor_constant_count = 0

    # -- configuration points (§5.2) ----------------------------------------------

    def is_leaf_module(self, m: Module, module_qualified_name: str) -> bool:
        """Whether *m* is kept opaque as a single ``call_module`` node.

        Default policy mirrors torch.fx: built-in layers (everything under
        ``repro.nn``) and the quantization modules (``repro.quant``:
        observers, int8 layers) are leaves — they are standard,
        well-documented primitives — while user-defined modules are traced
        through.  Containers are never leaves (their loops are exactly the
        input-independent control flow tracing should flatten, §5.1).
        """
        if isinstance(m, (Sequential, ModuleList, ModuleDict)):
            return False
        return m.__class__.__module__.startswith(("repro.nn", "repro.quant"))

    def path_of_module(self, mod: Module) -> str:
        """Qualified path of *mod* inside the root hierarchy."""
        if not self._module_paths:
            assert self.root is not None
            for name, m in self.root.named_modules():
                self._module_paths.setdefault(id(m), name)
        try:
            return self._module_paths[id(mod)]
        except KeyError:
            raise TraceError(
                f"module of type {type(mod).__name__} is not a submodule of the "
                "root being traced; modules must be registered in the hierarchy "
                "to be recorded as call_module nodes"
            ) from None

    def call_module(self, m: Module, forward: Callable, args: tuple, kwargs: dict):
        """Record or trace through one module invocation."""
        module_qualified_name = self.path_of_module(m)
        if not self.is_leaf_module(m, module_qualified_name):
            return forward(*args, **kwargs)
        return self.create_proxy("call_module", module_qualified_name, args, kwargs)

    # -- argument lowering ------------------------------------------------------------

    def create_arg(self, a: Any) -> Any:
        if isinstance(a, Parameter):
            # Parameters reach the IR as get_attr nodes pointing into the
            # module hierarchy — the "functional graph, stateful modules"
            # split of §5.6.
            node = self._param_proxy_cache.get(id(a))
            if node is None:
                qualname = self._find_parameter_name(a)
                node = self.create_node("get_attr", qualname, (), {})
                self._param_proxy_cache[id(a)] = node
            return node
        if isinstance(a, Tensor):
            # A concrete tensor produced at trace time (e.g. a factory call)
            # becomes module state: lifted onto the root as a buffer.
            node = self._tensor_constants.get(id(a))
            if node is None:
                assert self.root is not None
                name = f"_tensor_constant{self._tensor_constant_count}"
                self._tensor_constant_count += 1
                self.root.register_buffer(name, a)
                node = self.create_node("get_attr", name, (), {})
                self._tensor_constants[id(a)] = node
            return node
        if isinstance(a, Module):
            raise TraceError(
                f"cannot inline a Module ({type(a).__name__}) as a node argument; "
                "call it instead"
            )
        return super().create_arg(a)

    def _find_parameter_name(self, p: Parameter) -> str:
        assert self.root is not None
        for name, param in self.root.named_parameters():
            if param is p:
                return name
        raise TraceError(
            "parameter used in the traced program is not owned by the root "
            "module; only parameters reachable from the root can be captured"
        )

    # -- the trace itself ------------------------------------------------------------------

    def trace(self, root: Module | Callable, concrete_args: dict[str, Any] | None = None) -> Graph:
        """Symbolically trace *root* and return the captured Graph.

        Args:
            root: an ``nn.Module`` (its ``forward`` is traced) or a free
                function.
            concrete_args: parameter names to *partially specialize*: these
                arguments receive the given concrete value instead of a
                Proxy, are evaluated at trace time, and are removed from
                the traced signature.  This is the "transforms decide what
                specializations they want" escape hatch of §4.
        """
        concrete_args = concrete_args or {}
        self.graph = Graph()
        if isinstance(root, Module):
            self.root = root
            fn = root.forward
        elif callable(root):
            self.root = _RootShim()
            fn = root
        else:
            raise TypeError(f"cannot trace object of type {type(root).__name__}")
        self._module_paths.clear()

        sig = inspect.signature(fn)
        proxy_args: list[Any] = []
        for name, param in sig.parameters.items():
            if name == "self":
                continue
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise TraceError(
                    f"cannot trace through *{name}: variadic signatures are not "
                    "supported by symbolic tracing; wrap the callee or give the "
                    "forward an explicit signature"
                )
            if name in concrete_args:
                proxy_args.append(concrete_args[name])
                continue
            default = () if param.default is inspect.Parameter.empty else (param.default,)
            proxy_args.append(
                self.create_proxy("placeholder", name, default, {}, name=name)
            )

        intercept = _module_mod._MODULE_CALL_INTERCEPTOR
        interceptor_prev = intercept.call

        def interceptor(mod: Module, args: tuple, kwargs: dict):
            return self.call_module(mod, mod.forward, args, kwargs)

        intercept.call = interceptor
        _ACTIVE_TRACERS.stack.append(self)
        self._stack_texts: dict = {}
        try:
            result = fn(*proxy_args)
        finally:
            del self._stack_texts
            _ACTIVE_TRACERS.stack.pop()
            intercept.call = interceptor_prev

        self.create_node("output", "output", (self.create_arg(result),), {})
        return self.graph


def symbolic_trace(
    root: Module | Callable,
    concrete_args: dict[str, Any] | None = None,
) -> "GraphModule":
    """Trace *root* and package the result as a runnable GraphModule.

    This is the main entry point shown in the paper's Figure 1::

        traced = symbolic_trace(my_func)
        for n in traced.graph.nodes: ...
        print(traced.code)
    """
    from .graph_module import GraphModule

    tracer = Tracer()
    graph = tracer.trace(root, concrete_args)
    name = root.__class__.__name__ if isinstance(root, Module) else root.__name__
    return GraphModule(tracer.root, graph, class_name=name)


def wrap(fn: Callable) -> Callable:
    """Mark a free function as an opaque traceable call.

    Use as a decorator on functions whose bodies symbolic tracing cannot
    (or should not) see — numpy code, I/O, assertions on sizes::

        @fx.wrap
        def my_custom_op(x, scale):
            return Tensor(x.numpy() * scale)

    During a trace, if any argument is a Proxy the call is recorded as a
    single ``call_function`` node targeting the wrapper (so generated code
    re-enters it); otherwise the function runs normally.
    """

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        tracers = _ACTIVE_TRACERS.stack
        if tracers:
            tracer = tracers[-1]
            if _contains_proxy(args) or _contains_proxy(tuple(kwargs.values())):
                return tracer.create_proxy("call_function", wrapped, args, kwargs)
        return fn(*args, **kwargs)

    wrapped.__fx_wrapped__ = True
    return wrapped


def _contains_proxy(args: tuple) -> bool:
    for a in args:
        if isinstance(a, (Proxy, Attribute)):
            return True
        if isinstance(a, (tuple, list)) and _contains_proxy(tuple(a)):
            return True
        if isinstance(a, dict) and _contains_proxy(tuple(a.values())):
            return True
    return False
