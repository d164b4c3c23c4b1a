"""``jit.trace`` — example-based tracing into the TorchScript-style IR.

This is the first Figure-5 baseline.  Unlike fx's symbolic tracing it runs
the model on *concrete example inputs* and records the operations that
actually execute (§2.1).  The consequences the paper discusses all hold
here by construction:

* **shape specialization** (§2.2): tensor metadata (``.shape``, ``.ndim``)
  returns real values that can escape into Python control decisions, so
  the recorded trace silently bakes in the example's control path;
* **rich IR**: parameters become ``prim::GetAttr`` chains, scalar
  hyperparameters become ``prim::Constant`` nodes, int pairs become
  ``prim::ListConstruct`` — the verbosity Figure 5(a) shows;
* tracing sees *through* all modules down to the functional layer (there
  is no leaf-module concept), producing many more operations than fx.
"""

from __future__ import annotations

from typing import Any, Callable

from ..nn import Module
from ..nn import module as _module_mod
from ..tensor import Tensor
from .ts_ir import TSGraph, TSValue

__all__ = ["trace", "TracedModule", "TracingTensor"]

# Tensor attributes that return concrete metadata during tracing.  This is
# deliberate: jit.trace-style capture is unintrusive, so shape queries leak
# real values into the host program (and specialize the trace).
_METADATA_ATTRS = {"shape", "ndim", "dtype", "device", "data", "T"}
_METADATA_METHODS = {"size", "dim", "numel", "item", "tolist", "element_size", "nbytes"}

_BINOP_ATEN = {
    "__add__": "aten::add", "__radd__": "aten::add",
    "__sub__": "aten::sub", "__rsub__": "aten::rsub",
    "__mul__": "aten::mul", "__rmul__": "aten::mul",
    "__truediv__": "aten::div", "__rtruediv__": "aten::div",
    "__matmul__": "aten::matmul", "__rmatmul__": "aten::matmul",
    "__pow__": "aten::pow",
    "__lt__": "aten::lt", "__le__": "aten::le",
    "__gt__": "aten::gt", "__ge__": "aten::ge",
    "__eq__": "aten::eq", "__ne__": "aten::ne",
}


class _TraceState:
    """Shared bookkeeping for one trace run."""

    def __init__(self, root: Module):
        self.graph = TSGraph()
        self.root = root
        self.self_value = self.graph.add_input("self", type_=type(root).__name__)
        self.module_values: dict[int, TSValue] = {id(root): self.self_value}
        self.module_paths: dict[int, str] = {
            id(m): name for name, m in root.named_modules()
        }
        # parameter/buffer id -> (owning module, attribute name)
        self.state_owner: dict[int, tuple[Module, str]] = {}
        for _, m in root.named_modules():
            for pname, p in m._parameters.items():
                if p is not None:
                    self.state_owner[id(p)] = (m, pname)
            for bname, b in m._buffers.items():
                if b is not None:
                    self.state_owner[id(b)] = (m, bname)
        self.attr_values: dict[int, TSValue] = {}

    # -- value mapping ---------------------------------------------------------

    def module_value(self, mod: Module) -> TSValue:
        """GetAttr chain materializing *mod* (cached per instance)."""
        v = self.module_values.get(id(mod))
        if v is not None:
            return v
        path = self.module_paths.get(id(mod))
        if path is None:
            raise RuntimeError(
                f"module {type(mod).__name__} is not part of the traced hierarchy"
            )
        cursor = self.self_value
        walked: Module = self.root
        for atom in path.split("."):
            walked = getattr(walked, atom)
            cached = self.module_values.get(id(walked))
            if cached is not None:
                cursor = cached
                continue
            cursor = self.graph.get_attr(cursor, atom, type_=type(walked).__name__)
            self.module_values[id(walked)] = cursor
        return cursor

    def state_value(self, t: Tensor) -> TSValue:
        """GetAttr node for a parameter/buffer (cached per instance)."""
        v = self.attr_values.get(id(t))
        if v is not None:
            return v
        owner = self.state_owner.get(id(t))
        if owner is None:
            # A loose tensor constant: recorded as prim::Constant[Tensor].
            v = self.graph.constant(f"<tensor {tuple(t.shape)}>")
        else:
            mod, name = owner
            v = self.graph.get_attr(self.module_value(mod), name, type_="Tensor")
        self.attr_values[id(t)] = v
        return v

    def lower_arg(self, a: Any) -> TSValue:
        """Map one runtime argument to a TS value, emitting constant /
        construct nodes as needed."""
        if isinstance(a, TracingTensor):
            return a.ts_value
        if isinstance(a, Tensor):
            return self.state_value(a)
        if isinstance(a, (tuple, list)) :
            elems = [self.lower_arg(x) for x in a]
            elem_type = "int" if all(isinstance(x, int) for x in a) else "t"
            return self.graph.list_construct(elems, elem_type=elem_type)
        if isinstance(a, (int, float, bool, str)) or a is None:
            return self.graph.constant(a)
        if isinstance(a, slice):
            parts = [self.lower_arg(x) for x in (a.start, a.stop, a.step)]
            return self.graph.list_construct(parts, elem_type="int?")
        return self.graph.constant(repr(a))

    def record(self, kind: str, args: tuple, kwargs: dict, result: Any) -> Any:
        """Emit one aten op and wrap its tensor results."""
        inputs = [self.lower_arg(a) for a in args]
        inputs += [self.lower_arg(v) for v in kwargs.values()]
        n_out = len(result) if isinstance(result, tuple) else 1
        node = self.graph.create(kind, inputs, n_outputs=n_out)
        if isinstance(result, tuple):
            return tuple(
                TracingTensor(r, v, self) if isinstance(r, Tensor) else r
                for r, v in zip(result, node.outputs)
            )
        if isinstance(result, Tensor):
            return TracingTensor(result, node.outputs[0], self)
        return result


def _unwrap_tracing(a: Any) -> Any:
    if isinstance(a, TracingTensor):
        return a.value
    if isinstance(a, tuple):
        return tuple(_unwrap_tracing(x) for x in a)
    if isinstance(a, list):
        return [_unwrap_tracing(x) for x in a]
    if isinstance(a, dict):
        return {k: _unwrap_tracing(v) for k, v in a.items()}
    return a


class TracingTensor:
    """A concrete tensor that records the ops applied to it.

    Dual nature: holds the real :class:`Tensor` value (so Python control
    flow executes normally — the example-specialized semantics of
    jit.trace) while mirroring every recorded operation into the TS graph.
    """

    def __init__(self, value: Tensor, ts_value: TSValue, state: _TraceState):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "ts_value", ts_value)
        object.__setattr__(self, "state", state)

    # Free functions (repro.functional.*) dispatch here via the protocol.
    def __tensor_function__(self, func, types, args, kwargs):
        result = func(*_unwrap_tracing(args), **_unwrap_tracing(kwargs or {}))
        name = getattr(func, "__name__", "op")
        return self.state.record(f"aten::{name}", args, kwargs or {}, result)

    def __getattr__(self, name: str):
        if name in _METADATA_ATTRS:
            # Concrete metadata escapes the trace (shape specialization, §2.2).
            return getattr(self.value, name)
        if name in _METADATA_METHODS:
            return getattr(self.value, name)
        attr = getattr(self.value, name)
        if callable(attr):
            def recorded_method(*args, **kwargs):
                result = attr(*_unwrap_tracing(args), **_unwrap_tracing(kwargs))
                return self.state.record(
                    f"aten::{name}", (self,) + args, kwargs, result
                )
            return recorded_method
        return attr

    def __getitem__(self, idx):
        result = self.value[_unwrap_tracing(idx)]
        return self.state.record("aten::select", (self, idx), {}, result)

    def __neg__(self):
        return self.state.record("aten::neg", (self,), {}, -self.value)

    def __len__(self) -> int:
        return len(self.value)

    # Concretizations succeed with the example's value — this is precisely
    # the "unintrusive capture" that lets traces silently specialize (§2.2).
    def __bool__(self) -> bool:
        return bool(self.value)

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"TracingTensor({self.ts_value!r})"


def _make_binop(name: str, kind: str) -> Callable:
    def impl(self: TracingTensor, other):
        base = getattr(self.value, name)
        result = base(_unwrap_tracing(other))
        if result is NotImplemented:
            return NotImplemented
        return self.state.record(kind, (self, other), {}, result)

    impl.__name__ = name
    return impl


for _name, _kind in _BINOP_ATEN.items():
    setattr(TracingTensor, _name, _make_binop(_name, _kind))
TracingTensor.__hash__ = object.__hash__  # type: ignore[method-assign]


class TracedModule:
    """Result of :func:`trace`: the TS graph plus a callable fallback.

    Calling a TracedModule executes the original module (this substrate
    interprets rather than compiles TS IR); the value of the trace is the
    captured :attr:`graph`, used for export and for §6.1's op counting.
    """

    def __init__(self, module: Module, graph: TSGraph):
        self.module = module
        self.graph = graph

    def __call__(self, *args, **kwargs):
        return self.module(*args, **kwargs)

    @property
    def code(self) -> str:
        return str(self.graph)


def trace(root: Module, example_inputs: tuple) -> TracedModule:
    """Trace *root* by running it on *example_inputs*.

    Every module boundary is recorded as a ``prim::GetAttr`` chain and
    then traced *through*; tensor ops become ``aten::*`` nodes with
    explicit constant/list-construct operands.
    """
    if not isinstance(example_inputs, tuple):
        example_inputs = (example_inputs,)
    state = _TraceState(root)

    wrapped_inputs = []
    for i, ex in enumerate(example_inputs):
        if isinstance(ex, Tensor):
            v = state.graph.add_input(f"x.{i + 1}")
            wrapped_inputs.append(TracingTensor(ex, v, state))
        else:
            wrapped_inputs.append(ex)

    intercept = _module_mod._MODULE_CALL_INTERCEPTOR
    prev = intercept.call

    def interceptor(mod: Module, args: tuple, kwargs: dict):
        state.module_value(mod)  # materialize the GetAttr chain
        return mod.forward(*args, **kwargs)

    intercept.call = interceptor
    try:
        out = root.forward(*wrapped_inputs)
    finally:
        intercept.call = prev

    def collect(o: Any) -> None:
        if isinstance(o, TracingTensor):
            state.graph.outputs.append(o.ts_value)
        elif isinstance(o, (tuple, list)):
            for x in o:
                collect(x)

    collect(out)
    return TracedModule(root, state.graph)
