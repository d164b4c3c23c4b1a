"""``Proxy`` — the abstract value that flows through a symbolic trace.

A Proxy is a duck-typed stand-in for a concrete tensor (§4.1).  Every
operation performed on it — attribute access, method calls, operators,
dispatchable free functions (via the ``__tensor_function__`` protocol) —
is recorded as a :class:`~repro.fx.node.Node` in the tracer's Graph, and a
new Proxy wrapping that Node is returned.

Crucially, operations that would *force* a concrete value — ``bool()``,
``int()``, ``len()``, iteration — raise :class:`TraceError` with an
explanation, which is how symbolic tracing surfaces input-dependent
control flow instead of silently specializing on it (§5.3).
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .node import Node
    from .tracer import TracerBase

__all__ = ["Proxy", "Attribute", "TraceError"]


class TraceError(ValueError):
    """Raised when a traced program performs an operation symbolic tracing
    cannot represent (data-dependent control flow, concretization casts)."""


class Proxy:
    """Records operations performed on it into the tracer's Graph."""

    def __init__(self, node: "Node", tracer: "TracerBase"):
        object.__setattr__(self, "node", node)
        object.__setattr__(self, "tracer", tracer)

    def __repr__(self) -> str:
        return f"Proxy({self.node.name})"

    # -- attribute & call recording ------------------------------------------------

    def __getattr__(self, name: str) -> "Attribute":
        # Deferred: creating the node only when the attribute value is
        # actually *used* keeps pure method calls (x.relu()) from leaving a
        # stray getattr node behind.
        return Attribute(self, name)

    def __call__(self, *args, **kwargs) -> "Proxy":
        return self.tracer.create_proxy(
            "call_method", "__call__", (self,) + args, kwargs
        )

    # -- protocol interception -------------------------------------------------------

    def __tensor_function__(self, func, types, args, kwargs):
        """Entry point from the dispatch protocol: record ``call_function``."""
        return self.tracer.create_proxy("call_function", func, args, kwargs or {})

    # -- disallowed concretizations ----------------------------------------------------

    def __bool__(self) -> bool:
        return self.tracer.to_bool(self)

    def __index__(self) -> int:
        return self.tracer.concretize(
            "index",
            self,
            f"cannot use Proxy {self.node.name!r} as an index: its value is "
            "not known at trace time. If this value is input-independent, "
            "pass it via concrete_args; otherwise restructure the model or "
            "mark the enclosing module as a leaf.",
        )

    def __int__(self) -> int:
        return self.tracer.concretize(
            "int",
            self,
            f"cannot cast Proxy {self.node.name!r} to int during symbolic "
            "tracing: the concrete value does not exist at trace time (§5.3). "
            "Use shape propagation after tracing, or a custom Tracer that "
            "specializes sizes.",
        )

    def __float__(self) -> float:
        return self.tracer.concretize(
            "float",
            self,
            f"cannot cast Proxy {self.node.name!r} to float during symbolic tracing",
        )

    def __len__(self) -> int:
        return self.tracer.concretize(
            "len",
            self,
            f"cannot take len() of Proxy {self.node.name!r}: symbolic tracing "
            "does not know tensor sizes. Trace with concrete_args or make the "
            "surrounding module a leaf.",
        )

    def __iter__(self):
        return self.tracer.iter(self)

    def __contains__(self, item) -> bool:
        return self.tracer.concretize(
            "contains",
            self,
            f"cannot test membership in Proxy {self.node.name!r} at trace time",
        )

    # -- misc recorded operations ----------------------------------------------------------

    def __getitem__(self, key) -> "Proxy":
        return self.tracer.create_proxy(
            "call_function", operator.getitem, (self, key), {}
        )

    def __setitem__(self, key, value) -> None:
        self.tracer.concretize(
            "setitem",
            self,
            f"mutation through Proxy {self.node.name!r} (x[...] = y) is not "
            "representable: the fx IR is functional and defines mutation as "
            "undefined behaviour (§5.6). Rewrite using repro.where / "
            "masked_fill, or make the mutating module a leaf.",
        )


def _define_binary(name: str, op) -> None:
    def impl(self, other):
        return self.tracer.create_proxy("call_function", op, (self, other), {})

    impl.__name__ = name
    setattr(Proxy, name, impl)


def _define_reflected(name: str, op) -> None:
    def impl(self, other):
        return self.tracer.create_proxy("call_function", op, (other, self), {})

    impl.__name__ = name
    setattr(Proxy, name, impl)


def _define_unary(name: str, op) -> None:
    def impl(self):
        return self.tracer.create_proxy("call_function", op, (self,), {})

    impl.__name__ = name
    setattr(Proxy, name, impl)


_BINARY = {
    "__add__": operator.add, "__sub__": operator.sub, "__mul__": operator.mul,
    "__truediv__": operator.truediv, "__floordiv__": operator.floordiv,
    "__mod__": operator.mod, "__pow__": operator.pow, "__matmul__": operator.matmul,
    "__lshift__": operator.lshift, "__rshift__": operator.rshift,
    "__and__": operator.and_, "__or__": operator.or_, "__xor__": operator.xor,
    "__lt__": operator.lt, "__le__": operator.le,
    "__gt__": operator.gt, "__ge__": operator.ge,
    "__eq__": operator.eq, "__ne__": operator.ne,
}
_REFLECTED = {
    "__radd__": operator.add, "__rsub__": operator.sub, "__rmul__": operator.mul,
    "__rtruediv__": operator.truediv, "__rfloordiv__": operator.floordiv,
    "__rmod__": operator.mod, "__rpow__": operator.pow,
    "__rmatmul__": operator.matmul,
    "__rand__": operator.and_, "__ror__": operator.or_, "__rxor__": operator.xor,
    "__rlshift__": operator.lshift, "__rrshift__": operator.rshift,
}
_UNARY = {
    "__neg__": operator.neg, "__pos__": operator.pos,
    "__invert__": operator.invert, "__abs__": operator.abs,
}

for _name, _op in _BINARY.items():
    _define_binary(_name, _op)
for _name, _op in _REFLECTED.items():
    _define_reflected(_name, _op)
for _name, _op in _UNARY.items():
    _define_unary(_name, _op)

# __eq__ override removes the default __hash__; restore identity hashing so
# Proxies can live in dicts (the tracer keeps id-keyed maps).
Proxy.__hash__ = object.__hash__  # type: ignore[method-assign]


class Attribute(Proxy):
    """Proxy for an attribute access (``x.shape``, ``x.neg``, …).

    Node creation is deferred: if the attribute is immediately *called*
    (``x.neg()``), we record a single ``call_method`` node; only if the
    attribute's value is used directly (``x.shape`` passed somewhere) do we
    materialize a ``call_function(getattr, …)`` node.
    """

    def __init__(self, root: Proxy, attr: str):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "attr", attr)
        object.__setattr__(self, "tracer", root.tracer)
        object.__setattr__(self, "_node", None)

    @property
    def node(self) -> "Node":
        if self._node is None:
            proxy = self.tracer.create_proxy(
                "call_function", getattr, (self.root, self.attr), {}
            )
            object.__setattr__(self, "_node", proxy.node)
        return self._node

    def __call__(self, *args, **kwargs) -> Proxy:
        return self.tracer.create_proxy(
            "call_method", self.attr, (self.root,) + args, kwargs
        )

    def __repr__(self) -> str:
        return f"Attribute({self.root!r}.{self.attr})"
