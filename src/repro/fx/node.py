"""``Node`` — one operation in the fx IR.

The IR has exactly six opcodes (paper §4.2 and Appendix A):

=============== ============================================
opcode          meaning
=============== ============================================
``placeholder``   function input
``call_method``   call method ``target`` on ``args[0]``
``call_module``   call the module at qualified path ``target``
``call_function`` call the Python function ``target``
``get_attr``      fetch parameter/buffer at path ``target``
``output``        return statement; returns ``args[0]``
=============== ============================================

``args``/``kwargs`` follow the Python calling convention as written by the
user — no normalization is applied (§4.2 footnote).  Data dependencies are
``Node`` references appearing inside ``args``/``kwargs``; immediate values
(ints, floats, strings, slices, and nested tuples/lists/dicts of these) are
stored inline, which keeps Nodes ≈1:1 with tensor operations.
"""

from __future__ import annotations

import types
from typing import Any, Callable, Optional, TYPE_CHECKING

if TYPE_CHECKING:
    from .graph import Graph

__all__ = ["Node", "Target", "map_arg", "map_aggregate", "OPCODES"]

Target = Any  # str | Callable

OPCODES = (
    "placeholder",
    "call_method",
    "call_module",
    "call_function",
    "get_attr",
    "output",
)

# Immediate (inline) argument types the IR accepts besides Node references.
BASE_ARGUMENT_TYPES = (
    str, int, float, bool, complex, type(None), type(...), slice, range,
)


class Node:
    """A single operation.  Lives in exactly one :class:`~repro.fx.Graph`,
    threaded on a doubly-linked list that defines topological order.

    Attributes:
        graph: owning Graph.
        name: unique identifier; becomes the variable name in generated code.
        op: one of the six opcodes.
        target: call target (function object / method name / module path /
            attribute path), or the input name for ``placeholder``.
        args / kwargs: arguments in the Python calling convention; may
            contain other Nodes (data dependencies) and immediate values.
        users: Nodes that consume this node's value (insertion-ordered).
        meta: free-form dictionary transforms can hang metadata on
            (e.g. :class:`~repro.fx.passes.shape_prop.ShapeProp` stores
            ``meta['tensor_meta']``).
    """

    __slots__ = (
        "graph", "name", "op", "target",
        "_args", "_kwargs", "_input_nodes",
        "users", "meta", "type",
        "_prev", "_next", "_erased",
        "__weakref__",
    )

    def __init__(
        self,
        graph: "Graph",
        name: str,
        op: str,
        target: Target,
        args: tuple,
        kwargs: dict,
        type_expr: Optional[Any] = None,
    ):
        if op not in OPCODES:
            raise ValueError(f"unknown opcode {op!r}; must be one of {OPCODES}")
        if op in ("call_function",) and not callable(target):
            raise ValueError(f"call_function target must be callable, got {target!r}")
        if op in ("call_method", "call_module", "get_attr", "placeholder") and not isinstance(
            target, str
        ):
            raise ValueError(f"{op} target must be a string, got {target!r}")
        self.graph = graph
        self.name = name
        self.op = op
        self.target = target
        self._input_nodes: dict[Node, None] = {}
        self.users: dict[Node, None] = {}
        self.meta: dict[str, Any] = {}
        self.type = type_expr
        self._prev: Node = self
        self._next: Node = self
        self._erased = False
        self._args: tuple = ()
        self._kwargs: dict = {}
        self._update_args_kwargs(tuple(args), dict(kwargs))

    # -- linked-list plumbing ---------------------------------------------------

    @property
    def next(self) -> "Node":
        """The node after this one in topological order."""
        return self._next

    @property
    def prev(self) -> "Node":
        """The node before this one in topological order."""
        return self._prev

    def _remove_from_list(self) -> None:
        p, n = self._prev, self._next
        p._next, n._prev = n, p
        self._prev = self._next = self

    def append(self, x: "Node") -> None:
        """Move *x* to immediately after this node."""
        if x is self:
            return
        x._remove_from_list()
        p, n = self, self._next
        p._next, x._prev = x, p
        x._next, n._prev = n, x

    def prepend(self, x: "Node") -> None:
        """Move *x* to immediately before this node."""
        self._prev.append(x)

    # -- args / kwargs ------------------------------------------------------------

    @property
    def args(self) -> tuple:
        return self._args

    @args.setter
    def args(self, new_args: tuple) -> None:
        self._update_args_kwargs(tuple(new_args), self._kwargs)

    @property
    def kwargs(self) -> dict:
        return self._kwargs

    @kwargs.setter
    def kwargs(self, new_kwargs: dict) -> None:
        self._update_args_kwargs(self._args, dict(new_kwargs))

    def _update_args_kwargs(self, new_args: tuple, new_kwargs: dict) -> None:
        """Set args/kwargs and keep the def-use chains consistent."""
        for old_use in self._input_nodes:
            old_use.users.pop(self, None)
        self._args = new_args
        self._kwargs = new_kwargs
        self._input_nodes = {}
        _gather_nodes((new_args, new_kwargs), self._input_nodes)
        for new_use in self._input_nodes:
            new_use.users.setdefault(self)

    @property
    def all_input_nodes(self) -> list["Node"]:
        """Every Node this node reads from, in args-then-kwargs order."""
        return list(self._input_nodes)

    # -- graph surgery helpers -------------------------------------------------------

    def update_arg(self, idx: int, arg: Any) -> None:
        args = list(self._args)
        args[idx] = arg
        self.args = tuple(args)

    def update_kwarg(self, key: str, arg: Any) -> None:
        kwargs = dict(self._kwargs)
        kwargs[key] = arg
        self.kwargs = kwargs

    def replace_all_uses_with(
        self,
        replace_with: "Node",
        delete_user_cb: Callable[["Node"], bool] = lambda user: True,
    ) -> list["Node"]:
        """Rewrite every user of ``self`` to read ``replace_with`` instead.

        Args:
            replace_with: the replacement value.
            delete_user_cb: predicate selecting which users to rewrite
                (users for which it returns False keep reading ``self``).

        Returns:
            The users that were rewritten.
        """
        processed = []
        for user in list(self.users):
            if user is replace_with:
                continue
            if not delete_user_cb(user):
                continue
            processed.append(user)
            user._replace_input(self, replace_with)
        return processed

    def replace_input_with(self, old_input: "Node", new_input: "Node") -> None:
        """Swap one specific input of this node."""
        self._replace_input(old_input, new_input)

    def _replace_input(self, old: "Node", new: "Node") -> None:
        def maybe_replace(a):
            return new if a is old else a

        new_args = map_aggregate(self._args, maybe_replace)
        new_kwargs = map_aggregate(self._kwargs, maybe_replace)
        self._update_args_kwargs(new_args, new_kwargs)

    # -- introspection -----------------------------------------------------------------

    def is_impure(self) -> bool:
        """Whether this node must be preserved by dead-code elimination.

        placeholders and outputs are structurally required.  Beyond
        those, a node is impure when executing it has an observable
        effect besides producing its value: a ``call_method`` following
        the trailing-underscore in-place convention (``add_``, ``relu_``),
        a call routing its result into an ``out=`` destination,
        ``operator.setitem``/``setattr``, or a call whose op-table entry
        ``writes`` state (a training-mode batch norm updating its running
        statistics, a training dropout).  The classification itself lives in
        :func:`repro.fx.analysis.purity.classify_effect` — one source of
        truth shared with DCE, CSE, and the pass verifier.
        """
        # Local import: analysis is a layer above the core IR.
        from .analysis.purity import classify_effect

        return classify_effect(self).impure

    def format_node(self) -> str:
        """One-line description, matching the paper's Figure 1 style."""
        if self.op == "placeholder":
            return f"%{self.name} : [placeholder, target={self.target}]"
        return (
            f"%{self.name} = {self.op}[target={_format_target(self.target)}]"
            f"(args = {_format_args(self._args)}, kwargs = {_format_args(self._kwargs)})"
        )

    def __repr__(self) -> str:
        return self.name

    def _pretty_print_target(self) -> str:
        return _format_target(self.target)


def _format_target(target: Target) -> str:
    if isinstance(target, str):
        return target
    if isinstance(target, (types.FunctionType, types.BuiltinFunctionType)):
        mod = getattr(target, "__module__", None)
        name = getattr(target, "__qualname__", getattr(target, "__name__", repr(target)))
        if mod in (None, "builtins", "_operator", "operator"):
            return f"operator.{name}" if mod in ("_operator", "operator") else name
        return f"{mod}.{name}"
    return repr(target)


def _format_args(a: Any) -> str:
    if isinstance(a, tuple):
        return "(" + ", ".join(_format_args(x) for x in a) + ("," if len(a) == 1 else "") + ")"
    if isinstance(a, list):
        return "[" + ", ".join(_format_args(x) for x in a) + "]"
    if isinstance(a, dict):
        return "{" + ", ".join(f"{k}: {_format_args(v)}" for k, v in a.items()) + "}"
    if isinstance(a, Node):
        return f"%{a.name}"
    return repr(a)


#: Exact types :func:`map_aggregate` hands straight to *fn*; a subclass still
#: meets the ``isinstance`` tests (a ``Size`` is walked as the tuple it is).
_LEAVES = frozenset(BASE_ARGUMENT_TYPES + (Node,)) - {slice}


def _gather_nodes(a: Any, into: dict) -> None:
    """Add every Node in *a* to *into*, in :func:`map_arg`'s order, without
    building the copy ``map_arg`` returns."""
    if isinstance(a, Node):
        into[a] = None
    elif type(a) in _LEAVES:
        return
    elif isinstance(a, (tuple, list)):
        for x in a:
            _gather_nodes(x, into)
    elif isinstance(a, dict):
        _gather_nodes(tuple(a.values()), into)
    elif isinstance(a, slice):
        _gather_nodes((a.start, a.stop, a.step), into)


def map_arg(a: Any, fn: Callable[["Node"], Any]) -> Any:
    """Apply *fn* to every Node in an argument structure (returns mapped copy)."""
    return map_aggregate(a, lambda x: fn(x) if isinstance(x, Node) else x)


def map_aggregate(a: Any, fn: Callable[[Any], Any]) -> Any:
    """Apply *fn* to every leaf of a nested tuple/list/dict/slice structure."""
    if type(a) in _LEAVES:
        return fn(a)
    if isinstance(a, tuple):
        return tuple(map_aggregate(x, fn) for x in a)
    if isinstance(a, list):
        return [map_aggregate(x, fn) for x in a]
    if isinstance(a, dict):
        return {k: map_aggregate(v, fn) for k, v in a.items()}
    if isinstance(a, slice):
        return slice(
            map_aggregate(a.start, fn), map_aggregate(a.stop, fn), map_aggregate(a.step, fn)
        )
    return fn(a)
