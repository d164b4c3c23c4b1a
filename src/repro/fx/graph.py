"""``Graph`` — the DAG container for fx IR, and Python code generation.

A Graph is a linear series of :class:`~repro.fx.node.Node` objects
(threaded on a doubly-linked list whose order *is* the topological order),
plus the machinery the paper describes in §4.3: regenerating valid Python
source from the IR so transformed programs stay inside the Python
ecosystem.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import keyword
import marshal
import operator
import re
import sys
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, TYPE_CHECKING

from ..nn.module import _EPOCH
from .node import Node, Target, map_arg, map_aggregate, BASE_ARGUMENT_TYPES

if TYPE_CHECKING:
    from .graph_module import GraphModule

__all__ = ["Graph", "PythonCode", "UnstableHashError"]


class UnstableHashError(ValueError):
    """Raised by :meth:`Graph.structural_hash` with ``require_stable=True``
    when the hash would have to fall back to ``id()`` for some object.

    An ``id()``-based token is only meaningful while that object is alive:
    once it is garbage-collected the id can be reused by a different
    object, so a persisted hash could alias two distinct graphs — and
    in-place mutation of the object never changes its id, so the hash
    would go stale silently.  Callers that persist hashes past the
    lifetime of the hashed objects (e.g. the PassManager transform cache)
    must therefore refuse to cache such graphs.
    """


class _NodeRef:
    """Pickle placeholder for a Node inside args/kwargs/meta: an index
    into the graph's topological node order (see ``Graph.__getstate__``)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (_NodeRef, (self.index,))


@dataclass
class PythonCode:
    """The result of code generation.

    Attributes:
        src: the text of a ``def forward(self, ...)`` function.
        globals: objects the source refers to by name (call_function
            targets, dtypes, …); must be in scope when ``src`` is exec'd.
    """

    src: str
    globals: dict[str, Any]


class _Namespace:
    """Allocates unique, legal Python identifiers.

    Associates names with objects so the same object asked for twice gets
    the same name (used for the globals table).
    """

    def __init__(self) -> None:
        self._used: set[str] = set()
        self._obj_names: dict[int, str] = {}
        self._base_count: dict[str, int] = {}

    ILLEGAL = re.compile(r"[^0-9a-zA-Z_]+")

    def create_name(self, candidate: str, obj: Any = None) -> str:
        if obj is not None and id(obj) in self._obj_names:
            return self._obj_names[id(obj)]
        candidate = self.ILLEGAL.sub("_", candidate) or "_unnamed"
        if candidate[0].isdigit():
            candidate = f"_{candidate}"
        while (
            candidate in self._used
            or keyword.iskeyword(candidate)
            or hasattr(builtins, candidate)
            or candidate in ("self",)
        ):
            n = self._base_count.get(candidate, 0) + 1
            self._base_count[candidate] = n
            new = f"{candidate}_{n}"
            if new not in self._used and not keyword.iskeyword(new):
                candidate = new
                break
        self._used.add(candidate)
        if obj is not None:
            self._obj_names[id(obj)] = candidate
        return candidate

    def associate(self, name: str, obj: Any) -> None:
        self._obj_names[id(obj)] = name
        self._used.add(name)


class _InsertPoint:
    def __init__(self, graph: "Graph", new_insert: Node):
        self.graph = graph
        self.new_insert = new_insert

    def __enter__(self):
        self.orig_insert = self.graph._insert_before
        self.graph._insert_before = self.new_insert
        return self

    def __exit__(self, *exc):
        self.graph._insert_before = self.orig_insert
        return False


class _NodeList:
    """Live view over a Graph's nodes.

    Iteration snapshots the successor pointer before yielding, so erasing
    the node currently being visited is safe.
    """

    def __init__(self, graph: "Graph", direction: str = "next"):
        self._graph = graph
        self._direction = direction

    def __len__(self) -> int:
        return self._graph._len

    def __iter__(self) -> Iterator[Node]:
        root = self._graph._root
        cur = getattr(root, f"_{self._direction}")
        while cur is not root:
            nxt = getattr(cur, f"_{self._direction}")
            if not cur._erased:
                yield cur
            cur = nxt

    def __reversed__(self) -> Iterator[Node]:
        return iter(_NodeList(self._graph, "prev"))


# Inline formatting for operator.* call_function targets, so generated code
# reads like the user wrote it ("add = x + y" instead of "operator.add(x, y)").
_MAGIC_FORMATS: dict[Callable, str] = {
    operator.add: "{} + {}",
    operator.sub: "{} - {}",
    operator.mul: "{} * {}",
    operator.truediv: "{} / {}",
    operator.floordiv: "{} // {}",
    operator.mod: "{} % {}",
    operator.pow: "{} ** {}",
    operator.matmul: "{} @ {}",
    operator.lt: "{} < {}",
    operator.le: "{} <= {}",
    operator.gt: "{} > {}",
    operator.ge: "{} >= {}",
    operator.eq: "{} == {}",
    operator.ne: "{} != {}",
    operator.and_: "{} & {}",
    operator.or_: "{} | {}",
    operator.xor: "{} ^ {}",
    operator.lshift: "{} << {}",
    operator.rshift: "{} >> {}",
    operator.neg: "-{}",
    operator.pos: "+{}",
    operator.invert: "~{}",
    operator.getitem: "{}[{}]",
}


class Graph:
    """A functional DAG of tensor operations.

    Create nodes with :meth:`create_node` or the per-opcode conveniences
    (:meth:`placeholder`, :meth:`call_function`, …).  Insertion position is
    controlled with :meth:`inserting_before` / :meth:`inserting_after`.
    Turn the graph back into Python with :meth:`python_code` (usually via
    :class:`~repro.fx.GraphModule`, which also holds the state).
    """

    def __init__(self) -> None:
        self._root: Node = Node.__new__(Node)  # sentinel; not a real node
        self._root._prev = self._root._next = self._root
        self._root._erased = False
        self._root.name = "__ROOT__"
        self._used_names = _Namespace()
        self._insert_before: Node = self._root  # append at end by default
        self._len = 0

    #: weak: see :attr:`owning_module`
    _owner: Optional[weakref.ref] = None

    @property
    def owning_module(self) -> Optional["GraphModule"]:
        """The :class:`~repro.fx.GraphModule` this graph belongs to, or
        ``None``.  Held weakly: module and graph would otherwise form a
        cycle, and a module dropped mid-compile (the copy a cache replay
        supersedes) would keep its weights — ~100 MB for ResNet-50 — until
        the cycle collector happens to run."""
        return self._owner() if self._owner is not None else None

    @owning_module.setter
    def owning_module(self, module: Optional["GraphModule"]) -> None:
        self._owner = weakref.ref(module) if module is not None else None

    def __getstate__(self):
        # Nodes are threaded on a doubly-linked list and reference each
        # other through args/kwargs/users, so letting pickle walk the
        # object graph recurses once per node — a few-hundred-node chain
        # blows the interpreter recursion limit.  Serialize flat instead:
        # one record per node in topological order, with Node references
        # inside args/kwargs/meta encoded as indices into that order.
        # (owning_module is dropped for the same reason as before: the
        # back-reference would create a reduce-argument cycle when
        # pickling a GraphModule; the graph property setter reattaches it.)
        nodes = list(self.nodes)
        index = {n: i for i, n in enumerate(nodes)}

        def encode(a):
            return map_aggregate(
                a, lambda x: _NodeRef(index[x])
                if isinstance(x, Node) and x in index else x)

        records = [
            (n.name, n.op, n.target, encode(n._args), encode(n._kwargs),
             n.type, encode(n.meta))
            for n in nodes
        ]
        extra = {
            k: v for k, v in self.__dict__.items()
            if k not in ("_root", "_insert_before", "_owner", "_len")
        }
        return {
            "flat_nodes": records,
            "insert_before": index.get(self._insert_before),
            "extra": extra,
        }

    def __setstate__(self, state):
        # One pass per node: built in place (it was checked when it was
        # made), its references decoded and its uses wired once.
        Graph.__init__(self)
        self.__dict__.update(state["extra"])
        records = state["flat_nodes"]
        nodes = [Node.__new__(Node) for _ in records]

        def decode(a):
            return map_aggregate(
                a, lambda x: nodes[x.index] if type(x) is _NodeRef else x)

        for node, (name, op, target, _, _, type_expr, _) in zip(nodes, records):
            node.graph, node.name, node.op, node.target = self, name, op, target
            node.type, node.users, node._input_nodes = type_expr, {}, {}
            node._erased, node._prev, node._next = False, node, node
            self._root.prepend(node)
        for node, (_, _, _, args, kwargs, _, meta) in zip(nodes, records):
            node._update_args_kwargs(decode(args), decode(kwargs))
            node.meta = decode(meta)
        self._len = len(nodes)
        insert = state["insert_before"]
        if insert is not None:
            self._insert_before = nodes[insert]

    # -- node access -----------------------------------------------------------

    @property
    def nodes(self) -> _NodeList:
        return _NodeList(self)

    def find_nodes(self, *, op: str, target: Any = None) -> list[Node]:
        """All nodes matching an opcode (and optionally a target)."""
        return [
            n for n in self.nodes
            if n.op == op and (target is None or n.target == target)
        ]

    @property
    def output_node(self) -> Node:
        for n in reversed(self.nodes):
            if n.op == "output":
                return n
        raise RuntimeError("graph has no output node")

    # -- construction -------------------------------------------------------------

    def create_node(
        self,
        op: str,
        target: Target,
        args: tuple | None = None,
        kwargs: dict | None = None,
        name: str | None = None,
        type_expr: Any | None = None,
    ) -> Node:
        """Create a Node and insert it at the current insert point."""
        args = args if args is not None else ()
        kwargs = kwargs if kwargs is not None else {}
        candidate = name if name is not None else self._target_to_name(op, target)
        unique = self._used_names.create_name(candidate)
        node = Node(self, unique, op, target, args, kwargs, type_expr)
        self._insert_before.prepend(node)
        self._len += 1
        return node

    def _target_to_name(self, op: str, target: Target) -> str:
        if op == "placeholder":
            return str(target).lstrip("*")
        if op == "output":
            return "output"
        if op in ("call_module", "get_attr"):
            return str(target).replace(".", "_")
        if op == "call_method":
            return str(target)
        # call_function
        name = getattr(target, "__name__", None) or "function"
        return name

    # convenience creators, one per opcode ------------------------------------------

    def placeholder(self, name: str, type_expr: Any | None = None,
                    default_value: Any = ...) -> Node:
        args = () if default_value is ... else (default_value,)
        return self.create_node("placeholder", name, args, {}, type_expr=type_expr)

    def get_attr(self, qualified_name: str, type_expr: Any | None = None) -> Node:
        return self.create_node("get_attr", qualified_name, (), {}, type_expr=type_expr)

    def call_function(self, the_function: Callable, args: tuple | None = None,
                      kwargs: dict | None = None, type_expr: Any | None = None) -> Node:
        return self.create_node("call_function", the_function, args, kwargs,
                                type_expr=type_expr)

    def call_method(self, method_name: str, args: tuple | None = None,
                    kwargs: dict | None = None, type_expr: Any | None = None) -> Node:
        return self.create_node("call_method", method_name, args, kwargs,
                                type_expr=type_expr)

    def call_module(self, module_name: str, args: tuple | None = None,
                    kwargs: dict | None = None, type_expr: Any | None = None) -> Node:
        return self.create_node("call_module", module_name, args, kwargs,
                                type_expr=type_expr)

    def output(self, result: Any, type_expr: Any | None = None) -> Node:
        return self.create_node("output", "output", (result,), {}, type_expr=type_expr)

    # -- insertion points --------------------------------------------------------------

    def inserting_before(self, node: Node | None = None) -> _InsertPoint:
        """Context manager: new nodes go immediately before *node*
        (or at the end of the graph if None)."""
        return _InsertPoint(self, node if node is not None else self._root)

    def inserting_after(self, node: Node | None = None) -> _InsertPoint:
        """Context manager: new nodes go immediately after *node*
        (or at the beginning of the graph if None)."""
        anchor = node._next if node is not None else self._root._next
        return _InsertPoint(self, anchor)

    # -- surgery --------------------------------------------------------------------------

    def erase_node(self, to_erase: Node) -> None:
        """Remove a node; it must have no remaining users."""
        if to_erase.users:
            raise RuntimeError(
                f"cannot erase node {to_erase.name!r}: it still has "
                f"{len(to_erase.users)} users ({list(to_erase.users)})"
            )
        if to_erase.graph is not self:
            raise RuntimeError(f"node {to_erase.name!r} does not belong to this graph")
        to_erase._remove_from_list()
        to_erase._erased = True
        self._len -= 1
        # Drop our uses of other nodes.
        to_erase.args = ()
        to_erase.kwargs = {}

    def node_copy(self, node: Node, arg_transform: Callable[[Node], Any] = lambda n: n) -> Node:
        """Copy a node from another graph into this one, rewriting its Node
        arguments with *arg_transform*."""
        args = map_arg(node.args, arg_transform)
        kwargs = map_arg(node.kwargs, arg_transform)
        result = self.create_node(node.op, node.target, args, kwargs, node.name, node.type)
        result.meta = dict(node.meta)
        return result

    def graph_copy(self, g: "Graph", val_map: dict[Node, Node]) -> Any:
        """Append a copy of all of *g*'s nodes (except its output) to this
        graph.  ``val_map`` is filled with old→new correspondences.

        Returns the mapped value of *g*'s output argument.
        """
        for node in g.nodes:
            if node in val_map:
                continue
            if node.op == "output":
                return map_arg(node.args[0], lambda n: val_map[n])
            val_map[node] = self.node_copy(node, lambda n: val_map[n])
        return None

    def eliminate_dead_code(
        self, is_impure_node: Optional[Callable[["Node"], bool]] = None
    ) -> bool:
        """Remove nodes with no users (except placeholders/outputs).

        The basic-block IR makes this a single reverse sweep — no fixpoint
        iteration needed (§5.5).  Returns True if anything was removed.

        Args:
            is_impure_node: predicate deciding which userless nodes must
                survive; defaults to :meth:`Node.is_impure`.  The DCE
                pass supplies a purity-analysis-backed predicate here so
                the classification is computed (and cached) once per
                graph instead of once per node.
        """
        if is_impure_node is None:
            is_impure_node = lambda n: n.is_impure()  # noqa: E731
        changed = False
        for node in reversed(self.nodes):
            if not is_impure_node(node) and len(node.users) == 0:
                self.erase_node(node)
                changed = True
        return changed

    def lint(self) -> None:
        """Check IR well-formedness.

        Verifies: unique names, valid opcodes, topological ordering of
        uses, def-use chain consistency in *both* directions (every
        ``n ∈ node.args`` has ``node ∈ n.users`` and every
        ``u ∈ node.users`` reads ``node``), that no erased node is
        reachable through args or users, and targets resolvable against
        the owning module (when one is attached).
        """
        seen_names: set[str] = set()
        seen_values: set[Node] = set()
        placeholders_done = False
        for node in self.nodes:
            if node.op not in (
                "placeholder", "call_method", "call_module", "call_function",
                "get_attr", "output",
            ):
                raise RuntimeError(f"node {node.name!r} has invalid opcode {node.op!r}")
            if node.name in seen_names:
                raise RuntimeError(f"duplicate node name {node.name!r}")
            seen_names.add(node.name)
            if node.op != "placeholder":
                placeholders_done = True
            elif placeholders_done:
                raise RuntimeError(
                    f"placeholder {node.name!r} appears after non-placeholder nodes"
                )

            def check(arg):
                if isinstance(arg, Node):
                    if arg._erased:
                        raise RuntimeError(
                            f"node {node.name!r} uses erased node {arg.name!r}"
                        )
                    if arg.graph is not self:
                        raise RuntimeError(
                            f"node {node.name!r} uses {arg.name!r} from a different graph"
                        )
                    if arg not in seen_values:
                        raise RuntimeError(
                            f"node {node.name!r} uses {arg.name!r} before it is defined"
                        )
                    if node not in arg.users:
                        raise RuntimeError(
                            f"def-use chain broken: {node.name!r} not in users of {arg.name!r}"
                        )
                return arg

            map_aggregate(node.args, check)
            map_aggregate(node.kwargs, check)
            seen_values.add(node)

        # Reverse direction of the def-use chain: every registered user must
        # be a live member of this graph that actually reads the node.
        for node in self.nodes:
            for user in node.users:
                if user._erased:
                    raise RuntimeError(
                        f"erased node {user.name!r} is still registered as a "
                        f"user of {node.name!r}"
                    )
                if user.graph is not self or user not in seen_values:
                    raise RuntimeError(
                        f"node {node.name!r} has user {user.name!r} that is "
                        "not part of this graph"
                    )
                if node not in user._input_nodes:
                    raise RuntimeError(
                        f"def-use chain broken: {node.name!r} lists "
                        f"{user.name!r} as a user, but {user.name!r} does not "
                        "read it"
                    )

        if self.owning_module is not None:
            root = self.owning_module
            for node in self.nodes:
                if node.op == "call_module":
                    root.get_submodule(node.target)
                elif node.op == "get_attr":
                    _resolve_attr(root, node.target)

    # -- structural hashing ----------------------------------------------------------------

    def structural_hash(self, include_attrs: bool = True,
                        require_stable: bool = False,
                        canonicalize_targets: bool = False,
                        include_meta: bool = False,
                        arrays: Optional[list] = None) -> str:
        """Canonical content hash of the graph (hex SHA-256 digest).

        Covers, in topological order: opcodes, call targets, the full
        args/kwargs topology (Node references are replaced by the
        producer's position in the graph, so the hash is **stable across
        node renames**), placeholder defaults and inline immediates, and —
        when ``include_attrs`` is True and an owning module is attached —
        the values of state the graph reads (``get_attr`` targets and the
        parameters, buffers, training flags and hyper-parameters of
        ``call_module`` submodules: ``MaxPool2d(2)`` and ``MaxPool2d(3)``
        hold the same tensors).  A tensor enters as
        ``shape:dtype:sha256(bytes)``; every digest the hash needs is
        asked for at once, and read on up to one thread per CPU: the key
        is the one a single thread computes.

        Two graphs with equal hashes generate equivalent ``forward``
        code and (with ``include_attrs=True``) compute the same function,
        which is what makes the hash usable as a transform/codegen cache
        key (see :class:`~repro.fx.passes.pass_manager.PassManager` and
        :class:`~repro.fx.GraphModule`).

        With ``require_stable=True`` the hash refuses to use ``id()``
        fallback tokens (see :class:`UnstableHashError`) and raises
        instead; use this whenever the hash will outlive the objects it
        covers, e.g. as a key in a cache that does not pin those objects
        alive.

        With ``canonicalize_targets=True``, ``placeholder`` / ``get_attr``
        / ``call_module`` target *names* are replaced by fixed tokens, so
        two graphs that compute the same function through differently
        named state — repeated ResNet blocks as ``layer1.0`` vs
        ``layer1.1`` with equal weights, partition submodules whose
        placeholder names inherit different producer names — hash equal.
        State identity then rests entirely on the fed parameter/buffer
        bytes, so this mode requires ``include_attrs=True`` and an owning
        module; it is meant for caching *self-contained* compiled
        artifacts (e.g. engines with baked-in weights), not generated
        code, which still reads attributes by name.

        With ``include_meta=True`` the shape facts a node carries —
        ``meta["tensor_meta"]`` — are fed too, and objects with a
        ``hash_token()`` method (a fused kernel's spec, a
        ``TensorMetadata``) enter by that content instead of by ``id()``,
        so a fused graph hashes stably.  Passes specialise on shape facts
        (rule preconditions, fusion), so the transform cache, whose
        key must cover everything a run of passes read, asks for this
        mode; generated source depends on neither shapes nor dtypes.

        Given a list as *arrays*, no byte is read: a tensor enters as its
        shape and dtype at its path (and as the position of its first
        entry, when an earlier path reads the same array), and its array
        is appended to *arrays* in the order fed; the parameters and
        buffers of the owning module that no node reads are fed after the
        nodes, at their paths.  That is the key of a
        cache that binds its entries to those arrays by position (see
        :func:`repro.fx.state.rebuild`); the hex value differs from every
        hash of the bytes.
        """
        if canonicalize_targets and (not include_attrs
                                     or self.owning_module is None):
            raise ValueError(
                "canonicalize_targets requires include_attrs=True and an "
                "owning module: without the state bytes in the hash, "
                "differently-named attributes are not interchangeable")
        # What is fed, in order; a tensor is ``(head, array)`` until the end.
        parts: list = []
        index: dict[Node, int] = {}

        def token_for(obj: Any) -> str:
            token = _hash_token_for_object(obj, content=include_meta)
            if require_stable and token.startswith("obj:"):
                raise UnstableHashError(
                    f"structural_hash would fall back to id() for "
                    f"{type(obj).__name__} {obj!r}; the result would not be "
                    f"stable across garbage collection or in-place mutation"
                )
            return token

        def feed(token: str) -> None:
            parts.append(token.encode("utf-8", "backslashreplace") + b"\x00")

        def feed_arg(a: Any) -> None:
            if isinstance(a, Node):
                # Position, not name: renames must not change the hash.
                feed(f"%{index.get(a, -1)}")
            elif isinstance(a, tuple):
                feed(f"tuple:{len(a)}")
                for x in a:
                    feed_arg(x)
            elif isinstance(a, list):
                feed(f"list:{len(a)}")
                for x in a:
                    feed_arg(x)
            elif isinstance(a, dict):
                feed(f"dict:{len(a)}")
                for k, v in a.items():
                    feed_arg(k)
                    feed_arg(v)
            elif isinstance(a, slice):
                feed("slice")
                feed_arg(a.start)
                feed_arg(a.stop)
                feed_arg(a.step)
            elif isinstance(a, BASE_ARGUMENT_TYPES):
                feed(f"{type(a).__name__}:{a!r}")
            else:
                feed(token_for(a))

        # Local imports: the tensor package and the state module sit above
        # the core IR in the import order.
        from ..tensor import Tensor
        from .state import digests

        first: dict[int, int] = {}   # id(array) -> its position in *arrays*

        def feed_value(v: Any) -> None:
            if isinstance(v, Tensor) and arrays is not None:
                at = first.setdefault(id(v.data), len(arrays))
                arrays.append(v.data)
                feed(f"tensor:{tuple(v.shape)}:{v.dtype}:{v.data.dtype.str}@{at}")
            elif isinstance(v, Tensor):
                # The bytes enter as their own digest, read with the rest.
                parts.append((f"tensor:{tuple(v.shape)}:{v.dtype}:", v.data))
            elif isinstance(v, BASE_ARGUMENT_TYPES):
                feed(f"{type(v).__name__}:{v!r}")
            else:
                feed(token_for(v))

        def feed_module_state(mod: Any) -> None:
            for path, sub in mod.named_modules():
                feed(f"module:{path}:{type(sub).__name__}")
                nested = vars(sub).get("_graph")
                if isinstance(nested, Graph):   # a GraphModule's code
                    feed(nested.structural_hash(
                        False, require_stable, False, include_meta))
                # The training flag and the hyper-parameters (``forward``
                # is a GraphModule's generated method, covered just above).
                plain = [(name, value) for name, value in vars(sub).items()
                         if name[0] != "_" and name != "forward"]
                try:   # numbers, strings, tuples of them: one C call (in
                    # format version 0 the bytes depend on values alone)
                    parts.append(marshal.dumps(plain, 0))
                except ValueError:
                    for name, value in plain:
                        feed(f"hp:{name}")
                        feed_arg(value)
            for name, p in mod.named_parameters():
                feed(f"param:{name}")
                feed_value(p)
            for name, b in mod.named_buffers():
                feed(f"buffer:{name}")
                feed_value(b)

        if arrays is not None:
            feed("tensors=structure")
        root = self.owning_module if include_attrs else None
        if root is not None:
            feed(f"training={root.training}")   # conv-bn folding asks
        for i, node in enumerate(self.nodes):
            index[node] = i
            feed(node.op)
            if canonicalize_targets and isinstance(node.target, str) \
                    and node.op in ("placeholder", "get_attr", "call_module"):
                # The name is addressing, not semantics: placeholders are
                # positional, and attribute reads are identified by the
                # state bytes fed below.  call_method/call_function
                # targets still feed normally — there the target IS the op.
                feed(f"canon:{node.op}")
            else:
                feed(token_for(node.target)
                     if not isinstance(node.target, str) else f"s:{node.target}")
            feed_arg(node.args)
            feed_arg(node.kwargs)
            if include_meta and "tensor_meta" in node.meta:
                feed("meta:tensor_meta")
                feed_arg(node.meta["tensor_meta"])
            if root is not None and node.op in ("get_attr", "call_module"):
                try:
                    value = _resolve_attr(root, node.target)
                except AttributeError:
                    # Keep the name in the token: with canonicalized
                    # targets there are no state bytes to distinguish two
                    # unresolvable reads, so the name must.
                    feed(f"unresolvable:{node.target}")
                    continue
                from ..nn import Module

                if isinstance(value, Module):
                    feed_module_state(value)
                else:
                    feed_value(value)
        if arrays is not None and root is not None:
            # State no node reads is in the module all the same: a cache
            # binding arrays by position must know its paths and shapes.
            for path, tensor in root.state_dict().items():
                if id(tensor.data) not in first:
                    feed(f"unread:{path}")
                    feed_value(tensor)
        shas = iter(digests([p[1] for p in parts if type(p) is tuple]))
        return hashlib.sha256(b"".join(
            f"{p[0]}{next(shas)}\x00".encode() if type(p) is tuple else p
            for p in parts)).hexdigest()

    # -- printing --------------------------------------------------------------------------

    def print_tabular(self) -> str:
        """Plain-text table of the graph (returned and printed)."""
        rows = [("opcode", "name", "target", "args", "kwargs")]
        for n in self.nodes:
            rows.append((n.op, n.name, str(n._pretty_print_target()),
                         str(n.args), str(n.kwargs)))
        widths = [max(len(r[i]) for r in rows) for i in range(5)]
        lines = []
        for i, r in enumerate(rows):
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        out = "\n".join(lines)
        print(out)
        return out

    def __str__(self) -> str:
        body = "\n".join(f"    {n.format_node()}" for n in self.nodes)
        placeholders = ", ".join(f"%{n.name}" for n in self.nodes if n.op == "placeholder")
        return f"graph({placeholders}):\n{body}"

    def __len__(self) -> int:
        return self._len

    # -- code generation ------------------------------------------------------------------------

    def python_code(self, root_module: str = "self") -> PythonCode:
        """Generate Python source for this graph (§4.3).

        The generated function takes the placeholders as arguments, calls
        targets in graph order, frees intermediates as soon as they are
        dead (``x = None``), and returns the output node's argument — the
        exact style shown in the paper's Figure 1.  The ``get_attr`` and
        ``call_module`` targets are read from *root_module* by a one-line
        prologue (see :meth:`GraphModule._fx_bind`).
        """
        free_vars: list[str] = []
        body: list[str] = []
        globals_: dict[str, Any] = {}
        globals_ns = _Namespace()

        def add_global(name_hint: str, obj: Any) -> str:
            name = globals_ns.create_name(name_hint, obj)
            globals_[name] = obj
            return name

        # last-use bookkeeping for "; x = None"
        node_to_last_use: dict[Node, Node] = {}
        user_to_last_uses: dict[Node, list[Node]] = {}
        for node in self.nodes:
            def register_use(n: Node):
                node_to_last_use[n] = node
                return n
            map_arg(node.args, register_use)
            map_arg(node.kwargs, register_use)
        for used, user in node_to_last_use.items():
            if used.op != "get_attr":   # bound by the prologue: never freed
                user_to_last_uses.setdefault(user, []).append(used)

        def delete_unused(node: Node) -> str:
            if node.op == "output":
                return ""
            dead = [n.name for n in user_to_last_uses.get(node, [])]
            if not dead:
                return ""
            return f";  {' = '.join(dead)} = None"

        def arg_repr(a: Any) -> str:
            if isinstance(a, Node):
                return a.name
            if isinstance(a, tuple):
                inner = ", ".join(arg_repr(x) for x in a)
                return f"({inner},)" if len(a) == 1 else f"({inner})"
            if isinstance(a, list):
                return "[" + ", ".join(arg_repr(x) for x in a) + "]"
            if isinstance(a, dict):
                return "{" + ", ".join(f"{arg_repr(k)}: {arg_repr(v)}" for k, v in a.items()) + "}"
            if isinstance(a, slice):
                return f"slice({arg_repr(a.start)}, {arg_repr(a.stop)}, {arg_repr(a.step)})"
            if isinstance(a, float):
                # repr(inf) is not valid source; route through a global
                if a != a or a in (float("inf"), float("-inf")):
                    return add_global("_float_const", a)
                return repr(a)
            if isinstance(a, BASE_ARGUMENT_TYPES):
                return repr(a)
            if callable(a) or not isinstance(a, BASE_ARGUMENT_TYPES):
                hint = getattr(a, "__name__", type(a).__name__)
                return add_global(str(hint), a)
            return repr(a)

        # State is bound once per module, not walked per call: the prologue
        # unpacks what GraphModule._fx_bind resolved and re-binds when the
        # epoch of repro.nn.module has moved (kernels read ``.data`` late).
        for node in self.nodes:
            globals_ns.associate(node.name, node)
        callee = {t: globals_ns.create_name(f"self_{t}") for t in dict.fromkeys(
            n.target for n in self.nodes if n.op == "call_module")}
        bound = {n.name: n.target for n in self.nodes if n.op == "get_attr"}
        bound.update((local, target) for target, local in callee.items())
        if bound:
            epoch = add_global("_fx_epoch", _EPOCH)
            state = globals_ns.create_name("_fx_state")
            body.append(
                f"{', '.join(bound)}, = {state}[1] if ({state} := "
                f"{root_module}._fx_bound)[0] == {epoch}[0] else "
                f"{root_module}._fx_bind({tuple(bound.values())!r})\n")

        def call_args(node: Node, skip_first: bool = False) -> str:
            args = node.args[1:] if skip_first else node.args
            parts = [arg_repr(a) for a in args]
            parts += [f"{k} = {arg_repr(v)}" for k, v in node.kwargs.items()]
            return ", ".join(parts)

        for node in self.nodes:
            if node.op == "get_attr":   # bound by the prologue
                continue
            if node.op == "placeholder":
                assert isinstance(node.target, str)
                if node.target.startswith("*"):
                    free_vars.append(node.target)
                else:
                    default = f" = {arg_repr(node.args[0])}" if node.args else ""
                    free_vars.append(f"{node.target}{default}")
                if node.name != node.target.lstrip("*"):
                    body.append(f"{node.name} = {node.target.lstrip('*')}\n")
                continue
            if node.op == "call_module":
                body.append(
                    f"{node.name} = {callee[node.target]}"
                    f"({call_args(node)}){delete_unused(node)}\n"
                )
                continue
            if node.op == "call_method":
                self_arg, *_ = node.args
                body.append(
                    f"{node.name} = {arg_repr(self_arg)}.{node.target}"
                    f"({call_args(node, skip_first=True)}){delete_unused(node)}\n"
                )
                continue
            if node.op == "call_function":
                fmt = _MAGIC_FORMATS.get(node.target)
                if fmt is not None and not node.kwargs:
                    rendered = fmt.format(*[arg_repr(a) for a in node.args])
                    body.append(f"{node.name} = {rendered}{delete_unused(node)}\n")
                    continue
                if node.target is getattr and len(node.args) == 2 and isinstance(
                    node.args[1], str
                ) and node.args[1].isidentifier() and not node.kwargs:
                    body.append(
                        f"{node.name} = {arg_repr(node.args[0])}.{node.args[1]}"
                        f"{delete_unused(node)}\n"
                    )
                    continue
                fname = add_global(_global_name_for(node.target), node.target)
                body.append(f"{node.name} = {fname}({call_args(node)}){delete_unused(node)}\n")
                continue
            if node.op == "output":
                body.append(f"return {arg_repr(node.args[0])}\n")
                continue
            raise RuntimeError(f"unhandled opcode {node.op!r}")

        if not body:
            body.append("pass\n")
        code = "".join("    " + line for line in body)
        src = f"def forward({', '.join(['self'] + free_vars)}):\n{code}"
        return PythonCode(src, globals_)


def _hash_token_for_object(obj: Any, content: bool = False) -> str:
    """Stable identity token for a callable/opaque object in a hash.

    Named functions and classes that can be re-resolved from their module
    to the *same* object get a portable ``mod.qualname`` token (so two
    traces of the same program hash equal); with *content*, an object
    with a ``hash_token()`` method gets what that returns, under its
    type's name.  Everything else — closures,
    lambdas, bound methods, arbitrary instances — falls back to ``id()``,
    which is unique only among *live* objects: after the object is
    garbage-collected its id can be reused, and in-place mutation never
    changes it.  Hashes containing an ``obj:`` token are therefore only
    valid while the hashed objects are pinned alive (the codegen cache
    does this via its stored globals); persistent caches that cannot pin
    should pass ``require_stable=True`` to :meth:`Graph.structural_hash`
    and skip caching when it raises.
    """
    if content and hasattr(type(obj), "hash_token"):
        return f"c:{type(obj).__qualname__}:{obj.hash_token()}"
    name = getattr(obj, "__qualname__", None) or getattr(obj, "__name__", None)
    mod = getattr(obj, "__module__", None)
    if name and mod and "<locals>" not in name:
        resolved: Any = sys.modules.get(mod)
        for atom in name.split("."):
            resolved = getattr(resolved, atom, None)
            if resolved is None:
                break
        if resolved is obj:
            return f"f:{mod}.{name}"
    return f"obj:{type(obj).__name__}:{id(obj)}"


def _global_name_for(fn: Callable) -> str:
    mod = getattr(fn, "__module__", "") or ""
    name = getattr(fn, "__name__", "function")
    mod_tail = mod.rsplit(".", 1)[-1] if mod else ""
    if mod_tail and mod_tail not in ("builtins",):
        return f"{mod_tail}_{name}"
    return name


def _resolve_attr(root, target: str):
    """``root.<target>``: what generated code binds and every other
    executor reads for a ``get_attr`` / ``call_module`` target."""
    return functools.reduce(getattr, target.split("."), root)
