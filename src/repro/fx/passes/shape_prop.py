"""Shape propagation (§6.3): record tensor metadata on every node.

Because the IR is a basic-block program, shape analysis is a single
forward sweep with a transfer function per op — no lattice, join, or
fixpoint reasoning required (§5.5).  ``ShapeProp`` is that sweep
(:func:`repro.fx.opinfo.sweep`) over plain ints: it reads the shape and
dtype of its example inputs and stamps ``node.meta['tensor_meta']`` with
what the op table infers, running no kernel and writing no module state.

Only a node whose target has no entry is *executed* — on its real
operands, computed on demand by running its ancestor cone from the
example inputs.  Real operands, not stand-ins, because the result shape
of a node the table knows nothing about may depend on values (a boolean
mask index).  Every such node is named in :attr:`ShapeProp.fallbacks`.
"""

from __future__ import annotations

from copy import deepcopy
from dataclasses import dataclass
from typing import Any

from ...tensor import DType, Size, Tensor
from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node

__all__ = ["TensorMetadata", "ShapeProp", "carried_meta", "extract_tensor_metadata",
           "infer_meta"]


@dataclass(frozen=True)
class TensorMetadata(opinfo.T):
    """Shape/dtype facts about one tensor value — the sweep's abstract
    tensor in the domain of plain ints.

    Attributes:
        shape: the :class:`~repro.tensor.Size`.
        dtype: element type.
        numel: element count (denormalized for convenience in cost models).
        nbytes: storage footprint in bytes.
    """

    shape: Size
    dtype: DType
    numel: int
    nbytes: int

    def hash_token(self) -> str:
        """What ``Graph.structural_hash(include_meta=True)`` feeds."""
        return f"{tuple(self.shape)}:{self.dtype}"


def extract_tensor_metadata(t: Tensor) -> TensorMetadata:
    return TensorMetadata(shape=t.shape, dtype=t.dtype, numel=t.numel(), nbytes=t.nbytes())


class _Ints(opinfo.Domain):
    """Plain ints; a tensor is its :class:`TensorMetadata`.  An untyped
    node is ``OPAQUE`` unless ``missing`` is replaced (``ShapeProp``
    executes it)."""

    def tensor(self, shape, dtype) -> TensorMetadata:
        shape = Size(shape)
        numel = shape.numel()
        return TensorMetadata(shape, dtype, numel, numel * dtype.itemsize)

    def missing(self, node: Node, why: str) -> Any:
        return opinfo.OPAQUE


def carried_meta(node: Node) -> Any:
    """The sweep value *node* already carries: its ``tensor_meta``, or
    ``OPAQUE`` when it was never propagated (or holds no tensor)."""
    return node.meta.get("tensor_meta", opinfo.OPAQUE)


def _stamp(node: Node, value: Any, real: Any = opinfo.OPAQUE) -> None:
    """Record *value* on *node*; *real* is what executing it returned, when
    it had to be executed."""
    if opinfo.has_tensor(value):
        node.meta["tensor_meta"] = value
    else:
        node.meta.pop("tensor_meta", None)
    node.meta["type"] = Tensor if isinstance(value, TensorMetadata) \
        else type(value if real is opinfo.OPAQUE else real)


def infer_meta(gm: GraphModule, nodes) -> None:
    """Stamp each of *nodes* (in topological order) from the ``tensor_meta``
    its operands already carry — what a rewrite does for the nodes it
    creates.  No kernel runs; a node with an operand that was never
    propagated, or a target without an entry, is left unstamped."""
    env: dict[Node, Any] = {}   # values that are no tensor (a folded scalar) too
    dom = _Ints()
    for node in nodes:
        env[node] = value = opinfo.infer(
            gm, node, lambda n: env[n] if n in env else carried_meta(n), dom)
        if opinfo.has_tensor(value):
            _stamp(node, value)


class ShapeProp:
    """Infer per-node metadata from the shapes and dtypes of example inputs.

    After ``ShapeProp(gm).propagate(*inputs)``, every node carries:

    * ``meta['tensor_meta']`` — :class:`TensorMetadata` (or a nested
      structure of them for tuple-valued nodes);
    * ``meta['type']`` — the Python type of the node's value.

    Attributes:
        fallbacks: ``(node name, target name, reason)`` of every node the
            last :meth:`propagate` had to execute.
    """

    def __init__(self, module: GraphModule):
        self.module = module
        self.fallbacks: list[tuple[str, str, str]] = []

    def propagate(self, *args) -> Any:
        """Sweep the graph for inputs shaped like *args*; returns the
        output's metadata (the structure the output node returns, a
        :class:`TensorMetadata` for each tensor in it)."""
        self.fallbacks, self._args, self._real = [], args, None
        self._dom = dom = _Ints()
        dom.missing = self._execute
        env, out = opinfo.sweep(self.module, [dom.lift(a) for a in args], dom)
        real = self._real or {}
        for node, value in env.items():
            _stamp(node, value, real.get(node, opinfo.OPAQUE))
        return out

    # -- the fallback: execute one node, and only what it needs ---------------------

    def _execute(self, node: Node, why: str) -> Any:
        if node.graph is not self.module.graph:
            raise opinfo.NoRule(why)    # inside a nested GraphModule: run the call
        if self._real is None:          # first fallback: the example inputs, for real
            from ..interpreter import Interpreter
            holders = [n for n in self.module.graph.nodes if n.op == "placeholder"]
            self._real = {n: self._args[i] if i < len(self._args) else n.args[0]
                          for i, n in enumerate(holders)}
            self._runner = Interpreter(self.module, garbage_collect_values=False)
            self._runner.env = self._real
            self._private: dict[str, Any] = {}
        stack = [node]
        while stack:                    # the ancestor cone, memoised, no recursion
            n = stack[-1]
            pending = [i for i in n.all_input_nodes if i not in self._real]
            stack.extend(pending)
            if not pending and stack.pop() not in self._real:
                self._real[n] = self._run(n)
        target = self._private.get(node.target) if node.op == "call_module" else None
        self.fallbacks.append((node.name, opinfo.target_name(node, target), why))
        return self._dom.lift(self._real[node])

    def _run(self, n: Node) -> Any:
        args, kwargs = self._runner.fetch_args_kwargs_from_env(n)
        if n.op != "call_module":
            return getattr(self._runner, n.op)(n.target, args, kwargs)
        mod = self._private.get(n.target)
        if mod is None:
            mod = self.module.get_submodule(n.target)
            # a module that writes state (a training BatchNorm), or that nothing
            # is known about, runs on a private, writeable copy: no fallback
            # writes what the caller can see, nor fails on a read-only view
            if n.is_impure() or opinfo.INDEX.find(n, mod) is None:
                mod = deepcopy(mod)
            self._private[n.target] = mod
        return mod(*args, **kwargs)
