"""A TorchScript-style rich IR (the Figure 5 baseline).

TorchScript's IR models far more than the fx IR: scalar constants are
nodes (``prim::Constant``), data structures are built by explicit nodes
(``prim::ListConstruct`` / ``prim::TupleConstruct``), module and parameter
accesses are ``prim::GetAttr`` chains, and structured control flow appears
as ``prim::If`` / ``prim::Loop`` nodes owning nested blocks.  Values are
typed SSA names (``%x.1 : Tensor``).

This module implements that IR shape so the two baseline front-ends
(:mod:`repro.jit.trace`, :mod:`repro.jit.script`) have something faithful
to target, and so §6.1's operation counts can be measured on comparable
ground.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

__all__ = ["TSValue", "TSNode", "TSBlock", "TSGraph"]


@dataclass
class TSValue:
    """An SSA value: unique name + type annotation string."""

    name: str
    type: str = "Tensor"
    producer: Optional["TSNode"] = None

    def __repr__(self) -> str:
        return f"%{self.name}"


class TSNode:
    """One IR operation, e.g. ``aten::conv2d`` or ``prim::If``.

    Attributes:
        kind: namespaced opcode string (``aten::*`` / ``prim::*``).
        inputs: operand values.
        outputs: produced values.
        attributes: compile-time attributes (constant values, attr names).
        blocks: nested blocks for control-flow nodes.
    """

    def __init__(self, kind: str, inputs: list[TSValue], outputs: list[TSValue],
                 attributes: dict[str, Any] | None = None):
        self.kind = kind
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.attributes = attributes or {}
        self.blocks: list[TSBlock] = []
        for out in self.outputs:
            out.producer = self

    def add_block(self) -> "TSBlock":
        block = TSBlock()
        self.blocks.append(block)
        return block

    def __repr__(self) -> str:
        outs = ", ".join(f"%{o.name} : {o.type}" for o in self.outputs)
        attrs = "".join(
            f"[{k}={v!r}]" for k, v in self.attributes.items()
        )
        ins = ", ".join(f"%{i.name}" for i in self.inputs)
        head = f"{outs} = " if outs else ""
        return f"{head}{self.kind}{attrs}({ins})"


class TSBlock:
    """A sequence of nodes with block inputs/outputs (used by If/Loop)."""

    def __init__(self) -> None:
        self.inputs: list[TSValue] = []
        self.nodes: list[TSNode] = []
        self.outputs: list[TSValue] = []

    def append(self, node: TSNode) -> TSNode:
        self.nodes.append(node)
        return node


class TSGraph:
    """A TorchScript-style graph: top-level block + value namespace."""

    def __init__(self) -> None:
        self.block = TSBlock()
        self.inputs: list[TSValue] = []
        self.outputs: list[TSValue] = []
        self._name_count: dict[str, int] = {}
        self._constant_cache: dict[tuple, TSValue] = {}

    # -- value helpers ----------------------------------------------------------

    def fresh_value(self, hint: str = "t", type_: str = "Tensor") -> TSValue:
        n = self._name_count.get(hint, 0)
        self._name_count[hint] = n + 1
        name = hint if n == 0 else f"{hint}.{n}"
        return TSValue(name, type_)

    def add_input(self, name: str, type_: str = "Tensor") -> TSValue:
        v = self.fresh_value(name, type_)
        self.inputs.append(v)
        return v

    # -- node creation ------------------------------------------------------------

    def create(self, kind: str, inputs: list[TSValue], n_outputs: int = 1,
               attributes: dict[str, Any] | None = None,
               output_type: str = "Tensor",
               block: TSBlock | None = None) -> TSNode:
        outs = [self.fresh_value(kind.split("::")[-1], output_type)
                for _ in range(n_outputs)]
        node = TSNode(kind, inputs, outs, attributes)
        (block if block is not None else self.block).append(node)
        return node

    def constant(self, value: Any, block: TSBlock | None = None) -> TSValue:
        """``prim::Constant`` — deduplicated by (type, value) like TS does."""
        type_ = _ts_type_of(value)
        key = (type_, repr(value))
        # Constants inside nested blocks are not hoisted/deduped across blocks.
        if block is None and key in self._constant_cache:
            return self._constant_cache[key]
        node = self.create("prim::Constant", [], 1, {"value": value},
                           output_type=type_, block=block)
        if block is None:
            self._constant_cache[key] = node.outputs[0]
        return node.outputs[0]

    def list_construct(self, elems: list[TSValue], elem_type: str = "int",
                       block: TSBlock | None = None) -> TSValue:
        node = self.create("prim::ListConstruct", elems, 1,
                           output_type=f"{elem_type}[]", block=block)
        return node.outputs[0]

    def tuple_construct(self, elems: list[TSValue],
                        block: TSBlock | None = None) -> TSValue:
        node = self.create("prim::TupleConstruct", elems, 1,
                           output_type="Tuple", block=block)
        return node.outputs[0]

    def get_attr(self, obj: TSValue, name: str, type_: str = "Tensor",
                 block: TSBlock | None = None) -> TSValue:
        node = self.create("prim::GetAttr", [obj], 1, {"name": name},
                           output_type=type_, block=block)
        return node.outputs[0]

    # -- traversal / printing -----------------------------------------------------------

    def all_nodes(self) -> Iterator[TSNode]:
        """All nodes, recursing into control-flow blocks."""

        def walk(block: TSBlock) -> Iterator[TSNode]:
            for node in block.nodes:
                yield node
                for b in node.blocks:
                    yield from walk(b)

        yield from walk(self.block)

    def num_ops(self) -> int:
        """Total operation count — the §6.1 / Figure 5 metric."""
        return sum(1 for _ in self.all_nodes())

    def __str__(self) -> str:
        lines = []
        args = ", ".join(f"%{v.name} : {v.type}" for v in self.inputs)
        lines.append(f"graph({args}):")

        def emit(block: TSBlock, indent: int) -> None:
            pad = "  " * indent
            for node in block.nodes:
                lines.append(f"{pad}{node!r}")
                for i, b in enumerate(node.blocks):
                    lines.append(f"{pad}  block{i}:")
                    emit(b, indent + 2)
        emit(self.block, 1)
        rets = ", ".join(f"%{v.name}" for v in self.outputs)
        lines.append(f"  return ({rets})")
        return "\n".join(lines)


def _ts_type_of(value: Any) -> str:
    if value is None:
        return "NoneType"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, int):
        return "int"
    if isinstance(value, float):
        return "float"
    if isinstance(value, str):
        return "str"
    return "Tensor"
