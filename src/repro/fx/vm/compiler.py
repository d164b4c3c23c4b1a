"""``compile_to_vm`` — lower a :class:`~repro.fx.GraphModule` to a
:class:`~repro.fx.vm.VMProgram`.

Compilation is a single pass over the graph in topological order:

* ``placeholder`` nodes become input registers (defaults preserved;
  varargs placeholders are rejected — a flat program has a fixed arity);
* ``get_attr`` nodes are resolved against the module's state **now** and
  become constant registers — no attribute walking at run time;
* ``call_module`` targets are resolved to the submodule objects;
* ``call_function`` / ``call_method`` nodes become instructions whose
  argument templates carry :class:`~repro.fx.vm.Reg` markers in place of
  Node references;
* liveness (the same last-use computation codegen and ``Interpreter``
  use) becomes each instruction's ``frees`` list.

Programs are not memoized: hashing the weights a program binds costs
more than compiling it (ResNet-50 on a 2-CPU x86 host: 79 vs 2 ms).
"""

from __future__ import annotations

from typing import Any

from ..graph import _resolve_attr
from ..graph_module import GraphModule
from ..node import Node, map_arg
from .program import Instruction, Reg, VMProgram

__all__ = [
    "VMCompileError",
    "compile_to_vm",
]


class VMCompileError(RuntimeError):
    """The graph cannot be flattened into a VM program."""


def compile_to_vm(gm: GraphModule) -> VMProgram:
    """Compile *gm* into a flat :class:`VMProgram`.

    Args:
        gm: the module to flatten.  Never mutated; its state (buffers,
            parameters, submodules) is captured by reference, so in-place
            updates to that state are visible to the program — but
            *rebinding* an attribute is not (resolution happened here) —
            the generated forward re-binds (``GraphModule._fx_bind``).

    Returns:
        The compiled program; call ``program.run(*inputs)``.
    """
    if not isinstance(gm, GraphModule):
        raise TypeError(
            f"compile_to_vm expects a GraphModule, got {type(gm).__name__}")
    graph = gm.graph
    nodes = list(graph.nodes)

    # Last-use liveness — identical to the Interpreter's GC and codegen's
    # `x = None` discipline, so the VM's peak register liveness matches.
    node_to_last_use: dict[Node, Node] = {}
    for node in nodes:
        def register(n: Node) -> Node:
            node_to_last_use[n] = node
            return n
        map_arg(node.args, register)
        map_arg(node.kwargs, register)
    user_to_last_uses: dict[Node, list[Node]] = {}
    for used, user in node_to_last_use.items():
        user_to_last_uses.setdefault(user, []).append(used)

    reg_of: dict[Node, int] = {}
    consts: dict[int, Any] = {}
    inputs: list[tuple] = []
    instructions: list[Instruction] = []
    output_template: Any = None
    next_reg = 0

    def to_reg(n: Node) -> Reg:
        return Reg(reg_of[n])

    for node in nodes:
        if node.op == "placeholder":
            if isinstance(node.target, str) and node.target.startswith("*"):
                raise VMCompileError(
                    f"varargs placeholder {node.target!r}: a flat program "
                    f"has a fixed input arity")
            reg_of[node] = next_reg
            inputs.append((next_reg, node.target, bool(node.args),
                           node.args[0] if node.args else None))
            next_reg += 1
        elif node.op == "get_attr":
            reg_of[node] = next_reg
            consts[next_reg] = _resolve_attr(gm, node.target)
            next_reg += 1
        elif node.op == "output":
            output_template = map_arg(node.args[0], to_reg)
        elif node.op in ("call_function", "call_method", "call_module"):
            args_t = map_arg(node.args, to_reg)
            kwargs_t = map_arg(node.kwargs, to_reg)
            if node.op == "call_module":
                kind, target = "call", gm.get_submodule(node.target)
            elif node.op == "call_method":
                kind, target = "method", node.target
            else:
                kind, target = "call", node.target
            reg_of[node] = next_reg
            frees = tuple(sorted(reg_of[d]
                                 for d in user_to_last_uses.get(node, ())
                                 if d in reg_of))
            instructions.append(Instruction(
                kind=kind, target=target, args=args_t, kwargs=kwargs_t,
                out=next_reg, frees=frees, name=node.name))
            next_reg += 1
        else:
            raise VMCompileError(f"unknown opcode {node.op!r}")

    if output_template is None:
        raise VMCompileError("graph has no output node")
    return VMProgram(instructions, next_reg, inputs, output_template, consts,
                     name=getattr(gm, "_class_name", "VMProgram"))
