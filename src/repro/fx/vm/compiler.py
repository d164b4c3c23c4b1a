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

Memory-planned fused kernels (``node.meta["arena_slot"]``, stamped by
:func:`~repro.fx.passes.memory_planner.plan_memory`) keep their slot
assignment: the plan's arena specs are copied into a program-owned
:class:`~repro.fx.passes.memory_planner.Arena` and the instruction writes
through ``out=``.  The compiler re-validates every assignment against the
PR-3 tail-read rule (:func:`~repro.fx.analysis.mutation.fused_out_clobbers`
over alias-extended liveness) and silently *drops* any slot an unsound
planner produced — the instruction then allocates per call, which is slow
but always correct.

Programs are not memoized: hashing the weights a program binds costs
more than compiling it (ResNet-50 on a 2-CPU x86 host: 79 vs 2 ms).
"""

from __future__ import annotations

from typing import Any

from ..analysis.alias import alias
from ..analysis.mutation import fused_out_clobbers
from ..graph import _resolve_attr
from ..graph_module import GraphModule
from ..node import Node, map_arg
from ..passes.pointwise_fuser import FusedKernel
from .program import Instruction, Reg, VMProgram

__all__ = [
    "VMCompileError",
    "compile_to_vm",
]


class VMCompileError(RuntimeError):
    """The graph cannot be flattened into a VM program."""


def _validated_planned(gm: GraphModule) -> dict[Node, Any]:
    """Planned nodes whose arena-slot assignment survives re-validation.

    A slot assignment is kept only when, for every earlier same-slot
    occupant ``d``, the occupant's alias-extended lifetime has ended
    before this node runs — or ends *at* this node with the kernel's step
    schedule proving the result-buffer write cannot precede any remaining
    read of ``d`` (:func:`fused_out_clobbers`).  Escaping values are never
    kept: an arena buffer is reused across calls, so a value that outlives
    the call must own its storage.
    """
    graph = gm.graph
    planned = [n for n in graph.nodes
               if n.op == "call_function"
               and isinstance(n.target, FusedKernel)
               and n.meta.get("arena_slot") is not None]
    if not planned:
        return {}
    facts = alias(gm)
    order = {n: i for i, n in enumerate(graph.nodes)}

    def slot_key(n: Node):
        s = n.meta["arena_slot"]
        return (id(s.arena), s.index)

    keep: dict[Node, Any] = {}
    for n in planned:
        if n in facts.escapes:
            continue
        sound = True
        for d in planned:
            if d is n or slot_key(d) != slot_key(n) or order[d] >= order[n]:
                continue
            last = facts.extended_last[d]
            if last < order[n]:
                continue
            if last > order[n] or fused_out_clobbers(n, d, facts.may_alias):
                sound = False
                break
        if sound:
            keep[n] = n.meta["arena_slot"]
    return keep


def compile_to_vm(gm: GraphModule, *,
                  validate_plan: bool = True) -> VMProgram:
    """Compile *gm* into a flat :class:`VMProgram`.

    Args:
        gm: the module to flatten.  Never mutated; its state (buffers,
            parameters, submodules) is captured by reference, so in-place
            updates to that state are visible to the program — but
            *rebinding* an attribute is not (resolution happened here) —
            the generated forward re-binds (``GraphModule._fx_bind``).
        validate_plan: re-check every ``arena_slot`` assignment against
            the tail-read rule and drop unsound ones (see module docs).

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

    if validate_plan:
        planned = _validated_planned(gm)
    else:
        planned = {n: n.meta["arena_slot"] for n in nodes
                   if n.op == "call_function"
                   and isinstance(n.target, FusedKernel)
                   and n.meta.get("arena_slot") is not None}

    reg_of: dict[Node, int] = {}
    consts: dict[int, Any] = {}
    inputs: list[tuple] = []
    instructions: list[Instruction] = []
    slot_map: dict[tuple, int] = {}
    arena_specs: list[tuple] = []
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
            out_slot = None
            slot = planned.get(node)
            if slot is not None:
                okey = (id(slot.arena), slot.index)
                if okey not in slot_map:
                    slot_map[okey] = len(arena_specs)
                    arena_specs.append(tuple(slot.arena.specs[slot.index]))
                out_slot = slot_map[okey]
            reg_of[node] = next_reg
            frees = tuple(sorted(reg_of[d]
                                 for d in user_to_last_uses.get(node, ())
                                 if d in reg_of))
            instructions.append(Instruction(
                kind=kind, target=target, args=args_t, kwargs=kwargs_t,
                out=next_reg, frees=frees, out_slot=out_slot,
                name=node.name))
            next_reg += 1
        else:
            raise VMCompileError(f"unknown opcode {node.op!r}")

    if output_template is None:
        raise VMCompileError("graph has no output node")
    return VMProgram(instructions, next_reg, inputs, output_template, consts,
                     arena_specs, name=getattr(gm, "_class_name", "VMProgram"))
