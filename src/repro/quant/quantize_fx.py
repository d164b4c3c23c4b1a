"""FX graph-mode post-training quantization (§6.2.1).

The three phases of the paper, as fx graph passes:

1. :func:`prepare_fx` — instrument: insert observer ``call_module`` nodes
   after every value flowing into or out of a quantizable op;
2. calibration — the caller runs representative batches through the
   prepared module (observers record statistics; the model's numerics are
   unchanged);
3. :func:`convert_fx` — rewrite: down-cast weights, swap float modules
   for quantized ones, and insert ``Quantize``/``DeQuantize`` boundary
   nodes where values cross between the float and quantized domains.

This "simultaneously modify the program code and weight values" ability is
exactly what GraphModule exists to provide (§4.2): the pass edits the
Graph and the module hierarchy in one object.

Supported quantized ops: ``nn.Linear`` (compute) and ``nn.ReLU`` /
``repro.functional.relu`` / ``Tensor.relu`` (free passthrough in the
quantized domain).  Unsupported ops simply stay in the float domain with
automatic dequantize/quantize boundaries around them — the same graceful
degradation real FX graph-mode quantization exhibits.
"""

from __future__ import annotations

from typing import Any, Callable

from ..fx import GraphModule, Node, symbolic_trace
from ..fx.opinfo import key_of
from ..fx.passes.fuser import _one_arg_call
from ..nn import Conv2d, Linear, Module
from .kernels import qrelu
from .observer import ObserverBase
from .qconfig import QConfig, default_qconfig
from .qmodules import (
    DeQuantize,
    Quantize,
    QuantizedConv2d,
    QuantizedLinear,
    QuantizedLinearReLU,
    QuantizedReLU,
)

__all__ = ["prepare_fx", "convert_fx", "quantize_static"]

_OBSERVER_PREFIX = "activation_post_process_"


def _is_observer(mod: Module | None) -> bool:
    return isinstance(mod, ObserverBase)


def _is_quantizable_compute(node: Node, modules: dict[str, Module]) -> bool:
    if node.op != "call_module":
        return False
    mod = modules.get(node.target)
    if isinstance(mod, Linear):
        return True
    if isinstance(mod, Conv2d):
        dil = mod.dilation if isinstance(mod.dilation, tuple) else (mod.dilation,) * 2
        return mod.groups == 1 and all(d == 1 for d in dil)
    return False


def _is_relu(node: Node, modules: dict[str, Module]) -> bool:
    # every spelling of relu the tracer can produce is declared in the op table
    return key_of(node, modules) == "relu"


def _insert_anchor(graph, value: Node) -> Node:
    """Insertion point for a node that consumes *value*.

    Inserting directly after a placeholder would land the new node inside
    the placeholder block (placeholders must stay contiguous at the top of
    the graph, which ``Graph.lint`` enforces); anchor at the last
    placeholder instead.  Surfaced by the differential fuzzer on
    multi-input graphs where a non-last placeholder feeds a quantizable op.
    """
    if value.op != "placeholder":
        return value
    anchor = value
    for node in graph.nodes:
        if node.op != "placeholder":
            break
        anchor = node
    return anchor


def prepare_fx(
    model: Module | GraphModule,
    qconfig: QConfig = default_qconfig,
) -> GraphModule:
    """Phase 1: insert observers around every quantizable op.

    Args:
        model: a float model (traced if it is not already a GraphModule).
        qconfig: observer factories.

    Returns:
        The instrumented GraphModule; run calibration batches through it,
        then pass it to :func:`convert_fx`.
    """
    gm = model if isinstance(model, GraphModule) else symbolic_trace(model)
    modules = dict(gm.named_modules())
    graph = gm.graph
    counter = 0
    observed: dict[Node, Node] = {}  # value node -> its observer call node

    def ensure_observer(value: Node) -> None:
        nonlocal counter
        if value in observed:
            return
        # reuse an existing observer user if one is already attached
        for user in value.users:
            if user.op == "call_module" and _is_observer(modules.get(user.target)):
                observed[value] = user
                return
        obs = qconfig.activation()
        name = f"{_OBSERVER_PREFIX}{counter}"
        counter += 1
        gm.add_submodule(name, obs)
        modules[name] = obs
        with graph.inserting_after(_insert_anchor(graph, value)):
            obs_node = graph.call_module(name, (value,))
        value.replace_all_uses_with(obs_node, delete_user_cb=lambda u: u is not obs_node)
        observed[value] = obs_node

    for node in list(graph.nodes):
        if not _is_quantizable_compute(node, modules):
            continue
        for inp in node.all_input_nodes:
            if inp.op != "get_attr":
                ensure_observer(inp)
        ensure_observer(node)

    graph.lint()
    gm.recompile()
    return gm


def convert_fx(gm: GraphModule, mode: str = "fast") -> GraphModule:
    """Phase 3: rewrite the observed graph into quantized form.

    Args:
        gm: a prepared GraphModule that has been calibrated.
        mode: kernel execution mode for quantized linears
            (``"fast"`` float-simulated / ``"reference"`` exact int8).

    Returns:
        The same GraphModule, rewritten in place (also returned for
        chaining): Linear modules replaced with
        :class:`~repro.quant.qmodules.QuantizedLinear`, ReLUs in the
        quantized domain made quantized, observers removed, and
        Quantize/DeQuantize boundaries inserted.
    """
    modules = dict(gm.named_modules())
    graph = gm.graph

    # -- collect qparams and strip observer nodes --------------------------------
    qparams: dict[Node, tuple[float, int]] = {}  # value node -> (scale, zp)
    for node in list(graph.nodes):
        if node.op != "call_module" or not _is_observer(modules.get(node.target)):
            continue
        obs = modules[node.target]
        value = node.args[0]
        qparams[value] = obs.calculate_qparams()
        node.replace_all_uses_with(value)
        graph.erase_node(node)
        gm.delete_submodule(node.target)
    # Values that were re-routed through observers keep their identity: an
    # erased observer's users now read the original node, whose qparams we
    # recorded above.

    # -- swap quantizable modules and mark the quantized domain -------------------
    qdomain: set[Node] = set()
    weight_qconfig_observer: Callable[[], ObserverBase] = default_qconfig.weight
    for node in list(graph.nodes):
        if _is_quantizable_compute(node, modules):
            act_in = node.args[0]
            if act_in not in qparams or node not in qparams:
                continue  # not observed (e.g. qconfig excluded it): stays float
            out_scale, out_zp = qparams[node]
            float_mod = modules[node.target]
            if isinstance(float_mod, Linear):
                qmod: Module = QuantizedLinear.from_float(
                    float_mod, weight_qconfig_observer(), out_scale, out_zp, mode=mode
                )
            else:
                qmod = QuantizedConv2d.from_float(
                    float_mod, out_scale, out_zp, mode=mode
                )
            _swap_module(gm, node.target, qmod)
            modules[node.target] = qmod
            qdomain.add(node)
        elif _is_relu(node, modules) and node.args and isinstance(node.args[0], Node) \
                and node.args[0] in qdomain:
            if node.op == "call_module":
                _swap_module(gm, node.target, QuantizedReLU())
                modules[node.target] = QuantizedReLU()
            else:
                # functional / method relu -> quantized kernel call
                args = (node.args[0],)
                node_target_swap(graph, node, qrelu, args)
            qparams.setdefault(node, qparams.get(node.args[0], (1.0, 0)))
            qdomain.add(node)

    # -- fuse Linear+ReLU pairs in the quantized domain ---------------------------
    # A QuantizedReLU whose one input is a QuantizedLinear feeding only it.
    # QuantizedLinearReLU subclasses QuantizedLinear; an already-fused linear
    # makes a trailing ReLU redundant, but it is not this loop's to remove.
    for node in list(graph.nodes):
        lin_node = node.args[0] if _one_arg_call(node) else None
        if not _one_arg_call(lin_node) or len(lin_node.users) != 1:
            continue
        lin = modules.get(lin_node.target)
        if not isinstance(modules.get(node.target), QuantizedReLU) \
                or not isinstance(lin, QuantizedLinear) \
                or isinstance(lin, QuantizedLinearReLU):
            continue
        # QuantizedLinearReLU.forward is qrelu(QuantizedLinear.forward): exact
        fused = modules[lin_node.target] = QuantizedLinearReLU.from_quantized_linear(lin)
        _swap_module(gm, lin_node.target, fused)
        node.replace_all_uses_with(lin_node)
        graph.erase_node(node)

    # -- insert float/quantized boundaries ------------------------------------------
    quant_cache: dict[Node, Node] = {}
    dequant_cache: dict[Node, Node] = {}
    boundary_counter = 0

    def quantized_input(value: Node, consumer: Node) -> Node:
        """quantize `value` (float domain) for a quantized consumer."""
        nonlocal boundary_counter
        cached = quant_cache.get(value)
        if cached is not None:
            return cached
        if value not in qparams:
            raise RuntimeError(
                f"no calibration statistics for value {value.name!r}; was the "
                "prepared model calibrated before convert_fx?"
            )
        scale, zp = qparams[value]
        name = f"quantize_{boundary_counter}"
        boundary_counter += 1
        gm.add_submodule(name, Quantize(scale, zp))
        with graph.inserting_after(_insert_anchor(graph, value)):
            qnode = graph.call_module(name, (value,))
        quant_cache[value] = qnode
        return qnode

    def dequantized_input(value: Node) -> Node:
        nonlocal boundary_counter
        cached = dequant_cache.get(value)
        if cached is not None:
            return cached
        name = f"dequantize_{boundary_counter}"
        boundary_counter += 1
        gm.add_submodule(name, DeQuantize())
        with graph.inserting_after(_insert_anchor(graph, value)):
            dnode = graph.call_module(name, (value,))
        dequant_cache[value] = dnode
        return dnode

    for node in list(graph.nodes):
        if node.op == "placeholder" or node in quant_cache.values() \
                or node in dequant_cache.values():
            continue
        for inp in list(node.all_input_nodes):
            if node in qdomain and inp not in qdomain and inp.op != "get_attr" \
                    and not _is_boundary(inp, modules):
                node.replace_input_with(inp, quantized_input(inp, node))
            elif inp in qdomain and node not in qdomain and not _is_boundary(node, modules):
                node.replace_input_with(inp, dequantized_input(inp))

    graph.eliminate_dead_code()
    graph.lint()
    gm.recompile()
    gm.delete_all_unused_submodules()
    return gm


def node_target_swap(graph, node: Node, new_target: Callable, args: tuple) -> None:
    node.op = "call_function"
    node.target = new_target
    node.args = args
    node.kwargs = {}


def _is_boundary(node: Node, modules: dict[str, Module]) -> bool:
    return node.op == "call_module" and isinstance(
        modules.get(node.target), (Quantize, DeQuantize)
    )


def _swap_module(gm: GraphModule, target: str, new_module: Module) -> None:
    prefix, _, leaf = target.rpartition(".")
    parent = gm.get_submodule(prefix)
    setattr(parent, leaf, new_module)


def quantize_static(
    model: Module,
    calibration_batches: list[tuple],
    qconfig: QConfig = default_qconfig,
    mode: str = "fast",
) -> GraphModule:
    """One-call post-training quantization: prepare, calibrate, convert."""
    prepared = prepare_fx(model, qconfig)
    for batch in calibration_batches:
        if not isinstance(batch, tuple):
            batch = (batch,)
        prepared(*batch)
    return convert_fx(prepared, mode=mode)
