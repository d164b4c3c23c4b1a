"""Pointwise-operator fusion (§6.2): collapse elementwise regions into one
generated kernel.

The eager substrate executes every graph node as a standalone ``Tensor``
op, allocating a fresh output array per intermediate.  For chains of
*pointwise* (elementwise) operations that is pure overhead: N ops cost N
dispatches and N temporaries when one pass over the data would do.  This
pass finds maximal single-consumer regions of pointwise
``call_function`` / ``call_method`` / ``call_module`` nodes — drawn from
the pointwise entries of the op table (:mod:`repro.fx.opinfo`) — and replaces each
region with a single ``call_function`` node targeting a
:class:`FusedKernel`: a compiled Python function that evaluates the whole
expression in raw numpy with ``out=`` / in-place updates, so the region
produces one output buffer instead of N temporaries.

Safety rules:

* **Numerics**: every registry entry replicates the exact numpy
  expression of the eager op (same ufuncs, same casts), so fused output
  is bitwise-equal to eager for the shapes it was compiled for.
* **Shapes/dtypes**: fusion is gated on
  :class:`~repro.fx.passes.shape_prop.TensorMetadata` — every member of a
  region must produce the same (broadcast-resolved) shape and dtype, and
  that dtype must be floating point.  Run
  :class:`~repro.fx.passes.shape_prop.ShapeProp` first.
* **Guarded kernels**: the generated fast path is specialized to the
  observed input shapes/dtypes; any other call (shape-polymorphic reuse,
  stale metadata) falls back to a generic evaluator built from the same
  registry's reference implementations, so a ``FusedKernel`` is a total
  function — never wrong, merely slower off the fast path.
* **Aliasing**: every ``emit`` function must tolerate ``out`` aliasing
  any of its operands.  Direct ufuncs stream element-by-element (safe by
  construction); composite ops use the evaluate-then-assign pattern
  (``out[...] = <full expression>``).  This is what lets the internal
  register allocator reuse a dying operand's buffer as the destination
  of the *same step*.  The guarantee is strictly per step: across a
  multi-step kernel the result buffer may be written early and an input
  read later, so the downstream
  :mod:`~repro.fx.passes.memory_planner` consults the step schedule
  (first write of buffer 0 vs. last read of each input) before routing
  ``out`` into a dying operand's slot.

Extending the registry::

    from repro.fx.passes import pointwise_fuser as pf

    pf.register_pointwise_op(
        pf.OpDef("my_op", arity=1, params=(("scale", 1.0),),
                 ref=lambda a, scale=1.0: np.tanh(a) * scale),
        functions=(my_library.my_op,), methods=("my_op",))

``ref`` must replicate the eager numerics exactly; ``emit`` (optional)
adds an in-place fast path and defaults to ``out[...] = ref(...)``.  The
entry lands in the op table (:mod:`repro.fx.opinfo`), so shape and dtype
inference and the cost model know the op from the same declaration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from ...tensor import Tensor
from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node
from ..opinfo import OpDef
from .shape_prop import TensorMetadata

__all__ = [
    "FusedKernel",
    "FusedSpec",
    "FusedStep",
    "OpDef",
    "fuse_pointwise",
    "pointwise_registry",
    "register_pointwise_op",
]


# ---------------------------------------------------------------------------
# registry: the pointwise entries of the op table
# ---------------------------------------------------------------------------

#: key -> table entry (``.pointwise`` is the OpDef) and spelling -> entry;
#: the fuser reads the one table everything else reads.
_REGISTRY = opinfo.TABLE
_PATTERN_INDEX = opinfo.INDEX


def register_pointwise_op(opdef: OpDef, functions: tuple = (),
                          methods: tuple = (), modules: dict | None = None) -> None:
    """Add *opdef* to the op table and map eager spellings onto it.

    Args:
        opdef: the operation definition.
        functions: ``call_function`` targets that perform this op.
        methods: ``call_method`` names that perform this op.
        modules: ``{module_type: attribute names}`` — the attributes of a
            ``call_module`` of that type that are the op's parameters.
    """
    opinfo.pointwise(opdef, functions=functions, methods=methods, modules=modules)


def pointwise_registry() -> dict[str, OpDef]:
    """A copy of the current key -> OpDef registry."""
    return {key: entry.pointwise for key, entry in _REGISTRY.items()
            if entry.pointwise is not None}


# ---------------------------------------------------------------------------
# fused kernel: spec, codegen, runtime
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FusedStep:
    """One operation inside a fused region.

    ``operands`` encodes each argument as ``("i", input_index)``,
    ``("b", buffer_index)`` or ``("c", immediate_value)``; ``params`` is
    the bound immediate-parameter tuple.  The final region result always
    lives in buffer 0.
    """

    key: str
    out_buf: int
    operands: tuple
    params: tuple = ()


@dataclass(frozen=True)
class FusedSpec:
    """Complete, picklable description of one fused kernel.

    ``guard`` records the ``(shape, numpy-dtype-name)`` observed for every
    input at fusion time; the generated fast path only runs when the
    actual call matches, otherwise the kernel falls back to the generic
    reference evaluator (correct for any shapes numpy can broadcast).
    """

    name: str
    shape: tuple
    dtype: str
    n_inputs: int
    n_buffers: int
    guard: tuple
    steps: tuple


def _as_array(v: Any) -> np.ndarray:
    return v.data if isinstance(v, Tensor) else np.asarray(v)


def _acquire(out: Any, shape: tuple, dtype: np.dtype) -> np.ndarray:
    """Resolve the ``out=`` argument to a writable result buffer.

    Accepts ``None`` (allocate), an arena slot (anything with a
    ``materialize()`` method), a raw ndarray, or a Tensor.  A buffer of
    the wrong shape/dtype is ignored and a fresh one allocated — the
    kernel must stay correct even if a stale plan hands it garbage.
    """
    if out is None:
        return np.empty(shape, dtype)
    materialize = getattr(out, "materialize", None)
    if callable(materialize):
        buf = materialize()
    elif isinstance(out, np.ndarray):
        buf = out
    elif isinstance(out, Tensor):
        buf = out.data
    else:
        return np.empty(shape, dtype)
    if isinstance(buf, np.ndarray) and buf.shape == shape and buf.dtype == dtype:
        return buf
    return np.empty(shape, dtype)


def _run_generic(steps: tuple, arrays: list) -> np.ndarray:
    """Shape-generic evaluation of a fused region via registry ``ref``s.

    Buffer indices are interpreted as value slots (the allocator only
    reuses an index once its previous occupant is dead, so sequential
    interpretation is faithful).
    """
    bufs: dict[int, np.ndarray] = {}
    for st in steps:
        ops = []
        for tag, v in st.operands:
            if tag == "i":
                ops.append(arrays[v])
            elif tag == "b":
                ops.append(bufs[v])
            else:
                ops.append(v)
        bufs[st.out_buf] = np.asarray(_REGISTRY[st.key].pointwise.ref(*ops, **dict(st.params)))
    return bufs[0]


def _const_repr(v: Any) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return f"float({str(v)!r})"
    return repr(v)


def _generate_source(spec: FusedSpec) -> tuple[str, dict]:
    """Build the fast-path source and its globals table for *spec*."""
    xs = [f"x{i}" for i in range(spec.n_inputs)]
    out_dtype = np.dtype(spec.dtype)
    globals_: dict[str, Any] = {
        "_np": np, "_as_array": _as_array, "_acquire": _acquire,
        "_wrap": Tensor._wrap, "_run_generic": _run_generic,
        "_steps": spec.steps, "_odt": out_dtype,
    }
    lines = [f"def {spec.name}({', '.join(xs)}, *, out=None):"]
    guard_terms = []
    for i, (shape, dtype_name) in enumerate(spec.guard):
        lines.append(f"    a{i} = _as_array(x{i})")
        globals_[f"_idt{i}"] = np.dtype(dtype_name)
        guard_terms.append(f"a{i}.shape == {tuple(shape)!r} and a{i}.dtype == _idt{i}")
    lines.append(f"    if {' and '.join(guard_terms) or 'True'}:")
    lines.append(f"        b0 = _acquire(out, {tuple(spec.shape)!r}, _odt)")
    for k in range(1, spec.n_buffers):
        lines.append(f"        b{k} = _np.empty({tuple(spec.shape)!r}, _odt)")
    for j, st in enumerate(spec.steps):
        emit_name = f"_k_{st.key}"
        globals_[emit_name] = _REGISTRY[st.key].pointwise.emit_fn()
        parts = [f"b{st.out_buf}"]
        for tag, v in st.operands:
            parts.append(f"a{v}" if tag == "i" else f"b{v}" if tag == "b"
                         else _const_repr(v))
        parts += [f"{name}={_const_repr(v)}" for name, v in st.params]
        lines.append(f"        {emit_name}({', '.join(parts)})")
    lines.append("        return _wrap(b0)")
    lines.append(f"    return _wrap(_run_generic(_steps, [{', '.join('a%d' % i for i in range(spec.n_inputs))}]))")
    return "\n".join(lines) + "\n", globals_


class FusedKernel:
    """A compiled pointwise region, callable like any graph target.

    ``kernel(*inputs, out=None)`` returns a Tensor; ``out`` may be an
    arena slot, ndarray or Tensor to receive the result (see
    :mod:`~repro.fx.passes.memory_planner`).  The instance pickles by its
    :class:`FusedSpec` and regenerates its code on load.
    """

    def __init__(self, spec: FusedSpec):
        self.spec = spec
        self.source, ns = _generate_source(spec)
        code = compile(self.source, f"<fused-kernel {spec.name}>", "exec")
        exec(code, ns)
        self._fn = ns[spec.name]
        # Codegen derives the node name from __name__ and the globals-table
        # name from __module__'s tail; keeping them distinct ("fused_" +
        # name) stops the generated local from shadowing the global.
        self.__name__ = self.__qualname__ = spec.name
        self.__module__ = "fused"

    def __call__(self, *args, out=None):
        return self._fn(*args, out=out)

    @property
    def n_ops(self) -> int:
        return len(self.spec.steps)

    def __reduce__(self):
        return (FusedKernel, (self.spec,))

    def hash_token(self) -> str:
        """The kernel *is* its spec: equal specs generate equal code, so
        a graph calling fused kernels hashes by content, not by ``id()``."""
        return repr(self.spec)

    def __repr__(self) -> str:
        return (f"<FusedKernel {self.spec.name}: {self.n_ops} ops, "
                f"{tuple(self.spec.shape)} {self.spec.dtype}>")


def _kernel_dtype(*operands, kernel: FusedKernel):
    # the kernel itself on one-element stand-ins: off its guard it runs the
    # generic evaluator, whose promotion is numpy's own
    out = kernel(*[Tensor._wrap(np.ones(1, v.dtype.np_dtype))
                   if isinstance(v, opinfo.T) else v for v in operands])
    return out.dtype


#: A fused region is an op like any other: the broadcast of its inputs, the
#: dtype its kernel computes, the summed cost of its steps.
opinfo.op(
    "fused_kernel", lambda d, *operands, kernel: opinfo.pointwise_shape(d, *operands),
    _kernel_dtype, functions=(FusedKernel,),
    extract=lambda node, mod: {"kernel": node.target},
    flops=lambda numel, *operands, kernel:
        numel * sum(_REGISTRY[s.key].flops for s in kernel.spec.steps))


# ---------------------------------------------------------------------------
# the pass: match, grow regions, replace
# ---------------------------------------------------------------------------


@dataclass
class _Match:
    key: str
    operands: tuple          # Node | immediate scalar, in kernel order
    params: tuple = ()       # ((name, value), ...) in OpDef order

    @property
    def node_operands(self) -> list[Node]:
        return [a for a in self.operands if isinstance(a, Node)]


def _bind(opdef: OpDef, args: tuple, kwargs: dict) -> Optional[_Match]:
    if len(args) < opdef.arity:
        return None
    operands = args[:opdef.arity]
    for a in operands:
        if not isinstance(a, (Node, int, float, bool)):
            return None
    extras = args[opdef.arity:]
    pnames = [n for n, _ in opdef.params]
    if len(extras) > len(pnames):
        return None
    params = dict(opdef.params)
    for name, v in zip(pnames, extras):
        params[name] = v
    for k, v in kwargs.items():
        if k not in params:
            return None
        params[k] = v
    for v in params.values():
        if not isinstance(v, (int, float, bool, type(None))):
            return None
    if opdef.validate is not None and not opdef.validate(params):
        return None
    return _Match(opdef.key, tuple(operands),
                  tuple((n, params[n]) for n in pnames))


def _match_node(node: Node, gm: GraphModule) -> Optional[_Match]:
    mod = None
    if node.op == "call_module":
        if node.kwargs or len(node.args) != 1:
            return None
        try:
            mod = gm.get_submodule(node.target)
        except AttributeError:
            return None
    entry = _PATTERN_INDEX.find(node, mod)
    if entry is None or entry.pointwise is None:
        return None
    if mod is None:
        # function/method spelling: `self` is the first tensor operand and
        # immediates come straight from the call site.
        return _bind(entry.pointwise, node.args, node.kwargs)
    params = entry.extract(node, mod)
    return None if params is None else _bind(entry.pointwise, node.args, params)


def _leaf_meta(node: Node) -> Optional[TensorMetadata]:
    meta = node.meta.get("tensor_meta")
    return meta if isinstance(meta, TensorMetadata) else None


def _np_dtype_name(meta: TensorMetadata) -> str:
    return np.dtype(meta.dtype.np_dtype).name


def _build_spec(name: str, members: list[Node], region: set[Node],
                candidates: dict[Node, _Match],
                input_nodes: list[Node]) -> FusedSpec:
    out_meta = _leaf_meta(members[-1])
    input_index = {n: i for i, n in enumerate(input_nodes)}
    member_set = region

    # In-kernel liveness: last step at which each member's value is read.
    last_use: dict[Node, int] = {}
    for j, n in enumerate(members):
        for a in candidates[n].node_operands:
            if a in member_set:
                last_use[a] = j

    free: list[int] = []
    n_buffers = 0
    buf_of: dict[Node, int] = {}
    steps: list[FusedStep] = []
    for j, n in enumerate(members):
        m = candidates[n]
        encoded = []
        for a in m.operands:
            if isinstance(a, Node):
                if a in member_set:
                    encoded.append(("b", buf_of[a]))
                else:
                    encoded.append(("i", input_index[a]))
            else:
                encoded.append(("c", a))
        # Operands dying at this step free their buffers *before* the
        # destination is chosen: emit functions are alias-safe, so the
        # result may stream into a consumed operand's buffer.
        for a in {a for a in m.node_operands
                  if a in buf_of and last_use.get(a) == j}:
            free.append(buf_of[a])
        if free:
            out_buf = free.pop()
        else:
            out_buf = n_buffers
            n_buffers += 1
        buf_of[n] = out_buf
        steps.append(FusedStep(m.key, out_buf, tuple(encoded), m.params))

    # Renumber so the region result lands in buffer 0 (the `out` buffer).
    final = buf_of[members[-1]]
    if final != 0:
        def renum(b: int) -> int:
            return 0 if b == final else final if b == 0 else b
        steps = [FusedStep(s.key, renum(s.out_buf),
                           tuple(("b", renum(v)) if t == "b" else (t, v)
                                 for t, v in s.operands), s.params)
                 for s in steps]

    guard = tuple(
        (tuple(_leaf_meta(n).shape), _np_dtype_name(_leaf_meta(n)))
        for n in input_nodes
    )
    return FusedSpec(
        name=name,
        shape=tuple(out_meta.shape),
        dtype=_np_dtype_name(out_meta),
        n_inputs=len(input_nodes),
        n_buffers=max(n_buffers, 1),
        guard=guard,
        steps=tuple(steps),
    )


def fuse_pointwise(gm: GraphModule, min_region_size: int = 2) -> int:
    """Fuse maximal pointwise regions of ``gm.graph`` into single kernels.

    Requires shape metadata (run
    :class:`~repro.fx.passes.shape_prop.ShapeProp` first): a node joins a
    region only when its observed output shape and dtype equal the
    region's, the dtype is floating point, and — for non-seed members —
    every user lies inside the region (single external consumer).

    Returns the number of regions fused (mutates *gm* in place and
    recompiles when non-zero).
    """
    graph = gm.graph
    candidates: dict[Node, _Match] = {}
    for node in graph.nodes:
        if node.op not in ("call_function", "call_method", "call_module"):
            continue
        meta = _leaf_meta(node)
        if meta is None or not meta.dtype.is_floating_point:
            continue
        m = _match_node(node, gm)
        if m is None:
            continue
        if any(_leaf_meta(a) is None for a in m.node_operands):
            continue
        candidates[node] = m

    order = {n: i for i, n in enumerate(graph.nodes)}
    assigned: set[Node] = set()
    regions: list[tuple[Node, set[Node]]] = []
    for node in reversed(graph.nodes):
        if node not in candidates or node in assigned:
            continue
        seed_meta = _leaf_meta(node)
        shape, dtype_name = tuple(seed_meta.shape), seed_meta.dtype.name
        region = {node}
        frontier = [node]
        while frontier:
            n = frontier.pop()
            for a in candidates[n].node_operands:
                if a in region or a in assigned or a not in candidates:
                    continue
                a_meta = _leaf_meta(a)
                if tuple(a_meta.shape) != shape or a_meta.dtype.name != dtype_name:
                    continue
                if not all(u in region for u in a.users):
                    continue
                region.add(a)
                frontier.append(a)
        if len(region) >= min_region_size:
            assigned |= region
            regions.append((node, region))

    if not regions:
        return 0

    # Earlier regions' seeds may feed later regions; their matches were
    # captured pre-replacement, so external operands must be resolved
    # through the old-seed -> fused-node map as regions are rewritten.
    replaced: dict[Node, Node] = {}
    for seed, region in sorted(regions, key=lambda r: order[r[0]]):
        local: dict[Node, _Match] = {}
        for n in region:
            m = candidates[n]
            local[n] = _Match(
                m.key,
                tuple(replaced.get(a, a) if isinstance(a, Node) else a
                      for a in m.operands),
                m.params,
            )
        members = sorted(region, key=order.__getitem__)
        input_nodes: list[Node] = []
        for n in members:
            for a in local[n].node_operands:
                if a not in region and a not in input_nodes:
                    input_nodes.append(a)
        spec = _build_spec(f"fused_{seed.name}", members, region,
                           local, input_nodes)
        kernel = FusedKernel(spec)
        with graph.inserting_before(seed):
            new = graph.call_function(kernel, tuple(input_nodes))
        new.meta["tensor_meta"] = seed.meta.get("tensor_meta")
        new.meta["type"] = seed.meta.get("type", Tensor)
        seed.replace_all_uses_with(new)
        replaced[seed] = new
        for n in reversed(members):
            graph.erase_node(n)

    gm.delete_all_unused_submodules()
    gm.recompile()
    return len(regions)
