"""Pointwise-operator fusion (§6.2): collapse elementwise regions into one
generated kernel.

The eager substrate executes every graph node as a standalone ``Tensor``
op, allocating a fresh output array per intermediate.  For chains of
*pointwise* (elementwise) operations that is pure overhead: N ops cost N
dispatches and N temporaries when one pass over the data would do.  This
pass finds maximal single-consumer regions of pointwise
``call_function`` / ``call_method`` / ``call_module`` nodes — drawn from
the entries of the op table (:mod:`repro.fx.opinfo`) that declare a
kernel — and replaces each region with a single ``call_function`` node
targeting a :class:`FusedKernel`: a compiled Python function that
evaluates the whole expression in raw numpy with ``out=`` / in-place
updates, so the region produces one output buffer instead of N
temporaries.

A region may also open with a contraction (§6.2's producer + epilogue):
a ``Linear`` / ``F.linear`` whose output only the region reads.  Its GEMM
writes straight into a kernel buffer and the pointwise tail runs in place
after it.  What the GEMM reads — its input, and the weight and bias
through ``get_attr`` at their own paths — are kernel inputs.  A
contraction no region takes is a one-step kernel, with no module call or
dispatch around its GEMM; a lone pointwise op is left as it is.

Safety rules:

* **Numerics**: every step writes its buffer with the op's ``emit``: the
  ufuncs eager calls, in its order, or the :mod:`repro.kernels` function
  eager itself calls, so fused output is bitwise-equal to eager for
  every call its fast path takes, and no step dispatches or copies a result.
* **Shapes/dtypes**: fusion is gated on
  :class:`~repro.fx.passes.shape_prop.TensorMetadata` — every member of a
  region must produce the same (broadcast-resolved) shape and dtype, and
  that dtype must be floating point.  Run
  :class:`~repro.fx.passes.shape_prop.ShapeProp` first.
* **Guarded kernels**: the generated fast path is specialized to the
  observed input shapes/dtypes but any batch size (:func:`_batched`); any
  other call (another rank or dtype, stale metadata) falls back to a
  generic evaluator built from the same op table's reference
  implementations (``FusedKernel.off_guard_calls`` counts them), so a
  ``FusedKernel`` is a total function — never wrong, merely slower off
  the fast path.
* **Aliasing**: a pointwise ``emit`` tolerates ``out`` aliasing any of
  its operands: it reads them all before its first write to ``out``, or
  a ufunc streams them into it (``opinfo selftest`` runs each in place).
  This is what lets the internal register allocator reuse a dying
  operand's buffer as the destination of the *same step*.  A GEMM would
  not tolerate it, and never meets it: a contraction opens its region, so
  it reads kernel inputs only.

A new pointwise op is one :func:`repro.fx.opinfo.pointwise` declaration::

    opinfo.pointwise(
        OpDef("my_op", arity=1, params=(("scale", 1.0),),
              ref=lambda a, scale=1.0: np.tanh(a) * scale,
              emit=lambda out, a, scale=1.0: np.multiply(np.tanh(a), scale, out=out)),
        functions=(my_library.my_op,), methods=("my_op",))

``ref`` (the off-guard evaluator, and the dtype rule) and ``emit`` must
both give eager's bits.  The entry lands in the op table, so shape and
dtype inference and the cost model know the op from the same declaration.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from ...tensor import Tensor
from .. import opinfo
from ..graph_module import _CODEGEN_CACHE, GraphModule
from ..node import Node
from ..opinfo import INDEX, TABLE, OpDef
from .shape_prop import TensorMetadata, extract_tensor_metadata

__all__ = [
    "FusedKernel",
    "FusedSpec",
    "FusedStep",
    "OpDef",
    "fuse_pointwise",
]


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
    actual call matches, but for any dim 0 shared by the inputs ``batched``
    indexes, otherwise the kernel falls back to the generic reference
    evaluator (correct for any shapes numpy can broadcast).
    """

    name: str
    shape: tuple
    dtype: str
    n_buffers: int
    guard: tuple
    steps: tuple
    batched: tuple = ()


def _run_generic(steps: tuple, arrays: list) -> np.ndarray:
    """Shape-generic evaluation of a fused region via the op table's ``ref``s.

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
        bufs[st.out_buf] = np.asarray(TABLE[st.key].kernel.ref(*ops, **dict(st.params)))
    return bufs[0]


def _const_repr(v: Any) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return f"float({str(v)!r})"
    return repr(v)


class _OffGuard(Exception):
    """A call the fast path does not take, with its arrays as ``args``."""


_OFF_GUARD_LOCK = threading.Lock()     # worker threads share kernels


def _generate_source(spec: FusedSpec) -> tuple[str, dict]:
    """Build the fast-path source of *spec*'s body (its name is not read)
    and its globals table."""
    n = len(spec.guard)
    globals_: dict[str, Any] = {
        "_np": np, "_T": Tensor, "_wrap": Tensor._wrap,
        "_Off": _OffGuard, "_odt": np.dtype(spec.dtype),
    }
    lines = [f"def fused({', '.join(f'x{i}' for i in range(n))}):"]
    guard_terms, first = [], spec.batched[0] if spec.batched else None

    def rows(shape: tuple) -> str:    # a batched shape, at dim 0 of ``s``
        return "s" if shape == spec.guard[first][0] else \
            f"(s[0], {', '.join(map(str, shape[1:]))})"
    for i, (shape, dtype_name) in enumerate(spec.guard):
        lines.append(f"    a{i} = x{i}.data if isinstance(x{i}, _T) else _np.asarray(x{i})")
        globals_[f"_idt{i}"] = np.dtype(dtype_name)
        if i == first:      # compared whole first: an exact guard's cost
            lines.append(f"    s = a{i}.shape")
            term = f"(s == {shape!r} or s[1:] == {shape[1:]!r})"
        else:
            term = f"a{i}.shape == {rows(shape) if i in spec.batched else repr(shape)}"
        guard_terms.append(f"{term} and a{i}.dtype == _idt{i}")
    out_shape = repr(spec.shape) if first is None else rows(spec.shape)
    lines.append(f"    if {' and '.join(guard_terms) or 'True'}:")
    for k in range(spec.n_buffers):
        lines.append(f"        b{k} = _np.empty({out_shape}, _odt)")
    for st in spec.steps:
        opdef = TABLE[st.key].kernel
        parts = [f"b{st.out_buf}"]
        for tag, v in st.operands:
            parts.append(f"a{v}" if tag == "i" else f"b{v}" if tag == "b"
                         else _const_repr(v))
        emit, emit_name = opdef.emit, f"_k_{st.key}"
        if hasattr(emit, "ufunc") and st.params == opdef.params:   # ``add`` at alpha 1
            emit = emit.ufunc       # the ufunc itself: one call frame less
            emit_name, parts = f"_np_{emit.__name__}", [*parts[1:], f"out={parts[0]}"]
        else:
            parts += [f"{name}={_const_repr(v)}" for name, v in st.params]
        globals_[emit_name] = emit
        lines.append(f"        {emit_name}({', '.join(parts)})")
    lines.append("        return _wrap(b0)")
    lines.append(f"    raise _Off({', '.join(f'a{i}' for i in range(n))})")
    return "\n".join(lines) + "\n", globals_


def _compile_body(spec: FusedSpec) -> tuple:
    """A codegen-cache entry: ``(source, function, globals, filename)``."""
    source, namespace = _generate_source(spec)
    exec(compile(source, "<fused-kernel>", "exec"), namespace)
    return source, namespace["fused"], namespace, "<fused-kernel>"


class FusedKernel:
    """A compiled pointwise region, callable like any graph target.

    ``kernel(*inputs)`` returns a Tensor over a buffer of its own.  The
    instance pickles by its :class:`FusedSpec`.  Kernels with one body — a
    spec that differs only in its name — share one generated function
    through the ``codegen`` cache stage.
    """

    def __init__(self, spec: FusedSpec):
        self.spec = spec
        body = repr(replace(spec, name=""))   # repr: 1, 1.0 and True differ
        self.source, self._fn, _, _ = _CODEGEN_CACHE.get_or_build(
            ("fused-kernel", body), lambda: _compile_body(spec))
        # Codegen derives the node name from __name__ and the globals-table
        # name from __module__'s tail; keeping them distinct ("fused_" +
        # name) stops the generated local from shadowing the global.
        self.__name__ = self.__qualname__ = spec.name
        self.__module__ = "fused"
        self.off_guard_calls = 0    # calls run by the generic evaluator

    def __call__(self, *args):
        try:
            return self._fn(*args)
        except _OffGuard as off:
            with _OFF_GUARD_LOCK:
                self.off_guard_calls += 1
            return Tensor._wrap(_run_generic(self.spec.steps, off.args))

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
    # the generic evaluator on one-element stand-ins: numpy's own promotion
    return Tensor._wrap(_run_generic(kernel.spec.steps, [
        np.ones(1, v.dtype.np_dtype) if isinstance(v, opinfo.T) else np.asarray(v)
        for v in operands])).dtype


def _steps_over(d, operands: tuple, kernel: FusedKernel) -> list:
    """``(entry, operands, result)`` of each step of *kernel* over the
    domain *d*: the spec read with each step's own shape rule, so a GEMM's
    result is not the broadcast of its ``(out, in)`` weight."""
    bufs, steps = {}, []
    for st in kernel.spec.steps:
        entry = TABLE[st.key]
        args = [operands[v] if tag == "i" else bufs[v] if tag == "b" else v
                for tag, v in st.operands]
        bufs[st.out_buf] = opinfo.T(entry.shape(d, *args, **dict(st.params)))
        steps.append((entry, args, bufs[st.out_buf]))
    return steps


def _kernel_flops(numel, *operands, kernel: FusedKernel) -> int:
    # a contraction step charges its own rule: 2·K per element
    return sum(entry.flops(numel, *args) if callable(entry.flops) else numel * entry.flops
               for entry, args, _ in _steps_over(opinfo.Domain(), operands, kernel))


#: A fused region is an op like any other: the shape its last step
#: computes, the dtype its kernel computes, the summed cost of its steps.
opinfo.op(
    "fused_kernel",
    lambda d, *operands, kernel: list(_steps_over(d, operands, kernel)[-1][2].shape),
    _kernel_dtype, functions=(FusedKernel,),
    extract=lambda node, mod: {"kernel": node.target}, flops=_kernel_flops)


# ---------------------------------------------------------------------------
# the pass: match, grow regions, replace
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class _Attr:
    """A module tensor a kernel takes as an operand, by its path."""

    path: str
    value: Tensor


@dataclass
class _Match:
    key: str
    operands: tuple          # Node | _Attr | immediate scalar, in kernel order
    params: tuple = ()       # ((name, value), ...) in OpDef order
    contraction: bool = False   # not elementwise: opens a region, or is a kernel alone

    @property
    def node_operands(self) -> list[Node]:
        return [a for a in self.operands if isinstance(a, Node)]


def _bind(opdef: OpDef, args: tuple, kwargs: dict) -> Optional[_Match]:
    if len(args) < opdef.arity:
        return None
    operands = args[:opdef.arity]
    for a in operands:
        if not isinstance(a, (Node, _Attr, int, float, bool, type(None))):
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
    entry = INDEX.find(node, mod)
    opdef = None if entry is None else entry.kernel
    if opdef is None:
        return None
    # function/method spelling: `self` is the first tensor operand and
    # immediates come straight from the call site.
    args, kwargs = node.args, node.kwargs
    if mod is not None:
        kwargs = entry.extract(node, mod)
        if kwargs is None:
            return None
        # what forward reads off the instance and the kernel takes as no
        # parameter is an operand: a Linear's weight and bias
        declared = dict(opdef.params)
        args += tuple(_Attr(f"{node.target}.{name}", v) if isinstance(v, Tensor) else v
                      for name, v in kwargs.items() if name not in declared)
        kwargs = {k: v for k, v in kwargs.items() if k in declared}
    # a trailing operand left out is None (``F.linear(x, w)``); one passed
    # by keyword is no declared parameter, so binding refuses it
    m = _bind(opdef, (*args, *[None] * (opdef.arity - len(args))), kwargs)
    if m is not None:
        m.contraction = entry.shape is not opinfo.pointwise_shape
    return m


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
        # destination is chosen, so its result may stream into a consumed
        # operand's buffer; a contraction reads no buffer to stream from.
        assert not (m.contraction and any(a in buf_of for a in m.node_operands))
        free += [buf_of[a] for a in dict.fromkeys(m.node_operands)
                 if a in buf_of and last_use.get(a) == j]
        if free:
            out_buf = free.pop()
        else:
            out_buf = n_buffers
            n_buffers += 1
        buf_of[n] = out_buf
        steps.append(FusedStep(m.key, out_buf, tuple(encoded), m.params))

    # Renumber so the region result lands in buffer 0 (the result buffer).
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
        n_buffers=max(n_buffers, 1),
        guard=guard,
        steps=tuple(steps),
        batched=_batched(steps, guard, input_nodes, tuple(out_meta.shape)),
    )


def _batched(steps: list, guard: tuple, input_nodes: list, out: tuple) -> tuple:
    """The non-``get_attr`` inputs of the output's rank (2 or more) and
    dim 0, whose dim 0 may be any ``n``: every step reads one of them or a
    buffer (a GEMM through its rows, not its weight), and no other operand
    of that rank has a dim 0 but 1.  Else ``()``."""
    shapes = [shape for shape, _ in guard]
    rows = {i for i, (node, shape) in enumerate(zip(input_nodes, shapes))
            if node.op != "get_attr" and len(shape) == len(out) >= 2 and shape[0] == out[0]}
    for st in steps:
        ops = st.operands if TABLE[st.key].shape is opinfo.pointwise_shape else st.operands[:1]
        if not any(t == "b" or t == "i" and v in rows for t, v in ops) or any(
                t == "i" and v not in rows and shapes[v][:1] != (1,) and len(shapes[v]) == len(out)
                for t, v in ops):
            return ()
    return tuple(sorted(rows))


def fuse_pointwise(gm: GraphModule) -> int:
    """Fuse maximal pointwise regions of ``gm.graph`` into single kernels.

    Requires shape metadata (run
    :class:`~repro.fx.passes.shape_prop.ShapeProp` first): a node joins a
    region only when its observed output shape and dtype equal the
    region's, the dtype is floating point, and — for non-seed members —
    every user lies inside the region (single external consumer).  A
    contraction (``Linear``) joins only as a non-seed member, and what it
    reads stays a kernel input, so a region never spans two layers.  A
    region of one pointwise op is left unfused; a contraction that no
    region takes becomes a kernel of its own.

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
        # every user of a contraction was a seed already and none took it:
        # it is a kernel of one step
        lone = candidates[node].contraction
        frontier = [] if lone else [node]
        while frontier:
            n = frontier.pop()
            for a in candidates[n].node_operands:
                if a in region or a in assigned or a not in candidates:
                    continue
                a_meta = _leaf_meta(a)
                if tuple(a_meta.shape) != shape or a_meta.dtype.name != dtype_name:
                    continue
                if not all(u in region and not candidates[u].contraction
                           for u in a.users):
                    continue
                region.add(a)
                frontier.append(a)
        if len(region) >= 2 or lone:
            assigned |= region
            regions.append((node, region))

    if not regions:
        return 0

    # Earlier regions' seeds may feed later regions; their matches were
    # captured pre-replacement, so external operands must be resolved
    # through the old-seed -> fused-node map as regions are rewritten.
    replaced: dict[Node, Node] = {}
    attrs: dict[str, Node] = {}

    def operand(a: Any, seed: Node) -> Any:
        if isinstance(a, Node):
            return replaced.get(a, a)
        if not isinstance(a, _Attr):
            return a
        if a.path not in attrs:
            with graph.inserting_before(seed):
                attrs[a.path] = got = graph.get_attr(a.path)
            got.meta["tensor_meta"] = extract_tensor_metadata(a.value)
            got.meta["type"] = type(a.value)
        return attrs[a.path]

    for seed, region in sorted(regions, key=lambda r: order[r[0]]):
        local: dict[Node, _Match] = {}
        for n in region:
            m = candidates[n]
            local[n] = _Match(m.key, tuple(operand(a, seed) for a in m.operands),
                              m.params)
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
