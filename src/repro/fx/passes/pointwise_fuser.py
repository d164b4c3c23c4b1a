"""Pointwise-operator fusion (§6.2): collapse elementwise regions into one
generated kernel.

The eager substrate executes every graph node as a standalone ``Tensor``
op, allocating a fresh output array per intermediate.  For chains of
*pointwise* (elementwise) operations that is pure overhead: N ops cost N
dispatches and N temporaries when one pass over the data would do.  This
pass finds maximal single-consumer regions of pointwise
``call_function`` / ``call_method`` / ``call_module`` nodes — drawn from
an explicit registry over :mod:`repro.functional` — and replaces each
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
adds an in-place fast path and defaults to ``out[...] = ref(...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from ...tensor import Tensor
from ..graph_module import GraphModule
from ..node import Node
from ..rules.patterns import OpPattern, PatternIndex
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
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpDef:
    """One fusible pointwise operation.

    Attributes:
        key: registry name (stable; stored in :class:`FusedSpec`).
        arity: number of leading positional tensor-or-scalar operands.
        params: declared immediate parameters as ``(name, default)`` pairs
            (bound from remaining positional args, then kwargs).
        ref: ``ref(*arrays, **params) -> ndarray`` — allocating reference
            implementation replicating the eager numerics *exactly*.
        emit: ``emit(out, *arrays, **params) -> None`` — writes the result
            into ``out``; must tolerate ``out`` aliasing any operand.
            Defaults to ``out[...] = ref(...)``.
        validate: optional predicate on the bound params dict; binding
            fails when it returns False.
    """

    key: str
    arity: int
    ref: Callable
    params: tuple = ()
    emit: Optional[Callable] = None
    validate: Optional[Callable[[dict], bool]] = None

    def emit_fn(self) -> Callable:
        if self.emit is not None:
            return self.emit
        ref = self.ref

        def emit_from_ref(out, *arrays, **params):
            out[...] = ref(*arrays, **params)

        return emit_from_ref


def _np_erf(x: np.ndarray) -> np.ndarray:
    # Replicates Tensor.erf (Abramowitz & Stegun 7.1.26) bit-for-bit.
    s = np.sign(x)
    a = np.abs(x)
    t = 1.0 / (1.0 + 0.3275911 * a)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    return (s * (1.0 - poly * np.exp(-a * a))).astype(x.dtype)


def _ref_add(a, b, alpha=1):
    if alpha != 1:
        b = np.asarray(b) * alpha
    return np.asarray(np.add(a, b))


def _emit_add(out, a, b, alpha=1):
    if alpha == 1:
        np.add(a, b, out=out)
    else:
        # The alpha-scaled operand needs its own temporary: writing it
        # into `out` first would corrupt `a` when they alias.
        np.add(a, np.multiply(b, alpha), out=out)


def _ref_sigmoid(x):
    xu = np.asarray(x, dtype=np.float64)
    out = np.empty_like(xu)
    pos = xu >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-xu[pos]))
    ex = np.exp(xu[~pos])
    out[~pos] = ex / (1.0 + ex)
    src_dtype = np.asarray(x).dtype
    return out.astype(
        src_dtype if np.issubdtype(src_dtype, np.floating) else np.float32)


def _ref_gelu(x):
    xu = np.asarray(x)
    t = _np_erf(xu / math.sqrt(2.0))
    return (xu * 0.5 * (1.0 + t)).astype(xu.dtype)


def _emit_rsqrt(out, a):
    np.sqrt(a, out=out)
    np.divide(1.0, out, out=out)


_SELU_ALPHA, _SELU_SCALE = 1.6732632423543772, 1.0507009873554805

#: key -> OpDef.  Every ``ref`` replicates the corresponding
#: ``repro.functional`` / ``Tensor`` implementation expression-for-
#: expression so fused results match eager bitwise.
_REGISTRY: dict[str, OpDef] = {}

#: spelling -> (key, params) resolution, shared idiom with the declarative
#: rule engine (:mod:`repro.fx.rules.patterns`).
_PATTERN_INDEX = PatternIndex()


def _module_extract(extractors: dict):
    """Adapt the ``{module_type: extractor}`` convention onto
    :class:`OpPattern.extract` — exact-type lookup (a subclass may change
    numerics, so it must register itself explicitly)."""
    def extract(node: Node, mod: Any) -> Optional[dict]:
        if mod is None:  # function/method spelling: params come from args
            return {}
        ex = extractors.get(type(mod))
        if ex is None:
            return None
        _key, params = ex(mod)
        return params
    return extract


def register_pointwise_op(opdef: OpDef, functions: tuple = (),
                          methods: tuple = (), modules: dict | None = None) -> None:
    """Add *opdef* to the fusion registry and map eager spellings onto it.

    Args:
        opdef: the operation definition.
        functions: ``call_function`` targets that perform this op.
        methods: ``call_method`` names that perform this op.
        modules: ``{module_type: extractor}`` where ``extractor(mod)``
            returns ``(key, params)`` for a ``call_module`` of that type.
    """
    _REGISTRY[opdef.key] = opdef
    extractors = dict(modules or {})
    _PATTERN_INDEX.add(OpPattern(
        key=opdef.key,
        functions=tuple(functions),
        methods=tuple(methods),
        module_types=tuple(extractors),
        extract=_module_extract(extractors) if extractors else None,
    ))


def pointwise_registry() -> dict[str, OpDef]:
    """A copy of the current key -> OpDef registry."""
    return dict(_REGISTRY)


def _simple_module(key: str, **params):
    def extract(mod) -> tuple[str, dict]:
        return key, {name: getattr(mod, attr) for name, attr in params.items()}
    return extract


def _populate_registry() -> None:
    import operator

    from ... import functional as F
    from ...nn import activations as A

    def reg(key, arity, ref, *, params=(), emit=None, validate=None,
            functions=(), methods=(), modules=None):
        register_pointwise_op(
            OpDef(key, arity, ref, params=params, emit=emit, validate=validate),
            functions=functions, methods=methods, modules=modules)

    def ufunc(uf):
        def emit(out, *arrays, **params):
            uf(*arrays, out=out, **params)
        return emit

    # -- arithmetic ---------------------------------------------------------
    reg("add", 2, _ref_add, params=(("alpha", 1),), emit=_emit_add,
        functions=(operator.add, F.add))
    reg("sub", 2, lambda a, b: np.asarray(np.subtract(a, b)),
        emit=ufunc(np.subtract), functions=(operator.sub, F.sub))
    reg("mul", 2, lambda a, b: np.asarray(np.multiply(a, b)),
        emit=ufunc(np.multiply), functions=(operator.mul, F.mul))
    reg("div", 2, lambda a, b: np.asarray(np.true_divide(a, b)),
        emit=ufunc(np.true_divide), functions=(operator.truediv, F.div))
    reg("pow", 2, lambda a, b: np.asarray(np.power(a, b)),
        emit=ufunc(np.power), functions=(operator.pow, F.pow), methods=("pow",))
    reg("neg", 1, lambda a: np.negative(a), emit=ufunc(np.negative),
        functions=(operator.neg, F.neg), methods=("neg",))
    reg("abs", 1, lambda a: np.abs(a), emit=ufunc(np.abs),
        functions=(operator.abs, F.abs), methods=("abs",))
    reg("maximum", 2, lambda a, b: np.maximum(a, b), emit=ufunc(np.maximum),
        functions=(F.maximum,))
    reg("minimum", 2, lambda a, b: np.minimum(a, b), emit=ufunc(np.minimum),
        functions=(F.minimum,))

    # -- transcendental -----------------------------------------------------
    reg("exp", 1, lambda a: np.exp(a), emit=ufunc(np.exp),
        functions=(F.exp,), methods=("exp",))
    reg("log", 1, lambda a: np.log(a), emit=ufunc(np.log),
        functions=(F.log,), methods=("log",))
    reg("sqrt", 1, lambda a: np.sqrt(a), emit=ufunc(np.sqrt),
        functions=(F.sqrt,), methods=("sqrt",))
    reg("rsqrt", 1, lambda a: 1.0 / np.sqrt(a), emit=_emit_rsqrt,
        functions=(F.rsqrt,), methods=("rsqrt",))
    reg("reciprocal", 1, lambda a: 1.0 / np.asarray(a),
        emit=lambda out, a: np.divide(1.0, a, out=out), methods=("reciprocal",))
    reg("sin", 1, lambda a: np.sin(a), emit=ufunc(np.sin),
        functions=(F.sin,), methods=("sin",))
    reg("cos", 1, lambda a: np.cos(a), emit=ufunc(np.cos),
        functions=(F.cos,), methods=("cos",))
    reg("tanh", 1, lambda a: np.tanh(a), emit=ufunc(np.tanh),
        functions=(F.tanh,), methods=("tanh",),
        modules={A.Tanh: _simple_module("tanh")})
    reg("erf", 1, _np_erf, functions=(F.erf,), methods=("erf",))
    reg("sign", 1, lambda a: np.sign(a), emit=ufunc(np.sign),
        functions=(F.sign,), methods=("sign",))
    reg("floor", 1, lambda a: np.floor(a), emit=ufunc(np.floor),
        functions=(F.floor,), methods=("floor",))
    reg("round", 1, lambda a: np.round(a),
        emit=lambda out, a: np.round(a, out=out),
        functions=(F.round,), methods=("round",))

    # -- clipping -----------------------------------------------------------
    reg("clamp", 1, lambda a, min=None, max=None: np.clip(a, min, max),
        params=(("min", None), ("max", None)),
        emit=lambda out, a, min=None, max=None: np.clip(a, min, max, out=out),
        validate=lambda p: p["min"] is not None or p["max"] is not None,
        functions=(F.clamp,), methods=("clamp",))
    reg("clamp_min", 1, lambda a, min=None: np.clip(a, min, None),
        params=(("min", None),),
        emit=lambda out, a, min=None: np.clip(a, min, None, out=out),
        validate=lambda p: p["min"] is not None, methods=("clamp_min",))
    reg("hardtanh", 1,
        lambda a, min_val=-1.0, max_val=1.0: np.clip(a, min_val, max_val),
        params=(("min_val", -1.0), ("max_val", 1.0)),
        emit=lambda out, a, min_val=-1.0, max_val=1.0:
            np.clip(a, min_val, max_val, out=out),
        functions=(F.hardtanh,),
        modules={A.Hardtanh: _simple_module("hardtanh", min_val="min_val",
                                            max_val="max_val")})
    reg("where", 3, lambda c, a, b: np.where(c, a, b), functions=(F.where,))

    # -- activations --------------------------------------------------------
    reg("relu", 1, lambda a: np.maximum(a, 0),
        emit=lambda out, a: np.maximum(a, 0, out=out),
        functions=(F.relu,), methods=("relu",),
        modules={A.ReLU: _simple_module("relu")})
    reg("relu6", 1, lambda a: np.clip(a, 0, 6),
        emit=lambda out, a: np.clip(a, 0, 6, out=out),
        functions=(F.relu6,), modules={A.ReLU6: _simple_module("relu6")})
    reg("leaky_relu", 1,
        lambda a, negative_slope=0.01: np.where(a >= 0, a, a * negative_slope),
        params=(("negative_slope", 0.01),), functions=(F.leaky_relu,),
        modules={A.LeakyReLU: _simple_module("leaky_relu",
                                             negative_slope="negative_slope")})
    reg("elu", 1,
        lambda a, alpha=1.0:
            np.where(a > 0, a, alpha * (np.exp(a) - 1)).astype(np.asarray(a).dtype),
        params=(("alpha", 1.0),), functions=(F.elu,),
        modules={A.ELU: _simple_module("elu", alpha="alpha")})
    reg("selu", 1,
        lambda a: (_SELU_SCALE * np.where(
            a > 0, a, _SELU_ALPHA * (np.exp(a) - 1))).astype(np.asarray(a).dtype),
        functions=(F.selu,), modules={A.SELU: _simple_module("selu")})
    reg("gelu", 1, _ref_gelu, functions=(F.gelu,), methods=("gelu",),
        modules={A.GELU: _simple_module("gelu")})
    reg("silu", 1,
        lambda a: (a / (1.0 + np.exp(-a))).astype(np.asarray(a).dtype),
        functions=(F.silu,), modules={A.SiLU: _simple_module("silu")})
    reg("mish", 1,
        lambda a: (a * np.tanh(np.log1p(np.exp(a)))).astype(np.asarray(a).dtype),
        functions=(F.mish,), modules={A.Mish: _simple_module("mish")})
    reg("sigmoid", 1, _ref_sigmoid, functions=(F.sigmoid,), methods=("sigmoid",),
        modules={A.Sigmoid: _simple_module("sigmoid")})
    reg("hardsigmoid", 1, lambda a: np.clip(a / 6.0 + 0.5, 0.0, 1.0),
        functions=(F.hardsigmoid,),
        modules={A.Hardsigmoid: _simple_module("hardsigmoid")})
    reg("hardswish", 1, lambda a: a * np.clip(a / 6.0 + 0.5, 0.0, 1.0),
        functions=(F.hardswish,),
        modules={A.Hardswish: _simple_module("hardswish")})
    reg("softplus", 1,
        lambda a, beta=1.0:
            (np.log1p(np.exp(beta * a)) / beta).astype(np.asarray(a).dtype),
        params=(("beta", 1.0),), functions=(F.softplus,),
        modules={A.Softplus: _simple_module("softplus", beta="beta")})


_populate_registry()


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
        bufs[st.out_buf] = np.asarray(_REGISTRY[st.key].ref(*ops, **dict(st.params)))
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
        globals_[emit_name] = _REGISTRY[st.key].emit_fn()
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
    modules = None
    if node.op == "call_module":
        if node.kwargs or len(node.args) != 1:
            return None
        try:
            modules = {node.target: gm.get_submodule(node.target)}
        except Exception:
            return None
    resolved = _PATTERN_INDEX.match(node, modules)
    if resolved is None:
        return None
    key, mod_params = resolved
    if node.op == "call_module":
        return _bind(_REGISTRY[key], tuple(node.args), mod_params)
    # function/method spelling: `self` is the first tensor operand and
    # immediates come straight from the call site.
    return _bind(_REGISTRY[key], node.args, node.kwargs)


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
