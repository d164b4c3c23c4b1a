"""The op table: what the system knows about each logical op, declared once.

The paper's case for a basic-block IR (§5.5, §6.3) is that an analysis
needs no fixpoint — one forward sweep with a transfer function per op.
This module holds those transfer functions, once, and the sweep.  An
:class:`OpInfo` entry is found from a node through the spellings its
:class:`OpPattern` declares (``F.relu(x)`` / ``x.relu()`` /
``nn.ReLU()(x)``; a module spelling is the call its ``forward`` makes, the
arguments read off the instance) and carries only what a consumer reads
today:

* ``shape`` — the result's dims, plain ints, from the operands' shapes.
  The :class:`Domain` a rule is handed supplies ``unify(a, b, what)``
  (the one dim both must be, or a :class:`ShapeError` naming the
  constraint) and ``tensor(shape, dtype)``, the abstract tensor its
  consumer wants (``ShapeProp``'s is a ``TensorMetadata``);
* ``dtype`` — the result dtype from the operand dtypes;
* ``flops`` — a weight per output element, or a formula;
* ``kernel`` — the :class:`OpDef` ``pointwise_fuser`` generates code from:
  every elementwise op, and ``linear``, whose GEMM can open a fused region;
* ``view`` / ``writes`` — what the call does to memory and state, read by
  alias analysis, purity (so DCE and CSE), constant folding and the fuzz
  generator, none of which keeps an op list of its own.

:func:`sweep` keeps a tensor (:class:`T`: shape + dtype, no data) apart
from a shape *value* (``x.shape``, ``x.size(0)``: the dims themselves).  A
node the table cannot type (:class:`NoRule`) becomes what the domain's
``missing`` says: ``ShapeProp`` executes that node, the strict
:class:`Domain` refuses.

``python -m repro.fx.opinfo selftest`` checks every entry against eager.
"""

from __future__ import annotations

import copy
import functools
import itertools
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from .. import functional as F
from .. import kernels, nn
from ..functional import _pair
from ..tensor import DType, Tensor, bool_, dtype_from_numpy, float32, float64, \
    int32, int64
from .graph import _resolve_attr
from .graph_module import GraphModule
from .node import Node, map_arg

__all__ = ["CASTS", "DECLARED", "Domain", "INDEX", "NO_ENTRY", "NoRule", "OPAQUE",
           "OpDef", "OpInfo", "OpPattern", "PatternIndex", "ShapeError", "T",
           "TABLE", "bind", "entry_of",
           "has_tensor", "infer", "key_of", "op", "pointwise",
           "pointwise_shape", "selftest", "sweep", "target_name", "unchanged_shape",
           "writes_state"]


class ShapeError(RuntimeError):
    """A constraint an entry declares on its operands (Linear
    ``in_features``, a matmul contraction, a broadcast) does not hold."""


class NoRule(Exception):
    """The table cannot type a node: no entry for its target, an operand
    it knows nothing about, a call form the entry does not cover.  Not an
    error — :meth:`Domain.missing` decides what it means."""


class T:
    """An abstract tensor: a shape and a dtype (``None`` where a rule
    needs only the shape).  No data."""

    def __init__(self, shape, dtype=None):
        self.shape, self.dtype = shape, dtype


#: The value of a node nothing is known about (an object that is neither a
#: tensor nor plain data, a node whose operands were never typed).
OPAQUE = type("Opaque", (), {"__repr__": lambda self: "OPAQUE"})()

_PLAIN = (int, float, str, slice, DType, type(None), type(Ellipsis))


class Domain:
    """What a rule and the sweep ask of their consumer: the abstract tensor
    it wants, the check two dims agree, and what an untyped node is."""

    def tensor(self, shape, dtype) -> T:
        return T(tuple(shape), dtype)

    def unify(self, a, b, what: str):
        """The one dim *a* and *b* must both be."""
        if a == b:
            return a
        raise ShapeError(f"{what}: {a} != {b}")

    def missing(self, node: Node, why: str) -> Any:
        """The value of a node the table cannot type."""
        raise ShapeError(why)

    def lift(self, value: Any) -> Any:
        """A real value (example input, module attribute) as the sweep
        sees it."""
        if isinstance(value, Tensor):
            return self.tensor(value.shape, value.dtype)
        if isinstance(value, (tuple, list)):
            return type(value)(self.lift(v) for v in value)
        return value if isinstance(value, _PLAIN) else OPAQUE


# -- entries ------------------------------------------------------------------


@dataclass(frozen=True)
class OpDef:
    """The kernel of one op a fused region can hold: an elementwise op, or
    a contraction whose result the region's pointwise tail consumes.

    Attributes:
        key: registry name (stable; stored in ``FusedSpec``).
        arity: number of leading positional tensor-or-scalar operands.
        ref: ``ref(*arrays, **params) -> ndarray`` — allocating reference
            implementation replicating the eager numerics *exactly*.
        emit: ``emit(out, *arrays, **params) -> None`` — writes the result
            into ``out``, bit for bit what eager returns (eager's own kernel
            where :mod:`repro.kernels` has one).
        params: declared immediate parameters as ``(name, default)`` pairs
            (bound from remaining positional args, then kwargs).
        validate: optional predicate on the bound params dict; binding
            fails when it returns False.

    A pointwise ``emit`` must tolerate ``out`` aliasing any operand (the
    self-test runs it in place).  A contraction need not: it opens a
    region, so it reads only kernel inputs, never a buffer.
    """

    key: str
    arity: int
    ref: Callable
    emit: Callable
    params: tuple = ()
    validate: Optional[Callable[[dict], bool]] = None


@dataclass(frozen=True)
class OpPattern:
    """All the spellings of one logical op.

    Attributes:
        key: the logical op name (what a match resolves to).
        functions: ``call_function`` targets.
        methods: ``call_method`` target names.
        module_types: ``call_module`` submodule classes.
        extract: optional ``(node, module_or_None) -> dict | None`` pulling
            op parameters out of the call site; returning ``None`` vetoes
            the match (e.g. an unsupported parameterization).
    """

    key: str
    functions: tuple = ()
    methods: tuple = ()
    module_types: tuple = ()
    extract: Optional[Callable[[Node, Any], Optional[dict]]] = None


@dataclass
class PatternIndex:
    """Spelling -> :class:`OpPattern` in O(1): one table per opcode."""

    _by_function: dict = field(default_factory=dict)
    _by_method: dict = field(default_factory=dict)
    _by_module_type: dict = field(default_factory=dict)

    def add(self, pattern: OpPattern) -> None:
        for f in pattern.functions:
            self._by_function[f] = pattern
        for m in pattern.methods:
            self._by_method[m] = pattern
        for t in pattern.module_types:
            self._by_module_type[t] = pattern

    def find(self, node: Node, module: Any = None) -> Optional[OpPattern]:
        """The pattern *node* spells; *module* is the resolved target of a
        ``call_module``.  A callable *instance* (a generated kernel) spells
        what its class was registered as; a module, what the nearest class
        in its MRO was."""
        if node.op == "call_function":
            try:
                return self._by_function.get(node.target) \
                    or self._by_function.get(type(node.target))
            except TypeError:   # an unhashable target spells nothing
                return None
        if node.op == "call_method":
            return self._by_method.get(node.target)
        for cls in type(module).__mro__ if module is not None else ():
            if cls in self._by_module_type:
                return self._by_module_type[cls]
        return None


@dataclass(frozen=True)
class OpInfo(OpPattern):
    """One logical op: its spellings (inherited) and its rules.

    Attributes:
        shape: ``shape(d, *operands, **kwargs)``, *d* the :class:`Domain`: the
            result's dims as a list, a tuple of lists for several results,
            or — when ``dtype`` is ``None`` — the finished value (a shape
            value, or a tensor the rule built itself).
        dtype: ``dtype(*operands, **kwargs)``: one ``DType``, or a list
            parallel to ``shape``'s tuple.
        flops: per output element, or ``flops(numel, *operands, **kwargs)``.
        kernel: the :class:`OpDef` a fused region runs the op with.
        view: the result may share storage with an operand (a view, a cast
            or identity that can return its operand).
        writes: ``writes(*operands, **kwargs)``, truthy when the call writes
            state — a buffer it was handed, the global RNG.  ``None``: never.
    """

    shape: Optional[Callable] = None
    dtype: Optional[Callable] = None
    flops: Any = 0
    kernel: Optional[OpDef] = None
    view: bool = False
    writes: Optional[Callable] = None


#: key -> entry, and spelling -> entry.
TABLE: dict[str, OpInfo] = {}
INDEX = PatternIndex()


def op(key: str, shape: Callable, dtype: Optional[Callable] = None, *, flops: Any = 0,
       functions=(), methods=(), modules=None, extract=None,
       kernel: Optional[OpDef] = None, view: bool = False,
       writes: Optional[Callable] = None) -> OpInfo:
    """Declare one op.  *modules* maps a leaf-module type to the names of
    the attributes its ``forward`` hands its function, which become
    keyword operands: ``{nn.Flatten: ("start_dim", "end_dim")}``."""
    modules = dict(modules or {})

    def bound(node: Node, mod: Any) -> Optional[dict]:
        if mod is None:
            return {}
        # exact type: a subclass may override what forward does
        names = modules.get(type(mod))
        return None if names is None else {n: getattr(mod, n) for n in names}

    entry = TABLE[key] = OpInfo(
        key, tuple(functions), tuple(methods), tuple(modules),
        extract or (bound if modules else None), shape, dtype, flops, kernel,
        view, writes)
    INDEX.add(entry)
    return entry


def key_of(node: Node, modules: Optional[dict] = None) -> Optional[str]:
    """The key of the logical op *node* spells — ``"relu"`` for each of
    ``F.relu(x)``, ``x.relu()``, ``nn.ReLU()(x)`` — or ``None``."""
    mod = modules.get(node.target) if node.op == "call_module" and modules else None
    entry = INDEX.find(node, mod)
    # a module spells an op only by its exact type (see ``op``)
    if entry is None or mod is not None and type(mod) not in entry.module_types:
        return None
    return entry.key


def entry_of(node: Node, gm: Any) -> Optional[OpInfo]:
    """The entry of the call *node*, a module target resolved in *gm*, or
    ``None``: what a consumer that must be conservative reads."""
    try:
        modules = {node.target: gm.get_submodule(node.target)} \
            if node.op == "call_module" else None
    except AttributeError:      # no such submodule, or no module to look in
        return None
    return TABLE.get(key_of(node, modules))


def writes_state(node: Node, gm: Any) -> bool:
    """Does the call *node* write state, by its entry's ``writes`` over its
    operands (a node stands for its value) and what a module's ``forward``
    reads off the instance?"""
    entry = entry_of(node, gm)
    if entry is None or entry.writes is None:
        return False
    _, args, kwargs = bind(gm, node, lambda n: n, Domain())
    return bool(entry.writes(*args, **kwargs))


# -- the sweep ----------------------------------------------------------------

#: What a rule raises on a call form it was not written for (a 0-d operand
#: it unpacks, a keyword it does not take).  The node is then untyped, which
#: the domain's ``missing`` answers, instead of the sweep failing.
_NOT_COVERED = (TypeError, ValueError, IndexError, KeyError, AttributeError,
                ZeroDivisionError)


def _leaves(values, out: Optional[list] = None) -> list:
    out = [] if out is None else out
    for v in values:
        if type(v) in (tuple, list):
            _leaves(v, out)
        elif type(v) is dict:
            _leaves(v.values(), out)
        else:
            out.append(v)
    return out


def has_tensor(value: Any) -> bool:
    return isinstance(value, T) or any(isinstance(v, T) for v in _leaves([value]))


def target_name(node: Node, mod: Any = None) -> str:
    if mod is not None:
        return type(mod).__name__
    return getattr(node.target, "__name__", None) or str(node.target)


def bind(gm: GraphModule, node: Node, value_of: Callable, dom: Domain) -> tuple:
    """``(entry, operands, keyword operands)`` of a call node, a module
    spelling normalised to the call its ``forward`` makes.  ``entry`` is
    ``None`` for a nested ``GraphModule`` and for arithmetic on shape
    values: both are their own transfer."""
    args = tuple([value_of(a) if isinstance(a, Node) else map_arg(a, value_of)
                  for a in node.args])
    kwargs = map_arg(node.kwargs, value_of) if node.kwargs else {}
    leaves = _leaves((args, kwargs))
    if any(v is OPAQUE for v in leaves):   # an untypable operand
        raise NoRule(f"an operand of node {node.name!r} has no known shape")
    mod = gm.get_submodule(node.target) if node.op == "call_module" else None
    if isinstance(mod, GraphModule) or (
            getattr(node.target, "__module__", None) == "_operator"
            and not any(isinstance(v, T) for v in leaves)):
        return None, args, kwargs
    entry = INDEX.find(node, mod)
    bound = None if entry is None else \
        entry.extract(node, mod) if entry.extract else {}
    if bound is None:
        raise NoRule(f"no entry for {target_name(node, mod)} at node {node.name!r}")
    for name, value in bound.items():
        kwargs[name] = dom.lift(value) if isinstance(value, Tensor) else value
    return entry, args, kwargs


def infer(gm: GraphModule, node: Node, value_of: Callable, dom: Domain) -> Any:
    """The value of one ``get_attr`` or call node in *dom*, its operands'
    values given by ``value_of(node)``."""
    try:
        if node.op == "get_attr":
            return dom.lift(_resolve_attr(gm, node.target))
        entry, args, kwargs = bind(gm, node, value_of, dom)
        if entry is None:
            if node.op == "call_module":
                return sweep(gm.get_submodule(node.target), args, dom)[1]
            return node.target(*args, **kwargs)
        out = entry.shape(dom, *args, **kwargs)
        if entry.dtype is None:
            return out
        dtype = entry.dtype(*args, **kwargs)
        if type(out) is list:
            return dom.tensor(out, dtype)
        return tuple(map(dom.tensor, out,
                         dtype if type(dtype) is list else [dtype] * len(out)))
    except NoRule as why:
        return dom.missing(node, str(why))
    except ShapeError as exc:
        raise type(exc)(f"{exc} at node {node.name!r}") from None
    except _NOT_COVERED as exc:
        return dom.missing(
            node, f"the entry for {target_name(node)} does not cover the call "
                  f"at node {node.name!r} ({type(exc).__name__}: {exc})")


def sweep(gm: GraphModule, inputs, dom: Domain) -> tuple[dict, Any]:
    """One forward pass over ``gm.graph``: ``({node: value}, output value)``.
    *inputs* are the placeholders' values in *dom*; the module is only read."""
    env: dict[Node, Any] = {}
    feed = iter(inputs)
    for node in gm.graph.nodes:
        if node.op == "placeholder":
            value = next(feed, NoRule)
            if value is NoRule:
                if not node.args:
                    raise ShapeError(f"no input for placeholder {node.target!r}")
                value = dom.lift(node.args[0])
        elif node.op == "output":
            env[node] = map_arg(node.args[0], env.__getitem__)
            return env, env[node]
        else:
            value = infer(gm, node, env.__getitem__, dom)
        env[node] = value
    return env, None


# -- shape rules ----------------------------------------------------------


def _prod(dims) -> Any:
    total = 1
    for dim in dims:
        total = total * dim
    return total


def _rank(x: T, rank: int, what: str):
    if len(x.shape) != rank:
        raise ShapeError(f"{what} expects rank {rank}, got {tuple(x.shape)}")
    return x.shape


def _canon(shape: tuple) -> tuple:
    """``reshape(2, 3)`` and ``reshape((2, 3))`` are one call."""
    one = len(shape) == 1 and isinstance(shape[0], (tuple, list))
    return tuple(shape[0]) if one else shape


def _broadcast(d: Domain, *shapes) -> list:
    """Numpy broadcasting: a 1 takes the other dim, any other pair must
    unify."""
    out = []
    for dims in itertools.zip_longest(*map(reversed, shapes), fillvalue=1):
        dim = 1
        for other in dims:
            if dim == 1:
                dim = other
            elif other != 1:
                dim = d.unify(dim, other, "cannot broadcast")
        out.append(dim)
    return out[::-1]


def pointwise_shape(d, *args, **kwargs):
    return _broadcast(d, *[v.shape for v in (*args, *kwargs.values())
                           if isinstance(v, T)])


def unchanged_shape(d, x, *args, **kwargs):
    return list(x.shape)


def _matmul(d, a, b):
    a, b = tuple(a.shape), tuple(b.shape)
    if not a or not b:
        raise ShapeError("matmul of a 0-d tensor")
    # numpy: a vector is a row on the left and a column on the right, and the
    # dim that made it a matrix is dropped from the result again
    lhs = a if len(a) > 1 else (1, *a)
    rhs = b if len(b) > 1 else (*b, 1)
    d.unify(lhs[-1], rhs[-2], "matmul contraction")
    out = _broadcast(d, lhs[:-2], rhs[:-2]) + [lhs[-2], rhs[-1]]
    if len(a) == 1:
        del out[-2]
    if len(b) == 1:
        del out[-1]
    return out


def _linear(d, x, weight, bias=None):
    if not x.shape:
        raise ShapeError("linear of a 0-d tensor")
    d.unify(x.shape[-1], weight.shape[-1], "linear in_features")
    return [*x.shape[:-1], *weight.shape[:-1]]


def _conv_out(size, kernel, stride, padding, dilation=1):
    """Output extent of a strided window: convolution and pooling."""
    return (size + 2 * padding - dilation * (kernel - 1) - 1) // stride + 1


def _conv2d(d, x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    n, c, h, w = _rank(x, 4, "conv2d input")
    f, cg, kh, kw = weight.shape
    d.unify(c, cg * groups, "conv2d in_channels")
    (sh, sw), (ph, pw), (dh, dw) = _pair(stride), _pair(padding), _pair(dilation)
    return [n, f, _conv_out(h, kh, sh, ph, dh), _conv_out(w, kw, sw, pw, dw)]


def _conv1d(d, x, weight, bias=None, stride=1, padding=0, dilation=1, groups=1):
    n, c, length = _rank(x, 3, "conv1d input")
    # eager lifts to a conv2d of width 1, and so does the rule
    return _conv2d(d, T((n, c, length, 1)), T((*weight.shape, 1)), None,
                   (stride, 1), (padding, 0), (dilation, 1), groups)[:3]


def _conv_transpose2d(d, x, weight, bias=None, stride=1, padding=0,
                      output_padding=0):
    n, c, h, w = _rank(x, 4, "conv_transpose2d input")
    cw, f, kh, kw = weight.shape
    d.unify(c, cw, "conv_transpose2d in_channels")
    (sh, sw), (ph, pw), (oh, ow) = \
        _pair(stride), _pair(padding), _pair(output_padding)
    return [n, f, (h - 1) * sh - 2 * ph + kh + oh, (w - 1) * sw - 2 * pw + kw + ow]


def _pool2d(d, x, kernel_size, stride=None, padding=0, count_include_pad=True):
    n, c, h, w = _rank(x, 4, "pool2d input")
    (kh, kw), (ph, pw) = _pair(kernel_size), _pair(padding)
    sh, sw = (kh, kw) if stride is None else _pair(stride)
    return [n, c, _conv_out(h, kh, sh, ph), _conv_out(w, kw, sw, pw)]


def _adaptive_pool2d(d, x, output_size):
    return [*_rank(x, 4, "adaptive_avg_pool2d input")[:2], *_pair(output_size)]


def _interpolate(d, x, size=None, scale_factor=None, mode="nearest"):
    n, c, h, w = _rank(x, 4, "interpolate input")
    if size is not None:
        return [n, c, *_pair(size)]
    factors = scale_factor if isinstance(scale_factor, (tuple, list)) \
        else (scale_factor, scale_factor)
    return [n, c] + [int(s * f) for s, f in zip((h, w), factors)]   # as eager truncates


def _batch_norm(d, x, running_mean=None, running_var=None, weight=None,
                bias=None, *_, **__):
    stats = weight if running_mean is None else running_mean
    if len(x.shape) < 2:
        raise ShapeError(f"batch_norm expects (N, C, ...), got {tuple(x.shape)}")
    c = x.shape[1] if stats is None else \
        d.unify(x.shape[1], stats.shape[0], "batch_norm num_features")
    return [x.shape[0], c, *x.shape[2:]]


def _layer_norm(d, x, normalized_shape, weight=None, bias=None, eps=1e-5):
    tail = (normalized_shape,) if isinstance(normalized_shape, int) \
        else tuple(normalized_shape)
    lead = len(x.shape) - len(tail)
    if lead < 0:
        raise ShapeError(f"layer_norm over {tail} of a {tuple(x.shape)} tensor")
    return [*x.shape[:lead], *(d.unify(a, b, "layer_norm normalized_shape")
                               for a, b in zip(x.shape[lead:], tail))]


def _embedding(d, indices, weight):
    if indices.dtype is bool_:
        raise NoRule("a boolean index selects by value")
    return [*indices.shape, *weight.shape[1:]]


def _flatten(d, x, start_dim=0, end_dim=-1):
    shape = tuple(x.shape)
    if not shape:
        return [1]
    start, end = start_dim % len(shape), end_dim % len(shape)
    return [*shape[:start], _prod(shape[start:end + 1]), *shape[end + 1:]]


def _reshape(d, x, *shape):
    shape, total = list(_canon(shape)), _prod(x.shape)
    holes = [i for i, s in enumerate(shape) if s == -1]
    if holes:
        shape[holes[0]] = total // _prod(s for s in shape if s != -1)
    # with the -1 filled in, one check covers a wrong explicit shape and a -1
    # that does not divide
    d.unify(_prod(shape), total, "reshape element count")
    return shape


def _transpose(d, x, dim0, dim1):
    out = list(x.shape)
    out[dim0], out[dim1] = out[dim1], out[dim0]
    return out


def _squeeze(d, x, dim=None):
    dims = range(len(x.shape)) if dim is None else (range(len(x.shape))[dim],)
    return [s for i, s in enumerate(x.shape) if i not in dims or s != 1]


def _insert(shape, dim: int, size) -> list:
    out = list(shape)
    out.insert(dim if dim >= 0 else dim + len(out) + 1, size)
    return out


def _same_rank(tensors, what: str) -> list:
    """The first operand's shape, every other one checked to have its rank."""
    out = list(tensors[0].shape)
    for t in tensors[1:]:
        if len(t.shape) != len(out):
            raise ShapeError(f"{what} of ranks {len(out)} and {len(t.shape)}")
    return out


def _cat(d, tensors, dim=0):
    out = _same_rank(tensors, "cat")
    dim %= len(out)
    for t in tensors[1:]:
        out = [a + b if i == dim else d.unify(a, b, "cat off-axis dim")
               for i, (a, b) in enumerate(zip(out, t.shape))]
    return out


def _stack(d, tensors, dim=0):
    out = _same_rank(tensors, "stack")
    for t in tensors[1:]:
        out = [d.unify(a, b, "stack operand shape") for a, b in zip(out, t.shape)]
    return _insert(out, dim, len(tensors))


def _chunk(d, x, chunks, dim=0):
    # numpy.array_split: the first ``size % chunks`` pieces get one more
    return tuple([(s + (chunks - 1 - i)) // chunks if j == dim % len(x.shape)
                  else s for j, s in enumerate(x.shape)] for i in range(chunks))


def _getitem(d, x, index):
    if not isinstance(x, T):
        return x[index]         # one result of a tuple-valued node
    index = index if isinstance(index, tuple) else (index,)
    dims, out, pos = list(x.shape), [], 0
    named = sum(type(i) in (int, slice) for i in index)
    for i in index:
        if i is None:
            out.append(1)
        elif i is Ellipsis:
            stop = len(dims) - named
            out, pos = out + dims[pos:stop], stop
        elif type(i) is slice:
            out.append(len(range(*i.indices(dims[pos]))))
            pos, named = pos + 1, named - 1
        elif type(i) is int:
            pos, named = pos + 1, named - 1
        else:       # a tensor, list or bool index selects by value
            raise NoRule("an index whose result shape depends on values")
    return d.tensor(out + dims[pos:], x.dtype)


def _reduce(d, x, dim=None, keepdim=False):
    if dim is None:
        return [1] * len(x.shape) if keepdim else []
    dims = {i % len(x.shape) for i in ((dim,) if isinstance(dim, int) else dim)}
    return [1 if i in dims else s for i, s in enumerate(x.shape)
            if keepdim or i not in dims]


def _getattr(d, x, name):
    if name == "shape":
        return x.shape
    if name == "T":
        return d.tensor(tuple(x.shape)[::-1], x.dtype)
    raise NoRule(f"no entry for attribute {name!r}")


# -- dtype rules ------------------------------------------------------------------


def _same(x, *args, **kwargs):
    return x.dtype


def _promote(*args, **kwargs):
    """numpy's ``result_type`` over every tensor operand, weights and bias
    included: what a contraction or a concatenation returns."""
    return dtype_from_numpy(np.result_type(*[
        v.dtype.np_dtype for v in _leaves((args, kwargs)) if isinstance(v, T)]))


def _probe(fn: Callable) -> Callable:
    """The dtype *fn* returns on one-element stand-ins of the operands,
    Python scalars passed as they are: numpy 2 promotes by dtype and scalar
    *type*, never by value, so one run per type signature is exact.  For a
    pointwise op *fn* is its own ``ref``: rule and kernel cannot disagree."""
    memo: dict = {}

    def rule(*args, **kwargs):
        values = (*args, *kwargs.values())
        key = tuple(v.dtype if isinstance(v, T) else v if isinstance(v, str) else type(v)
                    for v in values)
        if key not in memo:
            stand = [np.ones(1, v.dtype.np_dtype) if isinstance(v, T) else v
                     for v in values]
            out = fn(*stand[:len(args)], **dict(zip(kwargs, stand[len(args):])))
            memo[key] = dtype_from_numpy(np.asarray(out).dtype)
        return memo[key]

    return rule


def _like(fn: Callable) -> Callable:
    """:func:`_probe` on the first operand alone: a reduction's dtype does
    not depend on its ``dim``."""
    probe = _probe(fn)
    return lambda x, *args, **kwargs: probe(x)


# -- the table: pointwise ops (shape = broadcast, dtype from their own ref) -------


def pointwise(opdef: OpDef, *, flops: int = 1, functions=(), methods=(),
              modules=None) -> OpInfo:
    """Declare a fusible elementwise op: ``pointwise_fuser`` generates code
    from *opdef*; shape, dtype and one cost per key come with it."""
    return op(opdef.key, pointwise_shape, _probe(opdef.ref), flops=flops,
              functions=functions, methods=methods, modules=modules, kernel=opdef)


def _eager(fn: Callable) -> Callable:
    """The eager implementation itself as a kernel's ``ref`` (ndarrays in,
    ndarray out): nothing to keep bit-identical by hand.  Eager unwraps
    what it is given, so an ndarray goes in as it is, wrapped in no Tensor."""
    impl = fn.__wrapped_impl__      # past the tracing dispatch: no Proxy gets here
    return lambda *operands, **params: impl(*operands, **params).data


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


def _emit_linear(out, x, weight, bias=None):
    # eager's ``matmul(x, weight.T) + bias``, streamed into ``out``
    np.matmul(x, weight.T, out=out)
    if bias is not None:
        np.add(out, bias, out=out)


def _emit_rsqrt(out, a):
    np.sqrt(a, out=out)
    np.divide(1.0, out, out=out)


#: flops per element of an op that evaluates a transcendental
_HEAVY = 8


def _populate_pointwise() -> None:
    """Every op's ``emit`` writes into the kernel buffer: a ufunc, a short
    numpy expression, or the :mod:`repro.kernels` function eager itself
    calls.  Its ``ref`` replicates the eager expression, or is eager."""
    A = nn.activations

    def reg(key, arity, ref, emit, *, params=(), validate=None, **where):
        pointwise(OpDef(key, arity, ref, emit, params, validate), **where)

    def ufunc(uf):
        def emit(out, *arrays, **params):
            uf(*arrays, out=out, **params)
        emit.ufunc = uf     # what a fused kernel calls in its place
        return emit

    # -- arithmetic ---------------------------------------------------------
    _emit_add.ufunc = np.add    # what a fused kernel calls at the default alpha
    reg("add", 2, _ref_add, params=(("alpha", 1),), emit=_emit_add,
        functions=(operator.add, F.add))
    for key, uf, fns in (("sub", np.subtract, (operator.sub, F.sub)),
                         ("mul", np.multiply, (operator.mul, F.mul)),
                         ("div", np.true_divide, (operator.truediv, F.div))):
        reg(key, 2, lambda a, b, uf=uf: np.asarray(uf(a, b)), emit=ufunc(uf),
            functions=fns)
    reg("pow", 2, lambda a, b: np.asarray(np.power(a, b)), emit=ufunc(np.power),
        flops=_HEAVY, functions=(operator.pow, F.pow), methods=("pow",))
    reg("neg", 1, np.negative, emit=ufunc(np.negative),
        functions=(operator.neg, F.neg), methods=("neg",))
    reg("abs", 1, np.abs, emit=ufunc(np.abs),
        functions=(operator.abs, F.abs), methods=("abs",))
    reg("maximum", 2, np.maximum, emit=ufunc(np.maximum), functions=(F.maximum,))
    reg("minimum", 2, np.minimum, emit=ufunc(np.minimum), functions=(F.minimum,))

    # -- transcendental -----------------------------------------------------
    for key, uf in (("exp", np.exp), ("log", np.log), ("sqrt", np.sqrt),
                    ("sin", np.sin), ("cos", np.cos)):
        reg(key, 1, uf, emit=ufunc(uf), flops=_HEAVY,
            functions=(getattr(F, key),), methods=(key,))
    reg("rsqrt", 1, lambda a: 1.0 / np.sqrt(a), emit=_emit_rsqrt, flops=_HEAVY,
        functions=(F.rsqrt,), methods=("rsqrt",))
    reg("reciprocal", 1, lambda a: 1.0 / np.asarray(a),
        emit=lambda out, a: np.divide(1.0, a, out=out), methods=("reciprocal",))
    reg("tanh", 1, np.tanh, emit=ufunc(np.tanh),
        functions=(F.tanh,), methods=("tanh",), modules={A.Tanh: ()})
    reg("erf", 1, _eager(F.erf), emit=kernels.erf, flops=_HEAVY, functions=(F.erf,),
        methods=("erf",))
    for key, uf in (("sign", np.sign), ("floor", np.floor)):
        reg(key, 1, uf, emit=ufunc(uf), functions=(getattr(F, key),), methods=(key,))
    reg("round", 1, np.round, emit=lambda out, a: np.round(a, out=out),
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
        functions=(F.hardtanh,), modules={A.Hardtanh: ("min_val", "max_val")})
    reg("where", 3, _eager(F.where), emit=kernels.where, functions=(F.where,))

    # -- activations --------------------------------------------------------
    reg("relu", 1, lambda a: np.maximum(a, 0),
        emit=lambda out, a: np.maximum(a, 0, out=out),
        functions=(F.relu,), methods=("relu",), modules={A.ReLU: ()})
    reg("relu6", 1, lambda a: np.clip(a, 0, 6),
        emit=lambda out, a: np.clip(a, 0, 6, out=out),
        functions=(F.relu6,), modules={A.ReLU6: ()})
    for fn, cls, params, flops in (
            (F.leaky_relu, A.LeakyReLU, (("negative_slope", 0.01),), 1),
            (F.elu, A.ELU, (("alpha", 1.0),), _HEAVY), (F.selu, A.SELU, (), _HEAVY),
            (F.gelu, A.GELU, (), _HEAVY), (F.silu, A.SiLU, (), _HEAVY),
            (F.mish, A.Mish, (), _HEAVY), (F.sigmoid, A.Sigmoid, (), 1),
            (F.hardsigmoid, A.Hardsigmoid, (), 1), (F.hardswish, A.Hardswish, (), 1),
            (F.softplus, A.Softplus, (("beta", 1.0),), _HEAVY)):
        key = fn.__name__
        reg(key, 1, _eager(fn), emit=getattr(kernels, key), params=params, flops=flops,
            functions=(fn,), methods=(key,) if hasattr(Tensor, key) else (),
            modules={cls: tuple(name for name, _ in params)})


# -- the table: everything else ---------------------------------------------------


def _populate() -> None:
    _populate_pointwise()

    def per_input(numel, x, *args, **kwargs):       # one flop per element read
        return _prod(x.shape)

    def contraction(numel, a, *args, **kwargs):
        return 2 * numel * a.shape[-1]

    def windowed(numel, x, weight, *args, **kwargs):
        return 2 * numel * _prod(weight.shape[1:])

    def window(numel, x, kernel_size, *args, **kwargs):
        return numel * _prod(_pair(kernel_size))

    # -- elementwise, not fusible ---------------------------------------------
    for fn in (operator.gt, operator.lt, operator.ge, operator.le, operator.eq,
               operator.ne, operator.floordiv, operator.mod):
        op(fn.__name__, pointwise_shape, _probe(fn), flops=1, functions=(fn,))
    softmax = _like(lambda a: F.softmax(Tensor._wrap(a)).data)
    op("softmax", unchanged_shape, softmax, flops=_HEAVY, functions=(F.softmax,),
       methods=("softmax",), modules={nn.Softmax: ("dim",)})
    op("log_softmax", unchanged_shape, softmax, flops=_HEAVY, functions=(F.log_softmax,),
       modules={nn.LogSoftmax: ("dim",)})
    # returns its operand when not training; a training call draws the mask
    # from the global RNG, so two of them are two effects
    op("dropout", unchanged_shape, _same, flops=1, functions=(F.dropout,),
       modules={nn.Dropout: ("p", "training")}, view=True,
       writes=lambda x, p=0.5, training=True: training and p != 0)
    op("identity", unchanged_shape, _same, methods=("detach",), modules={nn.Identity: ()},
       view=True)
    op("clone", unchanged_shape, _same, methods=("clone",))
    # numpy.ascontiguousarray returns at least one dimension
    op("contiguous", lambda d, x: list(x.shape) or [1], _same, methods=("contiguous",),
       view=True)
    for key, dtype in CASTS.items():
        op(key, unchanged_shape, lambda x, dtype=dtype: dtype, methods=(key,), view=True)

    # -- contractions ---------------------------------------------------------
    op("matmul", _matmul, _promote, flops=contraction, methods=("matmul", "mm", "bmm"),
       functions=(F.matmul, F.mm, F.bmm, operator.matmul))
    op("addmm", lambda d, bias, a, b: _broadcast(d, bias.shape, _matmul(d, a, b)),
       _promote, flops=lambda n, bias, a, b: 2 * n * a.shape[-1] + n,
       functions=(F.addmm,))
    # the GEMM opens a fused region; it writes ``out`` while reading ``x``
    op("linear", _linear, _promote, flops=contraction, functions=(F.linear,),
       modules={nn.Linear: ("weight", "bias")},
       kernel=OpDef("linear", 3, _eager(F.linear), _emit_linear))
    conv = ("weight", "bias", "stride", "padding", "dilation", "groups")
    op("conv2d", _conv2d, _same, flops=windowed, functions=(F.conv2d,),
       modules={nn.Conv2d: conv})
    op("conv1d", _conv1d, _same, flops=windowed, functions=(F.conv1d,),
       modules={nn.Conv1d: conv})
    op("conv_transpose2d", _conv_transpose2d, _same, functions=(F.conv_transpose2d,),
       # every input element scatters a (C_out, KH, KW) patch
       flops=lambda n, x, weight, *a, **k: 2 * _prod(x.shape) * _prod(weight.shape[1:]),
       modules={nn.ConvTranspose2d:
                ("weight", "bias", "stride", "padding", "output_padding")})
    op("embedding", _embedding, lambda indices, weight: weight.dtype,
       functions=(F.embedding,), modules={nn.Embedding: ("weight",)})

    # -- normalisation and pooling ----------------------------------------------
    stats = ("running_mean", "running_var", "weight", "bias", "training")
    op("batch_norm", _batch_norm, _same, flops=4, functions=(F.batch_norm,),
       modules={nn.BatchNorm1d: stats, nn.BatchNorm2d: stats},
       writes=lambda x, running_mean=None, running_var=None, weight=None, bias=None,
       training=False, *_, **__: training and running_mean is not None)
    op("layer_norm", _layer_norm, _same, flops=_HEAVY, functions=(F.layer_norm,),
       modules={nn.LayerNorm: ("normalized_shape", "weight", "bias")})
    pool = ("kernel_size", "stride", "padding")
    op("max_pool2d", _pool2d, _same, flops=window, functions=(F.max_pool2d,),
       modules={nn.MaxPool2d: pool})
    op("avg_pool2d", _pool2d, _same, flops=window, functions=(F.avg_pool2d,),
       modules={nn.AvgPool2d: pool})
    op("adaptive_avg_pool2d", _adaptive_pool2d, _like(np.mean), flops=per_input,
       functions=(F.adaptive_avg_pool2d,),
       modules={nn.AdaptiveAvgPool2d: ("output_size",)})
    resample = _probe(lambda a, mode: F.interpolate(
        Tensor._wrap(a.reshape(1, 1, 1, 1)), scale_factor=1, mode=mode).data)
    op("interpolate", _interpolate,
       lambda x, size=None, scale_factor=None, mode="nearest": resample(x, mode),
       flops=1, functions=(F.interpolate,),
       modules={nn.Upsample: ("size", "scale_factor", "mode")})

    # -- views and data movement: no arithmetic, 0 flops ---------------------------
    view = functools.partial(op, view=True)
    view("flatten", _flatten, _same, functions=(F.flatten,), methods=("flatten",),
         modules={nn.Flatten: ("start_dim", "end_dim")})
    view("reshape", _reshape, _same, functions=(F.reshape,), methods=("reshape", "view"))
    view("transpose", _transpose, _same, functions=(F.transpose,),
         methods=("transpose",))
    view("t", lambda d, x: list(x.shape)[::-1], _same, methods=("t",))
    view("permute", lambda d, x, *dims: [x.shape[i] for i in _canon(dims)], _same,
         functions=(F.permute,), methods=("permute",))
    view("squeeze", _squeeze, _same, functions=(F.squeeze,), methods=("squeeze",))
    view("unsqueeze", lambda d, x, dim: _insert(x.shape, dim, 1), _same,
         functions=(F.unsqueeze,), methods=("unsqueeze",))
    op("cat", _cat, _promote, functions=(F.cat,))
    op("stack", _stack, _promote, functions=(F.stack,))
    view("chunk", _chunk, _same, functions=(F.chunk,), methods=("chunk",))
    view("getitem", _getitem, functions=(operator.getitem,))

    # -- reductions ---------------------------------------------------------------
    for key, fn, methods in (("sum", np.sum, ("sum",)), ("mean", np.mean, ("mean",)),
                             ("amax", np.max, ()), ("amin", np.min, ())):
        op(key, _reduce, _like(fn), flops=per_input, functions=(getattr(F, key),),
           methods=methods)
    op("var", lambda d, x, dim=None, unbiased=True, keepdim=False:
       _reduce(d, x, dim, keepdim), _like(np.var), flops=per_input,
       functions=(F.var,), methods=("var", "std"))

    # -- shape values: the result is dims, not a tensor ----------------------------
    view("getattr", _getattr, functions=(getattr,))
    view("size", lambda d, x, dim=None: x.shape if dim is None else x.shape[dim],
         methods=("size",))


#: The cast family: key -> the dtype it casts to (``to``: its argument).
CASTS = {"to": None, "float": float32, "double": float64, "long": int64, "int": int32,
         "bool": bool_}
_populate()
#: The keys declared here, in order: the fuzz generator's draw, whatever registers later.
DECLARED = tuple(TABLE)

#: Every public ``repro.functional`` function and ``nn`` leaf module without an
#: entry, and why.  The self-test fails on a name that has neither, and on a
#: line whose name is neither.
NO_ENTRY = {
    **dict.fromkeys(
        ("group_norm", "GroupNorm", "one_hot", "pad", "split", "argmax", "cumsum",
         "topk"),
        "no model a compile has been asked about uses it; executed"),
    **dict.fromkeys(("allclose", "equal"), "returns a Python bool read off values"),
    "MultiheadAttention": "a composite of four Linear layers and a softmax that "
                          "the tracer keeps opaque; executed — the named fallback "
                          "— until attention has an entry of its own",
}


# -- self-test: every entry against eager -------------------------------------------

#: In a sample ``X(dims)`` is a tensor of that shape, anything else is passed
#: as it is and a trailing dict is the keyword arguments; ``B`` is the batch
#: dim.  Function order of arguments.
B = 7
X = type("X", (tuple,), {"__new__": lambda cls, *dims: tuple.__new__(cls, dims)})
#: ``(batch, dtype)`` of each run of a sample: every dtype at ``B``, and
#: float32 with ``B`` read as 1 and as 5, so a rule right only at ``B`` fails.
_RUNS = [(B, dtype) for dtype in (float32, float64, int64, bool_)] \
    + [(1, float32), (5, float32)]
_UNARY = [(X(B, 3),), (X(B, 1),), (X(),)]
_BINARY = [(X(B, 3), X(B, 3)), (X(B, 1, 3), X(2, 1)), (X(B, 3), X()), (X(B, 3), 2),
           (X(B, 3), 1.5), (2, X(B, 3))]
_REDUCTIONS = [(X(B, 3, 4),), (X(B, 3, 4), 1), (X(B, 3, 4), -1, True),
               (X(B, 3, 4), (0, 2)), (X(),)]
_SAMPLES = {
    "add": _BINARY + [(X(B, 3), X(3), {"alpha": 2})],
    "clamp": [(X(B, 3), 0.25, 0.75), (X(B, 3), {"min": 0})],
    "clamp_min": [(X(B, 3), 0.5)],
    "where": [(X(B, 3), X(B, 3), X(B, 3)), (X(B, 1), X(1, 3), X(1)),
              (X(B, 3), X(B, 3), 2.0)],
    "matmul": [(X(B, 3), X(3, 4)), (X(2, B, 3), X(3, 4)), (X(B, 3), X(3)),
               (X(3), X(3, 4)), (X(3), X(3)), (X(2, B, 3), X(2, 3, 4))],
    "addmm": [(X(4), X(B, 3), X(3, 4))],
    "linear": [(X(B, 3), X(4, 3), X(4)), (X(2, B, 3), X(4, 3))],
    "conv2d": [(X(B, 4, 9, 8), X(6, 4, 3, 3), X(6), 2, 1),
               (X(B, 4, 9, 8), X(6, 2, 3, 2), None, (2, 1), (1, 0), 1, 2)],
    "conv1d": [(X(B, 4, 9), X(6, 4, 3), None, 2, 1)],
    "conv_transpose2d": [(X(B, 4, 5, 5), X(4, 3, 4, 4), X(3), 2, 1)],
    "embedding": [(X(B, 2), X(9, 5))],
    "batch_norm": [(X(B, 3, 4, 4), X(3), X(3), X(3), X(3)), (X(B, 3), X(3), X(3)),
                   (X(B, 3, 4, 4), X(3), X(3), X(3), X(3), True)],
    "dropout": [(X(B, 3), 0.5, True), (X(B, 3), 0.5, False), (X(B, 3), 0.0)],
    "to": [(X(B, 3), float64), (X(B, 3), float32)],
    "layer_norm": [(X(B, 2, 5), (5,), X(5), X(5)), (X(B, 5), 5)],
    "max_pool2d": [(X(B, 2, 9, 8), 3, 2, 1), (X(B, 2, 8, 8), 2)],
    "avg_pool2d": [(X(B, 2, 9, 8), 3, 2, 1), (X(B, 2, 7, 7), 2)],
    "adaptive_avg_pool2d": [(X(B, 2, 8, 8), 2)],
    "interpolate": [(X(B, 2, 4, 4), {"scale_factor": 2}), (X(B, 2, 4, 4), {"size": (5, 6)}),
                    (X(B, 2, 4, 4), {"scale_factor": 1.5, "mode": "bilinear"})],
    "flatten": [(X(B, 3, 4), 1), (X(B, 3, 4),), (X(B, 3, 4), 0, -2), (X(),)],
    "reshape": [(X(B, 3, 4), (-1, 4)), (X(B, 3, 4), (B, 12)), (X(B, 3, 4), (2 * B, -1))],
    "transpose": [(X(B, 3, 4), 0, -1)],
    "t": [(X(B, 3),), (X(B),)],
    "permute": [(X(B, 3, 4), (2, 0, 1))],
    "squeeze": [(X(B, 1, 4, 1),), (X(B, 1, 4), 1), (X(B, 1, 4), -2), (X(B, 1, 4), 0)],
    "unsqueeze": [(X(B, 3), 0), (X(B, 3), -1), (X(), 0)],
    "cat": [([X(B, 3), X(B, 4)], 1), ([X(B, 3), X(2, 3)],), ([X(B, 3), X(B, 2)], -1)],
    "stack": [([X(B, 3), X(B, 3)],), ([X(B, 3), X(B, 3)], -1), ([X(B, 3), X(B, 3)], 1)],
    "chunk": [(X(B, 6), 2, 1), (X(B, 5), 3, -1), (X(2 * B, 3), 2)],
    "getitem": [(X(B, 3, 4), 0), (X(B, 3, 4), (slice(None), 1)),
                (X(B, 3, 4), (Ellipsis, slice(1, 3))), (X(B, 3, 4), (0, Ellipsis, None)),
                (X(B, 3, 4), (slice(None), None, slice(0, 3, 2)))],
    **dict.fromkeys(("sum", "mean", "amax", "amin"), _REDUCTIONS),
    "var": _REDUCTIONS[:2] + [(X(B, 3, 4), 1, False, True)],
    "getattr": [(X(B, 3), "shape"), (X(B, 3, 2), "T")],
    "size": [(X(B, 3),), (X(B, 3), -1)],
}
#: Constructor arguments of the leaf modules that need any, and the shape to
#: call them on (default: ``cls()`` on ``X(B, 3)``).
_MODULE_SAMPLES = {
    nn.Linear: ((3, 4), X(B, 3)), nn.Conv2d: ((4, 6, 3, 2, 1), X(B, 4, 9, 8)),
    nn.Conv1d: ((4, 6, 3, 2), X(B, 4, 9)), nn.Embedding: ((9, 5), X(B, 2)),
    nn.ConvTranspose2d: ((4, 3, 4, 2, 1), X(B, 4, 5, 5)),
    nn.BatchNorm1d: ((3,), X(B, 3)), nn.BatchNorm2d: ((3,), X(B, 3, 4, 4)),
    nn.LayerNorm: ((5,), X(B, 2, 5)), nn.MaxPool2d: ((3, 2, 1), X(B, 2, 9, 8)),
    nn.AvgPool2d: ((2,), X(B, 2, 7, 7)), nn.AdaptiveAvgPool2d: ((2,), X(B, 2, 8, 8)),
    nn.Upsample: ((None, 2), X(B, 2, 4, 4)), nn.Flatten: ((), X(B, 3, 4)),
}
#: Calls that break a declared constraint: ``ShapeProp`` raises ``ShapeError``.
#: (A module is given as its class and constructor arguments: importing this
#: file builds none, and so draws nothing from the global RNG.)
_VIOLATIONS = [
    (F.matmul, (X(B, 3), X(4, 5))), (F.linear, (X(B, 3), X(4, 5))),
    (F.add, (X(B, 3), X(B, 4))), (F.where, (X(B, 3), X(B, 3), X(B, 2))),
    (F.conv2d, (X(B, 4, 8, 8), X(6, 3, 3, 3))), (F.conv2d, (X(4, 8, 8), X(6, 4, 3, 3))),
    (F.cat, ([X(B, 3), X(B + 1, 3)], 1)), (F.stack, ([X(B, 3), X(B, 4)],)),
    (F.batch_norm, (X(B, 3, 4, 4), X(5), X(5))), (F.layer_norm, (X(B, 4), (5,))),
    (F.reshape, (X(B, 3), (5, 4))), ((nn.Linear, 5, 2), (X(B, 3),)),
    ((nn.Conv2d, 3, 2, 3), (X(B, 4, 8, 8),)), ((nn.BatchNorm2d, 5), (X(B, 3, 4, 4),)),
    ((nn.LayerNorm, 5), (X(B, 4),)),
]


def _call_graph(target: Any, spec: tuple, batch: int = B) -> tuple:
    """A one-call graph for *target* (a function, a method name or a leaf
    module) and the shapes of its tensor operands, ``B`` read as *batch*."""
    from .graph import Graph

    graph, root, shapes = Graph(), nn.Module(), []
    if isinstance(target, nn.Module):   # NaN statistics one run leaves hide the next write
        target = copy.deepcopy(target)

    def operand(v):
        if isinstance(v, list):
            return [operand(x) for x in v]
        if isinstance(v, X):
            shapes.append(tuple(i // B * batch if i and i % B == 0 else i for i in v))
            return graph.placeholder(f"x{len(shapes)}")
        return v

    kwargs = spec[-1] if isinstance(spec[-1], dict) else {}
    args = tuple(operand(v) for v in (spec[:-1] if kwargs else spec))
    if isinstance(target, nn.Module):
        root.add_module("leaf", target)
        graph.output(graph.call_module("leaf", args, kwargs))
    elif isinstance(target, str):
        graph.output(graph.call_method(target, args, kwargs))
    else:
        graph.output(graph.call_function(target, args, kwargs))
    return GraphModule(root, graph), shapes


#: A float sample's values: both signs of each branch, ±0, ±100, ±inf, NaN.
_FLOATS = np.array([0.5, 1.5, -0.5, -1.5, 0.0, -0.0, 100.0, -100.0, np.inf, -np.inf, np.nan])


def _tensors(shapes: list, dtype: DType) -> list:
    """Seeded: 0s and 1s, or each of :data:`_FLOATS` in a tensor that large."""
    rng = np.random.default_rng(0)
    return [Tensor(rng.permutation(np.resize(rng.permutation(_FLOATS), int(np.prod(shape))))
                   .reshape(shape) if dtype.is_floating_point
                   else rng.integers(0, 2, shape), dtype) for shape in shapes]


def _facts(value: Any) -> Any:
    """*value* with every tensor, real or abstract, as its shape and dtype,
    and every tuple subclass (a ``Size``) as a plain tuple."""
    if isinstance(value, (Tensor, T)):
        return tuple(value.shape), value.dtype
    return tuple(map(_facts, value)) if isinstance(value, (tuple, list)) else value


def selftest(keys=None) -> list[str]:
    """Check the table against eager; returns the failures, one line each.

    For every entry, spelling and sample, in each of :data:`_RUNS` that
    eager accepts: the transfer equals what eager returns (shape, dtype,
    nesting) without falling back.  A call
    :func:`~repro.fx.analysis.may_alias_input` declares fresh returns
    nothing that shares memory with an operand; one whose entry ``writes``
    nothing leaves its operands, the module's tensors (a copy per run) and
    the global RNG as they were, and one that ``writes`` changes them.  A
    broken constraint raises :class:`ShapeError`.  A kernel's ``emit``
    equals eager's bits (NaN matched by position) on floats of both signs,
    ±0, ±100, ±inf and NaN: into an empty buffer, on a non-contiguous first
    operand, and in place unless a contraction; a Linear-rooted fused
    kernel's shape and cost follow its steps.  Every public
    ``repro.functional`` function and ``nn`` leaf module has an entry or a
    line in :data:`NO_ENTRY`."""
    from ..tensor.creation import get_rng
    from .analysis import may_alias_input
    from .interpreter import Interpreter
    from .passes.shape_prop import ShapeProp

    failures: list[str] = []

    def state(gm: GraphModule, inputs: list) -> list:
        return [t.data.tobytes() for t in (*inputs, *gm.state_dict().values())] \
            + [get_rng().bit_generator.state]

    def emits(where: str, kernel: OpDef, spec: tuple, inputs: list, want) -> None:
        kwargs = spec[-1] if isinstance(spec[-1], dict) else {}
        feed = iter(inputs)
        args = [next(feed).data if isinstance(v, X) else v
                for v in (spec[:-1] if kwargs else spec)]
        kwargs = {**dict(zip([n for n, _ in kernel.params], args[kernel.arity:])), **kwargs}
        first, want = args[0], want.data
        runs = {"into an empty buffer": (first, np.empty_like(want))}
        if np.ndim(first):
            runs["first operand non-contiguous"] = (np.repeat(first, 2, -1)[..., ::2],
                                                    np.empty_like(want))
        if TABLE[kernel.key].shape is pointwise_shape and np.shape(first) == want.shape \
                and getattr(first, "dtype", None) == want.dtype:
            runs["in place"] = (first.copy(),) * 2
        for how, (first, out) in runs.items():
            with np.errstate(all="ignore"):
                kernel.emit(out, first, *args[1:kernel.arity], **kwargs)
            # bit for bit, -0.0 told from 0.0, a NaN matched by position only
            if not np.array_equal(*[np.where(np.isnan(a), np.nan, a).view(f"u{a.itemsize}")
                                    for a in (out, want)]):
                failures.append(f"{where}: emit differs from eager ({how})")

    def check(label: str, target: Any, spec: tuple, kernel: Optional[OpDef] = None) -> bool:
        """False when eager rejects the call in every run."""
        ran = False
        for batch, dtype in _RUNS:
            gm, shapes = _call_graph(target, spec, batch)
            where = f"{label} {spec} {dtype}" + (f" at N={batch}" if batch != B else "")
            call = list(gm.graph.nodes)[-2]
            fresh, writes = not may_alias_input(call, gm), writes_state(call, gm)
            inputs = _tensors(shapes, dtype)
            before = state(gm, inputs)
            try:
                with np.errstate(all="ignore"):
                    real = Interpreter(gm).run(*inputs)
            except Exception:   # not a call eager accepts: nothing to agree with
                continue
            ran = True
            if (state(gm, inputs) != before) != writes:
                failures.append(f"{where}: declared writes={writes}, "
                                f"observed {not writes} (operands, module tensors, RNG)")
            if fresh and any(np.shares_memory(out.data, x.data) for x in inputs
                             for out in _leaves([real]) if isinstance(out, Tensor)):
                failures.append(f"{where}: declared fresh by "
                                f"may_alias_input, shares memory with an operand")
            if kernel is not None and dtype.is_floating_point:
                emits(where, kernel, spec, inputs, real)
            prop = ShapeProp(gm)
            got = _facts(prop.propagate(*inputs))
            if prop.fallbacks:
                failures.append(f"{where}: {prop.fallbacks[0][2]}")
            elif got != _facts(real):
                failures.append(f"{where}: inferred {got}, eager returns {_facts(real)}")
        return ran

    for key, entry in TABLE.items():
        if keys is not None and key not in keys:
            continue
        binary = entry.shape is pointwise_shape and getattr(entry.kernel, "arity", 2) == 2
        specs = _SAMPLES.get(key) or (_BINARY if binary else _UNARY)
        for target in (*entry.functions, *entry.methods):
            if isinstance(target, type):    # stands for its instances (FusedKernel)
                continue
            label = f"{key} as {getattr(target, '__name__', target)}"
            if not [spec for spec in specs if check(label, target, spec, entry.kernel)]:
                failures.append(f"{label}: eager accepts none of its samples")
        for cls in entry.module_types:
            ctor, shape = _MODULE_SAMPLES.get(cls, ((), X(B, 3)))
            if not check(f"{key} as nn.{cls.__name__}", cls(*ctor), (shape,)):
                failures.append(f"{key} as nn.{cls.__name__}: eager rejects its sample")
    if keys is None or "fused_kernel" in keys:
        # a kernel a Linear opens: its result is not the broadcast of its
        # (out, in) weight, and it costs what its unfused steps cost
        from .graph import Graph
        from .passes.cost_model import estimate
        from .passes.pointwise_fuser import fuse_pointwise
        graph, sample = Graph(), (X(B, 3), X(4, 3), X(4))
        linear = graph.call_function(F.linear, tuple(map(graph.placeholder, "xwb")))
        graph.output(graph.call_function(F.relu, (linear,)))
        gm, inputs = GraphModule(nn.Module(), graph), _tensors([(B, 3), (4, 3), (4,)], float32)
        unfused = estimate(gm, *inputs).total_flops
        fuse_pointwise(gm)
        check("fused_kernel opened by linear", list(gm.graph.nodes)[-2].target, sample)
        if estimate(gm, *inputs).total_flops != unfused:
            failures.append(f"fused_kernel opened by linear: {estimate(gm, *inputs).total_flops}"
                            f" flops, its steps unfused {unfused}")
    if keys is not None:
        return failures

    for target, spec in _VIOLATIONS:
        if isinstance(target, tuple):
            target = target[0](*target[1:])
        gm, shapes = _call_graph(target, spec)
        try:
            ShapeProp(gm).propagate(*_tensors(shapes, float32))
            failures.append(f"{target}{spec}: accepted, no ShapeError")
        except ShapeError:
            pass

    functions = {f for e in TABLE.values() for f in e.functions}
    modules = {t for e in TABLE.values() for t in e.module_types}
    leaves = [c for c in vars(nn).values() if isinstance(c, type)
              and issubclass(c, nn.Module) and c is not nn.Module
              and not issubclass(c, (nn.Sequential, nn.ModuleList, nn.ModuleDict))]
    public = [(n, getattr(F, n) in functions) for n in F.__all__] \
        + [(c.__name__, c in modules) for c in leaves]
    for name, have in public:
        if have == (name in NO_ENTRY):
            failures.append(f"{name}: has " + ("both an entry and" if have else
                            "neither an entry nor") + " a NO_ENTRY line")
    for name in sorted(NO_ENTRY.keys() - {n for n, _ in public}):
        failures.append(f"{name}: a NO_ENTRY line names no public function or nn leaf")
    return failures


def main(argv: list[str]) -> int:
    """``python -m repro.fx.opinfo selftest [key ...]``"""
    failures = selftest(argv[1:] or None)
    for line in failures:
        print("FAIL", line)
    print(f"{len(TABLE)} entries, {len(NO_ENTRY)} public names without one: "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    from repro.fx.opinfo import main as _main   # the imported copy, not this re-run

    sys.exit(_main(sys.argv[1:]))
