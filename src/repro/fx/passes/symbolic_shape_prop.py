"""Symbolic shape propagation (§6.3: "shape propagation via symbolic
expressions ... in development" — implemented here as an extension).

Unlike :class:`~repro.fx.passes.shape_prop.ShapeProp`, which runs the
model on one example input and records the shapes that *happened*, this
pass propagates shapes containing **symbolic dimensions** (e.g. a
symbolic batch size ``N``) through the graph with per-operator transfer
functions — no tensor data is ever materialized, and the result is valid
for *every* concrete binding of the symbols.

Because the fx IR is a basic-block program (§5.5), this is a single
forward sweep with a transfer function per op — exactly the "only a
transfer function is needed" property the paper contrasts against
fix-point analysis.

Example::

    from repro.fx.passes.symbolic_shape_prop import SymbolicShapeProp, SymDim

    N = SymDim("N")
    SymbolicShapeProp(gm).propagate(SymShape((N, 3, 224, 224)))
    out = gm.graph.output_node.args[0].meta["sym_shape"]   # (N, 1000)
"""

from __future__ import annotations

import math
import operator
from typing import Any, Callable, Sequence

from ... import functional as F
from ...nn import (
    AdaptiveAvgPool2d, AvgPool2d, BatchNorm1d, BatchNorm2d, Conv1d, Conv2d,
    ConvTranspose2d, Dropout, Embedding, Flatten, Identity, LayerNorm, Linear,
    MaxPool2d, Module, Upsample,
)
from ...nn.activations import (
    ELU, GELU, Hardsigmoid, Hardswish, Hardtanh, LeakyReLU, LogSoftmax, Mish,
    ReLU, ReLU6, SELU, Sigmoid, SiLU, Softmax, Softplus, Tanh,
)
from ...functional import _pair
from ..graph_module import GraphModule
from ..node import Node, map_aggregate

__all__ = ["SymDim", "SymExpr", "SymShape", "SymbolicShapeProp",
           "ShapeInferenceError", "ceil_div"]


class ShapeInferenceError(RuntimeError):
    """Raised when a node's output shape cannot be inferred symbolically."""


# ---------------------------------------------------------------------------
# symbolic dimension algebra
# ---------------------------------------------------------------------------


class SymExpr:
    """A linear-ish symbolic integer expression over named dimensions.

    Internally a sum of terms ``coeff * prod(symbols)`` plus a constant:
    enough to express the shapes deep learning ops produce (products for
    flatten/reshape, affine combinations for pooling arithmetic are
    handled by deferring: floor-division by a constant produces a
    :class:`_FloorDiv` wrapper term).
    """

    __slots__ = ("terms", "const")

    def __init__(self, terms: dict[tuple, int] | None = None, const: int = 0):
        # terms: mapping from a sorted tuple of symbol names -> coefficient
        self.terms: dict[tuple, int] = {k: v for k, v in (terms or {}).items() if v != 0}
        self.const = const

    # -- constructors ------------------------------------------------------------

    @staticmethod
    def of(value: "int | SymDim | SymExpr") -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
        if isinstance(value, SymDim):
            return SymExpr({(value.name,): 1})
        if isinstance(value, int):
            return SymExpr({}, value)
        raise TypeError(f"cannot build SymExpr from {value!r}")

    @property
    def is_constant(self) -> bool:
        return not self.terms

    def as_int(self) -> int:
        if not self.is_constant:
            raise ShapeInferenceError(f"symbolic dimension {self} used where a "
                                      "concrete integer is required")
        return self.const

    # -- arithmetic -----------------------------------------------------------------

    def __add__(self, other):
        other = SymExpr.of(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            terms[k] = terms.get(k, 0) + v
        return SymExpr(terms, self.const + other.const)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (SymExpr.of(other) * -1)

    def __rsub__(self, other):
        return SymExpr.of(other) + (self * -1)

    def __mul__(self, other):
        other = SymExpr.of(other)
        out: dict[tuple, int] = {}
        for k1, v1 in list(self.terms.items()) + [((), self.const)]:
            for k2, v2 in list(other.terms.items()) + [((), other.const)]:
                if v1 == 0 or v2 == 0:
                    continue
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + v1 * v2
        const = out.pop((), 0)
        return SymExpr(out, const)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        other = SymExpr.of(other)
        if self.is_constant and other.is_constant:
            return SymExpr({}, self.const // other.const)
        if other.is_constant and other.const != 0:
            d = other.const
            # If every symbolic coefficient is divisible by d, the symbolic
            # part is an exact multiple of d for any integer binding, so
            # floor((sym + c) / d) = sym/d + floor(c/d).
            if all(v % d == 0 for v in self.terms.values()):
                return SymExpr(
                    {k: v // d for k, v in self.terms.items()},
                    self.const // d if d > 0 else -((-self.const) // -d),
                )
        # exact division by a single symbolic monomial (e.g. (10*N) // N,
        # which reshape(-1) inference produces)
        if not other.is_constant and other.const == 0 and len(other.terms) == 1:
            (div_syms, div_coeff), = other.terms.items()
            if self.const == 0:
                out: dict[tuple, int] = {}
                for syms, coeff in self.terms.items():
                    remaining = list(syms)
                    ok = coeff % div_coeff == 0
                    for s in div_syms:
                        if s in remaining:
                            remaining.remove(s)
                        else:
                            ok = False
                            break
                    if not ok:
                        break
                    out[tuple(remaining)] = out.get(tuple(remaining), 0) + coeff // div_coeff
                else:
                    const = out.pop((), 0)
                    return SymExpr(out, const)
        raise ShapeInferenceError(
            f"cannot floor-divide symbolic expression {self} by {other}; "
            "shape arithmetic left the linear fragment"
        )

    def __eq__(self, other) -> bool:  # type: ignore[override]
        try:
            other = SymExpr.of(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms and self.const == other.const

    def __hash__(self) -> int:
        return hash((tuple(sorted(self.terms.items())), self.const))

    def substitute(self, bindings: dict[str, int]) -> "SymExpr":
        """Replace symbols with concrete values (partially or fully)."""
        out = SymExpr({}, self.const)
        for syms, coeff in self.terms.items():
            acc = SymExpr({}, coeff)
            for s in syms:
                acc = acc * (SymExpr({}, bindings[s]) if s in bindings
                             else SymExpr({(s,): 1}))
            out = out + acc
        return out

    def free_symbols(self) -> set[str]:
        return {s for syms in self.terms for s in syms}

    def __repr__(self) -> str:
        if self.is_constant:
            return str(self.const)
        parts = []
        for syms, coeff in sorted(self.terms.items()):
            body = "*".join(syms)
            parts.append(body if coeff == 1 else f"{coeff}*{body}")
        if self.const:
            parts.append(str(self.const))
        return " + ".join(parts)


class SymDim:
    """A named symbolic dimension (sugar over :class:`SymExpr`)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:
        return self.name

    def __add__(self, other):
        return SymExpr.of(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return SymExpr.of(self) - other

    def __rsub__(self, other):
        return SymExpr.of(other) - SymExpr.of(self)

    def __mul__(self, other):
        return SymExpr.of(self) * other

    __rmul__ = __mul__

    def __floordiv__(self, other):
        return SymExpr.of(self) // other

    def __eq__(self, other) -> bool:  # type: ignore[override]
        if isinstance(other, SymDim):
            return self.name == other.name
        return SymExpr.of(self) == other

    def __hash__(self) -> int:
        return hash(("SymDim", self.name))


Dim = Any  # int | SymDim | SymExpr


class SymShape(tuple):
    """A shape whose entries may be ints or symbolic expressions."""

    def __new__(cls, dims: Sequence[Dim]):
        return super().__new__(cls, (_canon_dim(d) for d in dims))

    def numel(self) -> SymExpr:
        total = SymExpr({}, 1)
        for d in self:
            total = total * SymExpr.of(d)
        return total

    def is_concrete(self) -> bool:
        return all(isinstance(d, int) or SymExpr.of(d).is_constant for d in self)

    def substitute(self, bindings: dict[str, int]) -> "SymShape":
        return SymShape([
            _canon_dim(SymExpr.of(d).substitute(bindings)) for d in self
        ])

    def __repr__(self) -> str:
        return "SymShape(" + ", ".join(str(d) for d in self) + ")"


def _canon_dim(d: Dim) -> Dim:
    if isinstance(d, SymExpr) and d.is_constant:
        return d.const
    if isinstance(d, SymDim):
        return SymExpr.of(d)
    return d


def _sym(d: Dim) -> SymExpr:
    return SymExpr.of(d)


def ceil_div(size: Dim, divisor: int) -> Dim:
    """Ceiling division ``ceil(size / divisor)`` in the symbolic fragment.

    Computed as ``(size + divisor - 1) // divisor``, which stays exact for
    every integer binding of the symbols — this is the arithmetic
    ``ceil_mode`` pooling shapes need.  Like plain floor division, it
    raises :class:`ShapeInferenceError` when a symbolic coefficient is not
    divisible by *divisor* (the result would depend on the residue)."""
    if not isinstance(divisor, int) or divisor <= 0:
        raise ShapeInferenceError(f"ceil_div needs a positive int divisor, got {divisor!r}")
    return _canon_dim((_sym(size) + (divisor - 1)) // divisor)


def _conv_out(size: Dim, kernel: int, stride: int, padding: int, dilation: int,
              ceil_mode: bool = False) -> Dim:
    eff = (kernel - 1) * dilation + 1
    numer = _sym(size) + (2 * padding - eff)
    if ceil_mode:
        return _canon_dim(_sym(ceil_div(numer, stride)) + 1)
    return _canon_dim(numer // stride + 1)


# ---------------------------------------------------------------------------
# the propagation pass
# ---------------------------------------------------------------------------

_ELEMENTWISE_MODULES = (
    ReLU, ReLU6, LeakyReLU, ELU, SELU, GELU, SiLU, Mish, Sigmoid, Tanh,
    Softmax, LogSoftmax, Hardtanh, Hardsigmoid, Hardswish, Softplus,
    Dropout, Identity, BatchNorm1d, BatchNorm2d, LayerNorm,
)

_ELEMENTWISE_FUNCTIONS = {
    F.relu, F.relu6, F.leaky_relu, F.elu, F.selu, F.gelu, F.silu, F.mish,
    F.sigmoid, F.tanh, F.softmax, F.log_softmax, F.hardtanh, F.hardsigmoid,
    F.hardswish, F.softplus, F.neg, F.abs, F.exp, F.log, F.sqrt, F.rsqrt,
    F.sin, F.cos, F.erf, F.sign, F.clamp, F.round, F.floor, F.dropout,
}

_ELEMENTWISE_METHODS = {
    "relu", "gelu", "sigmoid", "tanh", "neg", "abs", "exp", "log", "sqrt",
    "rsqrt", "sin", "cos", "erf", "sign", "clamp", "clamp_min", "round",
    "floor", "softmax", "contiguous", "clone", "detach", "float", "pow",
}

_BROADCAST_FUNCTIONS = {
    F.add, F.sub, F.mul, F.div, F.pow, F.maximum, F.minimum, F.where,
    operator.add, operator.sub, operator.mul, operator.truediv,
    operator.floordiv, operator.mod, operator.pow,
    # comparisons broadcast like arithmetic (result is a bool mask); the
    # where-repair emits these as select predicates
    operator.gt, operator.lt, operator.ge, operator.le,
    operator.eq, operator.ne,
}


def _broadcast(a: SymShape, b: SymShape) -> SymShape:
    """Numpy-style broadcasting over symbolic shapes.

    A symbolic dim broadcast against 1 keeps the symbolic dim; two
    symbolic dims are assumed equal (and must be syntactically equal)."""
    out: list[Dim] = []
    ra, rb = list(reversed(a)), list(reversed(b))
    for i in range(max(len(ra), len(rb))):
        da = ra[i] if i < len(ra) else 1
        db = rb[i] if i < len(rb) else 1
        if _is_one(da):
            out.append(db)
        elif _is_one(db):
            out.append(da)
        elif _sym(da) == _sym(db):
            out.append(da)
        else:
            raise ShapeInferenceError(f"cannot broadcast {a} with {b} at dim -{i + 1}")
    return SymShape(reversed(out))


def _is_one(d: Dim) -> bool:
    e = _sym(d)
    return e.is_constant and e.const == 1


class SymbolicShapeProp:
    """Propagates :class:`SymShape` through a GraphModule's graph.

    After :meth:`propagate`, every tensor-valued node carries
    ``meta['sym_shape']``. The output node's argument shape is returned.
    """

    def __init__(self, gm: GraphModule):
        self.gm = gm
        self.modules = dict(gm.named_modules())

    def propagate(self, *input_shapes: SymShape | Sequence) -> Any:
        env, result = self.infer(*input_shapes)
        for node, value in env.items():
            if isinstance(value, SymShape) or _contains_shape(value):
                node.meta["sym_shape"] = value
        return result

    def infer(self, *input_shapes: SymShape | Sequence) -> tuple[dict, Any]:
        """:meth:`propagate` without the stamping: ``({node: value},
        output shape)``, the module left exactly as it was (what an
        analysis of a module it does not own must use)."""
        env: dict[Node, Any] = {}
        shapes = iter(input_shapes)
        for node in self.gm.graph.nodes:
            if node.op == "placeholder":
                try:
                    shape = next(shapes)
                except StopIteration:
                    raise ShapeInferenceError(
                        f"no shape provided for placeholder {node.target!r}"
                    ) from None
                value = SymShape(shape) if not isinstance(shape, SymShape) else shape
            elif node.op == "get_attr":
                attr = _fetch_attr(self.gm, node.target)
                value = SymShape(attr.shape) if hasattr(attr, "shape") else attr
            elif node.op == "output":
                env[node] = map_aggregate(
                    node.args[0], lambda n: env[n] if isinstance(n, Node) else n)
                return env, env[node]
            else:
                value = self._transfer(node, env)
            env[node] = value
        return env, None

    # -- transfer functions ---------------------------------------------------------

    def _transfer(self, node: Node, env: dict[Node, Any]) -> Any:
        def val(a):
            return env[a] if isinstance(a, Node) else a

        args = [map_aggregate(a, lambda x: val(x) if isinstance(x, Node) else x)
                for a in node.args]
        kwargs = {k: map_aggregate(v, lambda x: val(x) if isinstance(x, Node) else x)
                  for k, v in node.kwargs.items()}

        if node.op == "call_module":
            return self._module_transfer(self.modules[node.target], args, node)
        if node.op == "call_function":
            return self._function_transfer(node.target, args, kwargs, node)
        if node.op == "call_method":
            return self._method_transfer(node.target, args, kwargs, node)
        raise ShapeInferenceError(f"unhandled op {node.op!r} at {node.name!r}")

    def _module_transfer(self, mod: Module, args: list, node: Node) -> Any:
        x = args[0]
        if isinstance(mod, _ELEMENTWISE_MODULES):
            return x
        if isinstance(mod, Linear):
            return SymShape(tuple(x[:-1]) + (mod.out_features,))
        if isinstance(mod, Conv2d):
            n, c, h, w = x
            kh, kw = mod.kernel_size
            sh, sw = _pair(mod.stride)
            ph, pw = _pair(mod.padding)
            dh, dw = _pair(mod.dilation)
            return SymShape((
                n, mod.out_channels,
                _conv_out(h, kh, sh, ph, dh), _conv_out(w, kw, sw, pw, dw),
            ))
        if isinstance(mod, ConvTranspose2d):
            n, c, h, w = x
            kh, kw = mod.kernel_size
            sh, sw = _pair(mod.stride)
            ph, pw = _pair(mod.padding)
            oph, opw = _pair(mod.output_padding)
            return SymShape((
                n, mod.out_channels,
                _canon_dim((_sym(h) - 1) * sh - 2 * ph + kh + oph),
                _canon_dim((_sym(w) - 1) * sw - 2 * pw + kw + opw),
            ))
        if isinstance(mod, Upsample):
            n, c, h, w = x
            if mod.size is not None:
                oh, ow = _pair(mod.size)
                return SymShape((n, c, oh, ow))
            fh, fw = (mod.scale_factor if isinstance(mod.scale_factor, (tuple, list))
                      else (mod.scale_factor, mod.scale_factor))
            if int(fh) != fh or int(fw) != fw:
                raise ShapeInferenceError(
                    "symbolic Upsample needs integer scale factors"
                )
            return SymShape((n, c, _canon_dim(_sym(h) * int(fh)),
                             _canon_dim(_sym(w) * int(fw))))
        if isinstance(mod, Conv1d):
            n, c, l = x
            return SymShape((
                n, mod.out_channels,
                _conv_out(l, mod.kernel_size, mod.stride, mod.padding, mod.dilation),
            ))
        if isinstance(mod, (MaxPool2d, AvgPool2d)):
            n, c, h, w = x
            kh, kw = _pair(mod.kernel_size)
            sh, sw = _pair(mod.stride)
            ph, pw = _pair(mod.padding)
            cm = bool(getattr(mod, "ceil_mode", False))
            return SymShape((n, c, _conv_out(h, kh, sh, ph, 1, cm),
                             _conv_out(w, kw, sw, pw, 1, cm)))
        if isinstance(mod, AdaptiveAvgPool2d):
            n, c = x[0], x[1]
            oh, ow = _pair(mod.output_size)
            return SymShape((n, c, oh, ow))
        if isinstance(mod, Flatten):
            return self._flatten_shape(x, mod.start_dim, mod.end_dim)
        if isinstance(mod, Embedding):
            return SymShape(tuple(x) + (mod.embedding_dim,))
        if isinstance(mod, GraphModule):
            return SymbolicShapeProp(mod).infer(x)[1]
        raise ShapeInferenceError(
            f"no symbolic transfer function for module {type(mod).__name__} "
            f"at node {node.name!r}"
        )

    def _function_transfer(self, fn: Callable, args: list, kwargs: dict, node: Node) -> Any:
        if fn in _ELEMENTWISE_FUNCTIONS:
            return args[0]
        if fn in _BROADCAST_FUNCTIONS:
            shapes = [a for a in args if isinstance(a, SymShape)]
            if len(shapes) == 1:
                return shapes[0]
            out = shapes[0]
            for s in shapes[1:]:
                out = _broadcast(out, s)
            return out
        if fn in (F.linear,):
            x, w = args[0], args[1]
            return SymShape(tuple(x[:-1]) + (w[0],))
        if fn in (F.matmul, F.mm, F.bmm, operator.matmul):
            a, b = args[0], args[1]
            return SymShape(tuple(a[:-1]) + (b[-1],))
        if fn is F.conv2d:
            x, w = args[0], args[1]
            stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
            padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
            dilation = kwargs.get("dilation", args[5] if len(args) > 5 else 1)
            sh, sw = _pair(stride)
            ph, pw = _pair(padding)
            dh, dw = _pair(dilation)
            n, c, h, wd = x
            f, _, kh, kw = w
            return SymShape((n, f, _conv_out(h, kh, sh, ph, dh),
                             _conv_out(wd, kw, sw, pw, dw)))
        if fn is F.flatten:
            start = kwargs.get("start_dim", args[1] if len(args) > 1 else 0)
            end = kwargs.get("end_dim", args[2] if len(args) > 2 else -1)
            return self._flatten_shape(args[0], start, end)
        if fn is F.reshape:
            return self._reshape_shape(args[0], tuple(args[1]))
        if fn in (F.transpose,):
            return self._swap(args[0], args[1], args[2])
        if fn is F.permute:
            x, dims = args[0], args[1]
            return SymShape(tuple(x[d] for d in dims))
        if fn is F.cat:
            tensors, dim = args[0], kwargs.get("dim", args[1] if len(args) > 1 else 0)
            out = list(tensors[0])
            total = SymExpr.of(0)
            for t in tensors:
                total = total + _sym(t[dim])
            out[dim] = _canon_dim(total)
            return SymShape(out)
        if fn is F.stack:
            tensors, dim = args[0], kwargs.get("dim", args[1] if len(args) > 1 else 0)
            out = list(tensors[0])
            out.insert(dim if dim >= 0 else len(out) + dim + 1, len(tensors))
            return SymShape(out)
        if fn in (F.unsqueeze,):
            x, dim = args[0], args[1]
            out = list(x)
            out.insert(dim if dim >= 0 else len(out) + dim + 1, 1)
            return SymShape(out)
        if fn in (F.squeeze,):
            x = args[0]
            dim = args[1] if len(args) > 1 else kwargs.get("dim")
            if dim is None:
                return SymShape([d for d in x if not _is_one(d)])
            out = list(x)
            if _is_one(out[dim]):
                out.pop(dim)
            return SymShape(out)
        if fn in (F.sum, F.mean, F.var, F.amax, F.amin):
            return self._reduce(args[0], kwargs.get("dim", args[1] if len(args) > 1 else None),
                                kwargs.get("keepdim", False))
        if fn is operator.getitem:
            base, idx = args[0], args[1]
            if isinstance(base, (tuple, list)) and not isinstance(base, SymShape):
                return base[idx]
            if isinstance(base, SymShape):
                if isinstance(idx, int):
                    # indexing a tensor drops the first dim... but indexing a
                    # *shape value* yields the dim expression
                    return base[idx]
                if isinstance(idx, slice):
                    return SymShape(list(base)[idx])
            raise ShapeInferenceError(f"cannot infer getitem at {node.name!r}")
        if fn is getattr and args[1] == "shape":
            return args[0]  # the shape value of a tensor IS our SymShape
        raise ShapeInferenceError(
            f"no symbolic transfer function for function "
            f"{getattr(fn, '__name__', fn)!r} at node {node.name!r}"
        )

    def _method_transfer(self, name: str, args: list, kwargs: dict, node: Node) -> Any:
        x = args[0]
        if name in _ELEMENTWISE_METHODS:
            return x
        if name in ("reshape", "view"):
            dims = args[1:] if not isinstance(args[1], (tuple, list)) else tuple(args[1])
            return self._reshape_shape(x, tuple(dims))
        if name == "flatten":
            start = args[1] if len(args) > 1 else kwargs.get("start_dim", 0)
            end = args[2] if len(args) > 2 else kwargs.get("end_dim", -1)
            return self._flatten_shape(x, start, end)
        if name in ("transpose",):
            return self._swap(x, args[1], args[2])
        if name == "t":
            return SymShape((x[1], x[0]))
        if name == "permute":
            dims = args[1:] if not isinstance(args[1], (tuple, list)) else tuple(args[1])
            return SymShape(tuple(x[d] for d in dims))
        if name == "unsqueeze":
            out = list(x)
            d = args[1]
            out.insert(d if d >= 0 else len(out) + d + 1, 1)
            return SymShape(out)
        if name == "squeeze":
            if len(args) > 1:
                out = list(x)
                if _is_one(out[args[1]]):
                    out.pop(args[1])
                return SymShape(out)
            return SymShape([d for d in x if not _is_one(d)])
        if name in ("sum", "mean", "var", "std", "amax", "amin"):
            return self._reduce(x, args[1] if len(args) > 1 else kwargs.get("dim"),
                                kwargs.get("keepdim", False))
        if name in ("matmul", "mm", "bmm"):
            return SymShape(tuple(x[:-1]) + (args[1][-1],))
        if name == "size":
            if len(args) > 1:
                return x[args[1]]
            return x
        if name == "chunk":
            k = args[1]
            dim = args[2] if len(args) > 2 else kwargs.get("dim", 0)
            out = list(x)
            out[dim] = _sym(out[dim]) // k
            return tuple(SymShape(out) for _ in range(k))
        raise ShapeInferenceError(
            f"no symbolic transfer function for method {name!r} at {node.name!r}"
        )

    # -- shape helpers ---------------------------------------------------------------

    def _flatten_shape(self, x: SymShape, start: int, end: int) -> SymShape:
        nd = len(x)
        start = start % nd
        end = end % nd
        merged = SymExpr({}, 1)
        for d in x[start:end + 1]:
            merged = merged * _sym(d)
        return SymShape(tuple(x[:start]) + (_canon_dim(merged),) + tuple(x[end + 1:]))

    def _reshape_shape(self, x: SymShape, dims: tuple) -> SymShape:
        total = x.numel()
        if -1 not in [d for d in dims if isinstance(d, int)]:
            target = SymShape(dims).numel()
            # Soundness: a symbolic input reshaped to an explicit shape is
            # only valid when the element counts agree for *every* symbol
            # binding.  reshape(8, 4) on an (N, 8) input works at exactly
            # one batch size — claiming it generic would let guard
            # derivation share an engine that errors off the example shape.
            if _sym(target) != _sym(total):
                raise ShapeInferenceError(
                    f"reshape target {tuple(dims)} has {target} elements but "
                    f"the input has {total}; not equal for every symbol "
                    "binding"
                )
            return SymShape(dims)
        known = SymExpr({}, 1)
        for d in dims:
            if not (isinstance(d, int) and d == -1):
                known = known * _sym(d)
        inferred = total // known
        # The floor division must have been exact, or the -1 dim would
        # drop a remainder for some bindings (runtime reshape error).
        if _sym(inferred) * known != _sym(total):
            raise ShapeInferenceError(
                f"cannot infer -1 in reshape to {tuple(dims)}: {known} does "
                f"not divide {total} exactly"
            )
        return SymShape([
            _canon_dim(inferred) if (isinstance(d, int) and d == -1) else d
            for d in dims
        ])

    def _swap(self, x: SymShape, d0: int, d1: int) -> SymShape:
        out = list(x)
        out[d0], out[d1] = out[d1], out[d0]
        return SymShape(out)

    def _reduce(self, x: SymShape, dim, keepdim: bool) -> SymShape:
        if dim is None:
            return SymShape(())
        dims = (dim,) if isinstance(dim, int) else tuple(dim)
        dims = tuple(d % len(x) for d in dims)
        out = []
        for i, d in enumerate(x):
            if i in dims:
                if keepdim:
                    out.append(1)
            else:
                out.append(d)
        return SymShape(out)


def _fetch_attr(gm: GraphModule, target: str):
    obj: Any = gm
    for atom in target.split("."):
        obj = getattr(obj, atom)
    return obj


def _contains_shape(value: Any) -> bool:
    if isinstance(value, SymShape):
        return True
    if isinstance(value, (tuple, list)):
        return any(_contains_shape(v) for v in value)
    return False
