"""Symbolic shape propagation (§6.3: "shape propagation via symbolic
expressions ... in development" — implemented here as an extension).

:class:`~repro.fx.passes.shape_prop.ShapeProp` propagates the shapes of one
example input; this pass propagates shapes containing **symbolic
dimensions** (e.g. a symbolic batch size ``N``), and the result is valid
for *every* concrete binding of the symbols.  Both are the same single
forward sweep over the same per-op rules (:mod:`repro.fx.opinfo`: because
the fx IR is a basic-block program, §5.5, a transfer function per op is all
an analysis needs) — this module supplies the dimension domain: the
:class:`SymExpr` algebra, and a ``unify`` under which two dims agree only
if they are equal for every binding.  So the rules' operand constraints
hold symbolically too: an op that would pin ``N`` (``N == 8``) raises
:class:`ShapeInferenceError` instead of being waved through.

Example::

    from repro.fx.passes.symbolic_shape_prop import SymbolicShapeProp, SymDim

    N = SymDim("N")
    SymbolicShapeProp(gm).propagate(SymShape((N, 3, 224, 224)))
    out = gm.graph.output_node.args[0].meta["sym_shape"]   # (N, 1000)
"""

from __future__ import annotations

from typing import Any, Sequence

from .. import opinfo
from ..graph_module import GraphModule

__all__ = ["SymDim", "SymExpr", "SymShape", "SymbolicShapeProp",
           "ShapeInferenceError", "ceil_div"]


class ShapeInferenceError(opinfo.ShapeError):
    """Raised when a node's output shape cannot be inferred symbolically:
    its target has no entry in the op table, or a constraint does not hold
    for every binding of the symbols."""


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
    def of(value: "int | SymExpr") -> "SymExpr":
        if isinstance(value, SymExpr):
            return value
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


def SymDim(name: str) -> SymExpr:  # noqa: N802 - reads as the type it once was
    """A named symbolic dimension: the expression ``1 * name``."""
    return SymExpr({(name,): 1})


Dim = Any  # int | SymExpr


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
    return SymDim(d) if isinstance(d, str) else d   # "N" names the symbol N


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


# ---------------------------------------------------------------------------
# the symbolic domain of the op table
# ---------------------------------------------------------------------------


class _Symbolic(opinfo.Domain):
    """Dims are ints or :class:`SymExpr`; two dims unify only when they are
    equal for every binding, so a constraint that would pin a symbol
    (``N == 8``) is refused, and so is a node without an entry."""

    error = ShapeInferenceError
    dtyped = False

    def tensor(self, shape, dtype) -> opinfo.T:
        return opinfo.T(SymShape(shape), dtype)

    def int(self, dim, what: str) -> int:
        if not _sym(dim).is_constant:
            raise ShapeInferenceError(f"{what}: {dim} is symbolic")
        return _sym(dim).const


def _shapes(value: Any) -> Any:
    """A sweep value with each tensor replaced by its :class:`SymShape`."""
    return opinfo.map_tensors(value, lambda t: t.shape)


class SymbolicShapeProp:
    """Propagates :class:`SymShape` through a GraphModule's graph: the op
    table's sweep (:func:`repro.fx.opinfo.sweep`) over symbolic dims.

    After :meth:`propagate`, every tensor-valued node carries
    ``meta['sym_shape']``. The output node's argument shape is returned.
    """

    def __init__(self, gm: GraphModule):
        self.gm = gm

    def propagate(self, *input_shapes: SymShape | Sequence) -> Any:
        env, result = self._sweep(input_shapes)
        for node, value in env.items():
            if opinfo.has_tensor(value):
                node.meta["sym_shape"] = _shapes(value)
        return _shapes(result)

    def infer(self, *input_shapes: SymShape | Sequence) -> tuple[dict, Any]:
        """:meth:`propagate` without the stamping: ``({node: shape},
        output shape)``, the module left exactly as it was (what an
        analysis of a module it does not own must use)."""
        env, result = self._sweep(input_shapes)
        return {node: _shapes(value) for node, value in env.items()}, _shapes(result)

    def _sweep(self, input_shapes) -> tuple[dict, Any]:
        return opinfo.sweep(
            self.gm, [opinfo.T(SymShape(s)) for s in input_shapes], _Symbolic())
