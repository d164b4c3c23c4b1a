"""Symbolic-shape guards for compiled artifacts.

A compiled engine (``fx.compile``, ``to_backend``, a VM program) is built
against one example input signature, but the captured *graph* is usually
valid for a whole family of shapes — most commonly "any batch size".
:func:`derive_guards` proves that family by running
:class:`~repro.fx.passes.symbolic_shape_prop.SymbolicShapeProp` over the
captured graph with the batch dimension replaced by a symbolic ``N``: if
propagation succeeds, the shape arithmetic is valid for *every* binding of
``N``, and the resulting picklable :class:`GuardSet` records exactly which
dims are free (``N >= 1``) and which are pinned (``C == 64``).

``repro.serve`` keys its EngineCache on the guard-*canonicalized*
signature (free dims replaced by ``"*"``), so one engine serves every
batch size that satisfies its guards instead of one engine per concrete
shape.  When propagation fails (``ShapeInferenceError`` — the model's
shape arithmetic left the supported fragment), the guard set degrades to
fully static: it matches only the exact example signature, which is the
old per-shape behaviour, never an unsound generalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from ...tensor import Tensor

__all__ = ["DimGuard", "GuardSet", "derive_guards"]

#: wildcard marker substituted for guarded-dynamic dims in canonical signatures
DYNAMIC = "*"

_SYMBOL_NAMES = "NMPQRSTUVW"


@dataclass(frozen=True)
class DimGuard:
    """A constraint on one dimension of one input.

    ``kind == "eq"``: the dim must equal ``value``.
    ``kind == "dynamic"``: the dim is free — any size ``>= min`` is valid,
    and every dim sharing ``symbol`` must bind to the same size.
    """

    input: int
    dim: int
    kind: str                       # "eq" | "dynamic"
    value: Optional[int] = None
    symbol: Optional[str] = None
    min: int = 1

    def describe(self) -> str:
        lhs = f"input{self.input}.shape[{self.dim}]"
        if self.kind == "eq":
            return f"{lhs} == {self.value}"
        return f"{lhs} = {self.symbol} >= {self.min}"


@dataclass(frozen=True)
class GuardSet:
    """Picklable input-shape constraints under which one engine is valid.

    ``matches(signature)`` decides whether a concrete input signature (as
    produced by ``repro.serve.engine_cache.input_signature``) satisfies
    every guard; ``canonicalize(signature)`` maps a matching signature to
    the shared cache key by replacing guarded-dynamic dims with ``"*"``.
    """

    ndims: tuple                    # per-input rank (or None for non-tensors)
    dtypes: tuple                   # per-input dtype name (or None)
    guards: tuple = ()
    dynamic: bool = False           # any dim actually free?
    output_shape: Optional[str] = None   # symbolic output, for reports
    reason: Optional[str] = None    # why a static set is static
    _by_input: dict = field(default=None, repr=False, compare=False)

    def _guard_map(self) -> dict:
        by = object.__getattribute__(self, "_by_input")
        if by is None:
            by = {(g.input, g.dim): g for g in self.guards}
            object.__setattr__(self, "_by_input", by)
        return by

    # -- queries ---------------------------------------------------------------

    def matches(self, signature: Sequence) -> bool:
        """True when *signature* satisfies every guard (symbols bind
        consistently, equalities hold, dtypes and ranks agree)."""
        if len(signature) != len(self.ndims):
            return False
        gmap = self._guard_map()
        bindings: dict[str, int] = {}
        for i, entry in enumerate(signature):
            shape, dtype = self._split_entry(entry)
            if shape is None:
                return False
            if self.ndims[i] is None or len(shape) != self.ndims[i]:
                return False
            if self.dtypes[i] is not None and dtype != self.dtypes[i]:
                return False
            for d, size in enumerate(shape):
                guard = gmap.get((i, d))
                if guard is None:
                    return False
                if guard.kind == "eq":
                    if size != guard.value:
                        return False
                else:
                    if not isinstance(size, int) or size < guard.min:
                        return False
                    prev = bindings.setdefault(guard.symbol, size)
                    if prev != size:
                        return False
        return True

    def canonicalize(self, signature: Sequence) -> tuple:
        """Replace guarded-dynamic dims with ``"*"``.  The caller must have
        checked :meth:`matches` first; a non-matching signature raises."""
        if not self.matches(signature):
            raise ValueError("signature does not satisfy this GuardSet")
        gmap = self._guard_map()
        out = []
        for i, entry in enumerate(signature):
            shape, dtype = self._split_entry(entry)
            canon = tuple(
                DYNAMIC if gmap[(i, d)].kind == "dynamic" else size
                for d, size in enumerate(shape)
            )
            out.append((canon, dtype))
        return tuple(out)

    def bindings(self, signature: Sequence) -> dict[str, int]:
        """Concrete symbol values a matching signature implies."""
        gmap = self._guard_map()
        out: dict[str, int] = {}
        for i, entry in enumerate(signature):
            shape, _ = self._split_entry(entry)
            if shape is None:
                continue
            for d, size in enumerate(shape):
                guard = gmap.get((i, d))
                if guard is not None and guard.kind == "dynamic":
                    out[guard.symbol] = size
        return out

    def describe(self) -> str:
        if not self.dynamic:
            return ("static: engine valid only for the exact compile-time "
                    "signature" + (f" ({self.reason})" if self.reason else ""))
        parts = [g.describe() for g in self.guards]
        head = "; ".join(parts)
        if self.output_shape:
            head += f"  ->  output {self.output_shape}"
        return head

    @staticmethod
    def _split_entry(entry) -> tuple:
        """Normalize one signature entry to ``(shape_tuple | None, dtype)``."""
        if (
            isinstance(entry, tuple)
            and len(entry) == 2
            and isinstance(entry[0], tuple)
        ):
            return entry[0], entry[1]
        return None, None


def _static_guard_set(example_inputs: Sequence, reason: str) -> GuardSet:
    ndims, dtypes, guards = [], [], []
    for i, t in enumerate(example_inputs):
        if isinstance(t, Tensor):
            shape = tuple(int(d) for d in t.shape)
            ndims.append(len(shape))
            dtypes.append(str(t.data.dtype))
            for d, size in enumerate(shape):
                guards.append(DimGuard(input=i, dim=d, kind="eq", value=size))
        else:
            ndims.append(None)
            dtypes.append(None)
    return GuardSet(
        ndims=tuple(ndims), dtypes=tuple(dtypes), guards=tuple(guards),
        dynamic=False, reason=reason,
    )


def derive_guards(
    gm,
    example_inputs: Sequence,
    *,
    dynamic_dims: Optional[set] = None,
) -> GuardSet:
    """Derive the input constraints under which *gm*'s capture is valid.

    *dynamic_dims* is a set of ``(input_index, dim)`` pairs to treat as
    symbolic; by default, dim 0 of every tensor input (the batch
    dimension).  Inputs whose chosen dynamic dims have equal sizes in the
    example share one symbol — the guard then requires them equal at run
    time, which is exactly the invariant serving's batch coalescing
    provides.

    *gm* is only read (no ``sym_shape`` is stamped), so a compile derives
    the guards of the module its caller holds.  Success of symbolic
    propagation is the soundness proof: the op table's rules carry each
    op's operand constraints, so the returned :class:`GuardSet` is dynamic
    only if every op's shape arithmetic *and every constraint* (a Linear's
    ``in_features``, a matmul contraction, a broadcast) holds for every
    binding of the symbolic dims.  On ``ShapeInferenceError`` the result is
    the fully static fallback, whose ``reason`` says which node refused.
    """
    from ..passes.symbolic_shape_prop import (
        ShapeInferenceError, SymDim, SymShape, SymbolicShapeProp,
    )

    if not example_inputs or not all(isinstance(t, Tensor) for t in example_inputs):
        return _static_guard_set(example_inputs, "an input is not a tensor")
    shapes = [tuple(int(d) for d in t.shape) for t in example_inputs]
    if dynamic_dims is None:
        dynamic_dims = {(i, 0) for i, s in enumerate(shapes) if len(s) >= 1}
    dynamic_dims = {
        (i, d) for (i, d) in dynamic_dims
        if i < len(shapes) and d < len(shapes[i]) and shapes[i][d] >= 1
    }
    if not dynamic_dims:
        return _static_guard_set(example_inputs, "no dim was asked to be free")

    # one symbol per distinct example size among the dynamic dims
    symbol_of_size: dict[int, str] = {}
    for i, d in sorted(dynamic_dims):
        size = shapes[i][d]
        if size not in symbol_of_size:
            if len(symbol_of_size) >= len(_SYMBOL_NAMES):
                return _static_guard_set(
                    example_inputs, f"more than {len(_SYMBOL_NAMES)} distinct free sizes")
            symbol_of_size[size] = _SYMBOL_NAMES[len(symbol_of_size)]

    sym_shapes = []
    for i, shape in enumerate(shapes):
        dims: list[Any] = []
        for d, size in enumerate(shape):
            if (i, d) in dynamic_dims:
                dims.append(SymDim(symbol_of_size[size]))
            else:
                dims.append(size)
        sym_shapes.append(SymShape(dims))

    try:
        _, out = SymbolicShapeProp(gm).infer(*sym_shapes)
    except ShapeInferenceError as exc:
        # the one clause that says why: which target has no entry at which
        # node, or which constraint pinned which dim
        return _static_guard_set(example_inputs, str(exc))

    ndims, dtypes, guards = [], [], []
    for i, t in enumerate(example_inputs):
        ndims.append(len(shapes[i]))
        dtypes.append(str(t.data.dtype))
        for d, size in enumerate(shapes[i]):
            if (i, d) in dynamic_dims:
                guards.append(DimGuard(
                    input=i, dim=d, kind="dynamic",
                    symbol=symbol_of_size[size], min=1,
                ))
            else:
                guards.append(DimGuard(input=i, dim=d, kind="eq", value=size))
    return GuardSet(
        ndims=tuple(ndims), dtypes=tuple(dtypes), guards=tuple(guards),
        dynamic=True, output_shape=repr(out) if out is not None else None,
    )
