"""Gradual tensor typing (§6.3: "shape propagation via gradual typing
semantics ... in development" — implemented here as an extension).

Implements the gradually-typed tensor calculus used by torch.fx's
experimental ``graph_gradual_typechecker`` (Migeed et al.): a tensor type
is a sequence of dimensions, each either a concrete ``int`` or the
*dynamic* type :data:`Dyn`; a whole tensor can also be ``Dyn``.  The
key relations:

* **consistency** (``~``): ``Dyn`` is consistent with anything; two
  concrete dims are consistent iff equal; shapes are consistent iff
  element-wise consistent (same rank, or one side is ``Dyn``).
* **precision / meet**: the *greatest lower bound* of two consistent
  types keeps the concrete information from both sides.

:func:`type_check` walks the graph once (basic-block IR again) with the op
table's rules (:mod:`repro.fx.opinfo` — this module supplies the lattice
and the gradual dimension domain, not a rule set of its own), refines
``Dyn`` where an op's constraint forces a concrete value, and raises
:class:`TypeCheckError` on genuinely inconsistent programs — without
requiring *any* concrete input shape.
"""

from __future__ import annotations

from typing import Any, Sequence

from .. import opinfo
from ..graph_module import GraphModule
from ..node import Node

__all__ = ["Dyn", "TensorType", "TypeCheckError", "is_consistent", "meet", "type_check"]


class _DynType:
    """The dynamic type: consistent with everything (singleton).  As a
    dimension it absorbs arithmetic: any extent computed from an unknown
    extent is unknown."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Dyn"

    def _absorb(self, other):
        return self

    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _absorb
    __floordiv__ = __rfloordiv__ = _absorb

    def __reduce__(self):
        return (_DynType, ())


Dyn = _DynType()


class TypeCheckError(opinfo.ShapeError, TypeError):
    """The program is ill-typed: two types that must agree are inconsistent."""


class TensorType:
    """A gradually-typed tensor shape: each dim is an int or ``Dyn``."""

    __slots__ = ("dims",)

    def __init__(self, dims: Sequence[Any]):
        for d in dims:
            if not (d is Dyn or isinstance(d, int)):
                raise TypeError(f"dimension must be int or Dyn, got {d!r}")
        self.dims = tuple(dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i):
        return self.dims[i]

    def __iter__(self):
        return iter(self.dims)

    def __eq__(self, other) -> bool:
        return isinstance(other, TensorType) and self.dims == other.dims

    def __hash__(self) -> int:
        return hash(self.dims)

    def __repr__(self) -> str:
        return "TensorType[" + ", ".join(str(d) for d in self.dims) + "]"

    def is_fully_static(self) -> bool:
        return all(isinstance(d, int) for d in self.dims)


Type = Any  # TensorType | _DynType


def is_consistent(a: Type, b: Type) -> bool:
    """The gradual consistency relation ``a ~ b``."""
    if a is Dyn or b is Dyn:
        return True
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        if len(a) != len(b):
            return False
        return all(
            da is Dyn or db is Dyn or da == db for da, db in zip(a, b)
        )
    return a == b


def meet(a: Type, b: Type) -> Type:
    """Greatest lower bound in the precision order (keeps concrete info).

    Raises:
        TypeCheckError: if the types are not consistent.
    """
    if not is_consistent(a, b):
        raise TypeCheckError(f"inconsistent types: {a} vs {b}")
    if a is Dyn:
        return b
    if b is Dyn:
        return a
    if isinstance(a, TensorType) and isinstance(b, TensorType):
        return TensorType([
            db if da is Dyn else da for da, db in zip(a, b)
        ])
    return a


class _Gradual(opinfo.Domain):
    """Dims are ints or ``Dyn``: ``Dyn`` unifies with anything (and is
    refined by it), arithmetic on it stays ``Dyn``, and a node the table
    cannot type is ``Dyn`` — gradual typing loses precision, never fails."""

    error = TypeCheckError
    top = Dyn
    dtyped = False

    def unify(self, a, b, what: str):
        if a is Dyn or b is Dyn:
            return b if a is Dyn else a
        return super().unify(a, b, what)

    def int(self, dim, what: str) -> int:
        if dim is Dyn:
            raise opinfo.NoRule(f"{what} is Dyn")
        return dim

    def missing(self, node: Node, why: str) -> Type:
        return Dyn


def _to_type(value: Any) -> Type:
    if not opinfo.has_tensor(value):
        return Dyn
    typed = opinfo.map_tensors(value, lambda t: TensorType(t.shape))
    return tuple(typed) if isinstance(typed, list) else typed


def type_check(gm: GraphModule, input_types: Sequence[Type]) -> Type:
    """Assign a gradual type to every node; return the output type.

    Args:
        gm: the graph to check.
        input_types: one :class:`TensorType` (or ``Dyn``) per placeholder.

    Every node gets ``node.type`` set — a :class:`TensorType`, a tuple of
    them for a tuple-valued node, ``Dyn`` for anything else.  The rules are
    the op table's (:func:`repro.fx.opinfo.sweep` over gradual dims), so a
    constraint an entry declares (a Linear whose input feature dim is
    concrete but wrong) raises :class:`TypeCheckError`, and a target
    without an entry is ``Dyn``.
    """
    env, out = opinfo.sweep(
        gm, [t if t is Dyn else opinfo.T(t.dims) for t in input_types], _Gradual())
    for node, value in env.items():
        node.type = _to_type(value)
    return _to_type(out)
