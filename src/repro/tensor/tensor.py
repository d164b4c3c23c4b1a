"""The ``Tensor`` class: a numpy-backed eager tensor.

This is the substrate that stands in for ``torch.Tensor``.  It supports the
semantics torch.fx cares about:

* eager, define-by-run execution (every method computes immediately);
* *views and mutation* — ``x[i]`` returns a view aliasing ``x``'s storage
  and ``x[i] = y`` writes through it, mirroring the PyTorch aliasing model
  the paper discusses in §2.3;
* a method namespace (``t.relu()``, ``t.neg()``, …) that symbolic tracing
  records as ``call_method`` nodes;
* metadata attributes (``shape``, ``ndim``, ``dtype``) that tracing returns
  as Proxy values so they cannot silently shape-specialize a trace (§5.3).

Binary operators defer to an argument that implements the
``__tensor_function__`` protocol (returning ``NotImplemented`` so Python's
reflected-operand machinery hands control to, e.g., ``fx.Proxy.__radd__``).
"""

from __future__ import annotations

import numpy as np

from . import dtype as _dt
from .dispatch import has_tensor_function

__all__ = ["Tensor", "Size", "tensor", "as_tensor"]


class Size(tuple):
    """Shape tuple, printed like ``torch.Size``."""

    def __repr__(self) -> str:
        return f"Size({list(self)})"

    def numel(self) -> int:
        n = 1
        for s in self:
            n *= s
        return n


def _unwrap(value):
    """Extract the numpy payload from tensors; pass scalars through."""
    if isinstance(value, Tensor):
        return value.data
    return value


class Tensor:
    """An n-dimensional array of one :class:`~repro.tensor.dtype.DType`.

    Thin, readable wrapper over ``numpy.ndarray``: views are numpy views,
    so aliasing and mutation behave like PyTorch's (basic indexing returns
    an alias; writes through a view are visible in the base tensor).
    """

    __slots__ = ("data", "_dtype")

    def __init__(self, data, dtype: _dt.DType | None = None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is None:
            if arr.dtype == np.float64:
                # Match torch's default: float literals become float32.
                arr = arr.astype(np.float32)
            dtype = _dt.dtype_from_numpy(arr.dtype)
        else:
            arr = arr.astype(dtype.np_dtype, copy=False)
        self.data: np.ndarray = arr
        self._dtype = dtype

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _wrap(arr: np.ndarray, dtype: _dt.DType | None = None) -> "Tensor":
        t = Tensor.__new__(Tensor)
        arr = np.asarray(arr)
        t.data = arr
        t._dtype = dtype if dtype is not None else _dt.dtype_from_numpy(arr.dtype)
        return t

    # -- metadata ------------------------------------------------------------

    @property
    def shape(self) -> Size:
        return Size(self.data.shape)

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> _dt.DType:
        return self._dtype

    @property
    def device(self) -> str:
        return "cpu"

    @property
    def T(self) -> "Tensor":
        return Tensor._wrap(self.data.T, self._dtype)

    def size(self, dim: int | None = None):
        """Shape as a :class:`Size`, or a single dimension's extent."""
        if dim is None:
            return self.shape
        return self.data.shape[dim]

    def dim(self) -> int:
        return self.data.ndim

    def numel(self) -> int:
        return int(self.data.size)

    def element_size(self) -> int:
        """Bytes per element."""
        return self._dtype.itemsize

    def nbytes(self) -> int:
        return self.numel() * self.element_size()

    def __len__(self) -> int:
        if self.data.ndim == 0:
            raise TypeError("len() of a 0-d tensor")
        return self.data.shape[0]

    def __repr__(self) -> str:
        body = np.array2string(self.data, precision=4, separator=", ", threshold=20)
        return f"tensor({body}, dtype={self._dtype.name})"

    # -- conversion ----------------------------------------------------------

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self):
        return self.data.item()

    def tolist(self):
        return self.data.tolist()

    def to(self, dtype: _dt.DType) -> "Tensor":
        """Return a tensor converted to *dtype* (a copy if dtype changes)."""
        if dtype is self._dtype:
            return self
        return Tensor._wrap(self.data.astype(dtype.np_dtype), dtype)

    def float(self) -> "Tensor":
        return self.to(_dt.float32)

    def double(self) -> "Tensor":
        return self.to(_dt.float64)

    def long(self) -> "Tensor":
        return self.to(_dt.int64)

    def int(self) -> "Tensor":
        return self.to(_dt.int32)

    def bool(self) -> "Tensor":
        return self.to(_dt.bool_)

    def clone(self) -> "Tensor":
        return Tensor._wrap(self.data.copy(), self._dtype)

    def detach(self) -> "Tensor":
        # No gradients are recorded; detach is identity, kept for API parity.
        return self

    def contiguous(self) -> "Tensor":
        return Tensor._wrap(np.ascontiguousarray(self.data), self._dtype)

    # -- shape manipulation (views where numpy gives views) -------------------

    def reshape(self, *shape) -> "Tensor":
        shape = _canon_shape(shape)
        return Tensor._wrap(self.data.reshape(shape), self._dtype)

    def view(self, *shape) -> "Tensor":
        """Alias-preserving reshape (errors if a copy would be required)."""
        shape = _canon_shape(shape)
        try:
            out = self.data.reshape(shape)
        except ValueError as e:
            raise RuntimeError(f"view{shape} incompatible with shape {self.shape}") from e
        return Tensor._wrap(out, self._dtype)

    def flatten(self, start_dim: int = 0, end_dim: int = -1) -> "Tensor":
        nd = self.data.ndim
        start = start_dim % nd if nd else 0
        end = end_dim % nd if nd else 0
        shape = self.data.shape
        new_shape = shape[:start] + (int(np.prod(shape[start : end + 1], initial=1)),) + shape[end + 1 :]
        return Tensor._wrap(self.data.reshape(new_shape), self._dtype)

    def squeeze(self, dim: int | None = None) -> "Tensor":
        if dim is None:
            return Tensor._wrap(np.squeeze(self.data), self._dtype)
        if self.data.shape[dim] != 1:
            return self
        return Tensor._wrap(np.squeeze(self.data, axis=dim), self._dtype)

    def unsqueeze(self, dim: int) -> "Tensor":
        return Tensor._wrap(np.expand_dims(self.data, axis=dim), self._dtype)

    def transpose(self, dim0: int, dim1: int) -> "Tensor":
        return Tensor._wrap(np.swapaxes(self.data, dim0, dim1), self._dtype)

    def t(self) -> "Tensor":
        if self.data.ndim > 2:
            raise RuntimeError("t() expects a tensor with <= 2 dimensions")
        return Tensor._wrap(self.data.T, self._dtype)

    def permute(self, *dims) -> "Tensor":
        dims = _canon_shape(dims)
        return Tensor._wrap(np.transpose(self.data, dims), self._dtype)

    def expand(self, *sizes) -> "Tensor":
        sizes = _canon_shape(sizes)
        shape = [
            self.data.shape[i - (len(sizes) - self.data.ndim)] if s == -1 else s
            for i, s in enumerate(sizes)
        ]
        return Tensor._wrap(np.broadcast_to(self.data, shape), self._dtype)

    def repeat(self, *sizes) -> "Tensor":
        sizes = _canon_shape(sizes)
        return Tensor._wrap(np.tile(self.data, sizes), self._dtype)

    def chunk(self, chunks: int, dim: int = 0) -> tuple["Tensor", ...]:
        parts = np.array_split(self.data, chunks, axis=dim)
        return tuple(Tensor._wrap(p, self._dtype) for p in parts)

    def split(self, split_size: int, dim: int = 0) -> tuple["Tensor", ...]:
        n = self.data.shape[dim]
        points = list(range(split_size, n, split_size))
        parts = np.split(self.data, points, axis=dim)
        return tuple(Tensor._wrap(p, self._dtype) for p in parts)

    # -- indexing (views + mutation, mirroring the PyTorch aliasing model) ----

    def __getitem__(self, idx) -> "Tensor":
        idx = _unwrap_index(idx)
        out = self.data[idx]
        if not isinstance(out, np.ndarray):
            out = np.asarray(out)
        return Tensor._wrap(out, self._dtype)

    def __setitem__(self, idx, value) -> None:
        idx = _unwrap_index(idx)
        self.data[idx] = _unwrap(value)

    # -- elementwise math (methods; recorded as call_method when traced) ------

    def neg(self) -> "Tensor":
        return Tensor._wrap(-self.data, self._dtype)

    def abs(self) -> "Tensor":
        return Tensor._wrap(np.abs(self.data), self._dtype)

    def exp(self) -> "Tensor":
        return Tensor._wrap(np.exp(self.data))

    def log(self) -> "Tensor":
        return Tensor._wrap(np.log(self.data))

    def sqrt(self) -> "Tensor":
        return Tensor._wrap(np.sqrt(self.data))

    def rsqrt(self) -> "Tensor":
        return Tensor._wrap(1.0 / np.sqrt(self.data))

    def reciprocal(self) -> "Tensor":
        return Tensor._wrap(1.0 / self.data)

    def sin(self) -> "Tensor":
        return Tensor._wrap(np.sin(self.data))

    def cos(self) -> "Tensor":
        return Tensor._wrap(np.cos(self.data))

    def tanh(self) -> "Tensor":
        return Tensor._wrap(np.tanh(self.data))

    def sigmoid(self) -> "Tensor":
        from .. import functional as F

        return F.sigmoid(self)

    def relu(self) -> "Tensor":
        from .. import functional as F

        return F.relu(self)

    def gelu(self) -> "Tensor":
        from .. import functional as F

        return F.gelu(self)

    def softmax(self, dim: int = -1) -> "Tensor":
        from .. import functional as F

        return F.softmax(self, dim=dim)

    def clamp(self, min=None, max=None) -> "Tensor":
        return Tensor._wrap(np.clip(self.data, min, max))

    def clamp_min(self, min) -> "Tensor":
        return self.clamp(min=min)

    def pow(self, exponent) -> "Tensor":
        return Tensor._wrap(np.power(self.data, _unwrap(exponent)))

    def round(self) -> "Tensor":
        return Tensor._wrap(np.round(self.data))

    def floor(self) -> "Tensor":
        return Tensor._wrap(np.floor(self.data), self._dtype)

    def sign(self) -> "Tensor":
        return Tensor._wrap(np.sign(self.data), self._dtype)

    def erf(self) -> "Tensor":
        from .. import functional as F

        return F.erf(self)

    # -- reductions ------------------------------------------------------------

    def sum(self, dim=None, keepdim: bool = False) -> "Tensor":
        return Tensor._wrap(np.sum(self.data, axis=dim, keepdims=keepdim))

    def mean(self, dim=None, keepdim: bool = False) -> "Tensor":
        return Tensor._wrap(np.mean(self.data, axis=dim, keepdims=keepdim))

    def var(self, dim=None, unbiased: bool = True, keepdim: bool = False) -> "Tensor":
        ddof = 1 if unbiased else 0
        return Tensor._wrap(np.var(self.data, axis=dim, ddof=ddof, keepdims=keepdim))

    def std(self, dim=None, unbiased: bool = True, keepdim: bool = False) -> "Tensor":
        ddof = 1 if unbiased else 0
        return Tensor._wrap(np.std(self.data, axis=dim, ddof=ddof, keepdims=keepdim))

    def max(self, dim=None, keepdim: bool = False):
        if dim is None:
            return Tensor._wrap(np.max(self.data))
        values = np.max(self.data, axis=dim, keepdims=keepdim)
        indices = np.argmax(self.data, axis=dim)
        if keepdim:
            indices = np.expand_dims(indices, axis=dim)
        return Tensor._wrap(values), Tensor._wrap(indices)

    def min(self, dim=None, keepdim: bool = False):
        if dim is None:
            return Tensor._wrap(np.min(self.data))
        values = np.min(self.data, axis=dim, keepdims=keepdim)
        indices = np.argmin(self.data, axis=dim)
        if keepdim:
            indices = np.expand_dims(indices, axis=dim)
        return Tensor._wrap(values), Tensor._wrap(indices)

    def argmax(self, dim=None, keepdim: bool = False) -> "Tensor":
        out = np.argmax(self.data, axis=dim)
        if keepdim and dim is not None:
            out = np.expand_dims(out, axis=dim)
        return Tensor._wrap(np.asarray(out))

    def argmin(self, dim=None, keepdim: bool = False) -> "Tensor":
        out = np.argmin(self.data, axis=dim)
        if keepdim and dim is not None:
            out = np.expand_dims(out, axis=dim)
        return Tensor._wrap(np.asarray(out))

    def all(self) -> "Tensor":
        return Tensor._wrap(np.asarray(np.all(self.data)))

    def any(self) -> "Tensor":
        return Tensor._wrap(np.asarray(np.any(self.data)))

    # -- linear algebra ---------------------------------------------------------

    def matmul(self, other) -> "Tensor":
        return Tensor._wrap(np.matmul(self.data, _unwrap(other)))

    def mm(self, other) -> "Tensor":
        if self.data.ndim != 2:
            raise RuntimeError("mm expects 2-D tensors")
        return self.matmul(other)

    def bmm(self, other) -> "Tensor":
        if self.data.ndim != 3:
            raise RuntimeError("bmm expects 3-D tensors")
        return self.matmul(other)

    def dot(self, other) -> "Tensor":
        return Tensor._wrap(np.dot(self.data, _unwrap(other)))

    # -- misc -------------------------------------------------------------------

    def masked_fill(self, mask, value) -> "Tensor":
        out = self.data.copy()
        out[_unwrap(mask).astype(bool)] = value
        return Tensor._wrap(out, self._dtype)

    def fill_(self, value) -> "Tensor":
        """In-place fill (mutating op; undefined behaviour under tracing, §5.6)."""
        self.data.fill(value)
        return self

    def add_(self, other, alpha: float = 1.0) -> "Tensor":
        self.data += np.asarray(_unwrap(other)) * alpha
        return self

    def mul_(self, other) -> "Tensor":
        self.data *= np.asarray(_unwrap(other))
        return self

    def copy_(self, other) -> "Tensor":
        np.copyto(self.data, _unwrap(other))
        return self

    def type_as(self, other: "Tensor") -> "Tensor":
        return self.to(other.dtype)

    # -- operator protocol --------------------------------------------------------

    def _binop(self, other, fn, reflected: bool = False):
        if has_tensor_function(other):
            return NotImplemented
        a, b = self.data, _unwrap(other)
        if reflected:
            a, b = b, a
        return Tensor._wrap(np.asarray(fn(a, b)))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __radd__(self, other):
        return self._binop(other, np.add, reflected=True)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, np.subtract, reflected=True)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply, reflected=True)

    def __truediv__(self, other):
        return self._binop(other, np.true_divide)

    def __rtruediv__(self, other):
        return self._binop(other, np.true_divide, reflected=True)

    def __floordiv__(self, other):
        return self._binop(other, np.floor_divide)

    def __mod__(self, other):
        return self._binop(other, np.mod)

    def __pow__(self, other):
        return self._binop(other, np.power)

    def __rpow__(self, other):
        return self._binop(other, np.power, reflected=True)

    def __matmul__(self, other):
        if has_tensor_function(other):
            return NotImplemented
        return self.matmul(other)

    def __rmatmul__(self, other):
        return Tensor._wrap(np.matmul(_unwrap(other), self.data))

    def __neg__(self):
        return self.neg()

    def __pos__(self):
        return self

    def __abs__(self):
        return self.abs()

    def __invert__(self):
        return Tensor._wrap(~self.data)

    def __iadd__(self, other):
        self.data = self.data + np.asarray(_unwrap(other), dtype=self.data.dtype)
        return self

    def __imul__(self, other):
        self.data = self.data * np.asarray(_unwrap(other), dtype=self.data.dtype)
        return self

    def __eq__(self, other):  # type: ignore[override]
        return self._binop(other, np.equal)

    def __ne__(self, other):  # type: ignore[override]
        return self._binop(other, np.not_equal)

    def __lt__(self, other):
        return self._binop(other, np.less)

    def __le__(self, other):
        return self._binop(other, np.less_equal)

    def __gt__(self, other):
        return self._binop(other, np.greater)

    def __ge__(self, other):
        return self._binop(other, np.greater_equal)

    __hash__ = object.__hash__

    def __bool__(self) -> bool:
        if self.data.size != 1:
            raise RuntimeError(
                "Boolean value of Tensor with more than one element is ambiguous"
            )
        return bool(self.data)

    def __int__(self) -> int:
        return int(self.data.item())

    def __float__(self) -> float:
        return float(self.data.item())

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


def _canon_shape(shape) -> tuple:
    """Accept both ``t.reshape(2, 3)`` and ``t.reshape((2, 3))`` spellings."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list, Size)):
        return tuple(shape[0])
    return tuple(shape)


def _unwrap_index(idx):
    if isinstance(idx, Tensor):
        return idx.data
    if isinstance(idx, tuple):
        return tuple(_unwrap_index(i) for i in idx)
    return idx


def tensor(data, dtype: _dt.DType | None = None) -> Tensor:
    """Create a tensor from nested lists / scalars / arrays (always copies)."""
    arr = np.array(_unwrap(data))
    return Tensor(arr, dtype=dtype)


def as_tensor(data, dtype: _dt.DType | None = None) -> Tensor:
    """Like :func:`tensor` but shares memory when possible."""
    if isinstance(data, Tensor) and (dtype is None or dtype is data.dtype):
        return data
    return Tensor(_unwrap(data), dtype=dtype)
