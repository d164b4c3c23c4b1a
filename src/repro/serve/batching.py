"""Dynamic request batching: coalesce, run once, split back.

The server's batching contract is the standard inference-serving one:
every request input carries a **leading batch dimension**, and the model
is batch-independent along it (row *i* of every output depends only on
row *i* of every input — true of the per-sample models this repo
serves: pointwise chains, linear/conv stacks, ResNets).  Under that
contract, requests whose inputs agree on **per-sample shape and dtype**
(i.e. everything except the leading dimension) can be concatenated along
axis 0, run as one forward, and sliced back apart — and requests that
disagree on any of it must never share a batch, which is why the batch
key is the full per-sample signature.

Outputs are split with zero copies: each request receives a view into
the batched output.  That is safe because compiled engines return
freshly allocated outputs (escaping values are never arena-planned), so
one request's view can't be clobbered by the next forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple

import numpy as np

from ..tensor import Tensor
from .engine_cache import dtype_name

__all__ = ["BatchKey", "BatchError", "batch_key_of", "coalesce",
           "sample_signature", "split_results"]


class BatchError(TypeError):
    """The request or result shape violates the batching contract."""


@dataclass(frozen=True)
class BatchKey:
    """What must agree for two requests to share one batched forward.

    Attributes:
        model: registered model name.
        signature: ``((per_sample_shape, dtype_name), ...)`` per input —
            the input shapes *minus* the leading batch dimension.
    """

    model: str
    signature: tuple


def batch_key_of(model: str, inputs: Sequence[Any]) -> Tuple[BatchKey, int]:
    """Classify a request: its :class:`BatchKey` plus its row count."""
    signature, rows = sample_signature(inputs)
    return BatchKey(model=model, signature=signature), rows


def sample_signature(inputs: Sequence[Any]) -> Tuple[tuple, int]:
    """A request's per-sample signature (:attr:`BatchKey.signature`) plus
    its row count.

    Every input must be a Tensor with the same leading dimension; that
    shared leading dimension is the request's row count.
    """
    if not inputs:
        raise BatchError("a batched request needs at least one input")
    rows = None
    sig = []
    for i, x in enumerate(inputs):
        if not isinstance(x, Tensor):
            raise BatchError(
                f"input {i} is {type(x).__name__}, not Tensor: only "
                f"tensor requests can be dynamically batched "
                f"(submit with batching disabled instead)")
        shape = tuple(x.data.shape)
        if not shape:
            raise BatchError(
                f"input {i} is 0-d: batching needs a leading batch "
                f"dimension")
        if rows is None:
            rows = shape[0]
        elif shape[0] != rows:
            raise BatchError(
                f"input {i} has {shape[0]} rows but input 0 has {rows}: "
                f"all inputs of one request must agree on the batch dim")
        sig.append((shape[1:], dtype_name(x.data.dtype)))
    return tuple(sig), int(rows)


def coalesce(request_inputs: Sequence[Sequence[Tensor]]) -> tuple:
    """Concatenate per-request inputs along axis 0, position by position.

    All requests are assumed pre-classified under one :class:`BatchKey`
    (same arity, per-sample shapes, dtypes).
    """
    n_inputs = len(request_inputs[0])
    batched = []
    for pos in range(n_inputs):
        arrays = [req[pos].data for req in request_inputs]
        batched.append(Tensor._wrap(np.concatenate(arrays, axis=0)))
    return tuple(batched)


def _split_value(value: Any, offsets: List[Tuple[int, int]]) -> list:
    """Slice one output value into per-request views."""
    if isinstance(value, Tensor):
        total = offsets[-1][1]
        if value.data.ndim == 0 or value.data.shape[0] != total:
            raise BatchError(
                f"output shape {tuple(value.data.shape)} has no leading "
                f"batch dimension of {total} rows; this model cannot be "
                f"dynamically batched — serve it with batching disabled")
        return [Tensor._wrap(value.data[a:b]) for a, b in offsets]
    if isinstance(value, (tuple, list)):
        per_elem = [_split_value(v, offsets) for v in value]
        return [type(value)(parts[i] for parts in per_elem)
                for i in range(len(offsets))]
    raise BatchError(
        f"output of type {type(value).__name__} cannot be split per "
        f"request; serve this model with batching disabled")


def split_results(result: Any, row_counts: Sequence[int]) -> list:
    """Split one batched forward's result back into per-request results.

    *result* may be a Tensor or an arbitrarily nested tuple/list of
    Tensors; every leaf must carry the full batch as its leading
    dimension.  Returns one result per request, in submission order.
    """
    offsets: List[Tuple[int, int]] = []
    start = 0
    for rows in row_counts:
        offsets.append((start, start + rows))
        start += rows
    return _split_value(result, offsets)
