"""``Parameter`` — a tensor that registers as trainable module state."""

from __future__ import annotations

from ..tensor import Tensor

__all__ = ["Parameter"]


class Parameter(Tensor):
    """A :class:`~repro.tensor.Tensor` subclass marking trainable state.

    Assigning a ``Parameter`` to a :class:`~repro.nn.Module` attribute
    registers it in the module's ``_parameters`` dict, exactly like
    ``torch.nn.Parameter``.  The ``requires_grad`` flag is carried for API
    parity (no gradients are recorded; transforms such as
    quantization only need to *identify and replace* parameters).
    """

    __slots__ = ("requires_grad",)

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data)
        self.requires_grad = requires_grad

    def __repr__(self) -> str:
        return f"Parameter containing:\n{super().__repr__()}"
