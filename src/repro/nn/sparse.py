"""Embedding layers (the sparse side of recommendation models)."""

from __future__ import annotations

from .. import functional as F
from ..tensor import zeros
from . import init
from .module import Module
from .parameter import Parameter

__all__ = ["Embedding"]


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.weight = Parameter(zeros(num_embeddings, embedding_dim))
        init.normal_(self.weight)

    def forward(self, indices):
        return F.embedding(indices, self.weight)

    def extra_repr(self) -> str:
        return f"{self.num_embeddings}, {self.embedding_dim}"

