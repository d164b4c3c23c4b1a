"""Multi-head attention (the Transformer workhorse, §5.5)."""

from __future__ import annotations

import math

from .. import functional as F
from .linear import Linear
from .module import Module

__all__ = ["MultiheadAttention"]


class MultiheadAttention(Module):
    """Scaled dot-product attention with ``num_heads`` heads.

    Inputs are ``(N, L, E)`` (batch-first).  Returns ``(output, weights)``
    like ``torch.nn.MultiheadAttention``.
    """

    def __init__(self, embed_dim: int, num_heads: int, bias: bool = True):
        super().__init__()
        if embed_dim % num_heads:
            raise ValueError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
        self.embed_dim = embed_dim
        self.num_heads = num_heads
        self.head_dim = embed_dim // num_heads
        self.q_proj = Linear(embed_dim, embed_dim, bias=bias)
        self.k_proj = Linear(embed_dim, embed_dim, bias=bias)
        self.v_proj = Linear(embed_dim, embed_dim, bias=bias)
        self.out_proj = Linear(embed_dim, embed_dim, bias=bias)

    def forward(self, query, key, value, attn_mask=None):
        n, lq, e = query.shape
        lk = key.shape[1]
        h, d = self.num_heads, self.head_dim

        q = self.q_proj(query).reshape(n, lq, h, d).permute(0, 2, 1, 3)
        k = self.k_proj(key).reshape(n, lk, h, d).permute(0, 2, 1, 3)
        v = self.v_proj(value).reshape(n, lk, h, d).permute(0, 2, 1, 3)

        scores = F.matmul(q, k.transpose(-2, -1)) / math.sqrt(d)
        if attn_mask is not None:
            scores = F.add(scores, attn_mask)
        weights = F.softmax(scores, dim=-1)
        out = F.matmul(weights, v)  # (N, H, Lq, D)
        out = out.permute(0, 2, 1, 3).reshape(n, lq, e)
        return self.out_proj(out), weights

    def extra_repr(self) -> str:
        return f"embed_dim={self.embed_dim}, num_heads={self.num_heads}"
