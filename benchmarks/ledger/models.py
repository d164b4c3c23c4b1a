"""The benchmark's subjects: seeded models and the inputs fed to them.

``ManyOps``, ``Chain16`` and ``SmallMLP`` are defined here rather than
imported from ``src/`` so that no later change to the program can change
what the benchmark runs.  Only public ``repro`` names are used.
"""

from __future__ import annotations

import repro
import repro.functional as F
from repro import nn
from repro.models import resnet50

MANY_OPS_BLOCKS = 32
MANY_OPS_WIDTH = 64
CHAIN_FEATURES = 256
MLP_FEATURES = 128


class _ManyOpsBlock(nn.Module):
    """One small ``Linear`` and a pointwise tail holding one of each thing
    a cleanup pass exists for."""

    def __init__(self, width: int, bait: bool):
        super().__init__()
        self.fc = nn.Linear(width, width)
        self.register_buffer("scale", repro.randn(width))
        self.squash = nn.Tanh()
        self.bait = bait

    def forward(self, x):
        h = self.fc(x)
        a = F.relu(h) * 1.01 + 0.1
        b = F.relu(h) * 1.01 + 0.1            # duplicated subexpression (CSE)
        dead = F.sigmoid(h) * 2.0             # dead branch (DCE)  # noqa: F841
        k = self.squash(self.scale) * 0.5 + 1.0   # buffer-only constant (fold)
        t = F.maximum(a, b * 0.5)
        if self.bait:                         # rule bait: relu∘relu, x * 1
            t = F.relu(F.relu(t)) * 1
        t = F.tanh(t * k)
        return t + x


class ManyOps(nn.Module):
    """Structure-heavy, weight-light: 32 blocks, ~600 captured nodes,
    < 0.2 MB of state.  Every fourth block carries rule bait — the rule
    engine's cost grows faster than linearly in firings, and eight baited
    blocks keep it a large share of the cold compile without making it
    all of it."""

    def __init__(self, blocks: int = MANY_OPS_BLOCKS,
                 width: int = MANY_OPS_WIDTH):
        super().__init__()
        self.blocks = nn.Sequential(
            *[_ManyOpsBlock(width, bait=(i % 4 == 0)) for i in range(blocks)])

    def forward(self, x):
        return self.blocks(x)


class Chain16(nn.Module):
    """16 pointwise ops that fuse into one kernel: the served engine is
    nearly free, so serving overhead is what the served workloads time."""

    def forward(self, x):
        t = x
        for _ in range(4):
            t = F.relu(t)
            t = t * 1.01
            t = t + 0.1
            t = F.sigmoid(t)
        return t


class SmallMLP(nn.Module):
    """Two ``Linear`` layers: a second request signature for mixed traffic."""

    def __init__(self, features: int = MLP_FEATURES):
        super().__init__()
        self.fc1 = nn.Linear(features, 2 * features)
        self.fc2 = nn.Linear(2 * features, features // 2)

    def forward(self, x):
        return self.fc2(F.relu(self.fc1(x)))


#: name -> (constructor, example input shape, outputs bit-exact vs eager?)
#: ResNet-50 is compared with a tolerance because conv-bn folding reorders
#: float arithmetic; SmallMLP because a batched matmul may round a row
#: differently from the single-row matmul the eager reference runs.
SUBJECTS = {
    "resnet50": (resnet50, (1, 3, 64, 64), False),
    "many_ops": (ManyOps, (8, MANY_OPS_WIDTH), True),
    "chain16": (Chain16, (1, CHAIN_FEATURES), True),
    "small_mlp": (SmallMLP, (1, MLP_FEATURES), False),
}


def build(name: str, seed: int):
    """The seeded model *name*, in eval mode."""
    constructor = SUBJECTS[name][0]
    repro.manual_seed(seed)
    return constructor().eval()


def make_inputs(name: str, seed: int, count: int, rows=None) -> list:
    """*count* seeded inputs of *name*'s example shape; ``rows[i]``
    overrides the leading dimension of input *i*."""
    shape = SUBJECTS[name][1]
    repro.manual_seed(seed + 7919)   # inputs never share draws with weights
    out = []
    for i in range(count):
        lead = shape[0] if rows is None else rows[i]
        out.append(repro.randn(lead, *shape[1:]))
    return out


def same(name: str, got, expected) -> bool:
    """The correctness oracle: *got* against the eager reference."""
    if got is None or tuple(got.shape) != tuple(expected.shape):
        return False
    if SUBJECTS[name][2]:
        return repro.equal(got, expected)
    return repro.allclose(got, expected, atol=1e-4, rtol=1e-4)
