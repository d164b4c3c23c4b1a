"""``repro.nn`` — the module system (substrate for ``torch.nn``)."""

from .. import functional  # re-exported as nn.functional, like torch
from . import init
from .activations import (
    ELU, GELU, Hardsigmoid, Hardswish, Hardtanh, LeakyReLU, LogSoftmax, Mish,
    ReLU, ReLU6, SELU, Sigmoid, SiLU, Softmax, Softplus, Tanh,
)
from .attention import MultiheadAttention
from .containers import ModuleDict, ModuleList, Sequential
from .conv import Conv1d, Conv2d, ConvTranspose2d
from .dropout import Dropout
from .linear import Flatten, Identity, Linear
from .module import Module
from .norm import BatchNorm1d, BatchNorm2d, GroupNorm, LayerNorm
from .parameter import Parameter
from .pooling import AdaptiveAvgPool2d, AvgPool2d, MaxPool2d, Upsample
from .sparse import Embedding

__all__ = [
    "AdaptiveAvgPool2d", "AvgPool2d", "BatchNorm1d", "BatchNorm2d", "Conv1d",
    "Conv2d", "ConvTranspose2d", "Dropout", "ELU", "Embedding", "Flatten",
    "GELU", "GroupNorm", "Hardsigmoid", "Hardswish", "Hardtanh",
    "Identity", "LayerNorm", "LeakyReLU", "Linear", "LogSoftmax",
    "MaxPool2d", "Mish", "Module", "ModuleDict", "ModuleList",
    "MultiheadAttention", "Parameter", "ReLU", "ReLU6", "SELU",
    "Sequential", "Sigmoid", "Upsample", "SiLU", "Softmax", "Softplus", "Tanh",
    "functional", "init",
]
