"""Model zoo — the paper's evaluation workloads, rebuilt on the substrate."""

from .deep_recommender import DeepRecommender, deep_recommender
from .learning_to_paint import (
    LearningToPaintActor,
    NeuralRenderer,
    learning_to_paint_actor,
    neural_renderer,
)
from .resnet import BasicBlock, Bottleneck, ResNet, resnet18, resnet34, resnet50
from .simple import MLP, ConvBNReLU, SimpleCNN
from .transformer import TransformerEncoder, TransformerEncoderLayer

__all__ = [
    "BasicBlock",
    "Bottleneck",
    "ConvBNReLU",
    "DeepRecommender",
    "LearningToPaintActor",
    "MLP",
    "NeuralRenderer",
    "neural_renderer",
    "ResNet",
    "SimpleCNN",
    "TransformerEncoder",
    "TransformerEncoderLayer",
    "deep_recommender",
    "learning_to_paint_actor",
    "resnet18",
    "resnet34",
    "resnet50",
]
