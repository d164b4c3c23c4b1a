"""Model zoo — the paper's evaluation workloads, rebuilt on the substrate
(each file loads when one of its names is first read)."""

from .. import _lazy
__getattr__, __dir__ = _lazy.attach(__name__, {
    "deep_recommender": "DeepRecommender deep_recommender",
    "learning_to_paint": "learning_to_paint LearningToPaintActor NeuralRenderer "
                         "learning_to_paint_actor neural_renderer",
    "resnet": "resnet BasicBlock Bottleneck ResNet resnet18 resnet34 resnet50",
    "simple": "simple MLP ConvBNReLU SimpleCNN",
    "transformer": "transformer TransformerEncoder TransformerEncoderLayer",
})

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
