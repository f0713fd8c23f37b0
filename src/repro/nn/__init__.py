"""From-scratch numpy deep-learning framework.

This is the training/inference substrate for the In-situ AI reproduction —
the role Caffe plays in the paper.  NCHW layout throughout; explicit
forward/backward with per-layer caches; first-class support for layer
freezing and weight transfer (the operations the paper's framework relies
on).
"""

from repro.nn.activations import (
    LeakyReLU,
    ReLU,
    Sigmoid,
    Softmax,
    Tanh,
    softmax,
)
from repro.nn.base import Layer
from repro.nn.config import default_dtype, dtype_scope, set_default_dtype
from repro.nn.conv import Conv2D
from repro.nn.dropout import Dropout
from repro.nn.im2col import col2im, conv_output_size, im2col
from repro.nn.linear import Linear
from repro.nn.loss import CrossEntropyLoss, MSELoss, accuracy, top_k_accuracy
from repro.nn.network import PREDICT_BATCH, Sequential
from repro.nn.norm import BatchNorm2D, LocalResponseNorm
from repro.nn.optim import SGD, ConstantLR, StepLR
from repro.nn.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.reshape import Flatten
from repro.nn.tensor import Parameter

__all__ = [
    "AvgPool2D",
    "BatchNorm2D",
    "ConstantLR",
    "Conv2D",
    "CrossEntropyLoss",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2D",
    "Layer",
    "LeakyReLU",
    "Linear",
    "LocalResponseNorm",
    "MSELoss",
    "MaxPool2D",
    "PREDICT_BATCH",
    "Parameter",
    "ReLU",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Softmax",
    "StepLR",
    "Tanh",
    "accuracy",
    "col2im",
    "conv_output_size",
    "default_dtype",
    "dtype_scope",
    "im2col",
    "set_default_dtype",
    "softmax",
    "top_k_accuracy",
]
