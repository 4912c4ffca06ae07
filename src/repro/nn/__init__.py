"""A from-scratch numpy neural-network framework.

Built because the CIM MC-Dropout engine needs surgical control over things
deep-learning frameworks hide: externally supplied dropout masks (they come
from the SRAM RNG), per-layer fixed-point weight quantisation (the macro
stores 4/6-bit weights), and access to per-layer matrix-vector products (the
compute-reuse engine replays them incrementally).

Layers implement explicit ``forward``/``backward`` passes (no autograd);
gradients are verified against finite differences in the test suite.
"""

from repro.nn.module import Module, Parameter
from repro.nn.layers import (
    Dense,
    LeakyReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from repro.nn.dropout import Dropout
from repro.nn.sequential import Sequential
from repro.nn.losses import MSELoss
from repro.nn.optim import Adam
from repro.nn.init import xavier_uniform
from repro.nn.quantization import (
    QuantizationSpec,
    dequantize,
    quantize,
    quantize_model_weights,
)

__all__ = [
    "Module",
    "Parameter",
    "Dense",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Dropout",
    "Sequential",
    "MSELoss",
    "Adam",
    "xavier_uniform",
    "QuantizationSpec",
    "quantize",
    "dequantize",
    "quantize_model_weights",
]
