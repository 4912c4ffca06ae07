"""VO network factories."""

from __future__ import annotations

import numpy as np

from repro.nn.dropout import Dropout
from repro.nn.layers import Dense, ReLU
from repro.nn.sequential import Sequential


def build_vo_mlp(
    input_dim: int,
    rng: np.random.Generator,
    hidden: tuple[int, ...] = (256, 128),
    dropout_p: float = 0.5,
    output_dim: int = 6,
) -> Sequential:
    """The frame-pair VO regressor with MC-Dropout layers.

    Dropout (p = 0.5 per the paper) precedes every Dense layer after the
    first, matching the input/output neuron dropping the CIM macro
    implements with its CL/RL AND gates.

    Args:
        input_dim: feature width from :class:`~repro.vo.features.FrameEncoder`.
        rng: init generator.
        hidden: hidden layer widths.
        dropout_p: drop probability.
        output_dim: 6 for (translation, euler) targets.
    """
    if not hidden:
        raise ValueError("need at least one hidden layer")
    layers = [Dense(input_dim, hidden[0], rng, name="fc0"), ReLU()]
    previous = hidden[0]
    for index, width in enumerate(hidden[1:], start=1):
        layers.append(Dropout(dropout_p, rng=rng))
        layers.append(Dense(previous, width, rng, name=f"fc{index}"))
        layers.append(ReLU())
        previous = width
    layers.append(Dropout(dropout_p, rng=rng))
    layers.append(Dense(previous, output_dim, rng, name="head"))
    return Sequential(layers)
