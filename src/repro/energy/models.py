"""Closed-form per-operation energy models of the digital datapath.

The ``"digital"`` substrate has no hardware model to meter, so it
reports its energy through these formulas.
"""

from __future__ import annotations

from repro.circuits.technology import TechnologyNode


def digital_nn_energy(
    node: TechnologyNode,
    layer_sizes: tuple[int, ...],
    bits: int = 8,
    n_inferences: int = 1,
) -> float:
    """Energy (J) of a dense network inference on a digital MAC datapath.

    Counts one MAC per weight plus weight fetches from local SRAM.

    Args:
        layer_sizes: (in, h1, ..., out) widths.
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output widths")
    total = 0.0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        macs = fan_in * fan_out
        total += macs * (
            node.mac_energy(bits) + bits * node.sram_read_energy_per_bit_j
        )
    return n_inferences * total


def digital_mc_dropout_energy(
    node: TechnologyNode,
    layer_sizes: tuple[int, ...],
    bits: int = 8,
    n_iterations: int = 30,
    batch: int = 1,
) -> float:
    """Energy (J) of T-sample MC-Dropout on the digital MAC datapath.

    The digital baseline cannot reuse work across iterations, so the cost
    is exactly ``n_iterations * batch`` full forward passes (mirrors the
    accounting :class:`repro.api.substrates.MCDropoutSession` reports for
    the ``"digital"`` substrate).
    """
    if n_iterations < 1 or batch < 1:
        raise ValueError("counts must be positive")
    return digital_nn_energy(
        node, layer_sizes, bits=bits, n_inferences=n_iterations * batch
    )
