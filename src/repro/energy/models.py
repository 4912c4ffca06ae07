"""Closed-form per-operation energy models.

Each function mirrors the op accounting of the corresponding runtime
backend; tests assert the two agree, so these formulas are safe for
design-space sweeps without instantiating hardware.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.technology import TechnologyNode
from repro.sram.macro import MacroConfig


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


def cim_mc_dropout_energy(
    config: MacroConfig,
    layer_sizes: tuple[int, ...],
    n_iterations: int = 30,
    keep_probability: float = 0.5,
    reuse: bool = True,
    refresh_every: int = 8,
    n_inferences: int = 1,
) -> float:
    """Predicted energy (J) of CIM MC-Dropout inference.

    Mirrors :class:`repro.core.cim_mc_dropout.CIMMCDropoutEngine` in
    expectation: the dropout-free first layer is evaluated on refreshes
    only; dropout layers pay the mask-change rate ``2 p (1 - p)`` per
    delta step and the keep rate ``p`` per refresh.

    Args:
        config: macro configuration (per-op energies, precisions).
        layer_sizes: (in, h1, ..., out) widths; dropout is assumed before
            every layer except the first (the shipped VO topology).
    """
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output widths")
    if not 0.0 < keep_probability < 1.0:
        raise ValueError("keep_probability must be in (0, 1)")
    node = config.node
    refreshes = (
        n_iterations
        if not reuse
        else int(np.ceil(n_iterations / refresh_every))
        if refresh_every > 0
        else 1
    )
    deltas = n_iterations - refreshes if reuse else 0
    change_rate = 2.0 * keep_probability * (1.0 - keep_probability)
    total = 0.0
    for index, (fan_in, fan_out) in enumerate(
        zip(layer_sizes[:-1], layer_sizes[1:])
    ):
        has_dropout = index > 0
        if has_dropout:
            active_refresh = keep_probability * fan_in
            active_delta = change_rate * fan_in
            adc_reads = (refreshes + deltas) * fan_out
        else:
            # The input layer sees the same vector every iteration: delta
            # steps drive no lines and trigger no conversions.
            active_refresh = float(fan_in)
            active_delta = 0.0
            adc_reads = refreshes * fan_out
        macs = refreshes * active_refresh * fan_out + deltas * active_delta * fan_out
        dacs = refreshes * active_refresh + deltas * active_delta
        total += (
            macs * config.mac_energy()
            + dacs * node.dac_energy_j
            + adc_reads * node.adc_energy(config.adc_bits)
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
