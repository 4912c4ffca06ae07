"""CIM MC-Dropout inference engine (paper Sec. III).

Maps a trained dropout network onto SRAM CIM macros and runs the T-sample
Monte-Carlo inference with the paper's three hardware hooks:

1. **SRAM-immersed dropout bits** -- masks come from the cross-coupled-
   inverter RNG harvested inside the macro (or a software Bernoulli stream
   for reference runs).
2. **Compute reuse** -- iteration t's layer products are built from
   iteration t-1's through the macro's delta port: only input lines whose
   (masked) activation changed are driven.
3. **Optimal sample ordering** -- the T masks are visited in the order that
   minimises total mask-to-mask Hamming distance, maximising reuse.

Because analog delta accumulation also accumulates read noise, the engine
re-evaluates from scratch every ``refresh_every`` iterations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.bayesian.masks import MaskStream
from repro.bayesian.ordering import optimal_mask_order
from repro.circuits.energy import EnergyLedger, EnergyTape
from repro.nn.dropout import Dropout
from repro.nn.layers import Dense, LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.sequential import Sequential
from repro.sram.dropout_gen import DropoutBitGenerator
from repro.sram.macro import MacroConfig, SRAMCIMMacro
from repro.sram.rng import CrossCoupledInverterRNG

_ACTIVATIONS = (ReLU, LeakyReLU, Tanh, Sigmoid)


@dataclass
class MCDropoutResult:
    """Outcome of a CIM MC-Dropout inference.

    All figures are strictly **per call**: the engine collects each
    call's work in scoped child ledgers (exact -- no float residue from
    differencing cumulative totals), so calling :meth:`predict`
    repeatedly on one engine returns the same ops/energy every time (the
    macros' own ledgers keep accumulating as lifetime odometers).

    Attributes:
        mean: (B, out) predictive mean.
        variance: (B, out) predictive variance.
        samples: (T, B, out) per-iteration outputs.
        ops_executed: MACs the macros performed during this call.
        ops_naive: MACs of a reuse-free, mask-oblivious engine.
        energy: this call's energy ledger (macros + mask generation).
        mask_order: the iteration order used.
    """

    mean: np.ndarray
    variance: np.ndarray
    samples: np.ndarray
    ops_executed: int
    ops_naive: int
    energy: EnergyLedger
    mask_order: np.ndarray

    @property
    def reuse_savings(self) -> float:
        """Fraction of naive MAC work avoided."""
        if self.ops_naive == 0:
            return 0.0
        return 1.0 - self.ops_executed / self.ops_naive

    def tops_per_watt(self, ops_per_mac: int = 2) -> float:
        """Throughput efficiency: (ops_naive * ops_per_mac) / energy.

        The paper reports useful network throughput against consumed
        power, so the numerator counts the *nominal* network ops the
        inference delivered (reuse lowers the denominator instead).
        """
        energy = self.energy.total_energy_j()
        if energy <= 0:
            return 0.0
        return self.ops_naive * ops_per_mac / energy / 1.0e12


def _joint_masks(streams: Sequence[MaskStream | None]) -> np.ndarray:
    """(T, W) masks of every dropout stage, layers side by side."""
    joint = None
    for stream in streams:
        if stream is None:
            continue
        joint = stream if joint is None else joint.concatenate(stream)
    if joint is None:
        raise ValueError(
            "cannot order mask streams: every stream is None (the "
            "mapped model must have at least one dropout stage)"
        )
    return joint.masks


@dataclass
class _MappedLayer:
    """One network stage mapped onto hardware."""

    macro: SRAMCIMMacro
    bias: np.ndarray
    activation: object | None
    pre_dropout_p: float


class CIMMCDropoutEngine:
    """Runs MC-Dropout for a Dense/Dropout network on CIM macros.

    Args:
        model: trained :class:`~repro.nn.sequential.Sequential` made of
            Dense / activation / Dropout layers (any other layer must be
            run through the software predictor).
        config: macro configuration (node, weight/ADC precision).
        n_iterations: Monte-Carlo samples (paper: 30).
        use_hardware_rng: draw masks from the CCI RNG (True) or a software
            Bernoulli stream (False).
        reuse: drive only changed input lines via the macro delta port.
        ordering: visit masks in minimum-Hamming order.
        refresh_every: full re-evaluation period under reuse (bounds analog
            error accumulation); 0 disables refresh.
        calibrate_rng: run the CCI bias-trim calibration before use.
        calibration_inputs: representative inputs (e.g. training features)
            used to size each macro's column-ADC range and pin its
            input-DAC range layer by layer; without them a
            weight-statistics heuristic sizes the ADC and the DAC range is
            pinned from the first driven input, either of which can clip
            hard on out-of-distribution activations.
        fast_path: evaluate a call (or a whole :meth:`predict_many`
            wave) layer-major: the independent iterations through
            :meth:`~repro.sram.macro.SRAMCIMMacro.matvec_many` (all of
            them when ``reuse`` is off, the refresh iterations otherwise)
            and the delta iterations through
            :meth:`~repro.sram.macro.SRAMCIMMacro.matvec_delta_many`.
            Results and ops are identical to the per-iteration loop;
            disable only to time or cross-check the loop path.
        rng: generator for hardware instantiation and noise.
    """

    def __init__(
        self,
        model: Sequential,
        config: MacroConfig | None = None,
        n_iterations: int = 30,
        use_hardware_rng: bool = True,
        reuse: bool = True,
        ordering: bool = True,
        refresh_every: int = 8,
        calibrate_rng: bool = True,
        calibration_inputs: np.ndarray | None = None,
        fast_path: bool = True,
        rng: np.random.Generator | None = None,
    ):
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self.config = config or MacroConfig()
        self.n_iterations = int(n_iterations)
        self.reuse = bool(reuse)
        self.ordering = bool(ordering)
        self.refresh_every = int(refresh_every)
        self.fast_path = bool(fast_path)
        self._rng = rng or np.random.default_rng(0)
        self.layers = self._map_model(model)
        self.keep_probability = self._keep_probability(model)
        if calibration_inputs is not None:
            self.calibrate_adc_ranges(calibration_inputs)
        self.use_hardware_rng = bool(use_hardware_rng)
        if use_hardware_rng:
            self.rng_cell = CrossCoupledInverterRNG(
                self.config.node, rng=self._rng
            )
            if calibrate_rng:
                self.rng_cell.calibrate(self._rng)
            self.bit_generator = DropoutBitGenerator(
                self.rng_cell, keep_probability=self.keep_probability
            )
        else:
            self.rng_cell = None
            self.bit_generator = None

    @staticmethod
    def _keep_probability(model: Sequential) -> float:
        dropouts = model.dropout_layers()
        if not dropouts:
            raise ValueError("model has no Dropout layers")
        keep = {layer.keep_probability for layer in dropouts}
        if len(keep) > 1:
            raise ValueError("mixed dropout rates are not supported on the macro")
        return keep.pop()

    def _map_model(self, model: Sequential) -> list[_MappedLayer]:
        """Group the flat layer list into macro stages."""
        mapped: list[_MappedLayer] = []
        pending_dropout = 0.0
        index = 0
        layers = model.layers
        while index < len(layers):
            layer = layers[index]
            if isinstance(layer, Dropout):
                pending_dropout = layer.p
                index += 1
                continue
            if isinstance(layer, Dense):
                activation = None
                if index + 1 < len(layers) and isinstance(layers[index + 1], _ACTIVATIONS):
                    activation = layers[index + 1]
                    index += 1
                macro = SRAMCIMMacro(
                    layer.weight.value, config=self.config, rng=self._rng
                )
                mapped.append(
                    _MappedLayer(
                        macro=macro,
                        bias=layer.bias.value.copy(),
                        activation=activation,
                        pre_dropout_p=pending_dropout,
                    )
                )
                pending_dropout = 0.0
                index += 1
                continue
            raise ValueError(
                f"layer {type(layer).__name__} cannot be mapped onto the macro"
            )
        if not mapped:
            raise ValueError("model contains no Dense layers")
        return mapped

    def calibrate_adc_ranges(self, inputs: np.ndarray) -> None:
        """Size every macro's ADC + DAC ranges from propagated activations.

        Layers fed through dropout see inputs scaled by ``1 / keep_prob``
        at run time (inverted dropout), so their DAC range gets that much
        headroom over the calibration sample.
        """
        current = np.atleast_2d(np.asarray(inputs, dtype=float))
        for layer in self.layers:
            headroom = (
                1.0 / self.keep_probability if layer.pre_dropout_p > 0 else 1.0
            )
            layer.macro.recalibrate(current, input_headroom=headroom)
            pre = layer.macro.ideal_matvec(current) + layer.bias
            current = layer.activation.forward(pre) if layer.activation else pre

    def draw_mask_streams(
        self, rng: np.random.Generator
    ) -> list[MaskStream | None]:
        """One mask stream per mapped layer (None where no dropout).

        Exposed so batch runtimes can draw the streams once and pin them
        across many :meth:`predict` calls (mask generation -- and, with
        the hardware RNG, its cycle cost -- is then amortised).
        """
        streams: list[MaskStream | None] = []
        for layer in self.layers:
            if layer.pre_dropout_p <= 0:
                streams.append(None)
                continue
            width = layer.macro.in_features
            if self.bit_generator is not None:
                streams.append(
                    MaskStream.from_hardware(
                        self.bit_generator, self.n_iterations, width, rng
                    )
                )
            else:
                streams.append(
                    MaskStream.bernoulli(
                        self.n_iterations, width, 1.0 - layer.pre_dropout_p, rng
                    )
                )
        if all(s is None for s in streams):
            raise ValueError("no dropout layer found in the mapped model")
        return streams

    def order_mask_streams(
        self,
        streams: Sequence[MaskStream | None] | Sequence[Sequence[MaskStream | None]],
    ) -> np.ndarray:
        """Iteration visit order(s) under the engine's ordering policy.

        ``streams`` is one item's per-layer streams (as
        :meth:`draw_mask_streams` returns them), giving a (T,) order, or a
        sequence of such sets, giving (R, T) orders from one batched
        search (each row is the order its set gets alone).
        """
        many = not all(s is None or isinstance(s, MaskStream) for s in streams)
        sets = list(streams) if many else [streams]
        if not self.ordering:
            orders = np.tile(
                np.arange(self.n_iterations, dtype=np.int64), (len(sets), 1)
            )
        else:
            orders = optimal_mask_order(
                np.stack([_joint_masks(item) for item in sets])
            )
        return orders if many else orders[0]

    def _validate_streams(
        self, mask_streams: list[MaskStream | None]
    ) -> list[MaskStream | None]:
        streams = list(mask_streams)
        if len(streams) != len(self.layers):
            raise ValueError(
                f"need {len(self.layers)} mask streams (one per mapped "
                f"layer, None where no dropout), got {len(streams)}"
            )
        if all(stream is None for stream in streams):
            # Mirror draw_mask_streams: a mapped model always has dropout,
            # so an all-None pin is a caller bug, not a degenerate run.
            raise ValueError(
                "mask_streams are all None; pin at least one stream (the "
                "mapped model has dropout stages)"
            )
        for stream, layer in zip(streams, self.layers):
            if stream is None:
                continue
            if stream.n_iterations != self.n_iterations:
                raise ValueError(
                    f"mask stream has {stream.n_iterations} iterations, "
                    f"engine runs {self.n_iterations}"
                )
            if stream.width != layer.macro.in_features:
                raise ValueError(
                    f"mask stream width {stream.width} != macro fan-in "
                    f"{layer.macro.in_features}"
                )
        return streams

    def _checked_order(self, mask_order: np.ndarray) -> np.ndarray:
        order = np.asarray(mask_order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(self.n_iterations)):
            raise ValueError("mask_order must be a permutation of iterations")
        return order

    def predict(
        self,
        x: np.ndarray,
        rng: np.random.Generator | None = None,
        mask_streams: list[MaskStream | None] | None = None,
        mask_order: np.ndarray | None = None,
    ) -> MCDropoutResult:
        """MC-Dropout inference of (B, in) inputs on the macro stack.

        A wave of one (:meth:`predict_many`), after drawing and ordering
        the mask streams when they are not pinned.  The returned
        ops/energy cover **this call only** (mask generation included),
        so repeated calls on one engine report identical per-call figures.

        Args:
            x: (B, in) inputs.
            rng: generator for mask drawing and analog read noise.
            mask_streams: pre-drawn per-mapped-layer streams (from
                :meth:`draw_mask_streams`); default draws fresh ones.
            mask_order: pre-computed visit order for the pinned streams;
                default applies the engine's ordering policy.
        """
        rng = rng or self._rng
        cycles_mark = (
            self.bit_generator.cycles_used if self.bit_generator is not None else 0
        )
        if mask_streams is None:
            streams = self.draw_mask_streams(rng)
        else:
            streams = self._validate_streams(mask_streams)
        if mask_order is None:
            order = self.order_mask_streams(streams)
        else:
            order = self._checked_order(mask_order)
        cycles = (
            self.bit_generator.cycles_used - cycles_mark
            if self.bit_generator is not None
            else 0
        )
        return self._wave([x], [rng], [streams], [order], cycles)[0]

    def predict_many(
        self,
        inputs: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
        mask_streams: Sequence[list[MaskStream | None]],
        mask_orders: Sequence[np.ndarray | None],
    ) -> list[MCDropoutResult]:
        """A wave: many pinned-mask inferences evaluated as one.

        Item ``i`` is bit-for-bit ``predict(inputs[i], rng=rngs[i],
        mask_streams=mask_streams[i], mask_order=mask_orders[i])`` --
        values, ops and energy -- and the macros' odometers end exactly
        as after those calls made one by one in item order.  Items may
        differ in rows and in mask plan; they share every array pass:
        per layer one refresh GEMM, one delta formation, one batched GEMM
        per driven-line count and one ADC pass for the whole wave.

        Each item's noise bank is drawn from its own generator, as a lone
        call draws it, so items with distinct generators are independent
        of the wave they ride in.  A None order applies the engine's
        ordering policy, as :meth:`predict` does: every distinct
        None-ordered stream set is searched once, all of them in one
        batched :meth:`order_mask_streams` call.
        """
        if not (len(inputs) == len(rngs) == len(mask_streams) == len(mask_orders)):
            raise ValueError(
                "need one generator, mask-stream set and order per item"
            )
        streams = [self._validate_streams(item) for item in mask_streams]
        orders = [
            None if order is None else self._checked_order(order)
            for order in mask_orders
        ]
        # Items pinning the same stream objects share one search.
        unordered: dict[tuple[int, ...], list[int]] = {}
        for index, order in enumerate(orders):
            if order is None:
                unordered.setdefault(tuple(map(id, streams[index])), []).append(index)
        if unordered:
            found = self.order_mask_streams(
                [streams[indexes[0]] for indexes in unordered.values()]
            )
            for indexes, order in zip(unordered.values(), found):
                for index in indexes:
                    orders[index] = order
        return self._wave(list(inputs), list(rngs), streams, orders, 0)

    def _wave(
        self,
        inputs: list[np.ndarray],
        rngs: list[np.random.Generator],
        streams: list[list[MaskStream | None]],
        orders: list[np.ndarray],
        generation_cycles: int,
    ) -> list[MCDropoutResult]:
        """Evaluate validated items, then meter each as its own call.

        Every item charges one :class:`EnergyTape` per layer; the tapes
        are replayed into the macro odometers item by item only once the
        whole wave has been evaluated, so a raise anywhere leaves the
        engine's metering untouched.
        """
        if not inputs:
            return []
        n_inputs = self.layers[0].macro.in_features
        xs = []
        for x in inputs:
            x = np.atleast_2d(np.asarray(x, dtype=float))
            if x.ndim != 2 or x.shape[1] != n_inputs:
                raise ValueError(
                    f"expected (B, {n_inputs}) inputs, got shape {x.shape}"
                )
            xs.append(x)
        ordered = [
            [None if stream is None else stream.masks[order] for stream in item]
            for item, order in zip(streams, orders)
        ]
        banks = [
            self._draw_noise_bank(rng, x.shape[0]) for x, rng in zip(xs, rngs)
        ]
        tapes = [
            [EnergyTape(label=layer.macro.ledger.label) for layer in self.layers]
            for _ in xs
        ]
        if self.fast_path:
            samples = self._forward_wave(xs, ordered, banks, tapes)
        else:
            refresh_steps = self._refresh_steps()
            samples = [
                self._forward_loop(*item, refresh_steps)
                for item in zip(xs, ordered, banks, rngs, tapes)
            ]
        for item_tapes in tapes:
            for layer, tape in zip(self.layers, item_tapes):
                tape.replay(layer.macro.ledger)

        ops_per_row = self.n_iterations * sum(
            layer.macro.in_features * layer.macro.out_features
            for layer in self.layers
        )
        results = []
        for x, order, item_tapes, item_samples in zip(xs, orders, tapes, samples):
            energy = EnergyLedger(label="cim-mc-dropout")
            for tape in item_tapes:
                energy.merge(tape)
            if self.bit_generator is not None:
                energy.add_energy(
                    "dropout_bit_generation",
                    self.bit_generator.generation_energy(cycles=generation_cycles),
                )
            results.append(
                MCDropoutResult(
                    mean=item_samples.mean(axis=0),
                    variance=item_samples.var(axis=0),
                    samples=item_samples,
                    ops_executed=energy.count("cim_mac"),
                    ops_naive=ops_per_row * x.shape[0],
                    energy=energy,
                    mask_order=order,
                )
            )
        return results

    def _refresh_steps(self) -> np.ndarray:
        """Iteration positions evaluated from scratch (not via the delta port)."""
        steps = np.arange(self.n_iterations, dtype=np.int64)
        if not self.reuse:
            return steps
        refresh = steps == 0
        if self.refresh_every > 0:
            refresh |= steps % self.refresh_every == 0
        return steps[refresh]

    def _draw_noise_bank(
        self, rng: np.random.Generator, batch: int
    ) -> list[np.ndarray] | None:
        """Pre-draw every read-noise variate, indexed by (iteration, layer).

        One flat draw in loop order (iteration-major, layer-inner) yields
        exactly the variates T x L sequential per-read draws would, but
        lets the engine evaluate iterations out of order -- vectorised
        refresh passes and layer-major delta chains consume the same
        noise a pure loop would, keeping both schedules bit-for-bit
        equivalent.
        """
        if self.config.adc_noise_lsb <= 0:
            return None
        out_features = [layer.macro.out_features for layer in self.layers]
        width = batch * sum(out_features)
        flat = rng.normal(size=self.n_iterations * width).reshape(
            self.n_iterations, width
        )
        bank: list[np.ndarray] = []
        offset = 0
        for out in out_features:
            block = flat[:, offset : offset + batch * out]
            bank.append(block.reshape(self.n_iterations, batch, out))
            offset += batch * out
        return bank

    @staticmethod
    def _finish_layer(layer: _MappedLayer, products: np.ndarray) -> np.ndarray:
        """Bias and activation applied to a layer's macro products."""
        pre = products + layer.bias
        return layer.activation.forward(pre) if layer.activation else pre

    def _forward_wave(
        self,
        xs: list[np.ndarray],
        ordered: list[list[np.ndarray | None]],
        banks: list[list[np.ndarray] | None],
        tapes: list[list[EnergyTape]],
    ) -> list[np.ndarray]:
        """Layer-major evaluation of every item's iterations at once.

        The wave stacks all items' rows on one batch axis -- a (T, N, in)
        activation per layer, item ``i`` owning rows ``bounds[i]:
        bounds[i + 1]`` -- and each layer makes at most two macro calls
        whose ledger segments are those row blocks:

        - the refresh iterations, from scratch, through one
          :meth:`~repro.sram.macro.SRAMCIMMacro.matvec_many`;
        - the delta iterations, each against the iteration before it,
          through one :meth:`~repro.sram.macro.SRAMCIMMacro.matvec_delta_many`
          chain restarted at every refresh.

        Bias and activation then run over the whole stack and feed the
        next layer.  A delta read depends only on the inputs, never on
        the products it updates, so this is the per-iteration loop's
        arithmetic in another order of evaluation, and every read takes
        its variate from its item's pre-drawn noise bank.

        Until the first dropout stage, every iteration of a refresh chain
        sees the same input, so such a layer drives no line at any delta
        iteration: each chain carries its refresh products forward (the
        loop's copies) and the delta call, which would only charge zero
        counts to ledgers that already hold these operations, is skipped.

        Returns:
            one C-contiguous (T, B_i, out) sample stack per item.
        """
        n_iterations = self.n_iterations
        refresh_steps = self._refresh_steps()
        is_refresh = np.zeros(n_iterations, dtype=bool)
        is_refresh[refresh_steps] = True
        delta_steps = np.flatnonzero(~is_refresh)
        # Delta iterations right after a refresh restart the chain there.
        restarts = [k for k, t in enumerate(delta_steps) if is_refresh[t - 1]]
        chain_starts = refresh_steps[
            np.searchsorted(refresh_steps, delta_steps, side="right") - 1
        ]
        rows = [x.shape[0] for x in xs]
        bounds = np.cumsum([0] + rows)
        activation = np.broadcast_to(
            np.concatenate(xs), (n_iterations, bounds[-1], xs[0].shape[1])
        )
        carried = True
        for index, layer in enumerate(self.layers):
            macro = layer.macro
            masks = self._wave_masks([item[index] for item in ordered])
            if masks is None:
                masked = activation
            else:
                keep = np.repeat(masks, rows, axis=1)
                masked = activation * keep.astype(float) / self.keep_probability
                del keep
                carried = False
            noise = (
                None
                if banks[0] is None
                else np.concatenate([bank[index] for bank in banks], axis=1)
            )
            ledgers = [(item[index], n_rows) for item, n_rows in zip(tapes, rows)]
            if not delta_steps.size:
                products = macro.matvec_many(
                    np.ascontiguousarray(masked),
                    input_masks=masks,
                    noise=noise,
                    ledgers=ledgers,
                )
            else:
                products = np.empty(
                    (n_iterations, bounds[-1], macro.out_features)
                )
                products[refresh_steps] = macro.matvec_many(
                    masked[refresh_steps],
                    input_masks=None if masks is None else masks[refresh_steps],
                    noise=None if noise is None else noise[refresh_steps],
                    ledgers=ledgers,
                )
                if carried:
                    products[delta_steps] = products[chain_starts]
                else:
                    products[delta_steps] = self._delta_reads(
                        macro,
                        masked,
                        {k: products[delta_steps[k] - 1] for k in restarts},
                        delta_steps,
                        bounds,
                        None if noise is None else noise[delta_steps],
                        ledgers,
                    )
            # Drop this layer's temporaries before the next layer's exist.
            del masked, noise
            activation = self._finish_layer(layer, products)
            del products
        return [
            np.ascontiguousarray(activation[:, start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]

    @staticmethod
    def _delta_reads(
        macro: SRAMCIMMacro,
        masked: np.ndarray,
        anchors: dict[int, np.ndarray],
        delta_steps: np.ndarray,
        bounds: np.ndarray,
        noise: np.ndarray | None,
        ledgers: list[tuple[EnergyTape, int]],
    ) -> np.ndarray:
        """The delta iterations' products: each iteration's change against
        the one before it, read through the delta port as one chain."""
        delta = masked[delta_steps] - masked[delta_steps - 1]
        # Per item "any of its rows changed the line", from running counts
        # over the row axis (an item may own zero rows).
        counts = np.cumsum(np.abs(delta) > 0, axis=1)
        counts = np.concatenate([np.zeros_like(counts[:, :1]), counts], axis=1)
        return macro.matvec_delta_many(
            anchors,
            delta,
            counts[:, bounds[1:]] > counts[:, bounds[:-1]],
            noise=noise,
            ledgers=ledgers,
        )

    @staticmethod
    def _wave_masks(masks: list[np.ndarray | None]) -> np.ndarray | None:
        """(T, items, in) ordered keep-masks of one layer, or None if it
        has no dropout stream; every item must pin the same layers."""
        if all(item is None for item in masks):
            return None
        if any(item is None for item in masks):
            raise ValueError(
                "every item of a wave must pin streams on the same layers"
            )
        return np.stack(masks, axis=1)

    def _forward_loop(
        self,
        x: np.ndarray,
        ordered: list[np.ndarray | None],
        noise_bank: list[np.ndarray] | None,
        rng: np.random.Generator,
        tapes: list[EnergyTape],
        refresh_steps: np.ndarray,
    ) -> np.ndarray:
        """Per-iteration loop: the reference behind ``fast_path=False``.

        Every read goes through one :meth:`~repro.sram.macro.SRAMCIMMacro.
        matvec` or :meth:`~repro.sram.macro.SRAMCIMMacro.matvec_delta`
        call, iteration by iteration in visit order, charged to the
        layer's tape.
        """
        batch = x.shape[0]
        samples = np.empty(
            (self.n_iterations, batch, self.layers[-1].macro.out_features)
        )
        refresh_set = set(int(t) for t in refresh_steps)
        previous_products: list[np.ndarray | None] = [None] * len(self.layers)
        previous_inputs: list[np.ndarray | None] = [None] * len(self.layers)
        for t in range(self.n_iterations):
            refresh = t in refresh_set
            activation = x
            for index, layer in enumerate(self.layers):
                masks = ordered[index]
                if masks is not None:
                    keep = masks[t].astype(float)
                    masked = activation * keep[None, :] / self.keep_probability
                else:
                    masked = activation
                noise = None if noise_bank is None else noise_bank[index][t]
                if refresh:
                    # Passing the mask lets the macro gate (and not pay for)
                    # dropped column lines, as the CL AND gates do.
                    products = layer.macro.matvec(
                        masked,
                        input_mask=None if masks is None else masks[t],
                        rng=rng,
                        noise=noise,
                        ledger=tapes[index],
                    )
                else:
                    delta = masked - previous_inputs[index]
                    changed = np.any(np.abs(delta) > 0, axis=0)
                    products = layer.macro.matvec_delta(
                        previous_products[index],
                        delta,
                        changed,
                        rng=rng,
                        noise=noise,
                        ledger=tapes[index],
                    )
                previous_products[index] = products
                previous_inputs[index] = masked
                activation = self._finish_layer(layer, products)
            samples[t] = activation
        return samples

