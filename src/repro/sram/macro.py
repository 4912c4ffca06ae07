"""The SRAM CIM macro: quantised matrix-vector products on bit lines.

Behavioural model of the paper's Fig. 3a macro.  Weights are stored as
signed fixed-point codes; an input vector is applied through the column
peripherals (optionally ANDed with an input-dropout bitstream) and each
output row's product accumulates on its bit line, quantised by a per-column
ADC with analog noise.  Output-dropout masks gate row activations, skipping
their evaluation (and energy) entirely.

A delta port (:meth:`matvec_delta`) supports the compute-reuse schedule:
given the previous accumulated products and the input *change* vector, only
the changed columns are driven.  :meth:`matvec_delta_many` runs a whole
chain of such reads for stacked iterations in one call.

The stacked methods take the batch axis in *segments* -- consecutive row
blocks that each belong to one caller (one request of an MC-Dropout
wave) -- and charge every segment to the ledger its caller passes,
exactly as a call over that segment alone would charge the macro's own
ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.circuits.technology import NODE_16NM, TechnologyNode
from repro.nn.quantization import QuantizationSpec, dequantize, quantize


@dataclass(frozen=True)
class MacroConfig:
    """Macro configuration.

    Attributes:
        node: technology node (paper: 16 nm, 0.85 V, 1 GHz).
        weight_bits: stored weight precision (paper: 4 or 6).
        input_bits: input DAC precision.
        adc_bits: column ADC precision.
        adc_noise_lsb: 1-sigma analog noise referred to the ADC input, in
            LSBs of the ADC step.
        adc_clip_sigma: ADC full scale as a multiple of the partial-sum
            standard deviation (calibrated per layer at mapping time).
        mac_energy_j: analog MAC energy keyed by weight precision.
    """

    node: TechnologyNode = NODE_16NM
    weight_bits: int = 4
    input_bits: int = 6
    adc_bits: int = 6
    adc_noise_lsb: float = 0.3
    adc_clip_sigma: float = 6.0
    mac_energy_j: dict[int, float] = field(
        default_factory=lambda: {4: 1.6e-15, 6: 2.6e-15, 8: 4.5e-15}
    )

    def mac_energy(self) -> float:
        if self.weight_bits in self.mac_energy_j:
            return self.mac_energy_j[self.weight_bits]
        # Off-table precisions interpolate from the nearest tabulated one;
        # ties break to the lower precision regardless of dict insertion
        # order, so 5-bit always scales from the 4-bit entry.
        nearest = min(
            self.mac_energy_j, key=lambda b: (abs(b - self.weight_bits), b)
        )
        return self.mac_energy_j[nearest] * (self.weight_bits / nearest)


class SRAMCIMMacro:
    """One macro storing a weight matrix.

    Args:
        weight: (in_features, out_features) float weight matrix.
        config: macro configuration.
        rng: generator for frozen per-column gain mismatch.
        calibration_inputs: optional sample inputs used to size the ADC
            full scale; defaults to unit-variance assumptions.
        gain_mismatch_sigma: per-column multiplicative gain spread.
    """

    def __init__(
        self,
        weight: np.ndarray,
        config: MacroConfig | None = None,
        rng: np.random.Generator | None = None,
        calibration_inputs: np.ndarray | None = None,
        gain_mismatch_sigma: float = 0.01,
    ):
        weight = np.asarray(weight, dtype=float)
        if weight.ndim != 2:
            raise ValueError("weight must be (in, out)")
        self.config = config or MacroConfig()
        rng = rng or np.random.default_rng(0)
        self.in_features, self.out_features = weight.shape
        self.weight_spec = QuantizationSpec.for_tensor(weight, self.config.weight_bits)
        self.weight_codes = quantize(weight, self.weight_spec)
        self.stored_weight = dequantize(self.weight_codes, self.weight_spec)
        if gain_mismatch_sigma > 0:
            self.column_gain = rng.lognormal(
                mean=-0.5 * gain_mismatch_sigma**2,
                sigma=gain_mismatch_sigma,
                size=self.out_features,
            )
        else:
            self.column_gain = np.ones(self.out_features)
        self.ledger = EnergyLedger(
            label=f"sram-macro[{self.in_features}x{self.out_features}w{self.config.weight_bits}]"
        )
        # Input-DAC range: pinned once (at calibration, or lazily from the
        # first driven input) instead of being re-fit per matvec.  A fixed
        # DAC range is what real column peripherals have, it removes the
        # per-call QuantizationSpec refit from the hot path, and it makes
        # the delta port quantise ``delta_x`` against the same grid as
        # full reads instead of the delta's own (much smaller) range.
        self.input_spec: QuantizationSpec | None = None
        # ADC full-scale calibration against the layer's product statistics.
        if calibration_inputs is not None:
            self.recalibrate(calibration_inputs)
        else:
            scale = (
                float(np.sqrt(self.in_features) * np.abs(self.stored_weight).std())
                or 1.0
            )
            self._set_adc_scale(scale)

    def _set_adc_scale(self, scale: float) -> None:
        self.adc_full_scale = self.config.adc_clip_sigma * scale
        self.adc_step = self.adc_full_scale / (2 ** (self.config.adc_bits - 1) - 1)

    def recalibrate(
        self, calibration_inputs: np.ndarray, input_headroom: float = 1.0
    ) -> None:
        """Re-size the column ADC range from representative activations.

        Standard macro bring-up practice: run sample inputs, set the ADC
        full scale so the observed partial-sum distribution fills the code
        range without systematic clipping.  The input-DAC range is pinned
        from the same sample; ``input_headroom`` widens it for runtime
        scalings the sample does not carry (e.g. the ``1 / keep_prob``
        inverted-dropout factor).
        """
        if input_headroom <= 0:
            raise ValueError("input_headroom must be positive")
        sample = np.atleast_2d(np.asarray(calibration_inputs, dtype=float))
        products = sample @ self.stored_weight
        self._set_adc_scale(float(products.std()) or 1.0)
        self.pin_input_range(float(np.max(np.abs(sample))) * input_headroom)

    def pin_input_range(self, max_abs: float) -> QuantizationSpec:
        """Fix the input-DAC full scale to ``max_abs`` (returns the spec)."""
        self.input_spec = QuantizationSpec(
            bits=self.config.input_bits, max_value=max_abs if max_abs > 0 else 1.0
        )
        return self.input_spec

    def _ensure_input_spec(self, x: np.ndarray) -> QuantizationSpec:
        """The pinned DAC spec, pinning it from ``x`` on first use."""
        if self.input_spec is None:
            self.input_spec = QuantizationSpec.for_tensor(x, self.config.input_bits)
        return self.input_spec

    def _read_columns(
        self,
        analog: np.ndarray,
        rng: np.random.Generator | None,
        noise: np.ndarray | None = None,
    ) -> np.ndarray:
        """Apply gain mismatch, analog noise and ADC quantisation.

        ``noise`` is an optional pre-drawn standard-normal array of
        ``analog``'s shape; engines that vectorise over iterations draw
        their noise up front (in loop order) and inject it here so the
        fused path consumes the very same variates as the loop path.
        """
        values = analog * self.column_gain
        if self.config.adc_noise_lsb > 0:
            if noise is None:
                if rng is None:
                    raise ValueError("rng required for noisy macro reads")
                noise = rng.normal(size=values.shape)
            values = values + noise * (self.config.adc_noise_lsb * self.adc_step)
        clipped = np.clip(values, -self.adc_full_scale, self.adc_full_scale)
        return np.rint(clipped / self.adc_step) * self.adc_step

    def matvec(
        self,
        x: np.ndarray,
        input_mask: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
        ledger: EnergyLedger | None = None,
    ) -> np.ndarray:
        """Full macro evaluation: (B, in) -> (B, out).

        Args:
            x: input activations.
            input_mask: (in,) keep-mask ANDed onto the inputs (CL dropout).
            rng: generator for analog noise.
            noise: pre-drawn (B, out) standard-normal read noise.
            ledger: ledger charged for the read (default: the macro's).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.in_features:
            raise ValueError(f"expected {self.in_features} inputs, got {x.shape[1]}")
        if input_mask is not None:
            x = x * np.asarray(input_mask, dtype=float)[None, :]
        x_q = self._quantize_inputs(x)
        analog = x_q @ self.stored_weight
        out = self._read_columns(analog, rng, noise=noise)
        active_in = (
            int(np.count_nonzero(input_mask))
            if input_mask is not None
            else self.in_features
        )
        self._account(x.shape[0], active_in, ledger=ledger)
        return out

    def matvec_delta(
        self,
        previous: np.ndarray,
        delta_x: np.ndarray,
        changed: np.ndarray,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
        ledger: EnergyLedger | None = None,
    ) -> np.ndarray:
        """Compute-reuse read: update products through changed columns only.

        The change vector is quantised against the *pinned* input-DAC
        spec -- the same grid full reads use -- so delta accumulation and
        from-scratch evaluation agree to within read noise.

        Args:
            previous: (B, out) previously accumulated products.
            delta_x: (B, in) input change; only entries where ``changed``
                is True are driven.
            changed: (in,) boolean mask of driven input lines.
            rng: generator for analog noise.
            noise: pre-drawn (B, out) standard-normal read noise.
            ledger: ledger charged for the read (default: the macro's).

        Returns:
            (B, out) updated products.
        """
        previous = np.atleast_2d(np.asarray(previous, dtype=float))
        delta_x = np.atleast_2d(np.asarray(delta_x, dtype=float))
        changed = np.asarray(changed, dtype=bool).reshape(-1)
        if changed.size != self.in_features:
            raise ValueError("changed mask width mismatch")
        n_changed = int(changed.sum())
        if n_changed == 0:
            self._account(previous.shape[0], 0, adc_reads=0, ledger=ledger)
            return previous.copy()
        delta_q = self._quantize_inputs(delta_x[:, changed])
        analog = delta_q @ self.stored_weight[changed]
        delta_read = self._read_columns(analog, rng, noise=noise)
        out = previous + delta_read
        self._account(previous.shape[0], n_changed, ledger=ledger)
        return out

    def _segments(
        self, ledgers: Sequence[tuple[EnergyLedger, int]] | None, batch: int
    ) -> tuple[list[EnergyLedger], np.ndarray]:
        """The per-segment ledgers and row counts of a stacked call."""
        if ledgers is None:
            return [self.ledger], np.array([batch], dtype=np.int64)
        targets = [ledger for ledger, _ in ledgers]
        rows = [int(n_rows) for _, n_rows in ledgers]
        if not rows or min(rows) < 0 or sum(rows) != batch:
            raise ValueError(
                f"ledger segments cover {rows} rows, batch has {batch}"
            )
        return targets, np.array(rows, dtype=np.int64)

    @staticmethod
    def _per_segment(
        masks: np.ndarray, n_steps: int, n_segments: int, width: int, what: str
    ) -> np.ndarray:
        """(T, S, in) masks, one (T, in) set per segment; a call of one
        segment may pass its (T, in) set as it is."""
        stacked = masks[:, None, :] if masks.ndim == 2 else masks
        if stacked.shape != (n_steps, n_segments, width):
            raise ValueError(
                f"expected ({n_steps}, {n_segments}, {width}) {what}, "
                f"got {masks.shape}"
            )
        return stacked

    def matvec_delta_many(
        self,
        anchors: dict[int, np.ndarray],
        delta_x: np.ndarray,
        changed: np.ndarray,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
        ledgers: Sequence[tuple[EnergyLedger, int]] | None = None,
    ) -> np.ndarray:
        """Chained delta reads of T stacked steps: (T, B, in) -> (T, B, out).

        The delta-port counterpart of :meth:`matvec_many`.  For every
        segment of the batch axis (see ``ledgers``) it is equivalent to T
        :meth:`matvec_delta` calls over that segment's rows, in which
        step ``k`` updates ``anchors[k]`` when given and step ``k - 1``'s
        output otherwise -- the same outputs bit for bit and the same
        per-call ledger entries in the same order -- with one quantise and
        one ADC pass over the driven reads' rows only and one batched
        ledger replay (:meth:`EnergyLedger.add_many`) per segment.  Three
        details keep it exact:

        - every read's GEMM runs over exactly its k driven lines.  Reads
          are grouped by k and segment rows, and each group is one batched
          ``np.matmul`` of an (S, rows, k) stack of driven input columns
          by the (S, k, out) stack of their weight rows, whose every slice
          is the very GEMM the read makes alone; both operands are runs
          of arrays gathered in read order, so they are C-contiguous (a
          strided operand makes BLAS round differently).  Zero-padding deltas to a
          full-width GEMM is *not* exact: on numpy 2.4 / OpenBLAS 0.3.31
          it changed the GEMM result of 2,523 of the 2,795 driven steps of
          the ``cim-ordered`` ``reference_run`` calls on demo inputs of
          seeds 0-99 (the 6-bit ADC then rounds almost all of that away,
          which is why only a read model that keeps the GEMM's bits can
          test it);
        - a step that drives no line reads ``-0.0``, the one exact
          identity addend (a ``+0.0`` read would turn a ``-0.0`` product
          into ``+0.0``), so every step is ``out = base + read``;
        - the running sum is ``np.add.accumulate`` along the step axis
          from each anchor, which adds in step order like the loop.

        Args:
            anchors: step index -> (B, out) products that step updates;
                must contain step 0.
            delta_x: (T, B, in) input changes; only entries where
                ``changed`` is True are driven.
            changed: (T, S, in) boolean masks of driven input lines, one
                set per segment ((T, in) for a call of one segment).
            rng: generator for analog noise; the driven reads' variates
                are drawn in one C-order block (step-major), which for one
                segment matches sequential per-step draws.
            noise: pre-drawn (T, B, out) standard-normal read noise (rows
                of reads that drive no line are not used).
            ledgers: one ``(ledger, rows)`` pair per consecutive block of
                the batch axis; each block's reads are charged to its
                ledger.  Default: one block, charged to the macro's ledger.
        """
        delta_x = np.asarray(delta_x, dtype=float)
        if delta_x.ndim != 3 or delta_x.shape[2] != self.in_features:
            raise ValueError(
                f"expected (T, B, {self.in_features}) deltas, got {delta_x.shape}"
            )
        n_steps, batch = delta_x.shape[0], delta_x.shape[1]
        targets, rows = self._segments(ledgers, batch)
        changed = self._per_segment(
            np.asarray(changed, dtype=bool),
            n_steps,
            len(targets),
            self.in_features,
            "changed masks",
        )
        if n_steps and 0 not in anchors:
            raise ValueError("anchors must give the products step 0 updates")
        starts = np.cumsum(rows) - rows
        n_changed = changed.sum(axis=2)
        reads = np.full((n_steps, batch, self.out_features), -0.0)
        steps, segments = np.nonzero(n_changed)
        if steps.size:
            if self.input_spec is None:
                # Pin the DAC grid exactly as the first driving call would.
                first = np.lexsort((steps, segments))[0]
                k, s = steps[first], segments[first]
                self._ensure_input_spec(
                    delta_x[k, starts[s] : starts[s] + rows[s]][:, changed[k, s]]
                )
            # Reads sorted by (line count, rows): each group of one batched
            # GEMM then owns consecutive runs of driven rows, operand entries
            # and weight rows.  Only driven entries are gathered and
            # quantised, and only driven rows are read.
            counts = n_changed[steps, segments]
            sizes = rows[segments]
            key = counts * (batch + 1) + sizes
            order = np.argsort(key, kind="stable")
            steps, segments = steps[order], segments[order]
            counts, sizes, key = counts[order], sizes[order], key[order]
            lines = np.nonzero(changed[steps, segments])[1]
            # Per driven row, in read order: its place among the T * B rows,
            # then its entries' (place, line) pairs.
            places = _runs(steps * batch + starts[segments], sizes)
            row_counts = np.repeat(counts, sizes)
            row_lines = np.repeat(np.cumsum(counts) - counts, sizes)
            entries = self._quantize_inputs(
                delta_x.reshape(-1, self.in_features)[
                    np.repeat(places, row_counts), lines[_runs(row_lines, row_counts)]
                ]
            )
            analog = np.empty((places.size, self.out_features))
            last = np.append(np.flatnonzero(np.diff(key)), key.size - 1)
            groups = zip(
                counts[last].tolist(),
                sizes[last].tolist(),
                np.split(entries, np.cumsum(sizes * counts)[last[:-1]]),
                np.split(self.stored_weight[lines], np.cumsum(counts)[last[:-1]]),
                np.split(analog, np.cumsum(sizes)[last[:-1]]),
            )
            for count, n_rows, operands, weights, products in groups:
                operands = operands.reshape(-1, n_rows, count)
                weights = weights.reshape(-1, count, self.out_features)
                assert operands.flags.c_contiguous and weights.flags.c_contiguous
                np.matmul(
                    operands,
                    weights,
                    out=products.reshape(-1, n_rows, self.out_features),
                )
            if noise is not None:
                noise = noise.reshape(-1, self.out_features)[places]
            elif self.config.adc_noise_lsb > 0:
                if rng is None:
                    raise ValueError("rng required for noisy macro reads")
                # Variates in step-major order of the driven rows.
                noise = np.empty_like(analog)
                noise[np.argsort(places)] = rng.normal(size=analog.shape)
            reads.reshape(-1, self.out_features)[places] = self._read_columns(
                analog, rng, noise=noise
            )
        out = np.empty_like(reads)
        bounds = sorted(k for k in anchors if k < n_steps) + [n_steps]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            reads[start] += anchors[start]
            np.add.accumulate(reads[start:stop], axis=0, out=out[start:stop])
        dacs = rows[:, None] * n_changed.T
        charges = zip(
            targets,
            (dacs * self.out_features).tolist(),
            (rows[:, None] * (n_changed.T > 0) * self.out_features).tolist(),
            dacs.tolist(),
        )
        for ledger, macs, adc_reads, dac_reads in charges:
            ledger.add_many("cim_mac", macs, self.config.mac_energy())
            ledger.add_many(
                "column_adc",
                adc_reads,
                self.config.node.adc_energy(self.config.adc_bits),
            )
            ledger.add_many("input_dac", dac_reads, self.config.node.dac_energy_j)
        return out

    def matvec_many(
        self,
        x: np.ndarray,
        input_masks: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
        ledgers: Sequence[tuple[EnergyLedger, int]] | None = None,
    ) -> np.ndarray:
        """Fused evaluation of T stacked input batches: (T, B, in) -> (T, B, out).

        For every segment of the batch axis (see ``ledgers``) it is
        equivalent to T :meth:`matvec` calls (one per leading slice) over
        that segment's rows -- same quantisation grid, same read model,
        same energy accounting -- but with one quantise, one GEMM and one
        ADC pass over the whole stack.  This is the sample-major fast path
        the MC-Dropout engine drives when iterations are independent.

        Args:
            x: (T, B, in) stacked input activations.
            input_masks: (T, S, in) per-slice keep-masks (CL dropout), one
                set per segment ((T, in) for a call of one segment), or
                None to drive every line.
            rng: generator for analog noise; variates are drawn in one
                C-order block, which matches T sequential per-slice draws.
            noise: pre-drawn (T, B, out) standard-normal read noise.
            ledgers: one ``(ledger, rows)`` pair per consecutive block of
                the batch axis; each block's reads are charged to its
                ledger.  Default: one block, charged to the macro's ledger.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected (T, B, {self.in_features}) inputs, got {x.shape}"
            )
        n_stacked, batch = x.shape[0], x.shape[1]
        targets, rows = self._segments(ledgers, batch)
        if input_masks is not None:
            masks = self._per_segment(
                np.asarray(input_masks),
                n_stacked,
                len(targets),
                self.in_features,
                "input masks",
            )
            x = x * np.repeat(masks, rows, axis=1).astype(float)
            active_in = masks.sum(axis=(0, 2), dtype=np.int64) * rows
        else:
            active_in = n_stacked * self.in_features * rows
        # Pin the DAC grid exactly as the first segment's first matvec would.
        self._ensure_input_spec(x[0, : rows[0]])
        x_q = self._quantize_inputs(x)
        analog = (
            x_q.reshape(n_stacked * batch, self.in_features) @ self.stored_weight
        ).reshape(n_stacked, batch, self.out_features)
        out = self._read_columns(analog, rng, noise=noise)
        for ledger, n_rows, n_active in zip(
            targets, rows.tolist(), active_in.tolist()
        ):
            ledger.add(
                "cim_mac", n_active * self.out_features, self.config.mac_energy()
            )
            ledger.add(
                "column_adc",
                n_stacked * n_rows * self.out_features,
                self.config.node.adc_energy(self.config.adc_bits),
            )
            ledger.add("input_dac", n_active, self.config.node.dac_energy_j)
        return out

    def _quantize_inputs(self, x: np.ndarray) -> np.ndarray:
        spec = self._ensure_input_spec(x)
        return dequantize(quantize(x, spec), spec)

    def _account(
        self,
        batch: int,
        active_in: int,
        adc_reads: int | None = None,
        ledger: EnergyLedger | None = None,
    ) -> None:
        ledger = self.ledger if ledger is None else ledger
        macs = batch * active_in * self.out_features
        ledger.add("cim_mac", macs, self.config.mac_energy())
        reads = batch * self.out_features if adc_reads is None else adc_reads
        ledger.add(
            "column_adc", reads, self.config.node.adc_energy(self.config.adc_bits)
        )
        ledger.add("input_dac", batch * active_in, self.config.node.dac_energy_j)

    def ideal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Noise-free, unquantised-input product with stored weights."""
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.stored_weight

    def total_energy_j(self) -> float:
        return self.ledger.total_energy_j()


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The runs ``arange(start, start + length)``, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())
