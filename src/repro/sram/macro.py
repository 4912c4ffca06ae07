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
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    ) -> np.ndarray:
        """Full macro evaluation: (B, in) -> (B, out).

        Args:
            x: input activations.
            input_mask: (in,) keep-mask ANDed onto the inputs (CL dropout).
            rng: generator for analog noise.
            noise: pre-drawn (B, out) standard-normal read noise.
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
        self._account(x.shape[0], active_in)
        return out

    def matvec_delta(
        self,
        previous: np.ndarray,
        delta_x: np.ndarray,
        changed: np.ndarray,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
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
            self._account(previous.shape[0], 0, adc_reads=0)
            return previous.copy()
        delta_q = self._quantize_inputs(delta_x[:, changed])
        analog = delta_q @ self.stored_weight[changed]
        delta_read = self._read_columns(analog, rng, noise=noise)
        out = previous + delta_read
        self._account(previous.shape[0], n_changed)
        return out

    def matvec_delta_many(
        self,
        anchors: dict[int, np.ndarray],
        delta_x: np.ndarray,
        changed: np.ndarray,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
    ) -> np.ndarray:
        """Chained delta reads of T stacked steps: (T, B, in) -> (T, B, out).

        The delta-port counterpart of :meth:`matvec_many`.  Equivalent to
        T :meth:`matvec_delta` calls in which step ``k`` updates
        ``anchors[k]`` when given and step ``k - 1``'s output otherwise --
        the same outputs bit for bit and the same per-call ledger entries
        in the same order -- with one quantise, one ADC pass and one
        batched ledger replay (:meth:`EnergyLedger.add_many`).  Two
        details keep it exact:

        - every step that drives a line keeps its own GEMM over exactly
          its changed lines; zero-padding deltas to a full-width GEMM, or
          stacking steps with different line sets into one, may change
          the BLAS summation order (it depends on the BLAS kernel);
        - a step that drives no line carries its predecessor forward by
          copy, since adding a zero read would turn -0.0 into +0.0.

        Args:
            anchors: step index -> (B, out) products that step updates;
                must contain step 0.
            delta_x: (T, B, in) input changes; only entries where
                ``changed`` is True are driven.
            changed: (T, in) boolean masks of driven input lines.
            rng: generator for analog noise; the driven steps' variates
                are drawn in one C-order block, which matches sequential
                per-step draws.
            noise: pre-drawn (T, B, out) standard-normal read noise (rows
                of steps that drive no line are not used).
        """
        delta_x = np.asarray(delta_x, dtype=float)
        if delta_x.ndim != 3 or delta_x.shape[2] != self.in_features:
            raise ValueError(
                f"expected (T, B, {self.in_features}) deltas, got {delta_x.shape}"
            )
        n_steps, batch = delta_x.shape[0], delta_x.shape[1]
        changed = np.asarray(changed, dtype=bool)
        if changed.shape != (n_steps, self.in_features):
            raise ValueError("changed mask width mismatch")
        if n_steps and 0 not in anchors:
            raise ValueError("anchors must give the products step 0 updates")
        n_changed = changed.sum(axis=1).tolist()
        driven = [k for k in range(n_steps) if n_changed[k]]
        if driven:
            first = driven[0]
            # Pin the DAC grid exactly as the first driving call would.
            self._ensure_input_spec(delta_x[first][:, changed[first]])
            delta_q = self._quantize_inputs(delta_x[driven])
            analog = np.empty((len(driven), batch, self.out_features))
            for read, k in enumerate(driven):
                lines = changed[k]
                np.matmul(
                    delta_q[read].compress(lines, axis=1),
                    self.stored_weight.compress(lines, axis=0),
                    out=analog[read],
                )
            reads = self._read_columns(
                analog, rng, noise=None if noise is None else noise[driven]
            )
        out = np.empty((n_steps, batch, self.out_features))
        next_read = 0
        for k in range(n_steps):
            base = anchors[k] if k in anchors else out[k - 1]
            if n_changed[k]:
                np.add(base, reads[next_read], out=out[k])
                next_read += 1
            else:
                out[k] = base
        self.ledger.add_many(
            "cim_mac",
            [batch * n * self.out_features for n in n_changed],
            self.config.mac_energy(),
        )
        self.ledger.add_many(
            "column_adc",
            [batch * self.out_features if n else 0 for n in n_changed],
            self.config.node.adc_energy(self.config.adc_bits),
        )
        self.ledger.add_many(
            "input_dac",
            [batch * n for n in n_changed],
            self.config.node.dac_energy_j,
        )
        return out

    def matvec_many(
        self,
        x: np.ndarray,
        input_masks: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        noise: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fused evaluation of T stacked input batches: (T, B, in) -> (T, B, out).

        Equivalent to T :meth:`matvec` calls (one per leading slice) --
        same quantisation grid, same read model, same energy accounting --
        but with one quantise, one GEMM and one ADC pass over the whole
        stack.  This is the sample-major fast path the MC-Dropout engine
        drives when iterations are independent.

        Args:
            x: (T, B, in) stacked input activations.
            input_masks: (T, in) per-slice keep-masks (CL dropout), or
                None to drive every line.
            rng: generator for analog noise; variates are drawn in one
                C-order block, which matches T sequential per-slice draws.
            noise: pre-drawn (T, B, out) standard-normal read noise.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 3 or x.shape[2] != self.in_features:
            raise ValueError(
                f"expected (T, B, {self.in_features}) inputs, got {x.shape}"
            )
        n_stacked, batch = x.shape[0], x.shape[1]
        if input_masks is not None:
            input_masks = np.asarray(input_masks)
            if input_masks.shape != (n_stacked, self.in_features):
                raise ValueError(
                    f"expected ({n_stacked}, {self.in_features}) input masks, "
                    f"got {input_masks.shape}"
                )
            x = x * input_masks.astype(float)[:, None, :]
        # Pin the DAC grid exactly as the first per-slice matvec would.
        self._ensure_input_spec(x[0])
        x_q = self._quantize_inputs(x)
        analog = (
            x_q.reshape(n_stacked * batch, self.in_features) @ self.stored_weight
        ).reshape(n_stacked, batch, self.out_features)
        out = self._read_columns(analog, rng, noise=noise)
        if input_masks is not None:
            active_in_total = int(np.count_nonzero(input_masks)) * batch
        else:
            active_in_total = n_stacked * batch * self.in_features
        self.ledger.add(
            "cim_mac", active_in_total * self.out_features, self.config.mac_energy()
        )
        self.ledger.add(
            "column_adc",
            n_stacked * batch * self.out_features,
            self.config.node.adc_energy(self.config.adc_bits),
        )
        self.ledger.add(
            "input_dac", active_in_total, self.config.node.dac_energy_j
        )
        return out

    def _quantize_inputs(self, x: np.ndarray) -> np.ndarray:
        spec = self._ensure_input_spec(x)
        return dequantize(quantize(x, spec), spec)

    def _account(
        self, batch: int, active_in: int, adc_reads: int | None = None
    ) -> None:
        macs = batch * active_in * self.out_features
        self.ledger.add("cim_mac", macs, self.config.mac_energy())
        reads = batch * self.out_features if adc_reads is None else adc_reads
        self.ledger.add(
            "column_adc", reads, self.config.node.adc_energy(self.config.adc_bits)
        )
        self.ledger.add(
            "input_dac", batch * active_in, self.config.node.dac_energy_j
        )

    def ideal_matvec(self, x: np.ndarray) -> np.ndarray:
        """Noise-free, unquantised-input product with stored weights."""
        return np.atleast_2d(np.asarray(x, dtype=float)) @ self.stored_weight

    def total_energy_j(self) -> float:
        return self.ledger.total_energy_j()
