"""Inverter-array likelihood engine (paper Fig. 2a).

Columns of programmed :class:`~repro.circuits.inverter.LikelihoodInverter`
cells share an output line; by Kirchhoff's current law the line carries the
*sum* of the column currents, i.e. an entire mixture likelihood evaluates in
one analog step.  Mixture weights are realised by integer column
replication.  A logarithmic ADC digitises the summed current (the particle
filter consumes log-likelihoods), and DACs drive the input voltages.

The evaluation path is fully vectorised: per-column device parameters are
baked into arrays at construction so a batch of query points costs a few
broadcast numpy expressions rather than a Python loop over columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.adc import LogarithmicADC
from repro.circuits.dac import DAC
from repro.circuits.energy import EnergyLedger
from repro.circuits.inverter import WIDTH_SCALES, SwitchingCurrentCell
from repro.circuits.noise import NoiseModel
from repro.circuits.technology import TechnologyNode
from repro.circuits.variability import MismatchSampler


@dataclass(frozen=True)
class VoltageEncoder:
    """Affine map between world coordinates and gate voltages.

    Each axis of the world bounding box [lo, hi] maps onto
    [margin * vdd, (1 - margin) * vdd], keeping bell centers away from the
    rails where the switching current deforms.

    Attributes:
        lo: per-axis lower world bounds (A,).
        hi: per-axis upper world bounds (A,).
        vdd: supply voltage.
        margin: rail guard band as a fraction of vdd.
    """

    lo: np.ndarray
    hi: np.ndarray
    vdd: float
    margin: float = 0.1

    def __post_init__(self) -> None:
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if np.any(hi <= lo):
            raise ValueError("hi must exceed lo on every axis")
        if not 0.0 <= self.margin < 0.5:
            raise ValueError("margin must be in [0, 0.5)")

    @property
    def v_lo(self) -> float:
        return self.margin * self.vdd

    @property
    def v_hi(self) -> float:
        return (1.0 - self.margin) * self.vdd

    def scale(self) -> np.ndarray:
        """Volts per world unit, per axis (A,)."""
        return (self.v_hi - self.v_lo) / (self.hi - self.lo)

    def encode(self, points: np.ndarray) -> np.ndarray:
        """World points (N, A) -> gate voltages (N, A), clipped to rails."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        volts = self.v_lo + (points - self.lo) * self.scale()
        return np.clip(volts, 0.0, self.vdd)

    def decode(self, volts: np.ndarray) -> np.ndarray:
        """Gate voltages (N, A) -> world points (N, A)."""
        volts = np.atleast_2d(np.asarray(volts, dtype=float))
        return self.lo + (volts - self.v_lo) / self.scale()


# Rows per stacked array pass: past a few thousand queries the per-call
# overhead is amortised, and larger passes only raise peak memory.
STACK_ROWS = 4096


@dataclass(frozen=True)
class PlannedRead:
    """One read's query points with its noise already drawn.

    Attributes:
        points: (N, A) world points.
        current_noise: (N,) standard normals for the output-line current
            noise, or ``None`` without a noise model.
    """

    points: np.ndarray
    current_noise: np.ndarray | None

    @staticmethod
    def stack(reads: list["PlannedRead"]) -> "PlannedRead":
        """Reads of one array concatenated in order (one noise config)."""

        return PlannedRead(
            np.concatenate([read.points for read in reads]),
            None
            if reads[0].current_noise is None
            else np.concatenate([read.current_noise for read in reads]),
        )


class InverterColumn:
    """Specification of one programmed column.

    Attributes:
        v_centers: per-axis bell centers (V).
        width_codes: per-axis width-code indices.
        replication: how many physical copies of the column are wired in
            parallel (integer mixture weight).
    """

    def __init__(
        self,
        v_centers: np.ndarray,
        width_codes: np.ndarray,
        replication: int = 1,
    ):
        self.v_centers = np.asarray(v_centers, dtype=float).reshape(-1)
        self.width_codes = np.asarray(width_codes, dtype=int).reshape(-1)
        if self.v_centers.shape != self.width_codes.shape:
            raise ValueError("v_centers / width_codes length mismatch")
        if np.any(self.width_codes < 0) or np.any(self.width_codes >= len(WIDTH_SCALES)):
            raise ValueError("width code out of range")
        if replication < 1:
            raise ValueError("replication must be >= 1")
        self.replication = int(replication)


class InverterArray:
    """A bank of likelihood-inverter columns with shared current summation.

    Args:
        node: technology node.
        columns: column specifications (one per mixture component).
        fg_bits: floating-gate programming resolution.
        mismatch: process-variation sampler (optional).
        noise: analog noise model (optional).
        input_dac_bits: resolution of the three input DACs.
        eval_time_s: analog evaluation (integration) time per query.
        rng: generator for mismatch draws (required if ``mismatch``).
    """

    def __init__(
        self,
        node: TechnologyNode,
        columns: list[InverterColumn],
        fg_bits: int = 4,
        mismatch: MismatchSampler | None = None,
        noise: NoiseModel | None = None,
        input_dac_bits: int = 6,
        eval_time_s: float = 1.0e-8,
        rng: np.random.Generator | None = None,
    ):
        if not columns:
            raise ValueError("need at least one column")
        n_axes = columns[0].v_centers.size
        if any(c.v_centers.size != n_axes for c in columns):
            raise ValueError("all columns must have the same number of axes")
        if mismatch is not None and rng is None:
            raise ValueError("rng required when mismatch sampling is enabled")
        self.node = node
        self.n_axes = n_axes
        self.n_columns = len(columns)
        self.eval_time_s = float(eval_time_s)
        self.noise = noise
        self.replication = np.array([c.replication for c in columns], dtype=float)

        # Build cells once to inherit the floating-gate quantisation, then
        # bake their parameters into arrays for vectorised evaluation.
        centers = np.empty((self.n_columns, n_axes))
        slopes = np.empty((self.n_columns, n_axes))
        strengths = np.ones((self.n_columns, n_axes))
        if mismatch is not None:
            center_offsets = mismatch.vt_offsets((self.n_columns, n_axes), rng)
            strengths = mismatch.current_factors((self.n_columns, n_axes), rng)
        else:
            center_offsets = np.zeros((self.n_columns, n_axes))
        for j, column in enumerate(columns):
            for axis in range(n_axes):
                cell = SwitchingCurrentCell(
                    node,
                    v_center=float(column.v_centers[axis]),
                    width_code=int(column.width_codes[axis]),
                    fg_bits=fg_bits,
                    center_offset=float(center_offsets[j, axis]),
                    strength=float(strengths[j, axis]),
                )
                centers[j, axis] = cell.achieved_center
                slopes[j, axis] = (
                    node.subthreshold_slope_factor * WIDTH_SCALES[column.width_codes[axis]]
                )
        self._centers = centers
        self._slopes = slopes
        self._i_spec = node.specific_current * strengths
        self._vt = node.nominal_vt
        self._ut = node.thermal_voltage
        self.dacs = [DAC(node, bits=input_dac_bits) for _ in range(n_axes)]
        self.adc = LogarithmicADC(
            node,
            bits=4,
            i_min=1e-2 * self._typical_column_peak(),
            i_max=2.0 * float(self.replication.sum()) * self._typical_column_peak(),
        )
        self.ledger = EnergyLedger(label=f"inverter-array[{self.n_columns}x{n_axes}]")

    def _typical_column_peak(self) -> float:
        """Rough peak current of one column (A), for ADC range sizing."""
        return self.node.specific_current * np.log(2.0) ** 2 / self.n_axes

    def _ekv(self, v_drive: np.ndarray, slopes: np.ndarray, i_spec: np.ndarray) -> np.ndarray:
        x = (v_drive - self._vt) / (2.0 * slopes * self._ut)
        soft = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
        return i_spec * soft**2

    def column_currents(self, volts: np.ndarray) -> np.ndarray:
        """Per-column stack currents (N, C) for input voltages (N, A)."""
        volts = np.atleast_2d(np.asarray(volts, dtype=float))
        if volts.shape[1] != self.n_axes:
            raise ValueError(f"expected {self.n_axes} axes, got {volts.shape[1]}")
        vdd = self.node.vdd
        inverse_sum = np.zeros((volts.shape[0], self.n_columns))
        for axis in range(self.n_axes):
            # Effective input after the programmed threshold shift.
            v_eff = volts[:, axis, None] - (self._centers[None, :, axis] - vdd / 2.0)
            slopes = self._slopes[None, :, axis]
            i_spec = self._i_spec[None, :, axis]
            i_n = self._ekv(v_eff, slopes, i_spec)
            i_p = self._ekv(vdd - v_eff, slopes, i_spec)
            i_axis = i_n * i_p / (i_n + i_p + 1e-300)
            inverse_sum += 1.0 / (i_axis + 1e-300)
        return 1.0 / inverse_sum

    def total_current(
        self, volts: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Summed output-line current (N,) including replication and noise."""
        currents = self.column_currents(volts) @ self.replication
        if self.noise is not None:
            if rng is None:
                raise ValueError("rng required when a noise model is attached")
            currents = self.noise.sample(currents, rng)
            currents = np.maximum(currents, 0.0)
        return currents

    def read_log_likelihood(
        self,
        points: np.ndarray,
        encoder: VoltageEncoder,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Full read path: world points -> DAC -> array -> noise -> log-ADC.

        Args:
            points: (N, A) world points to evaluate.
            encoder: world-to-voltage map (must match the programming).
            rng: generator for noise (if a noise model is attached).

        Returns:
            (N,) unnormalised log-likelihood values (log of the decoded
            summed current).
        """
        [(log_lik, currents)] = self.read_planned(
            [self.plan_read(points, rng)], encoder
        )
        self._account(currents.shape[0], currents, self.ledger)
        return log_lik

    def plan_read(
        self, points: np.ndarray, rng: np.random.Generator | None = None
    ) -> PlannedRead:
        """Draw everything one read of ``points`` takes from ``rng``.

        The draws are exactly those of :meth:`read_log_likelihood`: the
        current noise (``total_current``).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        current_noise = None
        if self.noise is not None:
            if rng is None:
                raise ValueError("rng required when a noise model is attached")
            current_noise = rng.normal(size=(points.shape[0],))
        return PlannedRead(points, current_noise)

    def read_planned(
        self, reads: list[PlannedRead], encoder: VoltageEncoder
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Evaluate planned reads in one stacked pass, without metering.

        Returns one ``(log-likelihoods, currents)`` pair per read, each
        bit-equal to that read evaluated alone; the caller meters every
        read with :meth:`_account` on its ``currents``, into a ledger of
        its choice.  Consecutive reads are stacked up to
        :data:`STACK_ROWS` rows per pass.  The
        column-current sum stays one matvec per read: a BLAS matvec rounds
        a row differently depending on the call's row count, so one
        matvec over the stack would not reproduce the per-read values.
        """
        outputs: list[tuple[np.ndarray, np.ndarray]] = []
        batch: list[PlannedRead] = []
        rows = 0
        for read in reads:
            if batch and rows + read.points.shape[0] > STACK_ROWS:
                outputs += self._read_stacked(batch, encoder)
                batch, rows = [], 0
            batch.append(read)
            rows += read.points.shape[0]
        if batch:
            outputs += self._read_stacked(batch, encoder)
        return outputs

    def _read_stacked(
        self, reads: list[PlannedRead], encoder: VoltageEncoder
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        stacked = reads[0] if len(reads) == 1 else PlannedRead.stack(reads)
        volts = encoder.encode(stacked.points)
        for axis, dac in enumerate(self.dacs):
            volts[:, axis] = dac.convert(volts[:, axis])
        columns = self.column_currents(volts)
        bounds = np.cumsum([0] + [read.points.shape[0] for read in reads])
        currents = np.empty(columns.shape[0])
        for start, stop in zip(bounds[:-1], bounds[1:]):
            currents[start:stop] = columns[start:stop] @ self.replication
        if self.noise is not None:
            currents = np.maximum(
                self.noise.apply(currents, stacked.current_noise), 0.0
            )
        log_lik = self.adc.log_likelihood(self.adc.convert(currents))
        return [
            (log_lik[start:stop], currents[start:stop])
            for start, stop in zip(bounds[:-1], bounds[1:])
        ]

    def _account(
        self, n_queries: int, currents: np.ndarray, ledger: EnergyLedger
    ) -> None:
        ledger.add(
            "dac_conversion", n_queries * self.n_axes, self.node.dac_energy_j
        )
        ledger.add("adc_conversion", n_queries, self.adc.conversion_energy())
        analog = float(np.sum(currents) * self.node.vdd * self.eval_time_s)
        ledger.add_energy("analog_evaluation", analog, count=n_queries)

    def energy_per_query(self) -> float:
        """Mean energy per likelihood query so far (J)."""
        queries = self.ledger.count("adc_conversion")
        if queries == 0:
            return 0.0
        return self.ledger.total_energy_j() / queries
