"""Inverter-array likelihood engine (paper Fig. 2a).

Columns of programmed :class:`~repro.circuits.inverter.LikelihoodInverter`
cells share an output line; by Kirchhoff's current law the line carries the
*sum* of the column currents, i.e. an entire mixture likelihood evaluates in
one analog step.  Mixture weights are realised by integer column
replication.  A logarithmic ADC digitises the summed current (the particle
filter consumes log-likelihoods), and DACs drive the input voltages.

The evaluation path is fully vectorised: per-column device parameters are
baked into arrays at construction, and since the inputs arrive through
DACs, each column's per-axis current term is tabulated per DAC code, so
a batch of query points costs a few table gathers rather than a Python
loop over columns.  :class:`ArrayBank` reads a wave of callers' points
over several arrays (the tiles of a domain) with one pass per array.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
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
        volts = np.empty(points.shape)
        for axis in range(points.shape[1]):
            volts[:, axis] = self.encode_axis(points[:, axis], axis)
        return volts

    def encode_axis(self, values: np.ndarray, axis: int) -> np.ndarray:
        """World coordinates (N,) on ``axis`` -> gate voltages (N,)."""
        volts = self.v_lo + (values - self.lo[axis]) * self.scale()[axis]
        return np.clip(volts, 0.0, self.vdd)

    def decode(self, volts: np.ndarray) -> np.ndarray:
        """Gate voltages (N, A) -> world points (N, A)."""
        volts = np.atleast_2d(np.asarray(volts, dtype=float))
        return self.lo + (volts - self.v_lo) / self.scale()


# Rows per stacked array pass: past a few thousand queries the per-call
# overhead is amortised, and larger passes only raise peak memory.
STACK_ROWS = 4096


def _runs(sizes: list[int], limit: int) -> list[list[int]]:
    """Consecutive ``sizes`` grouped into runs of at most ``limit`` in
    total (a larger size is a run of its own)."""
    runs: list[list[int]] = []
    total = 0
    for size in sizes:
        if not runs or total + size > limit:
            runs.append([])
            total = 0
        runs[-1].append(size)
        total += size
    return runs


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

    :meth:`column_currents` evaluates the device model at any input
    voltages.  A read (:meth:`read`) only ever drives the inputs at DAC
    levels, so it gathers each column's per-axis term from a table
    built with the same formula at every DAC code, and sums the terms
    in the same axis order -- bit-equal to :meth:`column_currents` of
    the DAC voltages.

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

    def _axis_inverse(self, axis: int, volts: np.ndarray) -> np.ndarray:
        """Inverse per-axis currents ``1 / (I_axis + 1e-300)`` (N, C) at
        input voltages ``volts`` (N,) on ``axis``."""
        vdd = self.node.vdd
        # Effective input after the programmed threshold shift.
        v_eff = volts[:, None] - (self._centers[None, :, axis] - vdd / 2.0)
        slopes = self._slopes[None, :, axis]
        i_spec = self._i_spec[None, :, axis]
        i_n = self._ekv(v_eff, slopes, i_spec)
        i_p = self._ekv(vdd - v_eff, slopes, i_spec)
        i_axis = i_n * i_p / (i_n + i_p + 1e-300)
        return 1.0 / (i_axis + 1e-300)

    @functools.cached_property
    def _inverse_table(self) -> np.ndarray:
        """Each column's inverse axis current at every DAC level,
        (A, levels, C): a read only ever drives an axis at one of the
        DAC's 2**bits voltages.  Built at the first read, so arrays
        that are never read (co-design probes) skip it."""
        return np.stack(
            [
                self._axis_inverse(axis, dac.output(np.arange(dac.levels)))
                for axis, dac in enumerate(self.dacs)
            ]
        )

    def column_currents(self, volts: np.ndarray) -> np.ndarray:
        """Per-column stack currents (N, C) for input voltages (N, A)."""
        volts = np.atleast_2d(np.asarray(volts, dtype=float))
        if volts.shape[1] != self.n_axes:
            raise ValueError(f"expected {self.n_axes} axes, got {volts.shape[1]}")
        inverse_sum = np.zeros((volts.shape[0], self.n_columns))
        for axis in range(self.n_axes):
            inverse_sum += self._axis_inverse(axis, volts[:, axis])
        return 1.0 / inverse_sum

    def code_currents(self, codes: np.ndarray) -> np.ndarray:
        """Per-column stack currents (N, C) for DAC input codes (N, A).

        Bit-equal to :meth:`column_currents` of the codes' DAC voltages:
        the table rows are that method's per-axis terms, summed in the
        same axis order from the same ``0.0 +`` start.
        """
        inverse_sum = 0.0 + self._inverse_table[0][codes[:, 0]]
        for axis in range(1, self.n_axes):
            inverse_sum += self._inverse_table[axis][codes[:, axis]]
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
        points = np.atleast_2d(np.asarray(points, dtype=float))
        sizes = np.array([points.shape[0]])
        log_lik, currents = self.read(
            points, self.draw_noise(points.shape[0], rng), sizes, encoder
        )
        self.ledger.add_charges(self.read_energies(sizes, currents))
        return log_lik

    def draw_noise(
        self, n_queries: int, rng: np.random.Generator | None
    ) -> np.ndarray | None:
        """The output-line noise normals one read of ``n_queries`` points
        draws from ``rng`` (``None`` without a noise model)."""
        if self.noise is None:
            return None
        if rng is None:
            raise ValueError("rng required when a noise model is attached")
        return rng.normal(size=(n_queries,))

    def read(
        self,
        points: np.ndarray,
        current_noise: np.ndarray | None,
        sizes: np.ndarray,
        encoder: VoltageEncoder,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate consecutive reads in one stacked pass, without metering.

        ``points`` (N, A) holds reads of ``sizes`` rows each, in order, and
        ``current_noise`` their :meth:`draw_noise` normals.  Returns the
        ``(log-likelihoods, currents)`` of every row, each read's rows
        bit-equal to that read alone; the caller meters them with
        :meth:`read_energies`.  Consecutive reads share a table gather
        of up to :data:`STACK_ROWS` rows.  The column-current sum stays
        one matvec per read: a BLAS matvec rounds a row differently
        depending on the call's row count, so one matvec over the stack
        would not reproduce the per-read values.
        """
        # Axis-major codes: each axis's gather reads a contiguous row.
        codes = np.empty((self.n_axes, points.shape[0]), dtype=np.int64)
        for axis, dac in enumerate(self.dacs):
            codes[axis] = dac.quantize(encoder.encode_axis(points[:, axis], axis))
        currents = np.empty(points.shape[0])
        start = 0
        for chunk in _runs(np.asarray(sizes).tolist(), STACK_ROWS):
            columns = self.code_currents(codes.T[start : start + sum(chunk)])
            offset = 0
            for size in chunk:
                currents[start + offset : start + offset + size] = (
                    columns[offset : offset + size] @ self.replication
                )
                offset += size
            start += offset
        if self.noise is not None:
            currents = np.maximum(self.noise.apply(currents, current_noise), 0.0)
        log_lik = self.adc.log_likelihood(self.adc.convert(currents))
        return log_lik, currents

    def read_energies(
        self, sizes: np.ndarray, currents: np.ndarray
    ) -> dict[str, tuple[list[int], list[float]]]:
        """What :meth:`read` of reads of ``sizes`` rows with output-line
        ``currents`` costs: operation -> (counts, energies), one entry per
        read in read order, each the value one ``add`` of that read would
        record."""
        sizes = np.asarray(sizes, dtype=np.int64)
        bounds = np.cumsum(sizes).tolist()
        # np.sum's own reduction, without its Python wrapper per read.
        sums = np.array(
            [
                np.add.reduce(currents[stop - size : stop])
                for size, stop in zip(sizes.tolist(), bounds)
            ]
        )
        conversions = sizes * self.n_axes
        return {
            operation: (counts.tolist(), energies.tolist())
            for operation, counts, energies in (
                ("dac_conversion", conversions, conversions * self.node.dac_energy_j),
                ("adc_conversion", sizes, sizes * self.adc.conversion_energy()),
                ("analog_evaluation", sizes, sums * self.node.vdd * self.eval_time_s),
            )
        }

    def energy_per_query(self) -> float:
        """Mean energy per likelihood query so far (J)."""
        queries = self.ledger.count("adc_conversion")
        if queries == 0:
            return 0.0
        return self.ledger.total_energy_j() / queries


@dataclass(frozen=True)
class WavePlan:
    """One planned :meth:`ArrayBank.read` of a wave of callers.

    Attributes:
        order: stable (key, caller) sort of the callers' flat rows.
        counts: (K, W) rows per (key, caller).
        points: (N, A) the rows in sorted order.
        noise: (N,) each row's output-line noise normal, drawn from its
            caller's generator; ``None`` without a noise model.
    """

    order: np.ndarray
    counts: np.ndarray
    points: np.ndarray
    noise: np.ndarray | None


class ArrayBank:
    """Inverter arrays addressed by integer keys, read a wave at a time.

    A wave is W callers' query points, each row routed to the array of
    its key (a tile of the domain).  :meth:`plan` sorts every row once
    on its (key, caller) pair, so each array's rows lie stacked in caller
    order, and draws each caller's read noise from its own generator, one
    normal per noisy row in key order -- exactly the draws of that
    caller's reads alone.  :meth:`read` then makes one stacked pass per
    array.  Rows whose key has no array read ``empty_log``.

    Args:
        arrays: key -> (programmed array, its encoder).
        n_keys: size of the key space.
        empty_log: log-likelihood of a row whose key has no array.
    """

    def __init__(
        self,
        arrays: dict[int, tuple[InverterArray, VoltageEncoder]],
        n_keys: int,
        empty_log: float,
    ):
        self.arrays = dict(sorted(arrays.items()))
        self.n_keys = int(n_keys)
        self.empty_log = float(empty_log)
        self._noisy_keys = np.array(
            [key for key, (array, _) in self.arrays.items() if array.noise is not None],
            dtype=np.int64,
        )

    def plan(
        self,
        points: np.ndarray,
        keys: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> WavePlan:
        """Sort ``points`` (W, Q, A) by their ``keys`` (W, Q) and draw
        every read's noise."""
        n_callers, n_points = points.shape[:2]
        # A (key, caller) pair in 16 bits sorts by radix.
        dtype = np.uint16 if self.n_keys * n_callers <= 1 << 16 else np.int64
        paired = (
            keys.astype(dtype) * dtype(n_callers)
            + np.arange(n_callers, dtype=dtype)[:, None]
        ).reshape(-1)
        order = np.argsort(paired, kind="stable")
        counts = np.bincount(paired, minlength=self.n_keys * n_callers).reshape(
            self.n_keys, n_callers
        )
        ordered = np.take(points.reshape(n_callers * n_points, -1), order, axis=0)
        noise = None
        if self._noisy_keys.size:
            noise = np.empty(ordered.shape[0])
            starts = (np.cumsum(counts) - counts.reshape(-1)).reshape(counts.shape)
            # One draw per caller for its rows of the noisy arrays, in key
            # order: exactly its per-read draws, back to back.
            for rng, sizes, firsts in zip(
                rngs,
                counts[self._noisy_keys].T.tolist(),
                starts[self._noisy_keys].T.tolist(),
            ):
                if not any(sizes):
                    continue
                if rng is None:
                    raise ValueError("rng required when a noise model is attached")
                drawn = rng.normal(size=sum(sizes))
                offset = 0
                for size, first in zip(sizes, firsts):
                    noise[first : first + size] = drawn[offset : offset + size]
                    offset += size
        return WavePlan(order, counts, ordered, noise)

    def read(
        self, plan: WavePlan
    ) -> tuple[np.ndarray, list[dict[str, tuple[list, list]]]]:
        """The wave's values (W, Q) and each caller's metering
        (operation -> per-read counts and energies, in key order)."""
        n_callers = plan.counts.shape[1]
        values = np.full(plan.points.shape[0], self.empty_log)
        totals = plan.counts.sum(axis=1)
        offsets = (np.cumsum(totals) - totals).tolist()
        callers, entries = [], []
        for key, (array, encoder) in self.arrays.items():
            rows = int(totals[key])
            if not rows:
                continue
            block = slice(offsets[key], offsets[key] + rows)
            sizes = plan.counts[key][plan.counts[key] > 0]
            log_lik, currents = array.read(
                plan.points[block],
                None if plan.noise is None else plan.noise[block],
                sizes,
                encoder,
            )
            values[block] = log_lik
            callers.append(np.flatnonzero(plan.counts[key]))
            entries.append(array.read_energies(sizes, currents))
        unsorted = np.empty_like(values)
        unsorted[plan.order] = values
        return unsorted.reshape(n_callers, -1), self._charges(
            callers, entries, n_callers
        )

    @staticmethod
    def _charges(
        callers: list[np.ndarray],
        entries: list[dict[str, tuple[list[int], list[float]]]],
        n_callers: int,
    ) -> list[dict[str, tuple[list, list]]]:
        """Regroup per-array read entries (arrays in key order) by caller."""
        charges: list[dict[str, tuple[list, list]]] = [{} for _ in range(n_callers)]
        for readers, entry in zip(callers, entries):
            for operation, (counts, energies) in entry.items():
                for caller, count, energy_j in zip(readers.tolist(), counts, energies):
                    owed = charges[caller].setdefault(operation, ([], []))
                    owed[0].append(count)
                    owed[1].append(energy_j)
        return charges
