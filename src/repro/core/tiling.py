"""Domain-tiled inverter arrays: finer kernels from the same devices.

A single inverter array maps the whole flying domain onto one rail-to-rail
voltage swing, so the narrowest realisable kernel width is a fixed fraction
(~9% at 45 nm) of the domain extent.  Splitting the domain into tiles, each
served by its own (smaller) array with its own world-to-voltage encoder,
multiplies the effective world-resolution by the tile count per axis while
keeping the per-query cost identical: the tile index is just the digital
MSBs of the query coordinate, steering one array's DACs.

Mixture components are assigned to every tile whose (overlap-padded) box
contains their center, so kernels straddling a boundary contribute on both
sides; the duplicated columns are reported in the tiling report.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.circuits.inverter_array import ArrayBank, VoltageEncoder, WavePlan
from repro.circuits.noise import NoiseModel
from repro.circuits.technology import TechnologyNode
from repro.circuits.variability import MismatchSampler
from repro.core.codesign import hardware_sigma_menu, program_inverter_array
from repro.filtering.measurement import FieldReading, MapFieldBackend
from repro.maps.hmgm import HMGMixture


def tiled_sigma_menu(
    node: TechnologyNode,
    lo: np.ndarray,
    hi: np.ndarray,
    tiles: tuple[int, int, int],
    margin: float = 0.08,
    fg_bits: int = 4,
    apron_fraction: float = 0.25,
) -> np.ndarray:
    """Per-axis world-unit width menu under a tiled encoding, (3, n_codes).

    Each tile's encoder spans the tile box plus an apron on both sides (so
    kernels straddling a boundary stay representable); the menu reflects
    that slightly larger span.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tile_size = (hi - lo) / np.asarray(tiles, dtype=float)
    span = tile_size * (1.0 + 2.0 * apron_fraction)
    encoder = VoltageEncoder(lo=lo, hi=lo + span, vdd=node.vdd, margin=margin)
    return hardware_sigma_menu(node, encoder, fg_bits=fg_bits)


@dataclass(frozen=True)
class TilingReport:
    """Audit record of a tiled programming run.

    Attributes:
        tiles: tile grid shape.
        n_active_tiles: tiles that received at least one component.
        total_columns: physical columns across all tiles.
        duplicated_components: component-tile assignments beyond one per
            component (the overlap cost).
    """

    tiles: tuple[int, int, int]
    n_active_tiles: int
    total_columns: int
    duplicated_components: int


class TiledInverterArrayMap:
    """A likelihood map served by a grid of inverter-array tiles.

    Args:
        mixture: HMG mixture (widths should sit on the *tile* menu).
        lo / hi: world bounds of the full domain.
        node: technology node.
        tiles: tile grid (nx, ny, nz).
        columns_per_component: column replication budget per component.
        overlap_sigmas: components are assigned to a tile when their center
            lies within ``overlap_sigmas * max(sigma)`` of the tile box.
        adc_bits / fg_bits / input_dac_bits / margin: hardware parameters
            (see :func:`~repro.core.codesign.program_inverter_array`).
        mismatch / noise: process variation and analog noise models.
        rng: generator for hardware instantiation.
    """

    def __init__(
        self,
        mixture: HMGMixture,
        lo: np.ndarray,
        hi: np.ndarray,
        node: TechnologyNode,
        tiles: tuple[int, int, int] = (2, 2, 2),
        columns_per_component: float = 5.0,
        overlap_sigmas: float = 2.0,
        adc_bits: int = 4,
        fg_bits: int = 4,
        input_dac_bits: int = 6,
        margin: float = 0.08,
        apron_fraction: float = 0.25,
        mismatch: MismatchSampler | None = None,
        noise: NoiseModel | None = None,
        rng: np.random.Generator | None = None,
        eval_time_s: float = 1.0e-8,
    ):
        if any(t < 1 for t in tiles):
            raise ValueError("tile counts must be >= 1")
        self.mixture = mixture
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        if np.any(self.hi <= self.lo):
            raise ValueError("hi must exceed lo")
        self.node = node
        self.tiles = tuple(int(t) for t in tiles)
        self.tile_size = (self.hi - self.lo) / np.asarray(self.tiles, dtype=float)
        self.ledger = EnergyLedger(label=f"tiled-array{self.tiles}")

        # Each tile's encoder covers the tile box plus an apron, so
        # components whose center falls within the apron of a neighbouring
        # tile are programmable there too and kernels straddling a boundary
        # contribute on both sides.  The assignment reach is the smaller of
        # the kernel reach and the apron (centers beyond the apron are not
        # representable in this tile's voltage range).
        apron = float(apron_fraction) * self.tile_size
        self.apron = apron
        reach = np.minimum(
            overlap_sigmas * mixture.sigmas.max(axis=1)[:, None],
            apron[None, :],
        )
        duplicated = 0
        total_columns = 0
        # The active tiles by the flat key plan_field_log groups queries
        # on: np.ndindex walks the grid in C order, so its count is the
        # tile's flat key (i * ny + j) * nz + k.
        arrays = {}
        for key, index in enumerate(np.ndindex(*self.tiles)):
            tile_lo = self.lo + np.asarray(index) * self.tile_size
            tile_hi = tile_lo + self.tile_size
            # Components whose kernel meaningfully reaches into this tile.
            inside = np.all(
                (mixture.means >= tile_lo - reach)
                & (mixture.means <= tile_hi + reach),
                axis=1,
            )
            if not inside.any():
                continue
            sub = HMGMixture(
                mixture.weights[inside],
                mixture.means[inside],
                mixture.sigmas[inside],
            )
            duplicated += int(inside.sum())
            encoder = VoltageEncoder(
                lo=tile_lo - apron,
                hi=tile_hi + apron,
                vdd=node.vdd,
                margin=margin,
            )
            budget = max(
                sub.n_components,
                int(round(columns_per_component * sub.n_components)),
            )
            array, _ = program_inverter_array(
                sub,
                encoder,
                node,
                total_columns=budget,
                fg_bits=fg_bits,
                adc_bits=adc_bits,
                input_dac_bits=input_dac_bits,
                mismatch=mismatch,
                noise=noise,
                rng=rng,
                eval_time_s=eval_time_s,
            )
            total_columns += int(array.replication.sum())
            arrays[key] = (array, encoder)
        if not arrays:
            raise ValueError("no tile received any mixture component")
        duplicated -= mixture.n_components
        self.report = TilingReport(
            tiles=self.tiles,
            n_active_tiles=len(arrays),
            total_columns=total_columns,
            duplicated_components=max(duplicated, 0),
        )
        # Log-likelihood returned for points falling in a component-free
        # tile: below every active tile's ADC floor.
        floors = [a.adc.log_likelihood(np.array([0]))[0] for a, _ in arrays.values()]
        self._bank = ArrayBank(
            arrays, int(np.prod(self.tiles)), empty_log=float(min(floors) - 1.0)
        )

    def tile_of(self, points: np.ndarray) -> np.ndarray:
        """(N, 3) integer tile indices for world points (clipped to grid)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        indices = np.empty(points.shape, dtype=int)
        for axis, count in enumerate(self.tiles):
            raw = np.floor((points[:, axis] - self.lo[axis]) / self.tile_size[axis])
            indices[:, axis] = np.clip(raw.astype(int), 0, count - 1)
        return indices

    def field_log(
        self, points: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """(N,) log field values; queries are routed to their tile's array."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        [reading] = self.read_planned(self.plan_field_log(points[None], [rng]))
        reading.account(self.ledger)
        return reading.values

    def plan_field_log(
        self,
        points: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> WavePlan:
        """Route W callers' points (W, Q, 3) to their tiles and draw each
        tile read's noise.

        Every caller's rows are grouped by tile in flat-key order, so
        its generator sees exactly the draws :meth:`field_log` of its
        points makes: one per visited tile, in key order.
        """
        indices = self.tile_of(points.reshape(-1, 3))
        keys = (
            indices[:, 0] * (self.tiles[1] * self.tiles[2])
            + indices[:, 1] * self.tiles[2]
            + indices[:, 2]
        )
        return self._bank.plan(points, keys.reshape(points.shape[:2]), rngs)

    def read_planned(self, plan: WavePlan) -> list[FieldReading]:
        """Evaluate a planned wave with one array pass per tile.

        Every caller's reads of one tile are stacked into a single
        DAC -> array -> noise -> ADC pass; each caller gets its values and
        its deferred per-tile metering back, bit-equal to evaluating it
        alone.  Nothing is metered until a reading's ``account(ledger)``
        runs.
        """
        return [
            FieldReading(values, charges)
            for values, charges in zip(*self._bank.read(plan))
        ]

    def energy_per_query(self) -> float:
        """Mean energy per likelihood query across tiles (J)."""
        queries = self.ledger.count("adc_conversion")
        if queries == 0:
            return 0.0
        return self.ledger.total_energy_j() / queries


class TiledCIMBackend(MapFieldBackend):
    """Measurement-model backend adapter for a tiled array map."""

    def __init__(self, tiled_map: TiledInverterArrayMap):
        self.tiled_map = tiled_map

    @property
    def ledger(self) -> EnergyLedger:
        return self.tiled_map.ledger

    def plan_field_log(
        self,
        points: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> WavePlan:
        return self.tiled_map.plan_field_log(points, rngs)

    def read_planned(self, plan: WavePlan) -> list[FieldReading]:
        return self.tiled_map.read_planned(plan)
