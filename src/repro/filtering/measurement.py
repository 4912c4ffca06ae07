"""Depth-scan measurement models P(z_t | x_t) over mixture maps.

A scan of N non-zero depth pixels is backprojected into the camera frame
once; for every particle the points are moved into the world frame and the
map field is evaluated at each projected point (paper Sec. II-C).  The map
field comes from a pluggable backend:

- :class:`DigitalGMMBackend`: the conventional digital GMM processor (exact
  float or precision-limited), with op-level energy accounting.
- :class:`CIMArrayBackend`: the inverter-array likelihood engine, with DAC /
  log-ADC quantisation, analog noise, and its own energy ledger.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.circuits.inverter_array import (
    ArrayBank,
    InverterArray,
    VoltageEncoder,
    WavePlan,
)
from repro.circuits.technology import TechnologyNode
from repro.filtering.particles import YAW_INDEX
from repro.maps.gmm import GaussianMixture
from repro.scene.se3 import Pose, rotation_z


def state_to_pose(state: np.ndarray, camera_mount: Pose | None = None) -> Pose:
    """Convert a (x, y, z, yaw) state into a camera pose.

    Args:
        state: 4-vector drone state.
        camera_mount: fixed camera-to-body transform (default identity).

    Returns:
        The camera pose in the world frame.
    """
    state = np.asarray(state, dtype=float).reshape(-1)
    body = Pose(rotation_z(float(state[YAW_INDEX])), state[:3])
    if camera_mount is None:
        return body
    return body.compose(camera_mount)


@dataclass(frozen=True)
class FieldReading:
    """One caller's share of a planned field evaluation.

    Attributes:
        values: (Q,) log field values.
        charges: the metering still owed: operation -> (counts, energies)
            of the evaluation's reads, in read order, applied by
            :meth:`account` into the ledger its caller passes.
    """

    values: np.ndarray
    charges: dict[str, tuple[list[int], list[float]]]

    def account(self, ledger: EnergyLedger) -> None:
        ledger.add_charges(self.charges)


class MapFieldBackend(abc.ABC):
    """Evaluates the (unnormalised) log map field at world points.

    A field evaluation runs in two halves so a wave of callers can share
    one hardware pass: :meth:`plan_field_log` takes every draw the
    callers' evaluations need from their generators, and
    :meth:`read_planned` evaluates the plan and returns each caller's
    values plus its metering, deferred until :meth:`FieldReading.account`
    charges it into a ledger.  :meth:`field_log` is the wave of one,
    metered into :attr:`ledger`.
    """

    def field_log(
        self, points: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """(Q,) log field values at (Q, 3) world points."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        [reading] = self.read_planned(self.plan_field_log(points[None], [rng]))
        reading.account(self.ledger)
        return reading.values

    @abc.abstractmethod
    def plan_field_log(
        self,
        points: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> Any:
        """Everything the :meth:`field_log` of each caller's points
        (W, Q, 3) draws from that caller's generator, drawn now and in
        the same order."""

    @abc.abstractmethod
    def read_planned(self, plan: Any) -> list[FieldReading]:
        """Evaluate a plan; one reading per caller, each bit-equal to
        that caller's :meth:`field_log` alone."""

    @property
    @abc.abstractmethod
    def ledger(self) -> EnergyLedger:
        """Energy ledger accumulated over all queries."""


class DigitalGMMBackend(MapFieldBackend):
    """Digital evaluation of a GMM map (the paper's baseline processor).

    Args:
        gmm: the map model.
        node: technology node for energy accounting.
        bits: datapath precision; ``None`` means exact float (no
            quantisation), an integer quantises the log-density output to a
            2**bits-level grid over ``dynamic_range`` (fixed-point pipeline).
        dynamic_range: log-density span represented by the fixed-point
            datapath (natural-log units).
    """

    def __init__(
        self,
        gmm: GaussianMixture,
        node: TechnologyNode,
        bits: int | None = 8,
        dynamic_range: float = 30.0,
    ):
        self.gmm = gmm
        self.node = node
        self.bits = bits
        self.dynamic_range = float(dynamic_range)
        self._ledger = EnergyLedger(label=f"digital-gmm[{gmm.n_components}comp]")
        self._log_ceiling: float | None = None

    @property
    def ledger(self) -> EnergyLedger:
        return self._ledger

    def plan_field_log(
        self,
        points: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> np.ndarray:
        return points

    def read_planned(self, plan: np.ndarray) -> list[FieldReading]:
        return [
            FieldReading(self._field_values(points), self._charges(points.shape[0]))
            for points in plan
        ]

    def _field_values(self, points: np.ndarray) -> np.ndarray:
        values = self.gmm.logpdf(points)
        if self.bits is None:
            return values
        if self._log_ceiling is None:
            # Fix the converter ceiling at the map's peak density scale.
            self._log_ceiling = float(
                self.gmm.logpdf(self.gmm.means).max()
            )
        levels = 2**self.bits - 1
        step = self.dynamic_range / levels
        clipped = np.clip(
            values, self._log_ceiling - self.dynamic_range, self._log_ceiling
        )
        return np.round((clipped - self._log_ceiling) / step) * step + self._log_ceiling

    def _charges(self, n_queries: int) -> dict[str, tuple[list[int], list[float]]]:
        """Per query: K * (3 MAC for z^2, 1 exp LUT, 1 weight MAC, 1 acc)."""
        k = self.gmm.n_components
        bits = self.bits if self.bits is not None else 32
        entries = (
            ("mac", n_queries * 4 * k, self.node.mac_energy(bits)),
            ("exp_lut", n_queries * k, self.node.lut_energy_j),
            ("accumulate", n_queries * k, self.node.add_energy(bits)),
            # Fetch component parameters (7 words of `bits` each) from
            # local SRAM.
            (
                "sram_read_bit",
                n_queries * 7 * k * bits,
                self.node.sram_read_energy_per_bit_j,
            ),
        )
        return {
            operation: ([count], [count * energy_per_op_j])
            for operation, count, energy_per_op_j in entries
        }

    def energy_per_query(self) -> float:
        queries = self._ledger.count("exp_lut") // max(self.gmm.n_components, 1)
        if queries == 0:
            return 0.0
        return self._ledger.total_energy_j() / queries


class CIMArrayBackend(MapFieldBackend):
    """Inverter-array evaluation of an HMG mixture map.

    Args:
        array: a programmed :class:`InverterArray`.
        encoder: the world-to-voltage map used when programming the array.
    """

    def __init__(self, array: InverterArray, encoder: VoltageEncoder):
        self.array = array
        self.encoder = encoder
        # A single array is a bank of one: every point reads it.
        self._bank = ArrayBank({0: (array, encoder)}, 1, empty_log=-np.inf)

    @property
    def ledger(self) -> EnergyLedger:
        return self.array.ledger

    def plan_field_log(
        self,
        points: np.ndarray,
        rngs: Sequence[np.random.Generator | None],
    ) -> WavePlan:
        return self._bank.plan(points, np.zeros(points.shape[:2], dtype=int), rngs)

    def read_planned(self, plan: WavePlan) -> list[FieldReading]:
        """Every caller in one array pass."""
        return [
            FieldReading(values, charges)
            for values, charges in zip(*self._bank.read(plan))
        ]


class DepthScanMeasurementModel:
    """Likelihood of a depth scan under a map field backend.

    The per-particle log-likelihood is::

        log L(x) = (1 / T) * sum_i log( (1 - eps) * p_i(x) + eps * floor )

    where ``p_i`` is the map field at scan point i projected through the
    particle pose, ``floor`` is an auto-calibrated outlier level, and ``T``
    is a temperature controlling weight concentration (larger T = softer
    weights, compensating for the independence approximation across pixels).

    Args:
        backend: map field backend.
        camera_mount: camera-to-body transform.
        max_pixels: scan points subsampled per update.
        outlier_fraction: eps in the mixture with the floor level.
        temperature: T >= 1 softening factor.
    """

    def __init__(
        self,
        backend: MapFieldBackend,
        camera_mount: Pose | None = None,
        max_pixels: int = 48,
        outlier_fraction: float = 0.05,
        temperature: float = 4.0,
    ):
        if not 0.0 <= outlier_fraction < 1.0:
            raise ValueError("outlier_fraction must be in [0, 1)")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if max_pixels < 1:
            raise ValueError("max_pixels must be >= 1")
        self.backend = backend
        self.camera_mount = camera_mount or Pose.identity()
        self.max_pixels = int(max_pixels)
        self.outlier_fraction = float(outlier_fraction)
        self.temperature = float(temperature)
        self._log_floor: float | None = None

    def calibrate_floor(
        self, map_points: np.ndarray, rng: np.random.Generator | None = None
    ) -> float:
        """Set the outlier floor from field values at true surface points.

        The floor is the 5th percentile of the field on in-map points: scan
        points that project well off the map then contribute a bounded
        penalty instead of -inf.
        """
        values = self.backend.field_log(np.atleast_2d(map_points), rng=rng)
        self._log_floor = float(np.percentile(values, 5.0))
        return self._log_floor

    def subsample_scan(
        self, scan_points_cam: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniformly subsample scan points to ``max_pixels``."""
        scan = np.atleast_2d(np.asarray(scan_points_cam, dtype=float))
        if scan.shape[0] <= self.max_pixels:
            return scan
        idx = rng.choice(scan.shape[0], size=self.max_pixels, replace=False)
        return scan[idx]

    def log_likelihoods(
        self,
        states: np.ndarray,
        scans: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> tuple[np.ndarray, list[FieldReading]]:
        """The measurement half for W particle sets: per-particle scan
        log-likelihoods (W, N) for states (W, N, 4) and their W (M, 3)
        camera-frame scans, and each set's unmetered field reading.

        :meth:`project`, the backend's
        :meth:`~MapFieldBackend.plan_field_log` and
        :meth:`~MapFieldBackend.read_planned` (one hardware pass for
        every set), then :meth:`combine`.  Each set draws its scan
        subsample and read noise from its own generator in ``rngs``;
        charging its reading (:meth:`FieldReading.account`) is the
        caller's.
        """
        world = self.project(states, scans, rngs)
        plan = self.backend.plan_field_log(world.reshape(len(world), -1, 3), rngs)
        readings = self.backend.read_planned(plan)
        field = np.stack([reading.values for reading in readings])
        return self.combine(field.reshape(world.shape[:3])), readings

    def project(
        self,
        states: np.ndarray,
        scans: Sequence[np.ndarray],
        rngs: Sequence[np.random.Generator],
    ) -> np.ndarray:
        """Subsample each caller's scan and move it through every one of
        its particle poses: (W, N, M, 3) world points for states
        (W, N, 4).  Each scan subsample draws from its caller's
        generator; the subsamples must all have M points."""
        if self._log_floor is None:
            raise RuntimeError("call calibrate_floor() before log_likelihoods()")
        mounted = np.stack(
            [
                self.camera_mount.transform_points(self.subsample_scan(scan, rng))
                for scan, rng in zip(scans, rngs)
            ]
        )[:, None]
        yaw = states[..., YAW_INDEX]
        cos_y, sin_y = np.cos(yaw)[..., None], np.sin(yaw)[..., None]
        world = np.empty((*states.shape[:2], mounted.shape[2], 3))
        world[..., 0] = (
            cos_y * mounted[..., 0]
            - sin_y * mounted[..., 1]
            + states[:, :, None, 0]
        )
        world[..., 1] = (
            sin_y * mounted[..., 0]
            + cos_y * mounted[..., 1]
            + states[:, :, None, 1]
        )
        world[..., 2] = mounted[..., 2] + states[:, :, None, 2]
        return world

    def combine(self, field: np.ndarray) -> np.ndarray:
        """(..., N) log-likelihoods from the (..., N, M) field at
        projected points."""
        # Robust mixture with the floor, computed stably in the log domain.
        log_in = field + np.log1p(-self.outlier_fraction)
        log_out = self._log_floor + np.log(self.outlier_fraction + 1e-300)
        per_pixel = np.logaddexp(log_in, log_out)
        return per_pixel.sum(axis=-1) / self.temperature
