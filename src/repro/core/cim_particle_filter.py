"""CIM particle-filter drone localization (paper Sec. II).

:class:`CIMParticleFilterLocalizer` assembles the full co-designed stack:

    point-cloud map -> GMM fit -> HMG mixture (hardware widths, re-fit
    weights) -> programmed inverter array -> depth-scan measurement model
    -> SIR particle filter

and exposes the same pipeline over three interchangeable likelihood
backends so the paper's comparisons (Fig. 2e-i) are one argument away:

- ``"cim"``:           4-bit HMGM inverter-array evaluation (the proposal);
- ``"digital"``:       8-bit digital GMM processor (the baseline);
- ``"digital-float"``: exact float GMM (oracle reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.energy import EnergyLedger
from repro.circuits.inverter_array import VoltageEncoder
from repro.circuits.noise import NoiseModel
from repro.circuits.technology import NODE_45NM, TechnologyNode
from repro.circuits.variability import MismatchSampler
from repro.core.codesign import (
    CoDesignReport,
    program_inverter_array,
)
from repro.core.tiling import (
    TiledCIMBackend,
    TiledInverterArrayMap,
    tiled_sigma_menu,
)
from repro.filtering.measurement import (
    CIMArrayBackend,
    DepthScanMeasurementModel,
    DigitalGMMBackend,
)
from repro.filtering.motion import OdometryMotionModel
from repro.filtering.particle_filter import ParticleFilter, StepDiagnostics
from repro.filtering.particles import ParticleSet
from repro.maps.gmm import GaussianMixture
from repro.maps.hmgm import HMGMixture
from repro.scene.camera import PinholeCamera
from repro.scene.se3 import Pose

BACKENDS = ("cim", "digital", "digital-float")


def converged_step(errors: np.ndarray, threshold: float = 0.5) -> int | None:
    """First step whose error drops (and stays) below ``threshold``.

    Vectorised suffix check: the run has converged from one past the
    last above-threshold step, provided anything follows it.
    """
    below = np.asarray(errors) < threshold
    if below.size == 0 or not below[-1]:
        return None
    above = np.flatnonzero(~below)
    return 0 if above.size == 0 else int(above[-1]) + 1


@dataclass
class LocalizationResult:
    """Outcome of a localization run.

    Attributes:
        estimates: (T, 4) posterior-mean states per step.
        errors: (T,) position errors against ground truth (m).
        diagnostics: per-step filter diagnostics.
        energy: the likelihood backend's energy ledger.
        backend: backend name.
    """

    estimates: np.ndarray
    errors: np.ndarray
    diagnostics: list[StepDiagnostics]
    energy: EnergyLedger
    backend: str

    @property
    def final_error(self) -> float:
        """Last-step position error; NaN for an empty trajectory."""
        if self.errors.size == 0:
            return float("nan")
        return float(self.errors[-1])

    def summary_row(self) -> dict:
        """Flat report row: accuracy figures plus per-query energy."""
        errors = self.errors
        energy_per_query = None
        if self.backend == "cim":
            energy_per_query = self.energy.total_energy_j() / max(
                self.energy.count("adc_conversion"), 1
            )
        empty = errors.size == 0
        return {
            "backend": self.backend,
            "initial_error_m": float("nan") if empty else float(errors[0]),
            "final_error_m": self.final_error,
            "steady_state_error_m": (
                float("nan") if empty else float(errors[len(errors) // 2 :].mean())
            ),
            "energy_per_query": energy_per_query,
        }


class CIMParticleFilterLocalizer:
    """End-to-end co-designed Monte-Carlo localization.

    Args:
        map_cloud: (N, 3) world point cloud of the flying domain.
        camera: depth-camera intrinsics.
        camera_mount: camera-to-body transform (e.g. pitched down).
        node: technology node (default 45 nm as in the paper).
        n_components: mixture components in the map model.
        total_columns: inverter-array column budget (paper: 500).
        backend: "cim", "digital", or "digital-float".
        n_particles: particle count.
        adc_bits: log-ADC resolution for the CIM backend (paper: 4).
        digital_bits: datapath precision of the digital baseline (paper: 8).
        max_pixels: scan points used per measurement update.
        temperature: measurement softening (see DepthScanMeasurementModel).
        with_mismatch: sample process variation for the array.
        with_noise: add analog noise to array evaluations.
        min_sigma: GMM regularisation floor (m).
        tiles: tile grid for the CIM map ((1,1,1) = single array; the
            default (2,2,2) doubles the effective kernel resolution, see
            :mod:`repro.core.tiling`).
        fit_mode: "direct" fits the HMG mixture straight to the cloud with
            the hardware width menu (the paper's co-design); "convert"
            derives it from the GMM by width snapping + NNLS weight re-fit.
        rng: generator for map fitting and hardware instantiation.
    """

    def __init__(
        self,
        map_cloud: np.ndarray,
        camera: PinholeCamera,
        camera_mount: Pose | None = None,
        node: TechnologyNode = NODE_45NM,
        n_components: int = 48,
        total_columns: int = 500,
        backend: str = "cim",
        n_particles: int = 300,
        adc_bits: int = 4,
        digital_bits: int = 8,
        max_pixels: int = 48,
        temperature: float = 8.0,
        with_mismatch: bool = True,
        with_noise: bool = True,
        min_sigma: float = 0.08,
        tiles: tuple[int, int, int] = (2, 2, 2),
        fit_mode: str = "direct",
        rng: np.random.Generator | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if fit_mode not in ("direct", "convert"):
            raise ValueError("fit_mode must be 'direct' or 'convert'")
        rng = rng or np.random.default_rng(0)
        self.backend_name = backend
        self.camera = camera
        self.camera_mount = camera_mount or Pose.identity()
        self.node = node
        self.n_particles = int(n_particles)
        self.tiles = tuple(int(t) for t in tiles)
        map_cloud = np.asarray(map_cloud, dtype=float)
        self.map_cloud = map_cloud

        lo, hi = map_cloud.min(axis=0), map_cloud.max(axis=0)
        self.bounds = (lo, hi)
        pad = 0.2
        self.encoder = VoltageEncoder(
            lo=lo - pad, hi=hi + pad, vdd=node.vdd, margin=0.08
        )

        # Stage 1: conventional GMM map (shared by all backends).
        self.gmm = GaussianMixture.fit(
            map_cloud, n_components, rng, min_sigma=min_sigma
        )
        # Stage 2: co-designed HMG mixture on the (tiled) hardware width menu.
        menu = tiled_sigma_menu(node, lo - pad, hi + pad, self.tiles)
        if fit_mode == "direct":
            self.hmgm = HMGMixture.fit(
                map_cloud, n_components, rng, sigma_menu=menu
            )
        else:
            refine = map_cloud[
                rng.choice(
                    map_cloud.shape[0],
                    size=min(800, map_cloud.shape[0]),
                    replace=False,
                )
            ]
            self.hmgm = HMGMixture.from_gmm(
                self.gmm, sigma_menu=menu, refine_points=refine
            )
        # Stage 3: backend.
        self.codesign_report: CoDesignReport | None = None
        self.array = None
        self.tiled_map: TiledInverterArrayMap | None = None
        if backend == "cim":
            mismatch = MismatchSampler(node) if with_mismatch else None
            noise = NoiseModel(node) if with_noise else None
            if self.tiles == (1, 1, 1):
                self.array, self.codesign_report = program_inverter_array(
                    self.hmgm,
                    self.encoder,
                    node,
                    total_columns=total_columns,
                    adc_bits=adc_bits,
                    mismatch=mismatch,
                    noise=noise,
                    rng=rng,
                )
                field_backend = CIMArrayBackend(self.array, self.encoder)
            else:
                self.tiled_map = TiledInverterArrayMap(
                    self.hmgm,
                    lo - pad,
                    hi + pad,
                    node,
                    tiles=self.tiles,
                    columns_per_component=total_columns / max(n_components, 1),
                    adc_bits=adc_bits,
                    mismatch=mismatch,
                    noise=noise,
                    rng=rng,
                )
                field_backend = TiledCIMBackend(self.tiled_map)
        else:
            bits = None if backend == "digital-float" else digital_bits
            field_backend = DigitalGMMBackend(self.gmm, node, bits=bits)
        self.field_backend = field_backend

        # Stage 4: measurement model + particle filter.
        self.measurement_model = DepthScanMeasurementModel(
            field_backend,
            camera_mount=self.camera_mount,
            max_pixels=max_pixels,
            temperature=temperature,
        )
        calib = map_cloud[
            rng.choice(map_cloud.shape[0], size=min(400, map_cloud.shape[0]), replace=False)
        ]
        self.measurement_model.calibrate_floor(calib, rng=rng)
        span = hi - lo
        self.filter = ParticleFilter(
            OdometryMotionModel(),
            self.measurement_model,
            roughening=np.array([0.01 * span[0], 0.01 * span[1], 0.01 * span[2], 0.01]),
        )

    def initialize_global(
        self, rng: np.random.Generator, z_range: tuple[float, float] | None = None
    ) -> None:
        """Global localization: particles uniform over the map volume."""
        lo, hi = self.bounds
        z_lo, z_hi = z_range if z_range is not None else (lo[2], hi[2])
        particle_lo = np.array([lo[0], lo[1], z_lo, -np.pi])
        particle_hi = np.array([hi[0], hi[1], z_hi, np.pi])
        self.filter.initialize(
            ParticleSet.uniform(particle_lo, particle_hi, self.n_particles, rng)
        )

    def initialize_tracking(
        self,
        state: np.ndarray,
        sigma: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Pose tracking: particles around a known prior state."""
        self.filter.initialize(
            ParticleSet.gaussian(state, sigma, self.n_particles, rng)
        )

    def scan_points(self, depth: np.ndarray) -> np.ndarray:
        """Backproject a depth image into valid camera-frame scan points."""
        points = self.camera.backproject(depth)
        if points.shape[0] == 0:
            raise ValueError("depth image contains no valid pixels")
        return points

    def step(
        self, control: np.ndarray, depth: np.ndarray, rng: np.random.Generator
    ) -> StepDiagnostics:
        """One localization cycle from an odometry control and a depth frame."""
        scan = self.scan_points(depth)
        return self.filter.step(control, scan, rng)

    def run(
        self,
        controls: np.ndarray,
        depths: list[np.ndarray],
        ground_truth: np.ndarray,
        rng: np.random.Generator,
    ) -> LocalizationResult:
        """Run a full sequence.

        Args:
            controls: (T, 4) body-frame odometry increments (control[t]
                moves state t to state t+1; pass a zero first row to align
                with frames).
            depths: T depth frames.
            ground_truth: (T, 4) true states.
            rng: generator.

        Returns:
            A :class:`LocalizationResult` whose energy ledger covers this
            sequence only (the backend's own ledger keeps accumulating).
        """
        controls = np.atleast_2d(np.asarray(controls, dtype=float))
        if controls.shape[0] != len(depths):
            raise ValueError("controls and depths length mismatch")
        ground_truth = np.atleast_2d(np.asarray(ground_truth, dtype=float))
        if ground_truth.shape[0] != len(depths):
            raise ValueError("ground truth and depths length mismatch")
        ledger = self.field_backend.ledger
        scope = ledger.begin_scope()
        try:
            diagnostics = [
                self.step(control, depth, rng)
                for control, depth in zip(controls, depths)
            ]
        finally:
            ledger.end_scope(scope)
        estimates = np.stack([d.estimate for d in diagnostics], axis=0)
        return LocalizationResult(
            estimates=estimates,
            errors=np.linalg.norm(estimates[:, :3] - ground_truth[:, :3], axis=1),
            diagnostics=diagnostics,
            energy=scope,
            backend=self.backend_name,
        )
