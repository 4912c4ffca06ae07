"""Typed, validated scenario specifications with strict JSON round-trip.

A :class:`ScenarioSpec` is a *declarative world description* for the
paper's flagship workload (particle-filter localization): map family and
fitting budget, trajectory profile, sensor suite and subsampling, noise
regime, sensor-dropout schedule, precision overrides and the duration /
seed policy.  It carries **no** execution state -- the builder in
:mod:`repro.scenarios.world` compiles a spec into the existing
``scene`` / ``maps`` / ``filtering`` stack, and
:mod:`repro.scenarios.runner` compiles spec grids onto the
Plan/JobSpec runtime.

The JSON contract is strict both ways:

- :meth:`ScenarioSpec.to_json` is canonical (sorted keys, compact
  separators), so equal specs serialize to byte-identical text.
- :meth:`ScenarioSpec.from_json` rejects unknown fields and wrong types
  with a field-path error instead of silently dropping them, and
  round-trips canonical text bit-exactly:
  ``to_json(from_json(text)) == text`` and
  ``from_json(to_json(spec)) == spec``.

Both directions are the shared config codec of
:mod:`repro.api.results`: ``to_jsonable`` writes the payload, and
``replace_fields`` decodes it with the typed check ``--set`` overrides
use (minus their literal parsing, so a string is never a number).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.results import replace_fields, to_jsonable

__all__ = [
    "InitSpec",
    "MapSpec",
    "NoiseSpec",
    "PrecisionSpec",
    "ScenarioSpec",
    "SensorSpec",
    "TrajectorySpec",
]

MAP_FAMILIES = ("room", "tabletop")
TRAJECTORY_PROFILES = ("orbit", "figure8", "hover")
FIT_MODES = ("direct", "convert")
INIT_MODES = ("tracking", "global")


@dataclass(frozen=True)
class MapSpec:
    """Map family and fitting configuration.

    Attributes:
        family: scene generator family (``"room"`` or ``"tabletop"``).
        size: room side length / table-top side length (m).
        height: room ceiling height / table-top height (m).
        clutter: furniture count (room) or object count (tabletop).
        cloud_points: mapping point-cloud size fed to the fitters.
        cloud_noise_std: scanner noise of the mapping cloud (m).
        n_components: mixture components of the map model.
        fit_mode: ``"direct"`` fits the HMG mixture straight to the
            cloud; ``"convert"`` derives it from the GMM by width
            snapping + weight re-fit (the misfit path).
        min_sigma: GMM regularisation floor (m).
        tiles: CIM tile grid ((1, 1, 1) = single array).
        total_columns: inverter-array column budget.
    """

    family: str = "room"
    size: float = 4.0
    height: float = 2.6
    clutter: int = 5
    cloud_points: int = 3000
    cloud_noise_std: float = 0.01
    n_components: int = 48
    fit_mode: str = "direct"
    min_sigma: float = 0.08
    tiles: tuple[int, int, int] = (2, 2, 2)
    total_columns: int = 500


@dataclass(frozen=True)
class TrajectorySpec:
    """Flight profile of the (simulated) drone.

    Attributes:
        profile: ``"orbit"`` (circle, heading tangent), ``"figure8"``
            (Gerono lemniscate) or ``"hover"`` (station keeping with a
            small deterministic bob).
        n_steps: sequence duration in filter steps.
        radius: orbit radius / figure-8 half-width / hover offset (m).
        height: mean flight height (m).
        sweep_rad: total swept parameter angle.
        height_wobble: sinusoidal height variation amplitude (m).
        start_angle: initial azimuth (rad).
    """

    profile: str = "orbit"
    n_steps: int = 20
    radius: float = 1.3
    height: float = 1.2
    sweep_rad: float = 6.283185307179586
    height_wobble: float = 0.15
    start_angle: float = 0.0


@dataclass(frozen=True)
class SensorSpec:
    """Depth-sensor suite, subsampling and dropout schedule.

    A step ``t`` is inside a dropout burst when ``dropout_steps > 0``
    and ``(t - dropout_start) % dropout_period`` (or ``t -
    dropout_start`` when ``dropout_period == 0``, i.e. a single burst)
    falls in ``[0, dropout_steps)``; in such steps ``dropout_fraction``
    of the valid pixels are blanked to NaN (a handful always survive so
    the measurement model keeps a scan).

    Attributes:
        width / height: depth image resolution.
        fov_x_deg: horizontal field of view.
        pitch_deg: camera mount pitch below the horizon (deg).
        max_pixels: scan points used per measurement update.
        dropout_fraction: fraction of valid pixels blanked in a burst.
        dropout_start: first step of the (first) burst.
        dropout_steps: burst length in steps (0 disables dropout).
        dropout_period: burst repetition period (0 = single burst).
    """

    width: int = 32
    height: int = 24
    fov_x_deg: float = 70.0
    pitch_deg: float = 25.0
    max_pixels: int = 48
    dropout_fraction: float = 0.0
    dropout_start: int = 0
    dropout_steps: int = 0
    dropout_period: int = 0


@dataclass(frozen=True)
class NoiseSpec:
    """Noise regime: sensor, odometry and analog-hardware noise.

    Attributes:
        depth_noise_std: relative depth noise (sigma = std * depth).
        odometry_noise: additive control noise std (per component).
        odometry_bias: constant forward-axis control bias (m/step) --
            the drift generator for long-duration scenarios.
        with_mismatch: sample process variation for the CIM array.
        with_noise: add analog read noise to CIM evaluations.
    """

    depth_noise_std: float = 0.0
    odometry_noise: float = 0.0
    odometry_bias: float = 0.0
    with_mismatch: bool = True
    with_noise: bool = True


@dataclass(frozen=True)
class PrecisionSpec:
    """Precision overrides of the likelihood backends.

    Attributes:
        adc_bits: log-ADC resolution of the CIM backend.
        digital_bits: datapath precision of the digital baseline.
        temperature: measurement softening temperature.
    """

    adc_bits: int = 4
    digital_bits: int = 8
    temperature: float = 8.0


@dataclass(frozen=True)
class InitSpec:
    """Filter initialization policy.

    Attributes:
        mode: ``"tracking"`` (prior around the true start pose) or
            ``"global"`` (uniform over the map volume -- GPS-denied).
        offset: prior mean offset from the true start state (tracking).
        sigma: prior standard deviations (tracking).
        z_range: optional height bounds for global initialization.
    """

    mode: str = "tracking"
    offset: tuple[float, float, float, float] = (0.4, -0.3, 0.15, 0.2)
    sigma: tuple[float, float, float, float] = (0.5, 0.5, 0.3, 0.3)
    z_range: tuple[float, float] | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario.

    Attributes:
        name: registry handle (kebab-case).
        description: one-line summary shown by ``repro scenarios list``.
        tags: free-form labels for filtering (``--tag``).
        world_seed: seed of the *world* (scene layout, cloud, sensor
            noise, dropout pattern, map fitting, hardware
            instantiation).  Per-run randomness -- the filter's prior
            draw, motion sampling, resampling -- comes from the job
            seed instead, so one scenario world supports many
            independent runs.
        n_particles: particle count of the filter.
        map / trajectory / sensor / noise / precision / init: the
            section specs above.
    """

    name: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()
    world_seed: int = 7
    n_particles: int = 300
    map: MapSpec = field(default_factory=MapSpec)
    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    sensor: SensorSpec = field(default_factory=SensorSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    precision: PrecisionSpec = field(default_factory=PrecisionSpec)
    init: InitSpec = field(default_factory=InitSpec)

    # -- validation --------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check every field; raises ``ValueError`` with a field path."""
        _require(bool(self.name), "name", "must be non-empty")
        _require(
            all(c.isalnum() or c in "-_" for c in self.name)
            and self.name[0].isalnum(),
            "name",
            f"must be kebab-case (letters, digits, '-', '_'), got {self.name!r}",
        )
        _require(self.world_seed >= 0, "world_seed", "must be >= 0")
        _require(self.n_particles >= 1, "n_particles", "must be >= 1")

        m = self.map
        _require(
            m.family in MAP_FAMILIES,
            "map.family",
            f"must be one of {MAP_FAMILIES}, got {m.family!r}",
        )
        _require(m.size > 0, "map.size", "must be > 0")
        _require(m.height > 0, "map.height", "must be > 0")
        _require(m.clutter >= 0, "map.clutter", "must be >= 0")
        _require(m.cloud_points >= 16, "map.cloud_points", "must be >= 16")
        _require(m.cloud_noise_std >= 0, "map.cloud_noise_std", "must be >= 0")
        _require(m.n_components >= 1, "map.n_components", "must be >= 1")
        _require(
            m.fit_mode in FIT_MODES,
            "map.fit_mode",
            f"must be one of {FIT_MODES}, got {m.fit_mode!r}",
        )
        _require(m.min_sigma > 0, "map.min_sigma", "must be > 0")
        _require(
            len(m.tiles) == 3 and all(t >= 1 for t in m.tiles),
            "map.tiles",
            f"must be three counts >= 1, got {m.tiles!r}",
        )
        _require(m.total_columns >= 1, "map.total_columns", "must be >= 1")

        t = self.trajectory
        _require(
            t.profile in TRAJECTORY_PROFILES,
            "trajectory.profile",
            f"must be one of {TRAJECTORY_PROFILES}, got {t.profile!r}",
        )
        _require(t.n_steps >= 1, "trajectory.n_steps", "must be >= 1")
        _require(t.radius > 0, "trajectory.radius", "must be > 0")
        _require(t.height > 0, "trajectory.height", "must be > 0")
        _require(t.sweep_rad > 0, "trajectory.sweep_rad", "must be > 0")
        _require(
            t.height_wobble >= 0, "trajectory.height_wobble", "must be >= 0"
        )

        s = self.sensor
        _require(s.width >= 4, "sensor.width", "must be >= 4")
        _require(s.height >= 4, "sensor.height", "must be >= 4")
        _require(
            10.0 <= s.fov_x_deg <= 170.0,
            "sensor.fov_x_deg",
            "must be in [10, 170]",
        )
        _require(
            -89.0 <= s.pitch_deg <= 89.0,
            "sensor.pitch_deg",
            "must be in [-89, 89]",
        )
        _require(s.max_pixels >= 1, "sensor.max_pixels", "must be >= 1")
        _require(
            0.0 <= s.dropout_fraction <= 0.95,
            "sensor.dropout_fraction",
            "must be in [0, 0.95]",
        )
        _require(s.dropout_start >= 0, "sensor.dropout_start", "must be >= 0")
        _require(s.dropout_steps >= 0, "sensor.dropout_steps", "must be >= 0")
        _require(
            s.dropout_period == 0 or s.dropout_period >= s.dropout_steps,
            "sensor.dropout_period",
            "must be 0 (single burst) or >= dropout_steps",
        )
        if s.dropout_steps > 0:
            _require(
                s.dropout_fraction > 0,
                "sensor.dropout_fraction",
                "must be > 0 when dropout_steps > 0",
            )

        n = self.noise
        _require(n.depth_noise_std >= 0, "noise.depth_noise_std", "must be >= 0")
        _require(n.odometry_noise >= 0, "noise.odometry_noise", "must be >= 0")

        p = self.precision
        _require(1 <= p.adc_bits <= 12, "precision.adc_bits", "must be in [1, 12]")
        _require(
            1 <= p.digital_bits <= 32,
            "precision.digital_bits",
            "must be in [1, 32]",
        )
        _require(p.temperature > 0, "precision.temperature", "must be > 0")

        i = self.init
        _require(
            i.mode in INIT_MODES,
            "init.mode",
            f"must be one of {INIT_MODES}, got {i.mode!r}",
        )
        _require(len(i.offset) == 4, "init.offset", "must have 4 components")
        _require(
            len(i.sigma) == 4 and all(v > 0 for v in i.sigma),
            "init.sigma",
            "must have 4 positive components",
        )
        if i.z_range is not None:
            _require(
                len(i.z_range) == 2 and i.z_range[0] < i.z_range[1],
                "init.z_range",
                "must be (low, high) with low < high",
            )
        return self

    # -- budget shrinking --------------------------------------------------

    def tiny(self) -> "ScenarioSpec":
        """A budget-capped copy for smokes and property tests.

        Caps only the *cost* axes (steps, pixels, points, components,
        particles, tiles) while preserving the scenario's character --
        noise regime, precision, init policy and the dropout schedule
        (shifted into the shortened sequence) survive.
        """
        t = self.trajectory
        s = self.sensor
        n_steps = min(t.n_steps, 4)
        dropout_steps = min(s.dropout_steps, 2)
        dropout_start = (
            min(s.dropout_start, 1) if dropout_steps > 0 else s.dropout_start
        )
        dropout_period = (
            0
            if s.dropout_period == 0
            else max(min(s.dropout_period, 3), dropout_steps)
        )
        return dataclasses.replace(
            self,
            n_particles=min(self.n_particles, 48),
            map=dataclasses.replace(
                self.map,
                cloud_points=min(self.map.cloud_points, 300),
                n_components=min(self.map.n_components, 6),
                total_columns=min(self.map.total_columns, 60),
                tiles=(1, 1, 1),
            ),
            trajectory=dataclasses.replace(t, n_steps=n_steps),
            sensor=dataclasses.replace(
                s,
                width=min(s.width, 16),
                height=min(s.height, 12),
                max_pixels=min(s.max_pixels, 16),
                dropout_start=dropout_start,
                dropout_steps=dropout_steps,
                dropout_period=dropout_period,
            ),
        )

    # -- strict JSON -------------------------------------------------------

    def to_jsonable(self) -> dict:
        """Nested plain-JSON payload (tuples as lists)."""
        return to_jsonable(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators."""
        # repro: ignore[DET006] validate() pins every float finite first
        return json.dumps(
            self.to_jsonable(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Strict parse: unknown fields and wrong types raise.

        The payload is walked from the ``ScenarioSpec()`` defaults by
        :func:`~repro.api.results.replace_fields`, the decoder ``--set``
        overrides share; no string is literal-parsed here, so ``"300"``
        given for a number is a type error.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"scenario spec must be an object, got {type(payload).__name__}"
            )
        return replace_fields(cls(), payload, "scenario spec").validate()

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(f"scenario spec is not valid JSON: {error}") from None
        return cls.from_jsonable(payload)


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ValueError(f"scenario spec field {path!r} {message}")
