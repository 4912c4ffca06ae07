"""Substrate registry and uniform inference sessions.

The paper's comparisons run the *same* Bayesian workloads on
interchangeable compute substrates (digital baseline vs. CIM with reuse /
ordering).  This module gives every substrate one name, one config and one
``session.run(inputs) -> InferenceResult`` interface:

    from repro.api import get_substrate

    substrate = get_substrate("cim-ordered")
    session = substrate.mc_dropout_session(model, n_iterations=30)
    result = session.run(features)          # InferenceResult
    result.mean, result.variance, result.energy_j, result.reuse_savings

Built-in substrates:

- ``digital``       -- software / digital-datapath baseline
- ``digital-float`` -- exact float oracle (localization only)
- ``cim``           -- SRAM / inverter-array CIM, no reuse, no ordering
- ``cim-reuse``     -- CIM + compute reuse (delta evaluation)
- ``cim-ordered``   -- CIM + reuse + optimal sample ordering (full recipe)

New substrates are added with :func:`register_substrate`; experiments look
them up by name so a registered substrate is immediately runnable from the
CLI via ``--substrate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.api.results import BatchResult, InferenceResult
from repro.bayesian.masks import MaskStream
from repro.bayesian.mc_dropout import MCDropoutPredictor
from repro.core.cim_mc_dropout import CIMMCDropoutEngine, MCDropoutResult
from repro.core.cim_particle_filter import CIMParticleFilterLocalizer
from repro.energy.models import digital_mc_dropout_energy
from repro.nn.dropout import Dropout
from repro.nn.layers import Dense
from repro.nn.sequential import Sequential
from repro.sram.macro import MacroConfig


@dataclass(frozen=True)
class ReusePolicy:
    """Compute-reuse knobs of the CIM MC-Dropout engine.

    Attributes:
        reuse: drive only changed input lines via the macro delta port.
        ordering: visit dropout masks in minimum-Hamming order.
        refresh_every: full re-evaluation period under reuse (bounds
            analog error accumulation); 0 disables refresh.
    """

    reuse: bool = False
    ordering: bool = False
    refresh_every: int = 8


@dataclass(frozen=True)
class MacroOptions:
    """CIM macro precision / RNG options (subset of MacroConfig).

    Attributes:
        weight_bits: stored weight precision (paper: 4 or 6).
        input_bits: input DAC precision.
        adc_bits: column ADC precision.
        use_hardware_rng: draw dropout masks from the SRAM-immersed
            cross-coupled-inverter RNG instead of a software stream.
        calibrate_rng: run the CCI bias-trim calibration before use.
    """

    weight_bits: int = 4
    input_bits: int = 6
    adc_bits: int = 6
    use_hardware_rng: bool = True
    calibrate_rng: bool = True

    def to_macro_config(self) -> MacroConfig:
        return MacroConfig(
            weight_bits=self.weight_bits,
            input_bits=self.input_bits,
            adc_bits=self.adc_bits,
        )


@dataclass(frozen=True)
class SubstrateConfig:
    """A named, registrable compute substrate.

    Attributes:
        name: registry handle (e.g. ``"cim-reuse"``).
        kind: ``"digital"`` or ``"cim"`` -- selects the engine family.
        description: one-line summary shown by ``repro list``.
        macro: CIM macro options (ignored for digital substrates).
        reuse: CIM reuse policy (ignored for digital substrates).
        likelihood_backend: particle-filter likelihood backend this
            substrate maps to (``"cim"``, ``"digital"``, ``"digital-float"``).
        digital_bits: datapath precision of the digital baseline.
    """

    name: str
    kind: str
    description: str = ""
    macro: MacroOptions = field(default_factory=MacroOptions)
    reuse: ReusePolicy = field(default_factory=ReusePolicy)
    likelihood_backend: str = "cim"
    digital_bits: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("digital", "cim"):
            raise ValueError(f"kind must be 'digital' or 'cim', got {self.kind!r}")

    def mc_dropout_session(
        self,
        model: Sequential,
        n_iterations: int = 30,
        calibration_inputs: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ) -> "MCDropoutSession":
        """An MC-Dropout inference session over ``model``."""
        return MCDropoutSession(
            self,
            model,
            n_iterations=n_iterations,
            calibration_inputs=calibration_inputs,
            rng=rng,
        )

    def localization_session(
        self,
        map_cloud: np.ndarray,
        camera: Any,
        rng: np.random.Generator | None = None,
        **localizer_kwargs: Any,
    ) -> "LocalizationSession":
        """A particle-filter localization session over ``map_cloud``."""
        return LocalizationSession(
            self, map_cloud, camera, rng=rng, **localizer_kwargs
        )


@dataclass(frozen=True)
class MaskPlan:
    """Pre-drawn dropout mask streams (and visit order) for a session.

    A batch of inference calls shares one mask plan: the streams are
    drawn once -- amortising software sampling and hardware RNG cycles --
    and pinned into every item's engine pass, and
    :meth:`MCDropoutSession.run_batch` runs the O(T^2) ordering search
    once per plan.  Obtained from :meth:`MCDropoutSession.draw_masks`.

    Attributes:
        streams: per-mapped-layer streams for CIM engines (None entries
            where a stage has no dropout) or per-Dropout-layer streams
            for the digital predictor.
        order: iteration visit order (None: the engine's ordering policy
            picks it where the plan runs).
        generation_energy_j: hardware RNG energy spent drawing the
            streams (0 for software sampling).
    """

    streams: tuple
    order: np.ndarray | None = None
    generation_energy_j: float = 0.0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SUBSTRATES: dict[str, SubstrateConfig] = {}


def register_substrate(
    config: SubstrateConfig, overwrite: bool = False
) -> SubstrateConfig:
    """Register a substrate under ``config.name``; returns it.

    Raises:
        ValueError: the name is taken and ``overwrite`` is False.
    """
    key = config.name.lower()
    if key in _SUBSTRATES and not overwrite:
        raise ValueError(
            f"substrate {config.name!r} already registered "
            "(pass overwrite=True to replace)"
        )
    _SUBSTRATES[key] = config
    return config


def get_substrate(name: str | SubstrateConfig) -> SubstrateConfig:
    """Resolve a substrate by name (configs pass through unchanged)."""
    if isinstance(name, SubstrateConfig):
        return name
    key = str(name).lower()
    if key not in _SUBSTRATES:
        raise KeyError(
            f"unknown substrate {name!r}; options: {available_substrates()}"
        )
    return _SUBSTRATES[key]


def available_substrates() -> list[str]:
    """Registered substrate names, sorted."""
    return sorted(_SUBSTRATES)


register_substrate(
    SubstrateConfig(
        name="digital",
        kind="digital",
        description="software / 8-bit digital-datapath baseline",
        likelihood_backend="digital",
    )
)
register_substrate(
    SubstrateConfig(
        name="digital-float",
        kind="digital",
        description="exact float oracle (digital, no quantisation)",
        likelihood_backend="digital-float",
    )
)
register_substrate(
    SubstrateConfig(
        name="cim",
        kind="cim",
        description="CIM macro / inverter array, no reuse, no ordering",
        reuse=ReusePolicy(reuse=False, ordering=False),
    )
)
register_substrate(
    SubstrateConfig(
        name="cim-reuse",
        kind="cim",
        description="CIM + compute reuse (delta evaluation)",
        reuse=ReusePolicy(reuse=True, ordering=False),
    )
)
register_substrate(
    SubstrateConfig(
        name="cim-ordered",
        kind="cim",
        description="CIM + reuse + optimal sample ordering (full recipe)",
        reuse=ReusePolicy(reuse=True, ordering=True),
    )
)


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


class MCDropoutSession:
    """MC-Dropout inference on one substrate.

    Digital substrates run the software reference predictor (with a
    closed-form digital-datapath energy model); CIM substrates run
    :class:`~repro.core.cim_mc_dropout.CIMMCDropoutEngine` configured from
    the substrate's macro options and reuse policy.  Given identical RNGs
    the session reproduces the wrapped engine's outputs bit-for-bit.
    """

    workload = "mc-dropout"

    def __init__(
        self,
        substrate: SubstrateConfig | str,
        model: Sequential,
        n_iterations: int = 30,
        calibration_inputs: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ):
        self.substrate = get_substrate(substrate)
        self.model = model
        self.n_iterations = int(n_iterations)
        self._rng = rng or np.random.default_rng(0)
        if self.substrate.kind == "cim":
            self.engine: CIMMCDropoutEngine | MCDropoutPredictor = (
                CIMMCDropoutEngine(
                    model,
                    self.substrate.macro.to_macro_config(),
                    n_iterations=self.n_iterations,
                    use_hardware_rng=self.substrate.macro.use_hardware_rng,
                    reuse=self.substrate.reuse.reuse,
                    ordering=self.substrate.reuse.ordering,
                    refresh_every=self.substrate.reuse.refresh_every,
                    calibrate_rng=self.substrate.macro.calibrate_rng,
                    calibration_inputs=calibration_inputs,
                    rng=self._rng,
                )
            )
        else:
            self.engine = MCDropoutPredictor(
                model, n_iterations=self.n_iterations, rng=self._rng
            )

    def draw_masks(self, rng: np.random.Generator | None = None) -> MaskPlan:
        """Draw one set of mask streams for later pinning.

        The returned :class:`MaskPlan` can be passed to :meth:`run` /
        :meth:`run_batch` so many inference calls share identical masks
        without re-drawing them -- the amortisation the batch runtime
        relies on.  With the hardware RNG the plan also carries the
        generation energy, which :meth:`run_batch` accounts once at the
        batch level instead of charging it to any single item.  The plan
        carries no visit order: the engine's ordering policy picks it
        where the plan runs, once per plan in :meth:`run_batch`.
        """
        rng = rng if rng is not None else self._rng
        if isinstance(self.engine, CIMMCDropoutEngine):
            generator = self.engine.bit_generator
            cycles_before = generator.cycles_used if generator is not None else 0
            streams = self.engine.draw_mask_streams(rng)
            energy = (
                generator.generation_energy(
                    cycles=generator.cycles_used - cycles_before
                )
                if generator is not None
                else 0.0
            )
            return MaskPlan(streams=tuple(streams), generation_energy_j=energy)
        streams = _bernoulli_streams(self.model, self.n_iterations, rng)
        return MaskPlan(streams=tuple(streams), order=None)

    def run(
        self,
        inputs: np.ndarray,
        rng: np.random.Generator | None = None,
        masks: MaskPlan | None = None,
    ) -> InferenceResult:
        """One MC-Dropout inference over an input batch.

        Args:
            inputs: (B, in) feature batch.
            rng: per-call generator (mask drawing + analog noise); default
                is the session's own generator.
            masks: pre-drawn mask plan (see :meth:`draw_masks`) pinning
                the dropout streams instead of drawing fresh ones.
        """
        x = np.atleast_2d(np.asarray(inputs, dtype=float))
        if isinstance(self.engine, CIMMCDropoutEngine):
            return self._cim_result(
                self.engine.predict(
                    x,
                    rng=rng,
                    mask_streams=None if masks is None else list(masks.streams),
                    mask_order=None if masks is None else masks.order,
                )
            )
        # Honour a per-call rng on the digital path too: the software
        # predictor samples masks from the model's dropout layers, so an
        # explicit rng is routed in as pinned Bernoulli streams.
        mask_streams = None
        if masks is not None:
            mask_streams = list(masks.streams)
        elif rng is not None:
            mask_streams = _bernoulli_streams(self.model, self.n_iterations, rng)
        prediction = self.engine.predict(x, mask_streams=mask_streams)
        ops = self.engine.ops_per_iteration(x.shape[0]) * self.n_iterations
        layer_sizes = _dense_layer_sizes(self.model)
        energy = digital_mc_dropout_energy(
            self.substrate.macro.to_macro_config().node,
            layer_sizes,
            bits=self.substrate.digital_bits,
            n_iterations=self.n_iterations,
            batch=x.shape[0],
        )
        return InferenceResult(
            substrate=self.substrate.name,
            workload=self.workload,
            mean=prediction.mean,
            variance=prediction.variance,
            samples=prediction.samples,
            ops_executed=ops,
            ops_naive=ops,
            energy_j=energy,
            energy_breakdown_j={"digital_mac_datapath": energy},
            extras={"n_iterations": self.n_iterations},
        )

    def _cim_result(self, result: MCDropoutResult) -> InferenceResult:
        """The session view of one engine call (metered per call)."""
        ledger = result.energy
        return InferenceResult(
            substrate=self.substrate.name,
            workload=self.workload,
            mean=result.mean,
            variance=result.variance,
            samples=result.samples,
            ops_executed=result.ops_executed,
            ops_naive=result.ops_naive,
            energy_j=ledger.total_energy_j(),
            energy_breakdown_j={op: ledger.energy(op) for op in ledger.operations},
            extras={
                "mask_order": result.mask_order,
                "tops_per_watt": result.tops_per_watt(),
                "n_iterations": self.n_iterations,
            },
        )

    def run_batch(
        self,
        inputs: Any,
        rng: np.random.Generator | None = None,
        masks: MaskPlan | Sequence[MaskPlan] | None = None,
        item_rngs: list[np.random.Generator] | None = None,
    ) -> BatchResult:
        """Batched MC-Dropout inference: pinned masks, per-item noise.

        The mask streams are drawn **once** from ``rng`` and pinned into
        every item, and an ordered CIM engine searches each distinct
        plan's visit order once (every plan in one batched call), so mask
        generation, the ordering search and the session's macro mapping
        are amortised over the batch instead of rebuilt per call.
        One child generator is spawned per item for analog read noise,
        which makes every cell independently reproducible: item ``i`` is
        bit-for-bit equal to::

            base = np.random.default_rng(seed)          # same seed
            plan = session.draw_masks(base)
            session.run(inputs[i], rng=base.spawn(n)[i], masks=plan)

        On CIM substrates the whole batch runs as one engine wave
        (:meth:`~repro.core.cim_mc_dropout.CIMMCDropoutEngine.predict_many`);
        the digital predictor runs the items one by one.

        Args:
            inputs: sequence of ``run()`` payloads (each a (B_i, in)
                feature batch).
            rng: base generator for the shared masks and the per-item
                noise spawn; default is the session's own generator.
            masks: a pre-drawn mask plan shared by every item, or one plan
                per item (items of one plan share it); default draws one
                from ``rng``.
            item_rngs: explicit per-item noise generators replacing the
                ``rng.spawn`` default -- the hook serving layers use to
                hand every coalesced request the exact generator state
                its standalone reference run would consume.

        Returns:
            A :class:`BatchResult` with one :class:`InferenceResult` per
            item plus the generation energy of every distinct plan.
        """
        items = list(inputs)
        rng = rng if rng is not None else self._rng
        if masks is None:
            masks = self.draw_masks(rng)
        plans = [masks] * len(items) if isinstance(masks, MaskPlan) else list(masks)
        if len(plans) != len(items):
            raise ValueError(f"masks has {len(plans)} plans for {len(items)} items")
        if item_rngs is None:
            item_rngs = rng.spawn(len(items))
        elif len(item_rngs) != len(items):
            raise ValueError(
                f"item_rngs has {len(item_rngs)} generators for "
                f"{len(items)} items"
            )
        if isinstance(self.engine, CIMMCDropoutEngine):
            results = [
                self._cim_result(result)
                for result in self.engine.predict_many(
                    [np.atleast_2d(np.asarray(item, dtype=float)) for item in items],
                    item_rngs,
                    [list(plan.streams) for plan in plans],
                    [plan.order for plan in plans],
                )
            ]
        else:
            results = [
                self.run(item, rng=item_rng, masks=plan)
                for item, item_rng, plan in zip(items, item_rngs, plans)
            ]
        distinct = {id(plan): plan for plan in plans}
        return BatchResult(
            substrate=self.substrate.name,
            workload=self.workload,
            results=results,
            mask_generation_energy_j=sum(
                plan.generation_energy_j for plan in distinct.values()
            ),
            extras={
                "n_items": len(items),
                "n_iterations": self.n_iterations,
            },
        )


class LocalizationSession:
    """Particle-filter localization on one substrate.

    Wraps :class:`~repro.core.cim_particle_filter.CIMParticleFilterLocalizer`
    with the likelihood backend chosen by the substrate; with identical
    RNGs the session reproduces the bare localizer bit-for-bit.
    """

    workload = "localization"

    def __init__(
        self,
        substrate: SubstrateConfig | str,
        map_cloud: np.ndarray,
        camera: Any,
        rng: np.random.Generator | None = None,
        **localizer_kwargs: Any,
    ):
        self.substrate = get_substrate(substrate)
        self.localizer = CIMParticleFilterLocalizer(
            map_cloud,
            camera,
            backend=self.substrate.likelihood_backend,
            rng=rng,
            **localizer_kwargs,
        )

    def initialize_tracking(
        self, state: np.ndarray, sigma: np.ndarray, rng: np.random.Generator
    ) -> None:
        self.localizer.initialize_tracking(state, sigma, rng)

    def initialize_global(
        self,
        rng: np.random.Generator,
        z_range: tuple[float, float] | None = None,
    ) -> None:
        self.localizer.initialize_global(rng, z_range=z_range)

    def run(
        self,
        inputs: tuple[np.ndarray, list[np.ndarray], np.ndarray],
        rng: np.random.Generator | None = None,
    ) -> InferenceResult:
        """Run a full sequence; ``inputs`` is (controls, depths, truth)."""
        controls, depths, ground_truth = inputs
        result = self.localizer.run(
            controls, depths, ground_truth, rng or np.random.default_rng(0)
        )
        ledger = result.energy
        return InferenceResult(
            substrate=self.substrate.name,
            workload=self.workload,
            mean=result.estimates,
            variance=None,
            samples=None,
            ops_executed=ledger.total_count(),
            ops_naive=None,
            energy_j=ledger.total_energy_j(),
            energy_breakdown_j={op: ledger.energy(op) for op in ledger.operations},
            extras={
                "errors": result.errors,
                "backend": result.backend,
                "summary": result.summary_row(),
            },
        )


def _bernoulli_streams(
    model: Sequential, n_iterations: int, rng: np.random.Generator
) -> list[MaskStream]:
    """One Bernoulli mask stream per Dropout layer, sized by walking the
    feature width through the Sequential."""
    width = model.dense_layers()[0].weight.value.shape[0]
    streams: list[MaskStream] = []
    for layer in model.layers:
        if isinstance(layer, Dropout):
            streams.append(
                MaskStream.bernoulli(
                    n_iterations, width, layer.keep_probability, rng
                )
            )
        elif isinstance(layer, Dense):
            width = layer.weight.value.shape[1]
    return streams


def _dense_layer_sizes(model: Sequential) -> tuple[int, ...]:
    """(in, h1, ..., out) widths of a Dense network."""
    dense = model.dense_layers()
    if not dense:
        raise ValueError("model contains no Dense layers")
    sizes = [dense[0].weight.value.shape[0]]
    sizes.extend(layer.weight.value.shape[1] for layer in dense)
    return tuple(sizes)


__all__ = [
    "ReusePolicy",
    "MacroOptions",
    "SubstrateConfig",
    "MaskPlan",
    "MCDropoutSession",
    "LocalizationSession",
    "register_substrate",
    "get_substrate",
    "available_substrates",
]
