"""Structured experiment registry.

Each paper experiment is declared once, in its driver module under
:mod:`repro.experiments`: a frozen config dataclass (every config has a
``seed`` field) and a driver that takes it, registered with the
:func:`experiment` decorator.  :func:`run_experiment` resolves id + seed
+ substrate + config overrides into an
:class:`~repro.api.results.ExperimentResult`:

    @dataclass(frozen=True)
    class ReuseAblationConfig:
        seed: int = 0
        n_iterations: int = 30

    @experiment("E9", title="reuse ablation", config=ReuseAblationConfig)
    def reuse_ablation(cfg: ReuseAblationConfig) -> dict:
        ...

    result = run_experiment("E9", seed=3, overrides={"n_iterations": 10})

The registry calls the driver with the resolved config, whose ``seed``
is the run seed, and, for an experiment that declares substrates, with
the substrate override too (``None`` for the built-in default).  The
driver returns a plain metrics dict; the registry handles timing,
sanitisation and persistence.  The first line of the driver's
docstring is the description ``repro list`` prints.

Config overrides are decoded by the same typed rule as scenario ``--set``
paths and scenario spec JSON (:func:`repro.api.results.replace_fields`):
a string is literal-parsed, then must fit the field's type, and an
unknown field name gets a did-you-mean hint.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.api.results import (
    ExperimentResult,
    config_hash,
    parse_overrides,
    replace_fields,
    to_jsonable,
)
from repro.api.substrates import SubstrateConfig, get_substrate


def result_stem(
    experiment_id: str,
    substrate: str | None,
    seed: int,
    overrides: dict[str, Any] | None = None,
    digest: str | None = None,
) -> str:
    """Filename stem for one run: ``E3-cim-seed1[-cfg<hash>]``.

    The config hash is appended only when overrides are present, so two
    runs of the same id/substrate/seed with different ``--set`` values
    land in different files instead of overwriting each other (and
    default filenames stay byte-identical to the historical scheme).
    ``digest`` is the overrides' :func:`override_digest` when already
    known; otherwise it is computed, which decodes the overrides.
    """
    stem = experiment_id
    if substrate:
        stem += f"-{substrate}"
    stem += f"-seed{seed}"
    if digest is None:
        digest = override_digest(experiment_id, overrides)
    if digest:
        stem += f"-cfg{digest}"
    return stem


def override_digest(
    experiment_id: str, overrides: Mapping[str, Any] | None
) -> str:
    """:func:`~repro.api.results.config_hash` of the values ``overrides``
    decode to in the experiment's config (``""`` for none).

    Digesting the stored values rather than the ``--set`` text makes two
    spellings of one config (``keep_probability=0.5`` and ``=.5``) one
    stem and one job id.
    """
    if not overrides:
        return ""
    config = get_experiment(experiment_id).make_config(overrides)
    values = {}
    for path in overrides:
        value = config
        for part in path.split("."):
            value = getattr(value, part)
        values[path] = value
    return config_hash(values)


def resolve_substrate(
    spec: "ExperimentSpec", substrate: "str | SubstrateConfig | None"
) -> SubstrateConfig | None:
    """Resolve + validate a substrate override against an experiment spec.

    Shared by :func:`run_experiment` and plan compilation so both reject
    the same grids with the same messages.

    Raises:
        KeyError: unknown substrate name.
        ValueError: the experiment does not accept this substrate.
    """
    if substrate is None:
        return None
    resolved = get_substrate(substrate)
    if not spec.substrates:
        raise ValueError(
            f"experiment {spec.id} does not support substrate overrides"
        )
    if resolved.name not in spec.substrates:
        raise ValueError(
            f"experiment {spec.id} supports substrates "
            f"{list(spec.substrates)}, not {resolved.name!r}"
        )
    return resolved


def save_results(
    results: "list[ExperimentResult]",
    out_dir: str | Path,
    overrides: dict[str, Any] | None = None,
) -> list[Path]:
    """Write one JSON file per result using config-hashed stems."""
    out_dir = Path(out_dir)
    paths = []
    for result in results:
        stem = result_stem(
            result.experiment_id, result.substrate, result.seed, overrides
        )
        paths.append(result.save(out_dir / f"{stem}.json"))
    return paths


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment.

    Attributes:
        id: registry id (``"E4"``).
        title: human-readable title (matches the paper figure/table).
        fn: the driver, ``fn(config) -> dict``, or ``fn(config,
            substrate) -> dict`` when ``substrates`` is non-empty.
        config_cls: typed config dataclass with a ``seed`` field.
        substrates: substrate names the experiment accepts as overrides;
            empty means the experiment is not substrate-parametrisable.
        description: the first line of the driver's docstring.
    """

    id: str
    title: str
    fn: Callable[..., dict]
    config_cls: type
    substrates: tuple[str, ...] = ()
    description: str = ""

    def make_config(
        self, overrides: dict[str, Any] | None = None, seed: int | None = None
    ) -> Any:
        """Resolve the typed config from defaults + overrides + seed.

        Overrides are ``--set`` values, decoded by
        :func:`~repro.api.results.parse_overrides` and
        :func:`~repro.api.results.replace_fields`: a string is
        literal-parsed, then must fit the field's type.
        """
        config = self.config_cls()
        if overrides:
            config = replace_fields(
                config, parse_overrides(overrides, config), "config"
            )
        if seed is not None:
            config = dataclasses.replace(config, seed=int(seed))
        return config


_REGISTRY: dict[str, ExperimentSpec] = {}


def experiment(
    experiment_id: str,
    title: str,
    config: type,
    substrates: tuple[str, ...] = (),
) -> Callable[[Callable[..., dict]], Callable]:
    """Decorator registering a driver under an id with its config class;
    the first line of the driver's docstring is its description.

    Raises:
        ValueError: the id is taken.
        TypeError: ``config`` is not a dataclass with a ``seed`` field.
    """
    key = experiment_id.upper()
    if not dataclasses.is_dataclass(config) or "seed" not in {
        field.name for field in dataclasses.fields(config)
    }:
        raise TypeError(
            f"experiment {key}: config must be a dataclass with a 'seed' field"
        )

    def decorator(fn: Callable[..., dict]) -> Callable:
        if key in _REGISTRY:
            raise ValueError(f"experiment {key!r} already registered")
        doc = (fn.__doc__ or "").strip()
        _REGISTRY[key] = ExperimentSpec(
            id=key,
            title=title,
            fn=fn,
            config_cls=config,
            substrates=tuple(substrates),
            description=doc.splitlines()[0] if doc else "",
        )
        return fn

    return decorator


# The modules whose import registers the experiments: one driver module
# per paper experiment (E1, E3-E11), and the scenario library's SCN.
# Importing them here (not only in the CLI) lets ParallelExecutor
# worker processes resolve every id.
_EXPERIMENT_MODULES = (
    "repro.experiments.fig2_inverter",
    "repro.experiments.fig2_localization",
    "repro.experiments.fig2_energy",
    "repro.experiments.fig3_rng",
    "repro.experiments.fig3_trajectory",
    "repro.experiments.fig3_correlation",
    "repro.experiments.tops_per_watt",
    "repro.experiments.reuse_ablation",
    "repro.experiments.map_fidelity",
    "repro.experiments.conformal_vo",
    "repro.scenarios.runner",
)


def _ensure_registered() -> None:
    """Import the experiment definitions (idempotent)."""
    for module in _EXPERIMENT_MODULES:
        importlib.import_module(module)


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Resolve an experiment id (case-insensitive).

    Raises:
        KeyError: unknown id, with the available options in the message.
    """
    _ensure_registered()
    key = str(experiment_id).upper()
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"options: {[spec.id for spec in list_experiments()]}"
        )
    return _REGISTRY[key]


def list_experiments() -> list[ExperimentSpec]:
    """All registered experiments: numeric ids (E1-E11) first, in
    numeric order, then letter-only ids (SCN) alphabetically."""
    _ensure_registered()

    def sort_key(spec: ExperimentSpec) -> tuple:
        digits = "".join(c for c in spec.id if c.isdigit())
        return (0, int(digits), spec.id) if digits else (1, 0, spec.id)

    return sorted(_REGISTRY.values(), key=sort_key)


def run_experiment(
    experiment_id: str,
    seed: int | None = None,
    substrate: str | SubstrateConfig | None = None,
    overrides: dict[str, Any] | None = None,
    out_dir: str | Path | None = None,
) -> ExperimentResult:
    """Run one experiment through the registry.

    Args:
        experiment_id: registry id (case-insensitive).
        seed: overrides the config's default seed.
        substrate: re-run the experiment on this registered substrate
            (only for experiments declaring substrate support).
        overrides: config field overrides (CLI strings are coerced).
        out_dir: when given, the result JSON is written there as
            ``<id>[-<substrate>]-seed<seed>.json``.

    Returns:
        The structured :class:`ExperimentResult`.
    """
    spec = get_experiment(experiment_id)
    resolved = resolve_substrate(spec, substrate)
    config = spec.make_config(overrides, seed)
    args = (config, resolved) if spec.substrates else (config,)
    start = time.perf_counter()
    metrics = spec.fn(*args)
    runtime = time.perf_counter() - start
    result = ExperimentResult(
        experiment_id=spec.id,
        title=spec.title,
        seed=int(config.seed),
        substrate=None if resolved is None else resolved.name,
        config=to_jsonable(dataclasses.asdict(config)),
        metrics=to_jsonable(metrics),
        runtime_s=runtime,
    )
    if out_dir is not None:
        save_results([result], out_dir, overrides)
    return result


__all__ = [
    "ExperimentSpec",
    "experiment",
    "get_experiment",
    "list_experiments",
    "resolve_substrate",
    "override_digest",
    "result_stem",
    "run_experiment",
    "save_results",
]
