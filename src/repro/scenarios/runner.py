"""Run scenarios on the Plan/JobSpec batch runtime.

One registered experiment -- ``SCN`` -- executes *any* scenario: the
scenario's canonical JSON travels inside the job's config overrides, so a
scenario sweep is an ordinary :class:`~repro.runtime.Plan` that
``ParallelExecutor`` runs serially or across processes with the existing
bit-identity guarantee (worlds are memoised deterministically per
process; nothing about a job depends on executor state).

:func:`compile_scenarios` is the seam later subsystems (codesign
autotuner, loadtest) build on: names x substrates x seeds in, one
validated concatenated plan out.  Its dotted ``--set`` overrides
(:func:`apply_overrides`) are decoded by the typed rule experiment
``--set`` values and spec JSON share, so an overridden spec's canonical
JSON -- the text pinned into each job -- round-trips.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.api.registry import experiment
from repro.api.results import parse_overrides, replace_fields
from repro.api.substrates import SubstrateConfig
from repro.core.cim_particle_filter import converged_step
from repro.runtime.plan import JobSpec, Plan
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.world import build_session, initialize, scenario_world

__all__ = [
    "ScenarioRunConfig",
    "apply_overrides",
    "compile_scenarios",
    "run_scenario",
    "summarize_rows",
]

_SCENARIO_SUBSTRATES = (
    "digital",
    "digital-float",
    "cim",
    "cim-reuse",
    "cim-ordered",
)

@dataclass(frozen=True)
class ScenarioRunConfig:
    """Config of the ``SCN`` experiment.

    Attributes:
        seed: run seed (prior draw, motion sampling, resampling).
        scenario: library name, used when ``spec`` is empty.
        spec: canonical scenario JSON; when non-empty it *is* the
            scenario (this is how compiled plans pin the exact spec,
            overrides and all, into each job).
    """

    seed: int = 0
    scenario: str = "room-baseline"
    spec: str = ""


def run_scenario(
    spec: ScenarioSpec, substrate: str = "digital", seed: int = 0
) -> dict:
    """One end-to-end scenario run; returns a flat metrics dict."""
    spec.validate()
    world = scenario_world(spec)
    session = build_session(spec, substrate, world=world)
    rng = np.random.default_rng(int(seed))
    initialize(spec, world, session, rng)
    result = session.run((world.controls, world.depths, world.states), rng=rng)
    errors = np.asarray(result.extras["errors"], dtype=float)
    summary = dict(result.extras["summary"])
    n_steps = int(world.states.shape[0])
    return {
        "scenario": spec.name,
        "tags": list(spec.tags),
        "substrate": substrate,
        "backend": result.extras["backend"],
        "n_steps": n_steps,
        "dropped_steps": len(world.dropped_steps),
        "initial_error_m": summary["initial_error_m"],
        "final_error_m": summary["final_error_m"],
        "mean_error_m": float(errors.mean()) if errors.size else float("nan"),
        "steady_state_error_m": summary["steady_state_error_m"],
        "converged_step": converged_step(errors),
        "energy_j": float(result.energy_j),
        "energy_per_step_j": float(result.energy_j) / max(n_steps, 1),
        "ops_executed": int(result.ops_executed),
    }


@experiment(
    "SCN",
    title="Scenario library run",
    config=ScenarioRunConfig,
    substrates=_SCENARIO_SUBSTRATES,
)
def run_scn(
    cfg: ScenarioRunConfig, substrate: SubstrateConfig | None = None
) -> dict:
    """Run one library (or inline-JSON) scenario on one substrate."""
    if cfg.spec:
        spec = ScenarioSpec.from_json(cfg.spec)
    else:
        spec = get_scenario(cfg.scenario)
    name = substrate.name if substrate else "digital"
    return run_scenario(spec, substrate=name, seed=cfg.seed)


def apply_overrides(
    spec: ScenarioSpec, overrides: Mapping[str, str] | None
) -> ScenarioSpec:
    """Apply dotted-path ``--set`` overrides to a scenario spec.

    Keys address nested fields (``trajectory.n_steps``,
    ``noise.depth_noise_std``, top-level ``n_particles``); values are
    decoded exactly as experiment config overrides are
    (:func:`~repro.api.results.parse_overrides`, then
    :func:`~repro.api.results.replace_fields`).  Unknown paths raise
    ``ValueError`` with a did-you-mean suggestion; the result is
    re-validated.
    """
    if not overrides:
        return spec
    return replace_fields(
        spec, parse_overrides(overrides, spec), "scenario spec"
    ).validate()


def compile_scenarios(
    names: Sequence[str],
    substrates: Sequence[str] | None = None,
    seeds: Sequence[int] | None = None,
    overrides: Mapping[str, str] | None = None,
    specs: Iterable[ScenarioSpec] | None = None,
    tiny: bool = False,
) -> Plan:
    """Compile scenarios x substrates x seeds into one validated Plan.

    Each scenario resolves from the library (or ``specs``, matched by
    name), receives the dotted ``--set`` overrides (after the optional
    ``tiny`` budget cap), and is pinned into its jobs as canonical
    JSON -- so executor workers rebuild the exact spec without
    consulting the library.

    Raises:
        KeyError: unknown scenario name (with a did-you-mean hint).
        ValueError: bad override path/value, or an invalid spec.
    """
    if not names:
        raise ValueError("no scenarios given")
    catalogue = {spec.name: spec for spec in specs} if specs is not None else None
    jobs: list[JobSpec] = []
    for name in names:
        if catalogue is not None:
            if name not in catalogue:
                raise KeyError(
                    f"unknown scenario {name!r}; options: {sorted(catalogue)}"
                )
            spec = catalogue[name]
        else:
            spec = get_scenario(name)
        if tiny:
            spec = spec.tiny()
        spec = apply_overrides(spec, overrides)
        sub_plan = Plan.compile(
            "SCN",
            substrates=substrates,
            seeds=seeds,
            overrides={"scenario": spec.name, "spec": spec.to_json()},
        )
        for job in sub_plan:
            jobs.append(dataclasses.replace(job, index=len(jobs)))
    return Plan(jobs=tuple(jobs))


def summarize_rows(rows: Iterable[Mapping[str, Any]]) -> list[dict]:
    """Aggregate per-job metric rows into scenario x substrate lines.

    ``rows`` are ``SCN`` metrics dicts (one per job); the output has one
    line per (scenario, substrate) with seed counts and means -- the
    table ``repro scenarios report`` prints.
    """
    grouped: dict[tuple[str, str], list[Mapping[str, Any]]] = {}
    for row in rows:
        key = (str(row.get("scenario")), str(row.get("substrate")))
        grouped.setdefault(key, []).append(row)

    def _mean(group: list[Mapping[str, Any]], field: str) -> float:
        values = [float(r[field]) for r in group if r.get(field) is not None]
        return float(np.mean(values)) if values else float("nan")

    summary = []
    for (scenario, substrate), group in sorted(grouped.items()):
        converged = [
            r["converged_step"]
            for r in group
            if r.get("converged_step") is not None
        ]
        summary.append(
            {
                "scenario": scenario,
                "substrate": substrate,
                "runs": len(group),
                "final_error_m": _mean(group, "final_error_m"),
                "mean_error_m": _mean(group, "mean_error_m"),
                "steady_state_error_m": _mean(group, "steady_state_error_m"),
                "converged_runs": len(converged),
                "energy_j": _mean(group, "energy_j"),
                "ops_executed": _mean(group, "ops_executed"),
            }
        )
    return summary
