"""Sweep plans: compile an experiment grid into an explicit job list.

A :class:`Plan` is the unit of work the batch runtime executes.  Instead
of a hidden cross product, a plan makes every cell explicit and
inspectable *before* anything runs: each
:class:`JobSpec` carries the experiment id, substrate, seed and config
overrides of exactly one run, plus a stable ``job_id`` that doubles as
the result filename stem.

Compilation validates the whole grid up front -- unknown experiments,
unsupported substrates and bad override fields fail immediately instead
of ``N`` jobs into a sweep::

    plan = Plan.compile("E3", substrates=["digital", "cim"], seeds=[0, 1])
    print(plan.describe())          # 4 jobs, one line each
    report = ParallelExecutor(workers=4).execute(plan)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping, Sequence

from repro.api.registry import (
    get_experiment,
    override_digest,
    resolve_substrate,
    result_stem,
)
from repro.api.results import to_jsonable


@dataclass(frozen=True)
class JobSpec:
    """One cell of a sweep grid: a single experiment execution.

    Attributes:
        index: position in the plan (execution reports keep this order
            regardless of parallel completion order).
        experiment_id: registry id (``"E3"``).
        substrate: substrate override name, or None for the built-in
            default.
        seed: the job's explicit seed.  Compilation resolves "no seed
            given" to the experiment config's default, so the seed is
            part of the spec -- not of executor state -- which is what
            keeps parallel and serial execution bit-identical.
        overrides: config field overrides applied to this job.
        config_digest: short hash of the decoded overrides ('' when
            none).  Computed once, at construction, when not given; a job
            reloaded from a store keeps the digest it was stored under,
            so its id never depends on overrides still decoding.
    """

    index: int
    experiment_id: str
    substrate: str | None = None
    seed: int = 0
    overrides: dict[str, Any] = field(default_factory=dict)
    config_digest: str | None = None

    def __post_init__(self) -> None:
        if self.config_digest is None:
            object.__setattr__(
                self,
                "config_digest",
                override_digest(self.experiment_id, self.overrides),
            )

    @property
    def job_id(self) -> str:
        """Stable id / filename stem: ``E3-cim-seed1[-cfg<hash>]``."""
        return result_stem(
            self.experiment_id, self.substrate, self.seed, digest=self.config_digest
        )

    def to_jsonable(self) -> dict:
        return {
            "index": self.index,
            "job_id": self.job_id,
            "experiment_id": self.experiment_id,
            "substrate": self.substrate,
            "seed": self.seed,
            "overrides": to_jsonable(self.overrides),
            "config_hash": self.config_digest,
        }


@dataclass(frozen=True)
class Plan:
    """An ordered, validated list of jobs.

    Build with :meth:`compile`; iterate, index and ``len()`` like a
    sequence.  The plan is immutable -- executors and stores treat it as
    the authoritative description of what a run *should* contain, which
    is how a store can tell a finished grid from a crashed one.
    """

    jobs: tuple[JobSpec, ...]

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(self.jobs)

    def __getitem__(self, index: int) -> JobSpec:
        return self.jobs[index]

    @classmethod
    def compile(
        cls,
        experiment_ids: str | Sequence[str],
        substrates: Sequence[str | None] | None = None,
        seeds: Sequence[int | None] | None = None,
        overrides: Mapping[str, Any] | None = None,
    ) -> "Plan":
        """Compile an experiment x substrate x seed grid into a plan.

        Every axis entry is validated against the registries and every
        override field is coerced against each experiment's config class
        before a single job exists, so a bad cell cannot abort a
        half-finished sweep.

        Raises:
            KeyError: unknown experiment or substrate.
            ValueError: substrate unsupported by an experiment, or an
                override field that does not fit its config.
        """
        if isinstance(experiment_ids, str):
            experiment_ids = [experiment_ids]
        substrate_axis = list(substrates) if substrates else [None]
        seed_axis = list(seeds) if seeds else [None]
        resolved_overrides = dict(overrides) if overrides else {}

        jobs: list[JobSpec] = []
        for experiment_id in experiment_ids:
            spec = get_experiment(experiment_id)
            # Coercion check, and the source of the default seed.
            config = spec.make_config(resolved_overrides or None)
            default_seed = config.seed
            digest = override_digest(spec.id, resolved_overrides)
            for substrate in substrate_axis:
                resolved = resolve_substrate(spec, substrate)
                name = None if resolved is None else resolved.name
                for seed in seed_axis:
                    jobs.append(
                        JobSpec(
                            index=len(jobs),
                            experiment_id=spec.id,
                            substrate=name,
                            seed=default_seed if seed is None else int(seed),
                            overrides=dict(resolved_overrides),
                            config_digest=digest,
                        )
                    )
        if not jobs:
            raise ValueError("plan compiled to zero jobs")
        return cls(jobs=tuple(jobs))

    def describe(self) -> str:
        """Human-readable one-line-per-job table."""
        lines = [f"plan: {len(self.jobs)} job(s)"]
        for job in self.jobs:
            lines.append(
                f"  [{job.index:3d}] {job.job_id}"
                + (f"  overrides={job.overrides}" if job.overrides else "")
            )
        return "\n".join(lines)

    def to_jsonable(self) -> list[dict]:
        return [job.to_jsonable() for job in self.jobs]

    @classmethod
    def from_jsonable(cls, payload: Sequence[Mapping[str, Any]]) -> "Plan":
        jobs = tuple(
            JobSpec(
                index=int(entry["index"]),
                experiment_id=entry["experiment_id"],
                substrate=entry.get("substrate"),
                seed=int(entry.get("seed") or 0),
                overrides=dict(entry.get("overrides") or {}),
                config_digest=entry.get("config_hash"),
            )
            for entry in payload
        )
        return cls(jobs=jobs)


__all__ = ["JobSpec", "Plan"]
