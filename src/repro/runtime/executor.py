"""Plan execution: serial or across a process pool, failure-isolated.

The executor turns a :class:`~repro.runtime.plan.Plan` into an
:class:`ExecutionReport` -- one :class:`JobRecord` per job, in plan
order.  Three properties the sweep workloads rely on:

1. **Determinism.**  Every job's seed is explicit in its spec and jobs
   share no mutable state, so ``workers=4`` produces metrics identical
   to the serial path (the parallel/serial equivalence is tested).
2. **Failure isolation.**  A job that raises records an error row (with
   the full traceback) instead of aborting the grid; the remaining cells
   still run to completion.
3. **Streaming persistence.**  With a :class:`~repro.runtime.store.RunStore`
   attached, each record is appended to ``results.jsonl`` the moment the
   job finishes, so a killed sweep keeps everything it already computed.

Worker processes exchange only JSON-safe payloads (job dicts in,
``ExperimentResult.to_dict()`` out), which keeps the pool agnostic to
the start method -- fork, spawn and forkserver all behave identically.
"""

from __future__ import annotations

import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Any

from repro.api.results import ExperimentResult
from repro.runtime.plan import JobSpec, Plan


def run_job_payload(payload: dict) -> dict:
    """Execute one job described by a JSON-safe payload dict.

    Module-level (picklable) so process pools can ship it to workers;
    the serial path calls it directly, guaranteeing both paths execute
    byte-identical code.  Never raises: failures come back as error
    records carrying the formatted traceback.
    """
    from repro.api.registry import run_experiment

    start = time.perf_counter()
    try:
        result = run_experiment(
            payload["experiment_id"],
            seed=payload["seed"],
            substrate=payload["substrate"],
            overrides=payload["overrides"] or None,
        )
        return {
            "status": "ok",
            "result": result.to_dict(),
            "error": None,
            "duration_s": time.perf_counter() - start,
        }
    except Exception:
        return {
            "status": "error",
            "result": None,
            "error": traceback.format_exc(),
            "duration_s": time.perf_counter() - start,
        }


@dataclass
class JobRecord:
    """Outcome of one executed job.

    Attributes:
        job: the spec that was executed.
        status: ``"ok"`` or ``"error"``.
        result: the structured result for ok jobs, else None.
        error: formatted traceback for failed jobs, else None.
        duration_s: job wall-clock time inside the worker.
    """

    job: JobSpec
    status: str
    result: ExperimentResult | None = None
    error: str | None = None
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_jsonable(self) -> dict:
        payload = self.job.to_jsonable()
        payload.update(
            {
                "status": self.status,
                "duration_s": self.duration_s,
                "error": self.error,
                "result": None if self.result is None else self.result.to_dict(),
            }
        )
        return payload

    @classmethod
    def from_jsonable(cls, payload: dict) -> "JobRecord":
        job = JobSpec(
            index=int(payload.get("index", 0)),
            experiment_id=payload["experiment_id"],
            substrate=payload.get("substrate"),
            seed=int(payload.get("seed") or 0),
            overrides=dict(payload.get("overrides") or {}),
            config_digest=payload.get("config_hash"),
        )
        result = payload.get("result")
        return cls(
            job=job,
            status=payload.get("status", "error"),
            result=None if result is None else ExperimentResult.from_dict(result),
            error=payload.get("error"),
            duration_s=float(payload.get("duration_s", 0.0)),
        )


@dataclass
class ExecutionReport:
    """All job records of one plan execution, in plan order."""

    records: list[JobRecord]
    wall_time_s: float = 0.0
    workers: int = 1

    @property
    def results(self) -> list[ExperimentResult]:
        """Successful results, in plan order."""
        return [
            record.result
            for record in self.records
            if record.ok and record.result is not None
        ]

    @property
    def errors(self) -> list[JobRecord]:
        return [record for record in self.records if not record.ok]

    @property
    def n_ok(self) -> int:
        return sum(1 for record in self.records if record.ok)

    @property
    def n_failed(self) -> int:
        return len(self.records) - self.n_ok

    def summary(self) -> dict:
        return {
            "n_jobs": len(self.records),
            "n_ok": self.n_ok,
            "n_failed": self.n_failed,
            "wall_time_s": self.wall_time_s,
            "workers": self.workers,
            "job_time_s": sum(record.duration_s for record in self.records),
        }


class ParallelExecutor:
    """Runs a plan's jobs, optionally across a process pool.

    Args:
        workers: process count.  ``1`` (default) executes in-process --
            same code path as the workers, minus the pool.
    """

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = int(workers)

    def execute(self, plan: Plan, store: Any | None = None) -> ExecutionReport:
        """Execute every job; one record per job, failures captured.

        Args:
            plan: the compiled plan.
            store: optional :class:`~repro.runtime.store.RunStore` (or a
                path for one) -- records stream into it as jobs finish
                and the manifest is finalised at the end.

        Returns:
            The execution report, records in plan order.
        """
        if store is not None:
            from repro.runtime.store import RunStore

            if not isinstance(store, RunStore):
                store = RunStore.create(store, plan=plan)
        start = time.perf_counter()
        records: dict[int, JobRecord] = {}

        def finish(job: JobSpec, payload: dict) -> None:
            record = JobRecord(
                job=job,
                status=payload["status"],
                result=(
                    None
                    if payload["result"] is None
                    else ExperimentResult.from_dict(payload["result"])
                ),
                error=payload["error"],
                duration_s=payload["duration_s"],
            )
            records[job.index] = record
            if store is not None:
                store.append(record)

        if self.workers == 1 or len(plan) == 1:
            for job in plan:
                finish(job, run_job_payload(job.to_jsonable()))
        else:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(plan))
            ) as pool:
                pending = {
                    pool.submit(run_job_payload, job.to_jsonable()): job
                    for job in plan
                }
                while pending:
                    done, _ = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        job = pending.pop(future)
                        try:
                            finish(job, future.result())
                        except Exception:  # worker died (not a job error)
                            finish(
                                job,
                                {
                                    "status": "error",
                                    "result": None,
                                    "error": traceback.format_exc(),
                                    "duration_s": 0.0,
                                },
                            )
        report = ExecutionReport(
            records=[records[index] for index in sorted(records)],
            wall_time_s=time.perf_counter() - start,
            workers=self.workers,
        )
        if store is not None:
            store.finalize(report)
        return report


__all__ = [
    "ExecutionReport",
    "JobRecord",
    "ParallelExecutor",
    "run_job_payload",
]
