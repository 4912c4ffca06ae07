"""Batch-first execution runtime for the reproduction stack.

The paper's evidence is grids -- experiment x substrate x seed x config
-- and this package is the layer that runs grids as *first-class work*
instead of hidden for-loops:

- :mod:`repro.runtime.plan` -- :class:`Plan` / :class:`JobSpec`: compile
  a sweep grid into an explicit, validated, inspectable job list.
- :mod:`repro.runtime.executor` -- :class:`ParallelExecutor`: run a plan
  serially or across a process pool with per-job failure capture;
  parallel and serial execution are bit-identical because every job's
  seed lives in its spec.
- :mod:`repro.runtime.store` -- :class:`RunStore`: a structured run
  directory (``manifest.json`` + ``results.jsonl``) with load and
  summary helpers, streamed to as jobs finish.
- :mod:`repro.runtime.policy` -- :class:`BatchPolicy` /
  :class:`QueuePolicy` / :class:`ShardPolicy` / :class:`TrackPolicy`:
  the shared coalescing / bounded-admission / scale-out / track-
  lifecycle knob vocabulary used by every batching layer (notably
  :mod:`repro.serve`).

Batched *inference* (``session.run_batch``) lives with the sessions in
:mod:`repro.api.substrates`; this package covers batched *experiments*.

Quick start::

    from repro.runtime import Plan, ParallelExecutor, RunStore

    plan = Plan.compile("E3", substrates=["digital", "cim"], seeds=[0, 1])
    store = RunStore.create("runs/demo", plan=plan)
    report = ParallelExecutor(workers=4).execute(plan, store=store)
    report.errors                       # failed jobs, with tracebacks

    RunStore.load("runs/demo").results()
"""

from repro.runtime.executor import ExecutionReport, JobRecord, ParallelExecutor
from repro.runtime.plan import JobSpec, Plan
from repro.runtime.policy import (
    BatchPolicy,
    QueuePolicy,
    ShardPolicy,
    TrackPolicy,
)
from repro.runtime.store import RunStore

__all__ = [
    "BatchPolicy",
    "ExecutionReport",
    "JobRecord",
    "JobSpec",
    "ParallelExecutor",
    "Plan",
    "QueuePolicy",
    "RunStore",
    "ShardPolicy",
    "TrackPolicy",
]
