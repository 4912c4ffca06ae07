"""Structured on-disk run store: ``manifest.json`` + ``results.jsonl``.

A run directory replaces the flat one-file-per-result ``--out`` scheme
with something a fleet of sweeps can be queried through:

- ``manifest.json`` -- what the run *is*: the compiled plan, creation
  time, package version, status (``running`` -> ``complete``/``partial``)
  and final counts.
- ``results.jsonl`` -- what actually *happened*: one JSON line per
  finished job (ok rows carry the full ``ExperimentResult``; error rows
  carry the worker traceback), appended as jobs complete so a killed run
  keeps every cell it already computed.

Typical use::

    store = RunStore.create("runs/demo", plan=plan)
    ParallelExecutor(workers=4).execute(plan, store=store)

    loaded = RunStore.load("runs/demo")
    loaded.results()                      # [ExperimentResult, ...]
    loaded.summary()                      # counts / status / timing
"""

from __future__ import annotations

import json
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Iterator

from repro.api.results import ExperimentResult
from repro.runtime.executor import ExecutionReport, JobRecord
from repro.runtime.plan import Plan
from repro.version import __version__

MANIFEST_NAME = "manifest.json"
RESULTS_NAME = "results.jsonl"


class RunStore:
    """One sweep run on disk.

    Create with :meth:`create` (new run) or :meth:`load` (existing run
    directory); the constructor itself does not touch the filesystem.
    """

    def __init__(
        self,
        path: str | Path,
        manifest: dict[str, Any],
        records: list[JobRecord] | None = None,
    ):
        self.path = Path(path)
        self.manifest = manifest
        self._records: list[JobRecord] = list(records or [])

    # -- creation / loading ------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        plan: Plan | None = None,
        command: str | None = None,
    ) -> "RunStore":
        """Initialise a run directory with a manifest and empty results.

        Refuses to reuse a directory that already holds a run (a store
        is an append-only record of one execution, not a scratch dir).
        """
        path = Path(path)
        if (path / MANIFEST_NAME).exists():
            raise FileExistsError(
                f"run store already exists at {path}; choose a fresh directory"
            )
        path.mkdir(parents=True, exist_ok=True)
        manifest: dict[str, Any] = {
            "version": __version__,
            # repro: ignore[DET003] manifest metadata, not a result field
            "created_at": datetime.now(timezone.utc).isoformat(),
            "status": "running",
            "command": command,
            "n_jobs": None if plan is None else len(plan),
            "plan": None if plan is None else plan.to_jsonable(),
        }
        store = cls(path, manifest)
        store._write_manifest()
        (path / RESULTS_NAME).touch()
        return store

    @classmethod
    def load(cls, path: str | Path, strict: bool = False) -> "RunStore":
        """Load a run directory (manifest + every result line).

        A killed or crashed writer can leave ``results.jsonl`` with a
        truncated final line; by default that trailing fragment is
        skipped with a warning so the completed records stay readable.
        ``strict=True`` raises the ``json.JSONDecodeError`` instead.  A
        malformed line *before* the end is real corruption and always
        raises.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise FileNotFoundError(f"no run store manifest at {manifest_path}")
        manifest = json.loads(manifest_path.read_text())
        records: list[JobRecord] = []
        results_path = path / RESULTS_NAME
        if results_path.exists():
            lines = [
                stripped
                for stripped in (
                    line.strip()
                    for line in results_path.read_text().splitlines()
                )
                if stripped
            ]
            for index, line in enumerate(lines):
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if strict or index != len(lines) - 1:
                        raise
                    warnings.warn(
                        f"skipping truncated trailing line in "
                        f"{results_path} (crashed writer?); pass "
                        "strict=True to raise instead",
                        stacklevel=2,
                    )
                    continue
                records.append(JobRecord.from_jsonable(payload))
        records.sort(key=lambda record: record.job.index)
        return cls(path, manifest, records)

    # -- writing -----------------------------------------------------------

    def append(self, record: JobRecord) -> None:
        """Append one finished job to ``results.jsonl`` (flushed)."""
        with (self.path / RESULTS_NAME).open("a") as handle:
            # repro: ignore[DET006] store is Python-read; json.loads round-trips
            handle.write(json.dumps(record.to_jsonable()) + "\n")
        self._records.append(record)

    def finalize(self, report: ExecutionReport) -> None:
        """Stamp the manifest with the execution outcome."""
        summary = report.summary()
        self.manifest.update(
            {
                "status": "complete" if report.n_failed == 0 else "partial",
                # repro: ignore[DET003] manifest metadata, not a result field
                "finished_at": datetime.now(timezone.utc).isoformat(),
                **summary,
            }
        )
        self._write_manifest()

    def _write_manifest(self) -> None:
        (self.path / MANIFEST_NAME).write_text(
            # repro: ignore[DET006] store is Python-read; json.loads round-trips
            json.dumps(self.manifest, indent=2) + "\n"
        )

    # -- reading -----------------------------------------------------------

    @property
    def plan(self) -> Plan | None:
        payload = self.manifest.get("plan")
        return None if payload is None else Plan.from_jsonable(payload)

    def records(self) -> list[JobRecord]:
        """Every stored record, in plan order."""
        return sorted(self._records, key=lambda record: record.job.index)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self.records())

    def results(self) -> list[ExperimentResult]:
        """Successful results, in plan order."""
        return [
            record.result
            for record in self.records()
            if record.ok and record.result is not None
        ]

    def errors(self) -> list[JobRecord]:
        """Failed records (traceback in ``record.error``)."""
        return [record for record in self.records() if not record.ok]

    def summary(self) -> dict[str, Any]:
        """Run-level summary combining the manifest and stored records."""
        records = self.records()
        n_ok = sum(1 for record in records if record.ok)
        return {
            "path": str(self.path),
            "status": self.manifest.get("status", "unknown"),
            "created_at": self.manifest.get("created_at"),
            "version": self.manifest.get("version"),
            "n_jobs_planned": self.manifest.get("n_jobs"),
            "n_recorded": len(records),
            "n_ok": n_ok,
            "n_failed": len(records) - n_ok,
            "wall_time_s": self.manifest.get("wall_time_s"),
            "workers": self.manifest.get("workers"),
        }


__all__ = ["RunStore", "MANIFEST_NAME", "RESULTS_NAME"]
