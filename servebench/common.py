"""Shared plumbing of the serving benchmark: seeds, samples, reports.

Everything here is workload-agnostic:

- :func:`keyed_rng` derives every input stream from the workload seed
  through keyed ``SeedSequence`` spawns (never seed arithmetic), so the
  same ``--seed`` always generates the same tracks, inits and requests.
- :class:`OpLog` records one closed-loop operation per call -- kind,
  client send time, response time, success -- and turns the timed
  window into throughput and latency percentiles.
- :class:`Report` collects named metrics (value, unit, sample count, a
  note) and prints them as a human-readable table; ``run.py`` turns the
  ones the benchmark declares into the final JSON line.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from dataclasses import dataclass

import numpy as np

# Spawn-key purposes.  Every stream a workload draws from is
# SeedSequence(seed, spawn_key=(workload, purpose, ...)), so streams of
# different workloads, purposes, clients and phases never collide.
WORKLOAD_KEYS = {"tracks-fleet": 1, "infer-ordered": 2, "http-mixed": 3}
PURPOSE_TRACK = 1
PURPOSE_INFER = 2
PURPOSE_SAMPLE = 3

TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it


def keyed_rng(seed: int, *key: int) -> np.random.Generator:
    """An independent generator for one purpose of one workload seed."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(int(k) for k in key))
    )


def draw_seed(rng: np.random.Generator) -> int:
    """A fresh 63-bit request/track seed from a keyed stream."""
    return int(rng.integers(0, 2**63 - 1))


KINDS = ("open", "step", "infer", "close")


class OpLog:
    """Every operation a load generator sent, with its outcome.

    Kept in flat typed arrays rather than one object per operation, so
    the log adds no work to the garbage collector of the process it
    measures.
    """

    def __init__(self) -> None:
        self._kind = array("b")
        self._ok = array("b")
        self._start = array("d")
        self._end = array("d")

    def add(self, kind: str, start: float, end: float, ok: bool) -> None:
        self._kind.append(KINDS.index(kind))
        self._ok.append(ok)
        self._start.append(start)
        self._end.append(end)

    @property
    def attempted(self) -> int:
        return len(self._kind)

    @property
    def failed(self) -> int:
        return self.attempted - sum(self._ok)

    def window(
        self, t0: float, t1: float, kinds: tuple[str, ...] | None = None
    ) -> tuple[float, list[float]]:
        """(completions per second, latencies in ms) of one timed window.

        Throughput counts successful operations that completed inside
        ``[t0, t1]``; latencies cover every successful operation sent
        inside the window (a closed loop drains each one after ``t1``).
        """
        chosen = np.asarray(self._ok, dtype=bool)
        if kinds is not None:
            chosen &= np.isin(
                np.asarray(self._kind), [KINDS.index(kind) for kind in kinds]
            )
        start = np.asarray(self._start)[chosen]
        end = np.asarray(self._end)[chosen]
        done = int(np.count_nonzero((end >= t0) & (end <= t1)))
        sent = (start >= t0) & (start < t1)
        latencies = ((end[sent] - start[sent]) * 1e3).tolist()
        return done / (t1 - t0), latencies


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def check_tail(values: list[float], q: float, what: str) -> None:
    """A ``q``-th percentile is only reported with ``TAIL_SAMPLES`` beyond it."""
    if len(values) * (1.0 - q / 100.0) < TAIL_SAMPLES:
        raise RuntimeError(
            f"{what}: {len(values)} samples leave fewer than {TAIL_SAMPLES} "
            f"beyond the p{q:g}; lengthen the run"
        )


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def process_gone(pid: int) -> bool:
    """True once ``pid`` has exited (a zombie awaiting reaping counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return True
    return state in ("Z", "X")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int | None = None
    note: str = ""


class Report:
    """Named metrics of one run, printed as a table before the JSON."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict[str, Metric] = {}
        self.notes: list[str] = []

    def add(
        self,
        name: str,
        value: float,
        unit: str,
        samples: int | None = None,
        note: str = "",
    ) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
        self.metrics[name] = Metric(value, unit, samples, note)

    def print_table(self) -> None:
        print(f"== servebench {self.workload}")
        for name, metric in self.metrics.items():
            samples = "" if metric.samples is None else f" n={metric.samples}"
            note = f"  ({metric.note})" if metric.note else ""
            print(f"  {name:36s} {metric.value:14.6g} {metric.unit}{samples}{note}")
        for note in self.notes:
            print(f"  note: {note}")


# The end-to-end metrics every workload reports (BENCHMARK.json's
# end_to_end list): what a client of the served system sees.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("ops_per_s", "ops/s"),
    ("op_p90_ms", "ms"),
    ("energy_per_op_pj", "pJ"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def add_end_to_end(
    report: Report,
    log: OpLog,
    t0: float,
    t1: float,
    kinds: tuple[str, ...] | None,
    energies_j: list[float],
    setup_times: list[float],
    rss_mb: float,
    what: str,
) -> None:
    """The end-to-end metrics of one untraced timed window.

    ``kinds`` selects the operations that count (None: all of them);
    ``energies_j`` is the simulated energy of the seed-determined
    warm-up operations, so ``energy_per_op_pj`` repeats exactly for a
    seed; ``setup_s`` is the median of several set-ups.

    The tail is p90, not p99: in the in-process workloads a whole
    micro-batch (16 or 32 requests) shares one latency, so independent
    latency samples are batches -- a few hundred per run, which leave
    ``TAIL_SAMPLES`` beyond a p90 but only two or three beyond a p99.
    """
    rate, latencies = log.window(t0, t1, kinds)
    check_tail(latencies, 90, what)
    report.add("ops_per_s", rate, "ops/s", samples=len(latencies), note=what)
    report.add(
        "op_p50_ms",
        percentile(latencies, 50),
        "ms",
        samples=len(latencies),
        note="printed, not gated: flips between host speed modes",
    )
    report.add("op_p90_ms", percentile(latencies, 90), "ms", samples=len(latencies))
    report.add(
        "energy_per_op_pj",
        1e12 * float(np.mean(energies_j)),
        "pJ",
        samples=len(energies_j),
        note="simulated, seed-determined warm-up operations",
    )
    report.add(
        "setup_s",
        float(np.median(setup_times)),
        "s",
        samples=len(setup_times),
        note="median of the run's set-ups",
    )
    report.add("peak_rss_mb", rss_mb, "MB", note="serving processes")


def add_kind_detail(
    report: Report, log: OpLog, t0: float, t1: float, kind: str, label: str
) -> None:
    """Per-operation-kind throughput and latency (printed, not gated).

    The tail is the highest percentile with at least ``TAIL_SAMPLES``
    samples beyond it (p99 once there are enough samples).
    """
    rate, latencies = log.window(t0, t1, (kind,))
    if not latencies:
        return
    report.add(f"{label}s_per_s", rate, "1/s", samples=len(latencies))
    report.add(f"{label}_p50_ms", percentile(latencies, 50), "ms",
               samples=len(latencies))
    tail = min(99.0, 100.0 * (1.0 - TAIL_SAMPLES / len(latencies)))
    if tail > 50.0:
        name = f"{label}_p{tail:g}_ms" if tail < 99.0 else f"{label}_p99_ms"
        report.add(name, percentile(latencies, tail), "ms",
                   samples=len(latencies))


def add_failures(report: Report, attempted: int, failed: int) -> None:
    report.add(
        "failed_frac",
        failed / attempted if attempted else 1.0,
        "failed/attempted",
        samples=attempted,
        note="503/4xx/5xx, exceptions and parity mismatches",
    )


def out_dir(root: str) -> str:
    """Where spans and run records are written (inside the checkout)."""
    path = os.path.join(root, "servebench", ".out")
    os.makedirs(path, exist_ok=True)
    return path


def now() -> float:
    return time.perf_counter()
