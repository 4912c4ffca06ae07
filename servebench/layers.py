"""Per-layer metrics of a traced run, from spans and response fields.

:data:`PER_LAYER` is the benchmark's per-layer metric list (the same
names, in the same order, as ``BENCHMARK.json``'s ``per_layer``).  Each
entry names the layer it measures and the end-to-end metric it should
move:

- ``service.*`` (serve.service): admission + batcher queue wait and
  execution time (response ``queue_s`` / ``total_s - queue_s``),
  micro-batch and seed-group sizes as each response saw them (so a
  mean weighted by requests, unlike the per-batch
  ``tracks.items_per_batch``), rejected admissions.
  Moves ``ops_per_s`` and ``op_p90_ms``.
- ``http.*`` / ``wire.*`` (serve.http, serve.types): client round trip
  minus server ``total_s``; per-message JSON encode/decode in the
  server.  Move http-mixed latency (``op_p90_ms``, printed p50s).
- ``workers.*`` (serve.workers): parent-side shard pipe round trip and
  shard respawns.  Moves http-mixed latency; respawns mean failed
  operations.
- ``pool.*`` / ``execution.*`` / ``substrates.*`` / ``mc_dropout.*`` /
  ``macro.*`` (the MC-Dropout path): session acquire wait, grouped
  micro-batch execution, mask draw + ordering, ``predict`` and SRAM
  macro calls per inference.  Move infer-ordered ``ops_per_s``;
  ``mc_dropout.reuse_ratio`` moves ``energy_per_op_pj``.
- ``tracks.*`` / ``localizer.*`` / ``motion.*`` / ``measurement.*`` /
  ``pf.*`` / ``tiling.*`` / ``array.*`` (the localization path): the
  step batch, per-track state swap (step batch self time per item), the
  bare filter step and its phases, tiled field evaluation and inverter
  array reads.  Move tracks-fleet ``ops_per_s``.
- ``energy.*``: simulated ops per step / inference.  Move
  ``energy_per_op_pj``.
- ``trace.overhead_frac``: 1 - traced / untraced throughput in the same
  run (moves nothing).

Times are means per call (means add up along a call path; the two
``*_p50_ms`` service figures are medians because they are read from
every response, like the end-to-end latencies).
"""

from __future__ import annotations

import statistics
from typing import Any

from servebench.common import Report
from servebench.tracer import SpanStats

PER_LAYER: tuple[tuple[str, str], ...] = (
    ("service.queue_wait_p50_ms", "ms"),
    ("service.exec_p50_ms", "ms"),
    ("service.batch_size_mean", "count"),
    ("service.group_size_mean", "count"),
    ("service.rejected", "count"),
    ("http.overhead_p50_ms", "ms"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("workers.roundtrip_p50_ms", "ms"),
    ("workers.respawns", "count"),
    ("pool.acquire_wait_us", "us"),
    ("execution.run_grouped_ms", "ms"),
    ("execution.groups_per_batch", "count"),
    ("tracks.step_batch_ms", "ms"),
    ("tracks.items_per_batch", "count"),
    ("tracks.swap_us_per_step", "us"),
    ("tracks.open_us", "us"),
    ("tracks.close_us", "us"),
    ("substrates.draw_masks_us", "us"),
    ("substrates.run_batch_us", "us"),
    ("mc_dropout.draw_streams_us", "us"),
    ("mc_dropout.order_us", "us"),
    ("mc_dropout.predict_us", "us"),
    ("mc_dropout.reuse_ratio", "ratio"),
    ("macro.matvec_calls_per_infer", "count"),
    ("macro.matvec_delta_calls_per_infer", "count"),
    ("macro.matvec_many_calls_per_infer", "count"),
    ("macro.us_per_infer", "us"),
    ("localizer.step_us", "us"),
    ("motion.propagate_us", "us"),
    ("measurement.log_likelihoods_us", "us"),
    ("pf.resample_rate", "ratio"),
    ("tiling.field_log_us", "us"),
    ("tiling.field_log_calls_per_step", "count"),
    ("tiling.points_per_call", "count"),
    ("array.read_us", "us"),
    ("array.reads_per_step", "count"),
    ("array.queries_per_read", "count"),
    ("energy.ops_per_step", "count"),
    ("energy.ops_per_infer", "count"),
    ("trace.overhead_frac", "ratio"),
)

# Metrics computed from response fields / stats by the workload itself.
OBSERVED = (
    "service.queue_wait_p50_ms",
    "service.exec_p50_ms",
    "service.batch_size_mean",
    "service.group_size_mean",
    "service.rejected",
    "http.overhead_p50_ms",
    "workers.respawns",
    "energy.ops_per_step",
    "energy.ops_per_infer",
    "trace.overhead_frac",
)


def _mean(values: list[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def service_metrics(responses: list[Any]) -> dict[str, tuple[float, int]]:
    """Queue wait, execution time and batch size read from responses.

    Works for step and ``/infer`` responses alike: the service stamps
    ``queue_s`` / ``total_s`` / ``batch_size`` on both.
    """
    n = len(responses)
    return {
        "service.queue_wait_p50_ms": (
            1e3 * _median([r.queue_s for r in responses]),
            n,
        ),
        "service.exec_p50_ms": (
            1e3 * _median([r.total_s - r.queue_s for r in responses]),
            n,
        ),
        "service.batch_size_mean": (_mean([r.batch_size for r in responses]), n),
    }


def span_metrics(stats: dict[str, SpanStats]) -> dict[str, tuple[float, int]]:
    """Per-layer metrics measured by the tracer: name -> (value, samples).

    A layer the workload never called reports ``(0.0, 0)``.
    """

    def get(name: str) -> SpanStats:
        return stats.get(name) or SpanStats(0, [], 0.0, [])

    def per(numerator: float, denominator: int) -> float:
        return numerator / denominator if denominator else 0.0

    steps = get("localizer.step")
    predicts = get("mc_dropout.predict")
    batches = get("tracks.step_batch")
    field = get("tiling.field_log")
    reads = get("array.read")
    encode, reply, decode = get("wire.encode"), get("wire.reply"), get("wire.decode")
    roundtrips = get("workers.execute").durations + get(
        "workers.execute_track"
    ).durations
    matvec = get("macro.matvec")
    delta = get("macro.matvec_delta")
    many = get("macro.matvec_many")
    executed = sum(note[0] for note in predicts.notes)
    naive = sum(note[1] for note in predicts.notes)
    return {
        "wire.encode_us": (
            per(1e6 * (encode.total + reply.total), reply.count),
            reply.count,
        ),
        "wire.decode_us": (per(1e6 * decode.total, decode.count), decode.count),
        "workers.roundtrip_p50_ms": (1e3 * _median(roundtrips), len(roundtrips)),
        "pool.acquire_wait_us": (
            get("pool.acquire").mean_us(),
            get("pool.acquire").count,
        ),
        "execution.run_grouped_ms": (
            get("execution.run_grouped").mean_us() / 1e3,
            get("execution.run_grouped").count,
        ),
        "execution.groups_per_batch": (
            _mean(get("execution.run_grouped").notes),
            get("execution.run_grouped").count,
        ),
        "tracks.step_batch_ms": (batches.mean_us() / 1e3, batches.count),
        "tracks.items_per_batch": (_mean(batches.notes), batches.count),
        "tracks.swap_us_per_step": (
            per(1e6 * batches.self_total, sum(batches.notes)),
            sum(batches.notes),
        ),
        "tracks.open_us": (get("tracks.open").mean_us(), get("tracks.open").count),
        "tracks.close_us": (
            get("tracks.close").mean_us(),
            get("tracks.close").count,
        ),
        "substrates.draw_masks_us": (
            get("substrates.draw_masks").mean_us(),
            get("substrates.draw_masks").count,
        ),
        "substrates.run_batch_us": (
            get("substrates.run_batch").mean_us(),
            get("substrates.run_batch").count,
        ),
        "mc_dropout.draw_streams_us": (
            get("mc_dropout.draw_streams").mean_us(),
            get("mc_dropout.draw_streams").count,
        ),
        "mc_dropout.order_us": (
            get("mc_dropout.order").mean_us(),
            get("mc_dropout.order").count,
        ),
        "mc_dropout.predict_us": (predicts.mean_us(), predicts.count),
        "mc_dropout.reuse_ratio": (per(executed, naive), predicts.count),
        "macro.matvec_calls_per_infer": (
            per(matvec.count, predicts.count),
            predicts.count,
        ),
        "macro.matvec_delta_calls_per_infer": (
            per(delta.count, predicts.count),
            predicts.count,
        ),
        "macro.matvec_many_calls_per_infer": (
            per(many.count, predicts.count),
            predicts.count,
        ),
        "macro.us_per_infer": (
            per(1e6 * (matvec.total + delta.total + many.total), predicts.count),
            predicts.count,
        ),
        "localizer.step_us": (steps.mean_us(), steps.count),
        "motion.propagate_us": (
            get("motion.propagate").mean_us(),
            get("motion.propagate").count,
        ),
        "measurement.log_likelihoods_us": (
            get("measurement.log_likelihoods").mean_us(),
            get("measurement.log_likelihoods").count,
        ),
        "pf.resample_rate": (_mean(get("pf.step").notes), get("pf.step").count),
        "tiling.field_log_us": (field.mean_us(), field.count),
        "tiling.field_log_calls_per_step": (
            per(field.count, steps.count),
            steps.count,
        ),
        "tiling.points_per_call": (_mean(field.notes), field.count),
        "array.read_us": (reads.mean_us(), reads.count),
        "array.reads_per_step": (per(reads.count, steps.count), steps.count),
        "array.queries_per_read": (_mean(reads.notes), reads.count),
    }


def add_layer_metrics(
    report: Report,
    stats: dict[str, SpanStats],
    observed: dict[str, tuple[float, int]],
    unobserved_note: str,
) -> None:
    """Fill ``report`` with every per-layer metric, in declared order.

    ``observed`` holds the response-derived metrics (see
    :data:`OBSERVED`) the workload can see.  A metric with no samples
    reports 0 and carries ``unobserved_note`` saying why it is not
    observable here.
    """
    unknown = set(observed) - set(OBSERVED)
    if unknown:
        raise RuntimeError(f"not response-derived metrics: {sorted(unknown)}")
    measured: dict[str, Any] = {
        **{name: (0.0, 0) for name in OBSERVED},
        **span_metrics(stats),
        **observed,
    }
    for name, unit in PER_LAYER:
        value, samples = measured[name]
        note = unobserved_note if samples == 0 else ""
        report.add(name, value, unit, samples=samples, note=note)
