"""``http-mixed``: the shipped deployment, driven over HTTP.

Set-up: ``repro serve --workers 2 --tracks --substrates cim
--track-substrates cim`` runs as a child process on an ephemeral port
with its default batch policy (started through
:mod:`servebench.launcher`).  ``setup_s`` runs from process start until
the server reports it is serving -- every shard warmed, so the first
operation can be sent.

Load: :data:`N_CLIENTS` closed-loop client threads, one
``http.client`` connection object each (the stdlib server answers
HTTP/1.0, so the connection reconnects per request).  Each client
repeatedly opens a track, steps it :data:`STEPS_PER_TRACK` times with an
``/infer`` (4 rows, distinct seed) after every second step, then closes
it.  :data:`WARMUP_CYCLES` cycles per client run untimed first.

Why: at this concurrency micro-batches are ~1, so the batch window,
HTTP/JSON and the shard pipe hop dominate -- batching and fusion are
bypassed, track open/close (state writes) runs beside steps (reads), and
``/infer`` uses ``cim``, not reuse.  It is the only workload on the
sharded backend and the live HTTP path.

Hygiene: ``/stats`` is read before and after each phase (rejections,
shard respawns, shard pids); at the end the server is SIGTERMed and the
run fails if the server or any shard outlives it.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.api.results import strict_dumps, strict_loads
from repro.serve import (
    InferenceRequest,
    InferenceResponse,
    TrackOpenRequest,
    TrackStepRequest,
    TrackStepResponse,
)
from servebench.common import (
    PURPOSE_INFER,
    PURPOSE_SAMPLE,
    PURPOSE_TRACK,
    WORKLOAD_KEYS,
    OpLog,
    Report,
    add_end_to_end,
    add_failures,
    add_kind_detail,
    keyed_rng,
    now,
    out_dir,
    peak_rss_mb,
    process_gone,
)
from servebench.inputs import Orbit, infer_request, track_spec
from servebench.layers import add_layer_metrics, service_metrics
from servebench.oracles import check_infers, check_tracks
from servebench.run_result import RunResult
from servebench.tracer import aggregate, load_spans

WORKLOAD = "http-mixed"
SUBSTRATE = "cim"
N_ITERATIONS = 16  # repro serve's default MC depth
SERVE_ARGS = (
    "serve", "--host", "127.0.0.1", "--port", "0", "--workers", "2",
    "--tracks", "--substrates", SUBSTRATE, "--track-substrates", SUBSTRATE,
)
N_CLIENTS = 2
STEPS_PER_TRACK = 8
INFER_EVERY = 2
WARMUP_CYCLES = 2
PARITY_TRACKS = 4
PARITY_REQUESTS = 8
SETUP_REPEATS = 3
START_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 30.0
HTTP_TIMEOUT_S = 60.0


class Server:
    """One ``repro serve`` child process and its shard processes."""

    def __init__(self, root: str, index: int, trace_out: str | None = None):
        command = [sys.executable, os.path.join(root, "servebench", "launcher.py")]
        if trace_out is not None:
            command += ["--trace-out", trace_out]
        command += list(SERVE_ARGS)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src"), root]
        )
        self.log_path = os.path.join(out_dir(root), f"{WORKLOAD}-server-{index}.log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.shard_pids: set[int] = set()
        start = now()
        self.process = subprocess.Popen(
            command,
            cwd=root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._drain, args=(lines,), daemon=True
        )
        self._reader.start()
        self.port = self._await_port(lines, start + START_TIMEOUT_S)
        self.setup_s = now() - start
        self.stats()  # learn the shard pids stop() must see gone

    def _drain(self, lines: queue.Queue) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            lines.put(line)
        lines.put(None)

    def _await_port(self, lines: queue.Queue, deadline: float) -> int:
        while True:
            try:
                line = lines.get(timeout=max(0.0, deadline - now()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError(
                    f"server did not start; see {self.log_path}"
                )
            if line.startswith("serving ") and "http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError(f"GET {path}: HTTP {response.status}")
            return json.loads(body)
        finally:
            conn.close()

    def stats(self) -> dict:
        """``/stats`` plus the shard pids it names (remembered for stop)."""
        stats = self.get("/stats")
        self.shard_pids.update(shard["pid"] for shard in stats["shards"]["shards"])
        return stats

    def peak_rss_mb(self) -> float:
        """Summed peak resident memory of the server and its shards."""
        self.stats()
        pids = [self.process.pid] + sorted(self.shard_pids)
        return sum(peak_rss_mb(pid) for pid in pids if not process_gone(pid))

    def stop(self) -> list[str]:
        """SIGTERM the server; problems if it or a shard outlives it."""
        problems = []
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"server {self.process.pid} ignored SIGTERM")
            self.process.kill()
            self.process.wait(timeout=STOP_TIMEOUT_S)
        if self.process.returncode not in (0, -signal.SIGTERM):
            problems.append(
                f"server exited with code {self.process.returncode}; "
                f"see {self.log_path}"
            )
        deadline = now() + 5.0
        while now() < deadline and not all(map(process_gone, self.shard_pids)):
            time.sleep(0.05)
        for pid in sorted(self.shard_pids):
            if not process_gone(pid):
                problems.append(f"shard {pid} outlived the server")
                os.kill(pid, signal.SIGKILL)
        self._reader.join(timeout=STOP_TIMEOUT_S)
        self._log.close()
        return problems


def counters(stats: dict) -> tuple[int, int]:
    """(rejected admissions, shard respawns) from one ``/stats`` read."""
    rejected = stats["rejected"] + (stats["tracks"] or {}).get("rejected", 0)
    return rejected, stats["shards"]["respawns"]


@dataclass
class ClientLog:
    """One client thread's raw record; decoded after the run."""

    # (kind, cycle, body bytes, send time, receive time) of served ops
    served: list[tuple] = field(default_factory=list)
    tracks: list[tuple] = field(default_factory=list)  # (cycle, id, spec, n)
    infers: list[tuple] = field(default_factory=list)  # (id, seed, inputs)
    errors: list[str] = field(default_factory=list)


@dataclass
class Phase:
    log: OpLog = field(default_factory=OpLog)
    t0: float = 0.0
    t1: float = 0.0
    clients: list[ClientLog] = field(default_factory=list)
    stats_before: dict = field(default_factory=dict)
    stats_after: dict = field(default_factory=dict)

    def errors(self) -> list[str]:
        return [error for client in self.clients for error in client.errors]


def drive(server: Server, orbit: Orbit, seed: int, phase_key: int,
          seconds: float) -> Phase:
    """One closed-loop phase of :data:`N_CLIENTS` client threads."""
    phase = Phase(clients=[ClientLog() for _ in range(N_CLIENTS)])
    phase.stats_before = server.stats()
    lock = threading.Lock()
    workload = WORKLOAD_KEYS[WORKLOAD]

    def open_window() -> None:
        phase.t0 = now()
        phase.t1 = phase.t0 + seconds

    barrier = threading.Barrier(N_CLIENTS, action=open_window)

    def client(c: int) -> None:
        record = phase.clients[c]
        track_rng = keyed_rng(seed, workload, PURPOSE_TRACK, phase_key, c)
        infer_rng = keyed_rng(seed, workload, PURPOSE_INFER, phase_key, c)
        conn = http.client.HTTPConnection(
            "127.0.0.1", server.port, timeout=HTTP_TIMEOUT_S
        )

        def post(kind: str, cycle: int, path: str, body: str) -> bool:
            start = now()
            try:
                conn.request(
                    "POST", path, body=body.encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                data = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as error:
                conn.close()
                end = now()
                with lock:
                    phase.log.add(kind, start, end, False)
                record.errors.append(f"{path}: {error!r}")
                return False
            end = now()
            ok = status == 200
            with lock:
                phase.log.add(kind, start, end, ok)
            if ok:
                record.served.append((kind, cycle, data, start, end))
            else:
                record.errors.append(f"{path}: HTTP {status} {data[:200]!r}")
            return ok

        def cycle(k: int, timed: bool) -> None:
            spec = track_spec(track_rng, orbit)
            track_id = f"mixed-{phase_key}-{c}-{k}"
            body = TrackOpenRequest(
                init=spec.init, substrate=SUBSTRATE, seed=spec.seed,
                track_id=track_id,
            ).to_json()
            if not post("open", k, "/track/open", body):
                return
            steps = 0
            for j in range(STEPS_PER_TRACK):
                if timed and now() >= phase.t1:
                    break
                control, depth, truth = orbit.measurement(spec.phase, j)
                body = TrackStepRequest(track_id, control, depth, truth).to_json()
                if not post("step", k, "/track/step", body):
                    break
                steps += 1
                if steps % INFER_EVERY == 0 and not (timed and now() >= phase.t1):
                    request_seed, inputs = infer_request(infer_rng)
                    request_id = f"{track_id}-i{steps // INFER_EVERY}"
                    body = InferenceRequest(
                        inputs, substrate=SUBSTRATE, seed=request_seed,
                        request_id=request_id,
                    ).to_json()
                    if post("infer", k, "/infer", body):
                        record.infers.append((request_id, request_seed, inputs))
            record.tracks.append((k, track_id, spec, steps))
            post("close", k, "/track/close", strict_dumps({"track_id": track_id}))

        try:
            k = 0
            for _ in range(WARMUP_CYCLES):
                cycle(k, timed=False)
                k += 1
            barrier.wait()
            while now() < phase.t1:
                cycle(k, timed=True)
                k += 1
        finally:
            conn.close()

    threads = [
        threading.Thread(target=client, args=(c,), name=f"servebench-client-{c}")
        for c in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    phase.stats_after = server.stats()
    return phase


@dataclass
class Decoded:
    """Responses of one phase, decoded from the raw bodies."""

    steps: dict[str, list[Any]] = field(default_factory=dict)  # by track id
    infers: dict[str, Any] = field(default_factory=dict)  # by request id
    warm_steps: list[Any] = field(default_factory=list)
    warm_infers: list[Any] = field(default_factory=list)
    timed: list[tuple[Any, float]] = field(default_factory=list)  # (resp, rtt)


def decode(phase: Phase) -> Decoded:
    decoded = Decoded()
    for c, client in enumerate(phase.clients):
        for kind, cycle, data, start, end in client.served:
            if kind not in ("step", "infer"):
                continue
            payload = strict_loads(data.decode("utf-8"))
            warm = cycle < WARMUP_CYCLES
            if kind == "step":
                response = TrackStepResponse.from_dict(payload)
                decoded.steps.setdefault(response.track_id, []).append(response)
                if warm:
                    decoded.warm_steps.append(response)
            else:
                response = InferenceResponse.from_dict(payload)
                decoded.infers[response.request_id] = response
                if warm:
                    decoded.warm_infers.append(response)
            if not warm and phase.t0 <= start < phase.t1:
                decoded.timed.append((response, end - start))
    return decoded


def parity(phase: Phase, decoded: Decoded, orbit: Orbit, seed: int) -> list[str]:
    """Seeded samples of tracks and ``/infer`` responses vs the oracles."""
    rng = keyed_rng(seed, WORKLOAD_KEYS[WORKLOAD], PURPOSE_SAMPLE)
    tracks = sorted(
        (c, k, track_id, spec)
        for c, client in enumerate(phase.clients)
        for k, track_id, spec, n_steps in client.tracks
        if n_steps > 0
    )
    infers = sorted(
        (c, request_id, request_seed, inputs)
        for c, client in enumerate(phase.clients)
        for request_id, request_seed, inputs in client.infers
    )
    track_picks = rng.choice(len(tracks), size=min(PARITY_TRACKS, len(tracks)),
                             replace=False)
    infer_picks = rng.choice(len(infers), size=min(PARITY_REQUESTS, len(infers)),
                             replace=False)
    problems = check_tracks(
        [
            (tracks[i][2], tracks[i][3], decoded.steps.get(tracks[i][2], []))
            for i in sorted(int(p) for p in track_picks)
        ],
        orbit,
        SUBSTRATE,
    )
    problems += check_infers(
        [
            infers[i][1:] + (decoded.infers[infers[i][1]],)
            for i in sorted(int(p) for p in infer_picks)
        ],
        SUBSTRATE,
        N_ITERATIONS,
    )
    return problems


def run(seed: int, seconds: float, trace: bool, root: str) -> RunResult:
    orbit = Orbit()
    window = seconds / 2 if trace else seconds
    problems: list[str] = []
    setup_times: list[float] = []
    server = None
    try:
        for attempt in range(SETUP_REPEATS):
            server = Server(root, attempt)
            setup_times.append(server.setup_s)
            if attempt < SETUP_REPEATS - 1:
                problems += server.stop()
                server = None
        first = drive(server, orbit, seed, 0, window)
        rss = server.peak_rss_mb()
        problems += server.stop()
        server = None
        traced = None
        if trace:
            trace_out = traced_out_path(root, seed)
            server = Server(root, SETUP_REPEATS, trace_out=trace_out)
            traced = drive(server, orbit, seed, 1, window)
            problems += server.stop()
            server = None
            with open(trace_out + ".meta.json", encoding="utf-8") as handle:
                problems += [
                    f"tracer self-test: {name} was not restored"
                    for name in json.load(handle)["not_restored"]
                ]
    finally:
        if server is not None:
            server.stop()

    phases = [first] + ([traced] if traced else [])
    decoded_first = decode(first)
    mismatches = parity(first, decoded_first, orbit, seed)
    problems += mismatches
    attempted = sum(phase.log.attempted for phase in phases)
    failed = sum(phase.log.failed for phase in phases) + len(mismatches)

    report = Report(WORKLOAD)
    if traced is None:
        add_end_to_end(
            report,
            first.log,
            first.t0,
            first.t1,
            None,
            [r.step_energy_j for r in decoded_first.warm_steps]
            + [r.result.energy_j for r in decoded_first.warm_infers],
            setup_times,
            rss,
            "all HTTP ops: open, step, infer, close",
        )
        for kind in ("step", "infer"):
            add_kind_detail(report, first.log, first.t0, first.t1, kind, kind)
        open_close = first.log.window(first.t0, first.t1, ("open", "close"))[1]
        report.add("open_close_p50_ms", statistics.median(open_close), "ms",
                   samples=len(open_close))
        report.add(
            "pos_error_m",
            statistics.fmean(r.error_m for r in decoded_first.warm_steps),
            "m",
            samples=len(decoded_first.warm_steps),
            note="simulated, seed-determined warm-up steps",
        )
    else:
        decoded = decode(traced)
        untraced_rate, _ = first.log.window(first.t0, first.t1)
        traced_rate, _ = traced.log.window(traced.t0, traced.t1)
        responses = [response for response, _ in decoded.timed]
        step_responses = [r for r in responses if isinstance(r, TrackStepResponse)]
        infer_responses = [r for r in responses if isinstance(r, InferenceResponse)]
        rejected_before, respawns_before = counters(traced.stats_before)
        rejected_after, respawns_after = counters(traced.stats_after)
        spans = load_spans(traced_out_path(root, seed))
        add_layer_metrics(
            report,
            aggregate(spans),
            {
                **service_metrics(responses),
                "service.group_size_mean": (
                    statistics.fmean(r.group_size for r in infer_responses),
                    len(infer_responses),
                ),
                "service.rejected": (
                    float(rejected_after - rejected_before),
                    traced.log.attempted,
                ),
                "http.overhead_p50_ms": (
                    1e3 * statistics.median(
                        rtt - response.total_s for response, rtt in decoded.timed
                    ),
                    len(decoded.timed),
                ),
                "workers.respawns": (
                    float(respawns_after - respawns_before),
                    traced.log.attempted,
                ),
                "energy.ops_per_step": (
                    statistics.fmean(r.step_ops for r in step_responses),
                    len(step_responses),
                ),
                "energy.ops_per_infer": (
                    statistics.fmean(r.result.ops_executed for r in infer_responses),
                    len(infer_responses),
                ),
                "trace.overhead_frac": (
                    1.0 - traced_rate / untraced_rate,
                    len(responses),
                ),
            },
            "shard-internal under http-mixed (spawned shards are not "
            "wrapped); attributed by tracks-fleet / infer-ordered",
        )
    for label, phase in zip(("untraced", "traced"), phases):
        rejected_before, respawns_before = counters(phase.stats_before)
        rejected_after, respawns_after = counters(phase.stats_after)
        report.notes.append(
            f"/stats over the {label} phase: "
            f"{rejected_after - rejected_before} rejected, "
            f"{respawns_after - respawns_before} shard respawns"
        )
    add_failures(report, attempted, failed)
    errors = [error for phase in phases for error in phase.errors()]
    return RunResult(report, attempted, failed, problems, errors)


def traced_out_path(root: str, seed: int) -> str:
    return os.path.join(out_dir(root), f"{WORKLOAD}-seed{seed}-spans.jsonl")
