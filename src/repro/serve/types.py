"""Typed request/response schema of the inference service.

A request is *stateless*: everything needed to reproduce its result --
the input batch, the substrate and model names, and the seed -- travels
in the request itself.  The determinism contract (asserted by tests and
the CI smoke step) is that the response's result is bit-for-bit what a
direct pinned-mask run on an identically constructed session produces::

    base = np.random.default_rng(request.seed)
    plan = session.draw_masks(base)
    reference = session.run(request.inputs, rng=base, masks=plan)

independent of which other requests happened to share the micro-batch.

Both dataclasses round-trip through the :mod:`repro.api.results`
``to_jsonable`` machinery; over the HTTP wire they use the *strict*
encoding (:func:`repro.api.results.strict_dumps`), which replaces
non-finite floats with tagged sentinels so the emitted JSON is valid for
any client.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any

import numpy as np

from repro.api.results import (
    InferenceResult,
    from_jsonable,
    strict_dumps,
    strict_loads,
    to_jsonable,
)

DEFAULT_MODEL = "default"


def _require_finite(name: str, array: np.ndarray) -> None:
    """Admission check: a non-finite value would execute into a
    confident-looking answer (or a mid-step failure), never a 400."""
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite (no NaN or inf)")


def _state_vector(name: str, value: Any) -> np.ndarray:
    """Admission check for a (4,) state-shaped vector: x, y, z, yaw."""
    vector = np.asarray(value, dtype=float).reshape(-1)
    if vector.size != 4:
        raise ValueError(f"{name} must have 4 elements, got {vector.size}")
    _require_finite(name, vector)
    return vector


def _seed(value: Any) -> int:
    """A request seed: an integer >= 0 -- never a bool, and never a
    float, which would otherwise be served truncated (2.7 as seed 2)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
        raise ValueError(f"'seed' must be a non-negative integer, got {value!r}")
    return int(value)


class RequestExecutionError(RuntimeError):
    """A request failed *while executing* on its session.

    Submission-time problems (unknown substrate, width mismatch,
    overload) raise their own types from ``submit`` before batching;
    this wrapper marks failures from inside a shard's execution so
    transports can distinguish server-side faults (HTTP 500) from client
    errors (400).  The message carries the original exception's type and
    message (outcomes cross shard pipes as plain strings).
    """


class ServiceOverloaded(RuntimeError):
    """The service's bounded request queue is full.

    Raised (HTTP 503) instead of queueing without bound: the caller sees
    the overload immediately and can back off or shed load.

    Attributes:
        pending: admitted-but-unfinished requests at rejection time.
        max_pending: the queue policy's admission bound.
    """

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"service overloaded: {pending} pending request(s) at the "
            f"admission bound of {max_pending}; retry later"
        )
        self.pending = pending
        self.max_pending = max_pending


class WorkerCrashed(ServiceOverloaded):
    """A worker shard died while (or before) serving a micro-batch.

    Subclasses :class:`ServiceOverloaded` deliberately: shard death is a
    transient capacity loss -- the pool respawns the shard -- so
    transports answer it with the same retryable 503, never a hung
    future.  ``shard`` is the dead shard's index (-1 when no shard was
    available at all) and ``pending`` counts the requests that were in
    flight on it.  ``max_pending`` is 0: shard death is not an admission
    rejection, so there is no meaningful queue bound to report (HTTP
    crash replies carry ``shard``/``pending`` instead).
    """

    def __init__(self, shard: int, pending: int, message: str | None = None):
        RuntimeError.__init__(
            self,
            message
            or (
                f"worker shard {shard} died with {pending} in-flight "
                "request(s); the shard is respawning -- retry"
            ),
        )
        self.shard = shard
        self.pending = pending
        self.max_pending = 0


class TrackError(RuntimeError):
    """A track operation referenced a track that cannot serve it.

    ``kind`` is machine-readable: ``"unknown"`` (never opened, or
    tombstone aged out), ``"expired"`` (evicted by the idle-TTL sweep),
    ``"closed"`` (explicitly closed by the client), or ``"disabled"``
    (the service was built without a track world).  Transports map kinds
    onto statuses (404 unknown/disabled, 410 expired/closed); none of
    them is retryable.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


@dataclass(frozen=True)
class InferenceRequest:
    """One stateless MC-Dropout inference request.

    Attributes:
        inputs: (B, in) feature batch (1-D inputs are promoted); every
            value must be finite.
        substrate: registered substrate name to run on.
        model: served model name (services may host several).
        seed: determinism seed -- fixes the dropout mask plan and the
            analog noise stream (see the module docstring contract).
        request_id: optional caller-side correlation id, echoed back.
    """

    inputs: np.ndarray
    substrate: str = "cim"
    model: str = DEFAULT_MODEL
    seed: int = 0
    request_id: str | None = None

    def __post_init__(self) -> None:
        array = np.asarray(self.inputs, dtype=float)
        if array.ndim > 2:
            raise ValueError(
                f"request inputs must be 1-D or 2-D, got shape {array.shape}"
            )
        _require_finite("request inputs", array)
        object.__setattr__(self, "inputs", np.atleast_2d(array))
        object.__setattr__(self, "seed", _seed(self.seed))

    def wire_item(self) -> tuple:
        """The plain picklable tuple this request contributes to a
        micro-batch (see :data:`repro.serve.execution.RequestItem`)."""
        return (self.inputs, self.seed, self.request_id)

    def to_dict(self) -> dict:
        return to_jsonable(dataclasses.asdict(self))

    def to_json(self, indent: int | None = None) -> str:
        return strict_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "InferenceRequest":
        data = from_jsonable(dict(payload))
        if "inputs" not in data:
            raise ValueError("request payload is missing 'inputs'")
        unknown = set(data) - {
            "inputs", "substrate", "model", "seed", "request_id",
        }
        if unknown:
            raise ValueError(
                f"unknown request field(s) {sorted(unknown)}; expected "
                "inputs/substrate/model/seed/request_id"
            )
        return cls(
            inputs=np.asarray(data["inputs"], dtype=float),
            substrate=str(data.get("substrate", "cim")),
            model=str(data.get("model", DEFAULT_MODEL)),
            seed=data.get("seed", 0),
            request_id=(
                None
                if data.get("request_id") is None
                else str(data["request_id"])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "InferenceRequest":
        return cls.from_dict(strict_loads(text))


@dataclass
class InferenceResponse:
    """The service's answer to one :class:`InferenceRequest`.

    Attributes:
        result: the per-request :class:`InferenceResult` -- mean /
            variance / ops / energy are scoped to this request alone
            (concurrent requests never bleed metering into each other).
        substrate: substrate the request ran on (resolved name).
        model: model name the request ran against.
        seed: the request's determinism seed.
        request_id: echoed correlation id.
        batch_size: size of the micro-batch this request was coalesced
            into (1 = served alone).
        group_size: requests in the batch that shared this request's
            seed, and therefore one mask-plan draw.
        queue_s: time from admission to execution start.
        total_s: time from admission to completion.
    """

    result: InferenceResult
    substrate: str
    model: str
    seed: int
    request_id: str | None = None
    batch_size: int = 1
    group_size: int = 1
    queue_s: float = 0.0
    total_s: float = 0.0
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "result": self.result.to_dict(),
            "substrate": self.substrate,
            "model": self.model,
            "seed": self.seed,
            "request_id": self.request_id,
            "batch_size": self.batch_size,
            "group_size": self.group_size,
            "queue_s": self.queue_s,
            "total_s": self.total_s,
            "extras": to_jsonable(self.extras),
        }

    def to_json(self, indent: int | None = None) -> str:
        return strict_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "InferenceResponse":
        return cls(
            result=InferenceResult.from_dict(payload["result"]),
            substrate=payload["substrate"],
            model=payload.get("model", DEFAULT_MODEL),
            seed=int(payload.get("seed", 0)),
            request_id=payload.get("request_id"),
            batch_size=int(payload.get("batch_size", 1)),
            group_size=int(payload.get("group_size", 1)),
            queue_s=float(payload.get("queue_s", 0.0)),
            total_s=float(payload.get("total_s", 0.0)),
            extras=from_jsonable(payload.get("extras", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "InferenceResponse":
        return cls.from_dict(strict_loads(text))


@dataclass(frozen=True)
class TrackInit:
    """How a track's particle filter is initialized on open (and again
    on crash recovery, whether replaying or re-initializing).

    ``mode="tracking"`` needs a finite prior ``state`` (4,) and a finite
    ``sigma`` (4,) >= 0; ``mode="global"`` spreads particles over the
    map (``z_range`` optional: finite, low <= high).  The init crosses
    the wire and the shard pipe, so it only holds plain arrays.
    """

    mode: str = "tracking"
    state: np.ndarray | None = None
    sigma: np.ndarray | None = None
    z_range: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("tracking", "global"):
            raise ValueError(
                f"init mode must be 'tracking' or 'global', got {self.mode!r}"
            )
        if self.mode == "tracking":
            if self.state is None or self.sigma is None:
                raise ValueError(
                    "init mode 'tracking' needs 'state' and 'sigma'"
                )
            object.__setattr__(
                self, "state", _state_vector("init state", self.state)
            )
            object.__setattr__(
                self, "sigma", _state_vector("init sigma", self.sigma)
            )
            if (self.sigma < 0).any():
                raise ValueError("init sigma must be >= 0")
        if self.z_range is not None:
            low, high = (float(bound) for bound in self.z_range)
            _require_finite("init z_range", np.array([low, high]))
            if low > high:
                raise ValueError(
                    f"init z_range needs low <= high, got {self.z_range}"
                )
            object.__setattr__(self, "z_range", (low, high))

    def apply(self, session: Any, rng: np.random.Generator) -> None:
        """Initialize ``session`` (a LocalizationSession) with ``rng``."""
        if self.mode == "tracking":
            session.initialize_tracking(self.state, self.sigma, rng)
        else:
            session.initialize_global(rng, z_range=self.z_range)

    def to_dict(self) -> dict:
        return to_jsonable(
            {
                "mode": self.mode,
                "state": self.state,
                "sigma": self.sigma,
                "z_range": (
                    None if self.z_range is None else list(self.z_range)
                ),
            }
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackInit":
        data = from_jsonable(dict(payload))
        unknown = set(data) - {"mode", "state", "sigma", "z_range"}
        if unknown:
            raise ValueError(
                f"unknown init field(s) {sorted(unknown)}; expected "
                "mode/state/sigma/z_range"
            )
        z_range = data.get("z_range")
        return cls(
            mode=str(data.get("mode", "tracking")),
            state=data.get("state"),
            sigma=data.get("sigma"),
            z_range=None if z_range is None else tuple(z_range),
        )


@dataclass(frozen=True)
class TrackOpenRequest:
    """``POST /track/open``: start one live localization stream.

    Attributes:
        substrate: registered substrate name the track runs on.
        init: filter initialization (see :class:`TrackInit`).
        seed: the track's determinism seed -- one generator seeded with
            it drives the init and every subsequent step, exactly as a
            one-shot ``LocalizationSession.run()`` with the same
            generator would (the stream determinism contract).
        track_id: optional caller-chosen id; autogenerated when omitted.
    """

    init: TrackInit
    substrate: str = "cim"
    seed: int = 0
    track_id: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", _seed(self.seed))

    def to_dict(self) -> dict:
        return {
            "substrate": self.substrate,
            "init": self.init.to_dict(),
            "seed": self.seed,
            "track_id": self.track_id,
        }

    def to_json(self, indent: int | None = None) -> str:
        return strict_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackOpenRequest":
        data = dict(payload)
        unknown = set(data) - {"substrate", "init", "seed", "track_id"}
        if unknown:
            raise ValueError(
                f"unknown track-open field(s) {sorted(unknown)}; expected "
                "substrate/init/seed/track_id"
            )
        if "init" not in data:
            raise ValueError("track-open payload is missing 'init'")
        return cls(
            init=TrackInit.from_dict(data["init"]),
            substrate=str(data.get("substrate", "cim")),
            seed=data.get("seed", 0),
            track_id=(
                None if data.get("track_id") is None else str(data["track_id"])
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "TrackOpenRequest":
        return cls.from_dict(strict_loads(text))


@dataclass(frozen=True)
class TrackStepRequest:
    """``POST /track/step``: one measurement for one live track.

    Attributes:
        track_id: the open track this measurement belongs to.
        control: (4,) body-frame odometry increment; must be finite.
        depth: the depth frame for this step (NaN marks an invalid
            pixel).
        truth: optional (4,) ground-truth state; when given, it must be
            finite and the response reports the position error for
            this step.
    """

    track_id: str
    control: np.ndarray
    depth: np.ndarray
    truth: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "control", _state_vector("track-step control", self.control)
        )
        object.__setattr__(
            self, "depth", np.asarray(self.depth, dtype=float)
        )
        if self.truth is not None:
            object.__setattr__(
                self, "truth", _state_vector("track-step truth", self.truth)
            )

    def wire_item(self) -> tuple:
        """The picklable per-step tuple batched across tracks:
        ``(track_id, control, depth, truth)``."""
        return (self.track_id, self.control, self.depth, self.truth)

    def to_dict(self) -> dict:
        return to_jsonable(
            {
                "track_id": self.track_id,
                "control": self.control,
                "depth": self.depth,
                "truth": self.truth,
            }
        )

    def to_json(self, indent: int | None = None) -> str:
        return strict_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackStepRequest":
        data = from_jsonable(dict(payload))
        unknown = set(data) - {"track_id", "control", "depth", "truth"}
        if unknown:
            raise ValueError(
                f"unknown track-step field(s) {sorted(unknown)}; expected "
                "track_id/control/depth/truth"
            )
        for required in ("track_id", "control", "depth"):
            if data.get(required) is None:
                raise ValueError(
                    f"track-step payload is missing {required!r}"
                )
        return cls(
            track_id=str(data["track_id"]),
            control=data["control"],
            depth=data["depth"],
            truth=data.get("truth"),
        )

    @classmethod
    def from_json(cls, text: str) -> "TrackStepRequest":
        return cls.from_dict(strict_loads(text))


@dataclass
class TrackStepResponse:
    """The service's answer to one :class:`TrackStepRequest`.

    ``estimate`` and the *cumulative* metering fields (``energy_j`` /
    ``ops_executed`` / ``energy_breakdown_j``, scoped from track open)
    are the stream determinism contract: after N acked steps they are
    bit-for-bit what a one-shot ``LocalizationSession.run()`` over the
    same N measurements reports on an identically built session.
    ``step_energy_j`` / ``step_ops`` meter this step alone.

    ``state_lost`` is True on the first response after a crash recovery
    that could not replay (the filter restarted from the track's init;
    metering restarted with it).  ``replayed_steps`` counts the buffered
    measurements re-executed by a successful replay recovery.
    """

    track_id: str
    step_index: int
    estimate: np.ndarray
    ess: float
    resampled: bool
    log_evidence: float
    spread: float
    energy_j: float
    ops_executed: int
    energy_breakdown_j: dict[str, float]
    step_energy_j: float
    step_ops: int
    substrate: str
    error_m: float | None = None
    state_lost: bool = False
    replayed_steps: int = 0
    batch_size: int = 1
    queue_s: float = 0.0
    total_s: float = 0.0

    def to_dict(self) -> dict:
        # A shallow field dict: ``dataclasses.asdict`` would deep-copy
        # the estimate and breakdown only for to_jsonable to copy again.
        return to_jsonable(
            {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        )

    def to_json(self, indent: int | None = None) -> str:
        return strict_dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "TrackStepResponse":
        data = from_jsonable(dict(payload))
        return cls(
            track_id=str(data["track_id"]),
            step_index=int(data["step_index"]),
            estimate=np.asarray(data["estimate"], dtype=float),
            ess=float(data["ess"]),
            resampled=bool(data["resampled"]),
            log_evidence=float(data["log_evidence"]),
            spread=float(data["spread"]),
            energy_j=float(data["energy_j"]),
            ops_executed=int(data["ops_executed"]),
            energy_breakdown_j=dict(data["energy_breakdown_j"]),
            step_energy_j=float(data["step_energy_j"]),
            step_ops=int(data["step_ops"]),
            substrate=str(data["substrate"]),
            error_m=(
                None if data.get("error_m") is None else float(data["error_m"])
            ),
            state_lost=bool(data.get("state_lost", False)),
            replayed_steps=int(data.get("replayed_steps", 0)),
            batch_size=int(data.get("batch_size", 1)),
            queue_s=float(data.get("queue_s", 0.0)),
            total_s=float(data.get("total_s", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "TrackStepResponse":
        return cls.from_dict(strict_loads(text))


__all__ = [
    "DEFAULT_MODEL",
    "InferenceRequest",
    "InferenceResponse",
    "RequestExecutionError",
    "ServiceOverloaded",
    "TrackError",
    "TrackInit",
    "TrackOpenRequest",
    "TrackStepRequest",
    "TrackStepResponse",
    "WorkerCrashed",
]
