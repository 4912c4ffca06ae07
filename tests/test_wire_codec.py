"""Byte-identity gate for the strict wire codec.

``strict_dumps`` encodes through the C encoder and only falls back to
the ``to_jsonable`` + ``sanitize_nonfinite`` walk for payloads that need
it; ``strict_loads`` restores non-finite sentinels per dict.  Both must
produce exactly what the walking codec produces -- same bytes out, same
values back, same errors -- for every payload shape below, including
real ``/infer`` and ``/track/step`` responses.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from repro.api.results import (
    restore_nonfinite,
    sanitize_nonfinite,
    strict_dumps,
    strict_loads,
    to_jsonable,
)

NAN, INF = float("nan"), float("inf")


def walking_dumps(obj, indent=None):
    """The walking codec every payload must stay byte-identical to."""
    return json.dumps(
        sanitize_nonfinite(to_jsonable(obj)), indent=indent, allow_nan=False
    )


def walking_loads(text):
    return restore_nonfinite(json.loads(text))


@dataclass
class _Reading:
    name: str
    values: np.ndarray
    meta: dict = field(default_factory=dict)


class _Opaque:
    def __str__(self) -> str:
        return "opaque-thing"


SYNTHETIC = {
    "finite": {"a": 1, "b": 2.5, "c": "s", "d": None, "e": True, "f": [1, 2]},
    "scalar-nan": NAN,
    "scalar-inf": INF,
    "scalar-ninf": -INF,
    "nonfinite-in-dict": {"x": NAN, "y": {"z": -INF}, "ok": 1.0},
    "nonfinite-in-list": [1.0, NAN, [INF, [-INF]]],
    "nonfinite-in-array": np.array([[NAN, 1.0], [INF, -INF]]),
    "nonfinite-float32-array": np.array([NAN, 2.5], dtype=np.float32),
    "nested": {"t": (1, (2.0, "x")), "l": [{"k": [1, {"m": ()}]}], "e": {}},
    "array-0d": np.array(3.5),
    "array-0d-nan": np.array(NAN),
    "array-0d-int": np.array(7, dtype=np.int64),
    "array-empty": np.zeros((0,)),
    "array-empty-2d": np.zeros((2, 0), dtype=np.float32),
    "array-int-bool": {"i": np.arange(6).reshape(2, 3), "b": np.array([True])},
    "array-object-str": np.array(["a", "b"], dtype=object),
    "np-scalars": {
        "f32": np.float32(1.1),
        "f64": np.float64(2.2),
        "f16": np.float16(0.1),
        "i64": np.int64(-7),
        "u8": np.uint8(255),
        "bool": np.bool_(True),
    },
    "np-scalar-nan": [np.float32(NAN), np.float64(-INF)],
    "np-scalar-bare": np.int64(3),
    "dataclass": _Reading("r", np.array([1.0, 2.0]), {"k": (1, 2)}),
    "dataclass-nonfinite": _Reading("r", np.array([NAN]), {"k": INF}),
    "nonstr-keys": {True: 1, None: 2, 1.5: 3, 2: 4},
    "nonstr-keys-false": {False: [1], "v": {None: {True: NAN}}},
    "nonstr-key-nan": {NAN: 1, -INF: 2},
    "nonstr-key-objects": {(1, 2): 3, Path("p"): 4, np.int64(5): 6},
    "str-key-true": {"true": 1, "null": None, "false": False},
    "str-value-lookalike": {"s": '"true": 1', "q": ['"null": ']},
    "unknown-objects": {"o": _Opaque(), "p": Path("a/b"), "s": {1}, "b": b"x"},
    "unknown-bare": _Opaque(),
    "unicode": {"ünï": "çødé ✓", "esc": "tab\tquote\"back\\"},
    "big-and-small": [10**30, -(2**63), 1e-300, 1.7976931348623157e308, -0.0],
}


@pytest.fixture(scope="module")
def served_payloads():
    """Real responses from an in-process service: an ``/infer`` answer
    and ``/track/step`` answers with and without a ground truth."""
    from repro.serve import InferenceRequest, InferenceService, TrackInit
    from repro.serve.demo import (
        demo_inputs,
        demo_model,
        demo_track_measurements,
        demo_track_world,
    )

    service = InferenceService(
        demo_model(),
        substrates=["cim"],
        n_iterations=4,
        track_world=demo_track_world(),
        track_substrates=["cim"],
    )
    controls, depths, truths = demo_track_measurements(n_steps=2)
    init = TrackInit(
        mode="tracking",
        state=truths[0],
        sigma=np.full(truths.shape[1], 0.05),
        z_range=None,
    )

    async def drive():
        async with service:
            infer = await service.submit(
                InferenceRequest(demo_inputs(), substrate="cim", seed=5)
            )
            track = await service.open_track("cim", init=init, seed=3)
            with_truth = await track.step(controls[0], depths[0], truths[0])
            without = await track.step(controls[1], depths[1])
            return infer, with_truth, without

    infer, with_truth, without = asyncio.run(drive())
    return {
        "infer-response": infer,
        "infer-response-dict": infer.to_dict(),
        "track-step-dict": with_truth.to_dict(),
        "track-step-no-truth-dict": without.to_dict(),
        "track-step": without,
        "infer-request-dict": InferenceRequest(
            demo_inputs(), substrate="cim", seed=5, request_id="r-1"
        ).to_dict(),
    }


def all_payloads(served_payloads):
    return {**SYNTHETIC, **served_payloads}


@pytest.mark.parametrize("indent", [None, 2])
def test_strict_dumps_is_byte_identical_to_the_walking_codec(
    served_payloads, indent
):
    for name, payload in all_payloads(served_payloads).items():
        assert strict_dumps(payload, indent=indent) == walking_dumps(
            payload, indent=indent
        ), name


def test_served_payloads_take_the_fast_path(served_payloads):
    # Real responses carry no non-finite floats: the C encoder alone
    # must produce the bytes, never the walking fallback.
    import repro.api.results as results

    walked = []
    original = results.sanitize_nonfinite

    def spy(obj):
        walked.append(obj)
        return original(obj)

    results.sanitize_nonfinite = spy
    try:
        for name, payload in served_payloads.items():
            strict_dumps(payload)
            assert not walked, name
    finally:
        results.sanitize_nonfinite = original


@pytest.mark.parametrize(
    "payload",
    [np.array([1 + 2j]), {"c": np.array([1], dtype="S1")}],
    ids=["complex-array", "bytes-array"],
)
def test_unencodable_payloads_fail_as_before(payload):
    with pytest.raises(TypeError) as walking:
        walking_dumps(payload)
    with pytest.raises(TypeError) as fast:
        strict_dumps(payload)
    assert str(fast.value) == str(walking.value)


def test_strict_loads_matches_the_walking_decoder(served_payloads):
    texts = [walking_dumps(p) for p in all_payloads(served_payloads).values()]
    texts += [
        '[{"__nonfinite__": "nan"}, {"__nonfinite__": "-inf"}]',
        '{"__nonfinite__": "inf", "other": 1}',
        '{"a": {"b": [{"__nonfinite__": "inf"}]}}',
        "NaN",
        '{"bare": [NaN, Infinity, -Infinity]}',
    ]
    for text in texts:
        # json.dumps spells NaN the same on both sides, which == cannot.
        assert json.dumps(strict_loads(text)) == json.dumps(
            walking_loads(text)
        ), text


@pytest.mark.parametrize(
    "text",
    [
        '{"__nonfinite__": "huge"}',
        '[1, {"__nonfinite__": "NaN"}]',
        '{"x": {"__nonfinite__": [1]}}',
        '{"__nonfinite__": {"__nonfinite__": "nan"}}',
    ],
)
def test_unknown_nonfinite_tag_is_a_value_error(text):
    with pytest.raises(ValueError, match="unknown non-finite tag"):
        walking_loads(text)
    with pytest.raises(ValueError, match="unknown non-finite tag"):
        strict_loads(text)


def test_round_trip_restores_nonfinite_values():
    payload = {"a": [NAN, INF, -INF, 1.5], "b": np.array([NAN, 2.0])}
    back = strict_loads(strict_dumps(payload))
    assert np.isnan(back["a"][0]) and back["a"][1:] == [INF, -INF, 1.5]
    assert np.isnan(back["b"]["__ndarray__"][0])
