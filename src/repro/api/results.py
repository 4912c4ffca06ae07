"""Common result schemas for the public API.

Two dataclasses carry everything the stack produces:

- :class:`InferenceResult` -- one substrate inference (MC-Dropout pass or
  a localization run): mean / variance / op counts / energy in a schema
  shared by every substrate.
- :class:`ExperimentResult` -- one experiment execution: metrics plus the
  resolved config, seed, substrate and timing metadata.

Both round-trip losslessly through JSON: numpy arrays are encoded as
tagged ``{"__ndarray__": ..., "dtype": ..., "shape": ...}`` objects so
``from_json(to_json(x))`` restores dtype and shape exactly.

Non-finite floats (``NaN``, ``Infinity``) survive the default round-trip
because Python's ``json`` both emits and parses the bare tokens -- but
those tokens are **not** valid JSON, so anything crossing a wire to
non-Python clients (the :mod:`repro.serve` HTTP endpoint) uses the
*strict* encoding instead: :func:`strict_dumps` replaces every
non-finite float with a tagged ``{"__nonfinite__": "nan"|"inf"|"-inf"}``
sentinel object and serialises with ``allow_nan=False``;
:func:`strict_loads` restores the floats exactly.

The way back into a typed config lives here too: :func:`replace_fields`
sets fields of a frozen config dataclass (an experiment config or a
scenario spec) from a mapping, coercing each value by
:func:`_coerce_field`.  ``--set`` overrides reach it through
:func:`parse_overrides`; spec JSON reaches it as parsed.
"""

from __future__ import annotations

import ast
import dataclasses
import difflib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.version import __version__

_NDARRAY_TAG = "__ndarray__"


def config_hash(overrides: Mapping[str, Any] | None) -> str:
    """Short stable digest of a config-override mapping.

    Used to disambiguate result filenames and job ids: two runs of the
    same experiment/substrate/seed with different ``--set`` overrides get
    different stems instead of silently overwriting each other.  The
    registry digests the *decoded* values
    (:func:`~repro.api.registry.override_digest`), so two spellings of
    one value (``0.5``, ``.5``) share a stem.  Returns ``""`` for no
    overrides so default filenames stay unchanged.
    """
    if not overrides:
        return ""
    # repro: ignore[DET006] hash input only; never parsed or sent anywhere
    canonical = json.dumps(to_jsonable(dict(overrides)), sort_keys=True)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:8]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serialisable primitives.

    Numpy arrays become tagged dicts (reversible via
    :func:`from_jsonable`); numpy scalars become Python scalars; tuples
    become lists; dataclasses become dicts.  Unknown objects fall back to
    ``str(obj)`` so report dicts never crash serialisation.
    """
    if isinstance(obj, np.ndarray):
        return {
            _NDARRAY_TAG: obj.tolist(),
            "dtype": str(obj.dtype),
            "shape": list(obj.shape),
        }
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(value) for value in obj]
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return str(obj)


def from_jsonable(obj: Any) -> Any:
    """Reverse :func:`to_jsonable`, restoring tagged numpy arrays."""
    if isinstance(obj, dict):
        if _NDARRAY_TAG in obj and "dtype" in obj and "shape" in obj:
            data = np.asarray(obj[_NDARRAY_TAG], dtype=np.dtype(obj["dtype"]))
            return data.reshape(obj["shape"])
        return {key: from_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(value) for value in obj]
    return obj


def parse_overrides(overrides: Mapping[str, Any], base: Any) -> dict[str, Any]:
    """``--set`` overrides of the dataclass ``base`` as the nested mapping
    :func:`replace_fields` takes.

    A dotted key (``trajectory.n_steps``) becomes a nested section, and
    a string value becomes the Python literal it spells (``"8"`` ->
    ``8``, ``"(1, 0)"`` -> ``(1, 0)``) or stays a string when it spells
    none (``software``).  A value for a str field is its raw text unless
    the text spells a str literal, so JSON text (``spec={"name": ...}``)
    reaches the field as written.  Only ``--set`` values are
    literal-parsed: in spec JSON, ``"300"`` given for a number is a type
    error.
    """
    nested: dict[str, Any] = {}
    for path, value in overrides.items():
        *sections, name = path.split(".")
        node, target = nested, base
        for section in sections:
            node = node.setdefault(section, {})
            target = getattr(target, section, None)
            if not isinstance(node, dict):
                break
        if not isinstance(node, dict) or name in node:
            raise ValueError(f"override {path!r} overlaps another override")
        if isinstance(value, str):
            text = value
            try:
                value = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                pass  # a bare word stays a string (engine=software)
            if isinstance(getattr(target, name, None), str) and not isinstance(
                value, str
            ):
                value = text
        node[name] = value
    return nested


def replace_fields(
    base: Any, values: Mapping[str, Any], label: str, prefix: str = ""
) -> Any:
    """``base``, a frozen dataclass, with the fields ``values`` names set.

    A section (a dataclass-valued field) takes a mapping of its own
    fields, so one walk serves nested spec JSON and nested ``--set``
    paths alike; the frozen dataclasses are rebuilt from the leaf out.
    Each value is coerced by :func:`_coerce_field` against the field's
    declared default.  ``label`` names the config in errors
    (``"config"``, ``"scenario spec"``).

    Raises:
        ValueError: unknown field(s) (with a did-you-mean hint), a
            section given a value, or a value of the wrong type.
    """
    options = [f.name for f in dataclasses.fields(base)]
    unknown = [name for name in values if name not in options]
    if unknown:
        guesses = [
            repr(match)
            for name in unknown
            for match in difflib.get_close_matches(name, options, n=1, cutoff=0.5)
        ]
        hint = f" (did you mean {', '.join(guesses)}?)" if guesses else ""
        where = f" in {prefix!r}" if prefix else ""
        raise ValueError(
            f"unknown {label} field(s) {unknown}{where}{hint}; "
            f"options: {sorted(options)}"
        )
    defaults = type(base)()
    changes = {}
    for name, value in values.items():
        path = f"{prefix}.{name}" if prefix else name
        current = getattr(base, name)
        if not dataclasses.is_dataclass(current):
            changes[name] = _coerce_field(
                getattr(defaults, name), value, label, path
            )
        elif isinstance(value, Mapping):
            changes[name] = replace_fields(current, value, label, path)
        else:
            raise ValueError(
                f"{label} field {path!r} is a section, not a value; set "
                f"one of its fields: "
                f"{sorted(f.name for f in dataclasses.fields(current))}"
            )
    return dataclasses.replace(base, **changes)


def _coerce_field(default: Any, value: Any, label: str, path: str) -> Any:
    """``value`` as a field whose declared default is ``default``.

    bool, int and str must match exactly (a bool is never an int); a
    float field takes an int or a float and stores a float; a tuple
    field takes a list or tuple and coerces each item against the
    default's first item (str for an empty default); a ``None`` default
    (``init.z_range``) takes None or a pair of floats.
    """
    if default is None:
        if value is None:
            return None
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(
                f"{label} field {path!r} expects None or a 2-tuple, "
                f"got {value!r}"
            )
        default = (0.0, 0.0)
    if isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            item = default[0] if default else ""
            return tuple(
                _coerce_field(item, element, label, f"{path}[{index}]")
                for index, element in enumerate(value)
            )
    elif isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    elif type(value) is type(default):
        return value
    raise ValueError(
        f"{label} field {path!r} expects {type(default).__name__}, "
        f"got {value!r}"
    )


_NONFINITE_TAG = "__nonfinite__"
_NONFINITE_ENCODE = {float("inf"): "inf", float("-inf"): "-inf"}
_NONFINITE_DECODE = {
    "nan": float("nan"),
    "inf": float("inf"),
    "-inf": float("-inf"),
}


def sanitize_nonfinite(obj: Any) -> Any:
    """Replace non-finite floats in a jsonable tree with tagged sentinels.

    Operates on the output of :func:`to_jsonable` (plain dicts / lists /
    scalars); each ``nan`` / ``inf`` / ``-inf`` float becomes
    ``{"__nonfinite__": "nan"|"inf"|"-inf"}`` so the tree serialises as
    strictly valid JSON (``json.dumps(..., allow_nan=False)``).
    """
    if isinstance(obj, float) and not np.isfinite(obj):
        tag = "nan" if np.isnan(obj) else _NONFINITE_ENCODE[obj]
        return {_NONFINITE_TAG: tag}
    if isinstance(obj, dict):
        return {key: sanitize_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [sanitize_nonfinite(value) for value in obj]
    return obj


def restore_nonfinite(obj: Any) -> Any:
    """Reverse :func:`sanitize_nonfinite`, restoring the tagged floats."""
    if isinstance(obj, dict):
        if set(obj) == {_NONFINITE_TAG}:
            try:
                return _NONFINITE_DECODE[obj[_NONFINITE_TAG]]
            except (KeyError, TypeError):
                raise ValueError(
                    f"unknown non-finite tag {obj[_NONFINITE_TAG]!r}"
                ) from None
        return {key: restore_nonfinite(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [restore_nonfinite(value) for value in obj]
    return obj


def _fast_default(obj: Any) -> Any:
    """``default`` hook for the C encoder: :func:`to_jsonable` per object.

    Raises ``TypeError`` for values :func:`to_jsonable` leaves in a form
    ``json`` cannot write (arrays and numpy scalars that do not become
    plain ``bool`` / ``int`` / ``float``), which sends the payload down
    :func:`strict_dumps`'s walking path so it fails (or succeeds) exactly
    as that path does.
    """
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind not in "biuf" or obj.dtype.itemsize > 8:
            raise TypeError(f"array of dtype {obj.dtype} takes the slow path")
    elif isinstance(obj, np.generic) and not isinstance(
        obj.item(), (bool, int, float)
    ):
        raise TypeError(f"{type(obj).__name__} takes the slow path")
    return to_jsonable(obj)


# Non-str keys the encoder spells differently from ``str(key)``
# (``True`` -> "true", ``None`` -> "null"); a payload whose text holds
# one of these keys is re-encoded by the walking path.  An escaped quote
# inside a string value can never produce the pattern.
_JSON_ONLY_KEYS = tuple(f'"{word}": ' for word in ("true", "false", "null"))


def strict_dumps(obj: Any, indent: int | None = None) -> str:
    """Strictly valid JSON text for ``obj`` (wire format).

    The text is what ``json.dumps(sanitize_nonfinite(to_jsonable(obj)),
    allow_nan=False)`` gives: numpy arrays become tagged dicts and
    non-finite floats become tagged sentinels, so the result is
    parseable by any JSON implementation.  The C encoder writes the
    whole tree in one pass (arrays converted by a ``default`` hook);
    only a payload holding a non-finite float, or a dict key the encoder
    would spell differently, takes the walking path.
    """
    try:
        text = json.dumps(
            obj, indent=indent, allow_nan=False, default=_fast_default
        )
    except (ValueError, TypeError):
        pass
    else:
        if not any(key in text for key in _JSON_ONLY_KEYS):
            return text
    return json.dumps(
        sanitize_nonfinite(to_jsonable(obj)), indent=indent, allow_nan=False
    )


def _restore_object(obj: dict) -> Any:
    """``object_hook`` of :func:`strict_loads`: one dict at a time."""
    if len(obj) == 1 and _NONFINITE_TAG in obj:
        try:
            return _NONFINITE_DECODE[obj[_NONFINITE_TAG]]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown non-finite tag {obj[_NONFINITE_TAG]!r}"
            ) from None
    return obj


def strict_loads(text: str) -> Any:
    """Parse :func:`strict_dumps` output, restoring non-finite floats.

    Equal to ``restore_nonfinite(json.loads(text))``; the sentinels are
    restored by an ``object_hook`` as each dict is parsed, so lists are
    never walked.  Numpy-array tags are left in jsonable form for the
    caller's ``from_dict`` / :func:`from_jsonable` to restore.
    """
    return json.loads(text, object_hook=_restore_object)


def emit_json(payload: Any, path: str | Path | None = None) -> None:
    """Write a ``repro`` report as indented :func:`strict_dumps` text to
    ``path`` (parent directories created), or to stdout without one."""
    text = strict_dumps(payload, indent=2)
    if path is None:
        print(text)
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")


def _optional_array(value: Any) -> np.ndarray | None:
    if value is None:
        return None
    return np.asarray(value)


@dataclass
class InferenceResult:
    """One inference through a registered substrate.

    Attributes:
        substrate: registered substrate name (e.g. ``"cim-ordered"``).
        workload: ``"mc-dropout"`` or ``"localization"``.
        mean: primary estimate -- (B, out) predictive mean for MC-Dropout,
            (T, 4) posterior-mean states for localization.
        variance: (B, out) predictive variance, or None when the workload
            does not produce one.
        samples: raw per-iteration outputs when available.
        ops_executed: operations the substrate actually performed.
        ops_naive: operations a reuse-free, mask-oblivious engine would
            perform (None when the notion does not apply).
        energy_j: total energy charged to the run.
        energy_breakdown_j: per-operation energy split.
        extras: workload-specific scalars/arrays (errors, mask order, ...).
    """

    substrate: str
    workload: str
    mean: np.ndarray
    variance: np.ndarray | None = None
    samples: np.ndarray | None = None
    ops_executed: int | None = None
    ops_naive: int | None = None
    energy_j: float = 0.0
    energy_breakdown_j: dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    @property
    def reuse_savings(self) -> float:
        """Fraction of naive work avoided (0 when unknown)."""
        if not self.ops_naive or self.ops_executed is None:
            return 0.0
        return 1.0 - self.ops_executed / self.ops_naive

    def to_dict(self) -> dict:
        return to_jsonable(dataclasses.asdict(self))

    def to_json(self, indent: int | None = None) -> str:
        # repro: ignore[DET006] Python-only round-trip; NaN tokens parse back
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "InferenceResult":
        data = from_jsonable(payload)
        return cls(
            substrate=data["substrate"],
            workload=data["workload"],
            mean=np.asarray(data["mean"]),
            variance=_optional_array(data.get("variance")),
            samples=_optional_array(data.get("samples")),
            ops_executed=data.get("ops_executed"),
            ops_naive=data.get("ops_naive"),
            energy_j=float(data.get("energy_j", 0.0)),
            energy_breakdown_j=data.get("energy_breakdown_j", {}),
            extras=data.get("extras", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "InferenceResult":
        return cls.from_dict(json.loads(text))


@dataclass
class BatchResult:
    """One batched inference (``session.run_batch``) on a substrate.

    Holds one :class:`InferenceResult` per batch item plus batch-level
    accounting that has no per-item owner (e.g. the hardware RNG energy
    of drawing the shared mask streams).  Each item is bit-for-bit what a
    standalone ``session.run`` with the same pinned masks and per-item
    noise generator would produce, so any cell of a large batch can be
    reproduced in isolation.

    Attributes:
        substrate: registered substrate name.
        workload: ``"mc-dropout"`` or ``"localization"``.
        results: per-item inference results, in input order.
        mask_generation_energy_j: energy spent drawing the shared mask
            streams (amortised over the whole batch, 0 for software RNG).
        extras: batch-level metadata (item count, iteration count, ...).
    """

    substrate: str
    workload: str
    results: list[InferenceResult]
    mask_generation_energy_j: float = 0.0
    extras: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[InferenceResult]:
        return iter(self.results)

    def __getitem__(self, index: int) -> InferenceResult:
        return self.results[index]

    @property
    def total_energy_j(self) -> float:
        """Batch energy: per-item totals plus shared mask generation."""
        return (
            sum(result.energy_j for result in self.results)
            + self.mask_generation_energy_j
        )

    def to_dict(self) -> dict:
        return {
            "substrate": self.substrate,
            "workload": self.workload,
            "results": [result.to_dict() for result in self.results],
            "mask_generation_energy_j": self.mask_generation_energy_j,
            "extras": to_jsonable(self.extras),
        }

    def to_json(self, indent: int | None = None) -> str:
        # repro: ignore[DET006] Python-only round-trip; NaN tokens parse back
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "BatchResult":
        return cls(
            substrate=payload["substrate"],
            workload=payload["workload"],
            results=[
                InferenceResult.from_dict(entry)
                for entry in payload.get("results", [])
            ],
            mask_generation_energy_j=float(
                payload.get("mask_generation_energy_j", 0.0)
            ),
            extras=from_jsonable(payload.get("extras", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "BatchResult":
        return cls.from_dict(json.loads(text))


@dataclass
class ExperimentResult:
    """One experiment execution through the registry.

    Attributes:
        experiment_id: registry id (e.g. ``"E4"``).
        title: human-readable experiment title.
        seed: the seed the run was executed with.
        substrate: substrate override used, or None for the experiment's
            built-in default(s).
        config: resolved typed config as a plain dict.
        metrics: the experiment's result payload (JSON-safe).
        runtime_s: wall-clock execution time.
        version: package version that produced the result.
    """

    experiment_id: str
    title: str
    seed: int
    substrate: str | None
    config: dict
    metrics: dict
    runtime_s: float
    version: str = __version__

    def to_dict(self) -> dict:
        return to_jsonable(dataclasses.asdict(self))

    def to_json(self, indent: int | None = None) -> str:
        # repro: ignore[DET006] Python-only round-trip; NaN tokens parse back
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentResult":
        data = from_jsonable(payload)
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            seed=int(data["seed"]),
            substrate=data.get("substrate"),
            config=data.get("config", {}),
            metrics=data.get("metrics", {}),
            runtime_s=float(data.get("runtime_s", 0.0)),
            version=data.get("version", __version__),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentResult":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write the result as pretty-printed JSON; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json(indent=2) + "\n")
        return path


__all__ = [
    "InferenceResult",
    "BatchResult",
    "ExperimentResult",
    "config_hash",
    "to_jsonable",
    "from_jsonable",
    "parse_overrides",
    "replace_fields",
    "sanitize_nonfinite",
    "restore_nonfinite",
    "strict_dumps",
    "strict_loads",
    "emit_json",
]
